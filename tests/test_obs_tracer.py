"""Unit tests for the observability subsystem (repro.obs)."""

import json

import pytest

from repro.obs.export import (
    load_trace,
    save_trace,
    summarize_trace,
    trace_document,
)
from repro.obs.tracer import (
    NULL_TRACER,
    TRACE_VERSION,
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    set_tracer,
    use_tracer,
)


class TestSpan:
    def test_nesting_follows_open_span(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                with tr.span("leaf"):
                    pass
            with tr.span("sibling"):
                pass
        assert len(tr.roots) == 1
        outer = tr.roots[0]
        assert [c.name for c in outer.children] == ["inner", "sibling"]
        assert [c.name for c in outer.children[0].children] == ["leaf"]

    def test_durations_monotonic_and_contained(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        outer = tr.roots[0]
        inner = outer.children[0]
        assert outer.dur_s >= inner.dur_s >= 0.0

    def test_counters_accumulate(self):
        tr = Tracer()
        with tr.span("s") as sp:
            sp.incr("hits")
            sp.incr("hits", 4)
            sp.incr("misses", 0)
        assert sp.counters == {"hits": 5, "misses": 0}

    def test_attrs_via_span_kwargs_and_set_attr(self):
        tr = Tracer()
        with tr.span("s", kernel="fast") as sp:
            sp.set_attr("seed", 3)
        assert sp.attrs == {"kernel": "fast", "seed": 3}

    def test_walk_find_find_all(self):
        tr = Tracer()
        with tr.span("root"):
            with tr.span("leaf"):
                pass
            with tr.span("leaf"):
                pass
        root = tr.roots[0]
        names = [s.name for _d, s in root.walk()]
        assert names == ["root", "leaf", "leaf"]
        assert tr.find("leaf") is root.children[0]
        assert len(tr.find_all("leaf")) == 2
        assert tr.find("missing") is None

    def test_json_round_trip(self):
        tr = Tracer()
        with tr.span("root", kernel="fast") as sp:
            sp.incr("n", 7)
            with tr.span("child"):
                pass
        data = tr.roots[0].to_json_dict()
        back = Span.from_json_dict(data)
        assert back.name == "root"
        assert back.attrs == {"kernel": "fast"}
        assert back.counters == {"n": 7}
        assert [c.name for c in back.children] == ["child"]
        assert back.to_json_dict() == data


class TestTracer:
    def test_graft_under_open_span(self):
        worker = Tracer()
        with worker.span("work") as sp:
            sp.incr("n_runs", 2)
        parent = Tracer()
        with parent.span("root"):
            parent.graft(worker.roots[0].to_json_dict())
        grafted = parent.roots[0].children[0]
        assert grafted.name == "work"
        assert grafted.counters == {"n_runs": 2}

    def test_graft_without_open_span_becomes_root(self):
        parent = Tracer()
        parent.graft({"name": "orphan", "dur_s": 0.1})
        assert [r.name for r in parent.roots] == ["orphan"]

    def test_graft_none_is_ignored(self):
        parent = Tracer()
        parent.graft(None)
        assert parent.roots == []

    def test_to_json_dict_schema(self):
        tr = Tracer()
        with tr.span("a") as sp:
            sp.incr("c", 3)
        doc = tr.to_json_dict()
        assert doc == {
            "version": 2,
            "spans": [{"name": "a", "dur_s": sp.dur_s, "counters": {"c": 3}}],
        }
        assert TRACE_VERSION == 2

    def test_exception_still_closes_span(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("boom"):
                raise RuntimeError("x")
        assert tr.roots[0].dur_s >= 0.0
        assert tr._stack == []


class TestNullTracer:
    def test_disabled_and_shared_noop_span(self):
        assert NULL_TRACER.enabled is False
        s1 = NULL_TRACER.span("a", k=1)
        s2 = NULL_TRACER.span("b")
        assert s1 is s2  # one shared instance: no allocation per span
        with s1 as sp:
            sp.incr("n")
            sp.set_attr("k", 2)
        NULL_TRACER.graft({"name": "x"})  # swallowed

    def test_fresh_null_tracer_is_disabled(self):
        assert NullTracer().enabled is False


class TestAmbient:
    def test_default_is_null(self):
        assert current_tracer() is NULL_TRACER

    def test_use_tracer_scopes_and_restores(self):
        tr = Tracer()
        with use_tracer(tr) as active:
            assert active is tr
            assert current_tracer() is tr
        assert current_tracer() is NULL_TRACER

    def test_set_tracer_returns_previous(self):
        tr = Tracer()
        prev = set_tracer(tr)
        try:
            assert current_tracer() is tr
        finally:
            set_tracer(prev)
        assert current_tracer() is prev


def _sample_tracer() -> Tracer:
    tr = Tracer()
    with tr.span("root", kernel="fast") as sp:
        sp.incr("iterations", 100)
        with tr.span("root.child"):
            pass
        with tr.span("root.child"):
            pass
    return tr


class TestExport:
    def test_trace_document_passthrough_and_null(self):
        doc = {"version": 2, "spans": []}
        assert trace_document(doc) is doc
        assert trace_document(NULL_TRACER) == doc

    def test_json_round_trip(self, tmp_path):
        tr = _sample_tracer()
        path = save_trace(tr, tmp_path / "t.json")
        doc = load_trace(path)
        assert doc == tr.to_json_dict()
        # plain JSON on disk
        raw = json.loads(path.read_text())
        assert raw["version"] == 2
        assert "metrics" not in raw

    def test_jsonl_round_trip(self, tmp_path):
        tr = _sample_tracer()
        path = save_trace(tr, tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {"version": 2}
        # one flat record per span, depth-annotated
        depths = [json.loads(line)["depth"] for line in lines[1:]]
        assert depths == [0, 1, 1]
        assert load_trace(path) == tr.to_json_dict()

    def test_jsonl_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_trace(path) == {"version": 2, "spans": []}

    @pytest.mark.parametrize("suffix", [".json", ".jsonl"])
    def test_reads_version_1_with_metrics(self, tmp_path, suffix):
        """A version-1 trace also carried a metrics registry; it still
        loads and summarizes, and the registry is not rendered."""
        spans = [{"name": "root", "dur_s": 0.5, "counters": {"n": 2},
                  "children": [{"name": "root.child", "dur_s": 0.25}]}]
        metrics = {"counters": {"preimpl.cache.hits": 3}, "gauges": {},
                   "histograms": {}}
        path = tmp_path / f"v1{suffix}"
        if suffix == ".json":
            path.write_text(json.dumps(
                {"version": 1, "spans": spans, "metrics": metrics}
            ))
        else:
            path.write_text("\n".join(json.dumps(r) for r in (
                {"version": 1, "metrics": metrics},
                {"depth": 0, "name": "root", "dur_s": 0.5, "counters": {"n": 2}},
                {"depth": 1, "name": "root.child", "dur_s": 0.25},
            )) + "\n")
        doc = load_trace(path)
        assert doc["version"] == 1
        assert doc["spans"] == spans
        text = summarize_trace(doc)
        assert "root.child" in text and "n=2" in text
        assert "preimpl.cache.hits" not in text

    def test_summarize_renders_spans_and_metrics(self):
        """Spans with their counters and attrs; no separate registry."""
        text = summarize_trace(_sample_tracer())
        assert "Trace breakdown" in text
        assert "root" in text and "root.child" in text
        assert "100.0" in text  # root is 100% of itself
        assert "iterations=100 [kernel=fast]" in text
        assert "Metrics" not in text

    def test_summarize_indents_children(self):
        text = summarize_trace(_sample_tracer())
        lines = [line for line in text.splitlines() if "root.child" in line]
        assert lines and all(line.startswith("  root.child") for line in lines)
