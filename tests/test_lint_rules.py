"""Fixture suite for the ``repro.lint`` rule engine.

Each rule gets a known-bad snippet that must fire and a known-good
snippet that must stay quiet; suppression parsing, the JSON schema, the
CLI surface and the self-application gate (``repro lint src/`` is
clean) are covered at the end.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.cli import main
from repro.lint import (
    Violation,
    all_rules,
    lint_paths,
    lint_source,
    render,
    scan_suppressions,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def check(source: str, **kwargs) -> list[Violation]:
    """Lint a dedented snippet; return its violations."""
    return lint_source(textwrap.dedent(source), path="snippet.py", **kwargs).violations


def rule_hits(source: str, rule_id: str) -> list[Violation]:
    return [v for v in check(source) if v.rule == rule_id]


# --------------------------------------------------------------------- DET001


def test_det001_fires_on_module_level_random():
    bad = """
        import random
        def jitter():
            return random.random() + random.randint(0, 3)
    """
    hits = rule_hits(bad, "DET001")
    assert len(hits) == 2
    assert "random.random" in hits[0].message


def test_det001_fires_on_from_import():
    bad = """
        from random import shuffle
        def mix(items):
            shuffle(items)
    """
    assert len(rule_hits(bad, "DET001")) == 1


def test_det001_quiet_on_threaded_generator():
    good = """
        import numpy as np
        def jitter(rng: np.random.Generator) -> float:
            return float(rng.random())
    """
    assert rule_hits(good, "DET001") == []


def test_det001_quiet_on_explicit_instance():
    good = """
        import random
        def make(seed):
            return random.Random(seed)
    """
    assert rule_hits(good, "DET001") == []


# --------------------------------------------------------------------- DET002


def test_det002_fires_on_legacy_numpy_rng():
    bad = """
        import numpy as np
        def noise(n):
            np.random.seed(0)
            return np.random.rand(n)
    """
    hits = rule_hits(bad, "DET002")
    assert len(hits) == 2


def test_det002_fires_through_import_alias():
    bad = """
        from numpy import random as npr
        x = npr.randint(0, 5)
    """
    assert len(rule_hits(bad, "DET002")) == 1


def test_det002_quiet_on_default_rng():
    good = """
        import numpy as np
        rng = np.random.default_rng(42)
        x = rng.normal(size=3)
        seq = np.random.SeedSequence(7)
    """
    assert rule_hits(good, "DET002") == []


# --------------------------------------------------------------------- DET003


def test_det003_fires_on_time_time_and_argless_now():
    bad = """
        import time
        from datetime import datetime
        def stamp():
            return time.time(), datetime.now(), datetime.utcnow()
    """
    hits = rule_hits(bad, "DET003")
    assert len(hits) == 3


def test_det003_quiet_on_perf_counter_and_tz_aware_now():
    good = """
        import time
        from datetime import datetime, timezone
        def dur():
            t0 = time.perf_counter()
            return time.perf_counter() - t0, datetime.now(timezone.utc)
    """
    assert rule_hits(good, "DET003") == []


# --------------------------------------------------------------------- DET004


def test_det004_fires_on_set_loop_accumulating_floats():
    bad = """
        def total(costs):
            out = 0.0
            for name in {"b", "a", "c"}:
                out += costs[name]
            return out
    """
    assert len(rule_hits(bad, "DET004")) == 1


def test_det004_fires_on_set_call_and_assigned_set():
    bad = """
        def collect(names, costs):
            seen = set(names)
            out = []
            for n in seen:
                out.append(costs[n])
            return out
    """
    assert len(rule_hits(bad, "DET004")) == 1


def test_det004_fires_on_list_built_from_set():
    bad = """
        def order(s):
            return [x * 2 for x in set(s)]
    """
    assert len(rule_hits(bad, "DET004")) == 1


def test_det004_quiet_with_sorted():
    good = """
        def total(costs, names):
            out = 0.0
            for name in sorted(set(names)):
                out += costs[name]
            return [x for x in sorted({"a", "b"})]
    """
    assert rule_hits(good, "DET004") == []


def test_det004_quiet_on_order_free_consumption():
    good = """
        def info(s):
            biggest = max(x for x in set(s))
            other = {x + 1 for x in set(s)}
            for name in set(s):
                check(name)
            return biggest, other
    """
    assert rule_hits(good, "DET004") == []


def test_det004_quiet_on_dict_iteration():
    # CPython dicts are insertion-ordered; plain dict loops are exempt.
    good = """
        def total(costs: dict) -> float:
            out = 0.0
            for name, c in costs.items():
                out += c
            return out
    """
    assert rule_hits(good, "DET004") == []


# --------------------------------------------------------------------- DET005


def test_det005_fires_on_unsorted_listings():
    bad = """
        import os, glob
        from pathlib import Path
        def files(d):
            a = os.listdir(d)
            b = glob.glob(d + "/*.py")
            c = [p for p in Path(d).iterdir()]
            return a, b, c
    """
    assert len(rule_hits(bad, "DET005")) == 3


def test_det005_quiet_when_sorted_or_unordered_sink():
    good = """
        import os
        from pathlib import Path
        def files(d):
            a = sorted(os.listdir(d))
            b = sorted(q for q in Path(d).rglob("*.py") if q.is_file())
            c = set(Path(d).glob("*.pkl"))
            return a, b, c
    """
    assert rule_hits(good, "DET005") == []


# --------------------------------------------------------------------- PAR001


def test_par001_fires_on_global_mutating_worker():
    stdlib = """
        from concurrent.futures import ProcessPoolExecutor
        RESULTS = []
        def work(x):
            RESULTS.append(x * 2)
        def run(items):
            with ProcessPoolExecutor() as pool:
                pool.map(work, items)
    """
    fanout = """
        from repro.flow.fanout import FanOut
        RESULTS = []
        def work(x):
            RESULTS.append(x * 2)
        def run(items):
            with FanOut(2, len(items)) as fan:
                fan.run(work, items)
    """
    for bad in (stdlib, fanout):
        hits = rule_hits(bad, "PAR001")
        assert len(hits) == 1, bad
        assert "RESULTS" in hits[0].message


def test_par001_fires_on_global_statement():
    bad = """
        from concurrent.futures import ProcessPoolExecutor
        COUNT = 0
        def work(x):
            global COUNT
            COUNT = COUNT + 1
            return x
        def run(items):
            with ProcessPoolExecutor() as pool:
                return list(pool.map(work, items))
    """
    assert len(rule_hits(bad, "PAR001")) == 1


def test_par001_quiet_on_pure_worker():
    good = """
        from concurrent.futures import ProcessPoolExecutor
        def work(x):
            out = []
            out.append(x * 2)
            return out
        def run(items):
            with ProcessPoolExecutor() as pool:
                return list(pool.map(work, items))
    """
    assert rule_hits(good, "PAR001") == []


# --------------------------------------------------------------------- PAR002


def test_par002_fires_on_lambda_and_nested_def():
    stdlib = """
        from concurrent.futures import ProcessPoolExecutor
        def run(items):
            def local(x):
                return x + 1
            with ProcessPoolExecutor() as pool:
                a = list(pool.map(lambda x: x * 2, items))
                b = list(pool.map(local, items))
            return a, b
    """
    fanout = """
        from repro.flow.fanout import FanOut
        def run(items):
            def local(x):
                return x + 1
            with FanOut(2, len(items)) as fan:
                a = fan.run(lambda x: x * 2, items)
                b = fan.run(local, items)
            return a, b
    """
    for bad in (stdlib, fanout):
        assert len(rule_hits(bad, "PAR002")) == 2, bad


def test_par002_quiet_on_module_level_worker():
    good = """
        from concurrent.futures import ProcessPoolExecutor
        def _work(x):
            return x * 2
        def run(items):
            with ProcessPoolExecutor() as pool:
                return list(pool.map(_work, items))
    """
    assert rule_hits(good, "PAR002") == []


# --------------------------------------------------------------------- PAR003


def test_par003_fires_on_as_completed():
    bad = """
        from concurrent.futures import ProcessPoolExecutor, as_completed
        def run(f, items):
            out = []
            with ProcessPoolExecutor() as pool:
                futs = [pool.submit(f, x) for x in items]
                for fut in as_completed(futs):
                    out.append(fut.result())
            return out
    """
    assert len(rule_hits(bad, "PAR003")) == 1


def test_par003_quiet_on_submission_order():
    good = """
        from concurrent.futures import ProcessPoolExecutor
        def run(f, items):
            with ProcessPoolExecutor() as pool:
                futs = [pool.submit(f, x) for x in items]
                return [fut.result() for fut in futs]
    """
    assert rule_hits(good, "PAR003") == []


# --------------------------------------------------------------------- OBS001


def test_obs001_fires_on_unmanaged_span():
    bad = """
        def stage(tracer):
            sp = tracer.span("stage")
            work()
            sp.incr("n", 1)
    """
    assert len(rule_hits(bad, "OBS001")) == 1


def test_obs001_quiet_on_with_and_assign_then_with():
    good = """
        def stage(tracer, maybe):
            with tracer.span("direct") as sp:
                sp.incr("n", 1)
            span = tracer.span("cond") if maybe else None
            if span is None:
                return
            with span as sp:
                sp.incr("n", 1)
    """
    assert rule_hits(good, "OBS001") == []


def test_obs001_quiet_on_factory_return():
    good = """
        def make_span(tracer):
            return tracer.span("delegated")
    """
    assert rule_hits(good, "OBS001") == []


# --------------------------------------------------------------------- OBS002


def test_obs002_fires_on_graft_without_pool():
    bad = """
        def merge(tracer, trace):
            tracer.graft(trace)
    """
    assert len(rule_hits(bad, "OBS002")) == 1


def test_obs002_quiet_in_pool_module():
    stdlib = """
        from concurrent.futures import ProcessPoolExecutor
        def run(tracer, jobs):
            with ProcessPoolExecutor() as pool:
                outcomes = list(pool.map(_work, jobs))
            for _result, trace in outcomes:
                tracer.graft(trace)
            return outcomes
        def _work(job):
            return job, None
    """
    fanout = """
        from repro.flow.fanout import FanOut
        def run(tracer, jobs):
            with FanOut(2, len(jobs)) as fan:
                outcomes = fan.run(_work, jobs)
            for _result, trace in outcomes:
                tracer.graft(trace)
            return outcomes
        def _work(job):
            return job, None
    """
    for good in (stdlib, fanout):
        assert rule_hits(good, "OBS002") == [], good


# --------------------------------------------------------- rule pack contract


def test_every_rule_has_metadata_and_examples():
    rules = all_rules()
    assert len(rules) == 10
    families = {r.meta.family for r in rules}
    assert families == {"DET", "PAR", "OBS"}
    for rule in rules:
        m = rule.meta
        assert m.id.startswith(m.family)
        for field in ("summary", "rationale", "fix_hint", "example_bad",
                      "example_good"):
            assert getattr(m, field), f"{m.id} missing {field}"


def test_every_rule_example_pair_is_self_consistent():
    """The documented bad example fires its own rule; the good one doesn't."""
    for rule in all_rules():
        m = rule.meta
        bad = [v for v in check(m.example_bad) if v.rule == m.id]
        good = [v for v in check(m.example_good) if v.rule == m.id]
        assert bad, f"{m.id} example_bad does not fire"
        assert good == [], f"{m.id} example_good fires: {good}"


# ------------------------------------------------------------- suppressions


def test_suppression_silences_violation_with_reason():
    src = """
        import time
        t0 = time.time()  # repro: noqa[DET003] CLI banner timestamp, not used in results
    """
    result = lint_source(textwrap.dedent(src), path="s.py")
    assert result.violations == []
    assert len(result.suppressed) == 1
    assert result.suppressed[0].rule == "DET003"


def test_suppression_without_reason_is_rejected():
    src = """
        import time
        t0 = time.time()  # repro: noqa[DET003]
    """
    rules_fired = {v.rule for v in check(src)}
    # The reason-less marker is itself a violation and suppresses nothing.
    assert rules_fired == {"SUP001", "DET003"}


def test_suppression_with_malformed_id_is_rejected():
    src = """
        x = 1  # repro: noqa[notarule] because
    """
    assert {v.rule for v in check(src)} == {"SUP001"}


def test_suppression_missing_bracket_is_rejected():
    src = """
        x = 1  # repro: noqa all of it
    """
    assert {v.rule for v in check(src)} == {"SUP001"}


def test_multi_id_suppression_covers_both_rules():
    src = """
        import time, random
        x = time.time(); y = random.random()  # repro: noqa[DET003,DET001] fixture exercising both hazards
    """
    result = lint_source(textwrap.dedent(src), path="s.py")
    assert result.violations == []
    assert {v.rule for v in result.suppressed} == {"DET001", "DET003"}


def test_unused_suppression_is_flagged():
    # DET001 silences nothing here; ZZZ999 never was a rule, and FLOW001
    # is a deleted one.  An id that names no rule is stale whatever
    # --select is, as long as SUP002 itself runs.
    for rid in ("DET001", "ZZZ999", "FLOW001"):
        src = f"x = 1  # repro: noqa[{rid}] nothing here draws randomness\n"
        assert {v.rule for v in check(src)} == {"SUP002"}, rid
    for rid in ("ZZZ999", "FLOW001"):
        src = f"x = 1  # repro: noqa[{rid}] nothing here draws randomness\n"
        assert {v.rule for v in check(src, select=["PAR", "SUP"])} == {"SUP002"}
        assert check(src, select=["PAR"]) == []


def test_suppression_inside_string_does_not_suppress():
    """Tokenizer-based scanning: markers in string literals are inert."""
    src = '''
        import time
        MARKER = "# repro: noqa[DET003] not a comment"
        t0 = time.time()
    '''
    # Put the marker string on the same line as the violation: a naive
    # regex-per-line scanner would wrongly silence it.
    src_same_line = (
        "import time\n"
        't0 = time.time(); s = "# repro: noqa[DET003] in a string"\n'
    )
    assert {v.rule for v in check(src)} == {"DET003"}
    fired = lint_source(src_same_line, path="s.py").violations
    assert {v.rule for v in fired} == {"DET003"}


def test_suppression_scanner_parses_reason_text():
    scan = scan_suppressions(
        "x = 1  # repro: noqa[DET001] seeded upstream by stream()\n"
    )
    assert scan.malformed == []
    (sup,) = scan.suppressions
    assert sup.rule_ids == ("DET001",)
    assert sup.reason == "seeded upstream by stream()"


# ------------------------------------------------------------ select/ignore


def test_select_and_ignore_filters():
    src = """
        import time, random
        a = time.time()
        b = random.random()
    """
    only_det003 = check(src, select=["DET003"])
    assert {v.rule for v in only_det003} == {"DET003"}
    family = check(src, select=["DET"])
    assert {v.rule for v in family} == {"DET001", "DET003"}
    ignored = check(src, ignore=["DET003"])
    assert {v.rule for v in ignored} == {"DET001"}


def test_parse_error_is_reported_not_raised():
    result = lint_source("def broken(:\n", path="bad.py")
    assert [v.rule for v in result.violations] == ["LNT001"]


# ------------------------------------------------------------- json schema


def test_json_format_round_trips():
    src = """
        import time
        t0 = time.time()
    """
    result = lint_source(textwrap.dedent(src), path="s.py")
    doc = json.loads(render(result, "json"))
    assert doc["version"] == 4
    assert doc["files_checked"] == 1
    assert doc["statistics"] == {
        "by_rule": {"DET003": 1},
        "files_checked": 1,
        "suppressed": 0,
        "total": 1,
    }
    # Every violation field survives the trip through the document.
    rebuilt = [Violation(**v) for v in doc["violations"]]
    assert rebuilt == result.violations
    assert "trace" not in doc["violations"][0]


def test_github_format_emits_workflow_commands():
    src = "import time\nt0 = time.time()\n"
    result = lint_source(src, path="src/x.py")
    out = render(result, "github")
    assert "::error file=src/x.py,line=2," in out
    assert "title=DET003" in out


# ---------------------------------------------------------------------- CLI


def test_cli_lint_clean_file_exits_zero(tmp_path, capsys):
    f = tmp_path / "clean.py"
    f.write_text("import time\nt0 = time.perf_counter()\n")
    assert main(["lint", str(f)]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_cli_lint_violation_exits_nonzero(tmp_path, capsys):
    f = tmp_path / "dirty.py"
    f.write_text("import time\nt0 = time.time()\n")
    assert main(["lint", str(f)]) == 1
    out = capsys.readouterr().out
    assert "DET003" in out and "fix:" in out


def test_cli_lint_json_and_statistics_file(tmp_path, capsys):
    f = tmp_path / "dirty.py"
    f.write_text("import random\nx = random.random()\n")
    stats_path = tmp_path / "stats.json"
    code = main(
        ["lint", str(f), "--format", "json", "--statistics", str(stats_path)]
    )
    assert code == 1
    stats = json.loads(stats_path.read_text())
    assert stats["by_rule"] == {"DET001": 1}
    assert stats["total"] == 1


def test_cli_lint_select_and_list_rules(tmp_path, capsys):
    f = tmp_path / "dirty.py"
    f.write_text("import time\nt0 = time.time()\n")
    assert main(["lint", str(f), "--select", "PAR"]) == 0
    capsys.readouterr()
    assert main(["lint", "--list-rules"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == [
        "DET001", "DET002", "DET003", "DET004", "DET005",
        "OBS001", "OBS002", "PAR001", "PAR002", "PAR003",
    ]


def test_cli_lint_missing_path_errors(tmp_path, capsys):
    # A mistyped path is a usage error (2), distinct from "violations
    # found" (1), and is reported in one line, not a traceback.
    missing = tmp_path / "nope"
    assert main(["lint", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"repro lint: error: no such file or directory: {missing}\n"
    )


def test_cli_lint_non_python_path_errors(tmp_path, capsys):
    # A path that names neither a directory nor a .py file would
    # otherwise check nothing and pass: it is a usage error too.
    readme = tmp_path / "README.md"
    readme.write_text("# notes\n")
    assert main(["lint", str(readme)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"repro lint: error: not a Python file or directory: {readme}\n"
    )


# ---------------------------------------------------------- self-application


def test_repo_sources_are_lint_clean():
    """The zero-violation gate: src/, benchmarks/ and perfbench/ stay clean."""
    result = lint_paths(
        [REPO_ROOT / "src", REPO_ROOT / "benchmarks", REPO_ROOT / "perfbench"]
    )
    assert result.files_checked > 100
    rendered = render(result, "text")
    assert result.ok, f"repo sources have lint violations:\n{rendered}"


def test_repo_suppressions_all_carry_reasons():
    """Every in-tree suppression states a reason (SUP001 would fire, but
    assert directly so the contract is explicit)."""
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        scan = scan_suppressions(path.read_text(encoding="utf-8"))
        assert scan.malformed == [], f"{path}: malformed suppression"
        for sup in scan.suppressions:
            assert sup.reason, f"{path}:{sup.line}: reason-less suppression"
