"""Trace persistence and reporting.

One trace document is the JSON dict produced by
:meth:`repro.obs.tracer.Tracer.to_json_dict`::

    {
      "version": 2,
      "spans": [
        {"name": "stitch", "dur_s": 0.41,
         "attrs": {"seed": 0},
         "counters": {"iterations": 20000},
         "children": [{"name": "stitch.anneal", ...}, ...]},
      ]
    }

``save_trace`` writes that document as JSON, or — when the path ends in
``.jsonl`` — as JSON Lines: a ``{"version"}`` header line followed by
one flat span record per line in depth-first order (``depth`` encodes
the nesting), which streams well into log pipelines.  ``load_trace``
reads either format back into the same document shape, and
``summarize_trace`` renders the per-stage breakdown table the CLI's
``--profile`` flag and ``repro trace summarize`` print.  A version-1
document also carried a ``metrics`` registry whose values repeated span
counters; both readers still accept it and ignore that key.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.tracer import TRACE_VERSION, NullTracer, Span, Tracer
from repro.utils.tables import Table

__all__ = ["load_trace", "save_trace", "summarize_trace", "trace_document"]


def trace_document(trace: Tracer | NullTracer | dict) -> dict:
    """Normalize a tracer or an already-exported dict into the schema."""
    if isinstance(trace, dict):
        return trace
    if isinstance(trace, NullTracer):
        return {"version": TRACE_VERSION, "spans": []}
    return trace.to_json_dict()


# ----------------------------------------------------------------- save/load


def _flatten(span_dict: dict, depth: int, out: list[dict]) -> None:
    rec = {"depth": depth}
    rec.update({k: v for k, v in span_dict.items() if k != "children"})
    out.append(rec)
    for child in span_dict.get("children", []):
        _flatten(child, depth + 1, out)


def save_trace(trace: Tracer | NullTracer | dict, path: str | Path) -> Path:
    """Write a trace as JSON, or JSONL when ``path`` ends in ``.jsonl``."""
    path = Path(path)
    doc = trace_document(trace)
    if path.suffix == ".jsonl":
        lines = [json.dumps({"version": doc.get("version", TRACE_VERSION)})]
        flat: list[dict] = []
        for root in doc.get("spans", []):
            _flatten(root, 0, flat)
        lines.extend(json.dumps(rec, sort_keys=True) for rec in flat)
        path.write_text("\n".join(lines) + "\n")
    else:
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _unflatten(records: list[dict]) -> list[dict]:
    """Rebuild the span forest from depth-annotated DFS records."""
    roots: list[dict] = []
    stack: list[tuple[int, dict]] = []
    for rec in records:
        depth = int(rec.get("depth", 0))
        span = {k: v for k, v in rec.items() if k != "depth"}
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if stack:
            stack[-1][1].setdefault("children", []).append(span)
        else:
            roots.append(span)
        stack.append((depth, span))
    return roots


def load_trace(path: str | Path) -> dict:
    """Read a trace written by :func:`save_trace` (JSON or JSONL)."""
    path = Path(path)
    if path.suffix == ".jsonl":
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        if not lines:
            return {"version": TRACE_VERSION, "spans": []}
        header, spans = lines[0], lines[1:]
        return {
            "version": header.get("version", TRACE_VERSION),
            "spans": _unflatten(spans),
        }
    return json.loads(path.read_text())


# ----------------------------------------------------------------- summarize


def _fmt_counters(counters: dict) -> str:
    return " ".join(f"{k}={counters[k]}" for k in sorted(counters))


def summarize_trace(trace: Tracer | NullTracer | dict) -> str:
    """Render the per-stage breakdown table of one trace.

    One row per span in depth-first order; nesting shows as indentation,
    ``% of root`` is relative to the span's root so phase shares read
    directly (the paper-style per-stage breakdown).
    """
    doc = trace_document(trace)
    spans = [Span.from_json_dict(d) for d in doc.get("spans", [])]
    table = Table(
        ["span", "dur (s)", "% of root", "counters / attrs"],
        float_fmt="{:.4f}",
        title="Trace breakdown",
    )
    for root in spans:
        total = root.dur_s or 0.0
        for depth, span in root.walk():
            share = 100.0 * span.dur_s / total if total > 0 else 0.0
            notes = _fmt_counters(span.counters)
            if span.attrs:
                attrs = " ".join(
                    f"{k}={span.attrs[k]}" for k in sorted(span.attrs)
                )
                notes = f"{notes} [{attrs}]" if notes else f"[{attrs}]"
            table.add_row(
                ["  " * depth + span.name, span.dur_s, f"{share:.1f}", notes]
            )
    return table.render()
