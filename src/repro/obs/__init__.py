"""Observability: tracing spans and trace export.

* :mod:`repro.obs.tracer` — :class:`Tracer` with nestable ``span()``
  context managers (monotonic timings, per-span counters/attributes),
  the ambient-tracer plumbing and the no-op :data:`NULL_TRACER`;
* :mod:`repro.obs.export` — JSON/JSONL persistence and the rendered
  per-stage breakdown table (``repro trace summarize``).

The flow's hot paths (``stitch``, ``implement_design``,
``generate_dataset``, ``DSEExplorer.evaluate``, ``run_rw_flow``) record
spans into the tracer they are given, else the ambient one
(``use_tracer`` or the CLI's ``--trace-out`` / ``--profile`` flags).
Spans are the one source of time: the stats objects (``StitchStats``,
``FlowStats``, ``GenerationReport``) hold deterministic counts only, and
an untraced call records nothing.
"""

from repro.obs.export import load_trace, save_trace, summarize_trace, trace_document
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "current_tracer",
    "load_trace",
    "save_trace",
    "set_tracer",
    "summarize_trace",
    "trace_document",
    "use_tracer",
]
