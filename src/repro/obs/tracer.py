"""Nestable span tracing with monotonic timings.

The flow's headline claims are flow-*behavior* claims — convergence
speed, tool-run counts, per-stage wall time — so every stage of the
pipeline records a :class:`Span` tree: ``stitch`` opens children
``stitch.setup`` / ``stitch.initial`` / ``stitch.anneal`` /
``stitch.fill``, pre-implementation opens one ``preimpl.module`` span per
cache miss, and so on (the naming convention is documented in
``docs/api.md``).  All timings use :func:`time.perf_counter`, never the
wall clock, so durations are monotonic and immune to clock adjustment.
Spans are the only clock: no result object copies a span duration, so
the time of a stage is read from the trace or not at all.

Design rules:

* **Near-zero overhead when disabled.**  The ambient tracer defaults to
  :data:`NULL_TRACER`, whose ``span()`` returns a shared do-nothing
  context manager — no allocation, no clock read.  An instrumented
  function records into the tracer it is given, else the ambient one;
  an untraced call builds no :class:`Tracer` at all.
* **Process-safe accumulation.**  ``perf_counter`` origins differ across
  processes, so spans store durations, not absolute timestamps.  A pool
  worker records into its own local :class:`Tracer`, ships the span tree
  back as a plain dict (:meth:`Span.to_json_dict`), and the parent
  grafts it into the enclosing span with :meth:`Tracer.graft` — each
  worker span therefore appears exactly once in the parent trace,
  regardless of worker count.
* **Determinism untouched.**  Spans carry counters and attributes that
  are deterministic for a fixed seed; only ``dur_s`` varies run to run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "NULL_TRACER",
    "TRACE_VERSION",
    "NullTracer",
    "Span",
    "Tracer",
    "current_tracer",
    "set_tracer",
    "use_tracer",
]

#: Version of the trace document :meth:`Tracer.to_json_dict` writes.
#: Version 1 also carried a ``metrics`` registry; readers ignore it.
TRACE_VERSION = 2


class Span:
    """One timed stage: duration, attributes, counters and child spans.

    Used as a context manager (via :meth:`Tracer.span`); attributes are
    free-form metadata, counters accumulate integers (move mixes, cache
    hits, tool runs).
    """

    __slots__ = ("name", "dur_s", "attrs", "counters", "children", "_t0", "_tracer")

    def __init__(
        self,
        name: str,
        tracer: "Tracer | None" = None,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.dur_s = 0.0
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}
        self.counters: dict[str, int] = {}
        self.children: list[Span] = []
        self._t0 = 0.0
        self._tracer = tracer

    # ------------------------------------------------------------- recording

    def incr(self, counter: str, n: int = 1) -> None:
        """Add ``n`` to a named counter."""
        self.counters[counter] = self.counters.get(counter, 0) + n

    def set_attr(self, key: str, value: Any) -> None:
        """Set one attribute."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._push(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.dur_s = time.perf_counter() - self._t0
        if self._tracer is not None:
            self._tracer._pop(self)
        return False

    # ------------------------------------------------------------- queries

    def walk(self) -> Iterator[tuple[int, "Span"]]:
        """Depth-first ``(depth, span)`` over this span and its subtree."""
        stack: list[tuple[int, Span]] = [(0, self)]
        while stack:
            depth, span = stack.pop()
            yield depth, span
            for child in reversed(span.children):
                stack.append((depth + 1, child))

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in this subtree (depth-first)."""
        for _depth, span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list["Span"]:
        """Every span named ``name`` in this subtree (depth-first order)."""
        return [s for _d, s in self.walk() if s.name == name]

    # ------------------------------------------------------------- export

    def to_json_dict(self) -> dict:
        """Plain-JSON representation (the trace schema's span object)."""
        out: dict[str, Any] = {"name": self.name, "dur_s": self.dur_s}
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.children:
            out["children"] = [c.to_json_dict() for c in self.children]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "Span":
        """Rebuild a span tree from :meth:`to_json_dict` output."""
        span = cls(str(data["name"]))
        span.dur_s = float(data.get("dur_s", 0.0))
        span.attrs = dict(data.get("attrs", {}))
        span.counters = dict(data.get("counters", {}))
        span.children = [cls.from_json_dict(c) for c in data.get("children", [])]
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, dur_s={self.dur_s:.6f}, "
            f"children={len(self.children)})"
        )


class _NullSpan:
    """The do-nothing span: every operation is a constant-time no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def incr(self, counter: str, n: int = 1) -> None:
        pass

    def set_attr(self, key: str, value: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: hands out one shared no-op span, keeps nothing."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def graft(self, data: dict | None) -> None:
        pass


#: The process-wide default tracer (disabled).
NULL_TRACER = NullTracer()


class Tracer:
    """Collects a forest of spans.

    Spans open with :meth:`span` nest under whatever span is currently
    open (a simple stack), so instrumented library functions compose: a
    ``stitch`` call made inside a ``flow`` span appears as its child.
    """

    enabled = True

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    # ------------------------------------------------------------- recording

    def span(self, name: str, **attrs: Any) -> Span:
        """A new span; nests under the currently open span on ``__enter__``."""
        return Span(name, self, attrs or None)

    def _push(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    def graft(self, data: dict | None) -> None:
        """Attach a serialized span tree (from a pool worker) to the
        currently open span, or as a new root when no span is open.

        The worker measured durations against its own monotonic clock;
        only durations are kept, so the graft is well-defined across
        processes.  ``None`` (a worker that ran without tracing) is
        ignored.
        """
        if data is None:
            return
        span = Span.from_json_dict(data)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)

    # ------------------------------------------------------------- queries

    def walk(self) -> Iterator[tuple[int, Span]]:
        """Depth-first ``(depth, span)`` over every root."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> Span | None:
        """First span named ``name`` across all roots."""
        for root in self.roots:
            hit = root.find(name)
            if hit is not None:
                return hit
        return None

    def find_all(self, name: str) -> list[Span]:
        """Every span named ``name`` across all roots."""
        return [s for root in self.roots for s in root.find_all(name)]

    # ------------------------------------------------------------- export

    def to_json_dict(self) -> dict:
        """The trace schema: ``{"version", "spans"}``."""
        return {
            "version": TRACE_VERSION,
            "spans": [root.to_json_dict() for root in self.roots],
        }


# --------------------------------------------------------------- ambient

_current: Tracer | NullTracer = NULL_TRACER


def current_tracer() -> Tracer | NullTracer:
    """The ambient tracer instrumented functions fall back to.

    Defaults to :data:`NULL_TRACER`; per process (pool workers start
    disabled and record into explicit local tracers instead).
    """
    return _current


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Install ``tracer`` as the ambient tracer; returns the previous one."""
    global _current
    previous = _current
    _current = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer | NullTracer) -> Iterator[Tracer | NullTracer]:
    """Scope the ambient tracer to a ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
