"""Order-preserving job fan-out, trace merging and winner selection.

This is the flow's one process pool.  Pre-implementation
(:func:`~repro.flow.preimpl.implement_design`), dataset labeling
(:func:`~repro.dataset.generate.generate_dataset`) and the placer
restarts (:func:`~repro.flow.restarts.place_best`) dispatch through it:

* :func:`fan_out` — run one batch of picklable jobs over worker
  processes (or serially), always returning results in *job order*,
  never completion order, so any ``n_workers`` value produces
  bitwise-identical results;
* :func:`graft_traces` — merge the span trees the workers shipped back
  into the parent's trace, exactly once each;
* :func:`best_result` — the corrected winner selection: the pareto key
  ``(n_unplaced, final_cost)`` that :class:`~repro.dse.explorer.DSEExplorer`
  ranks portfolio placements by, with ties breaking toward the earliest
  entry.  (Selecting on ``final_cost`` alone is wrong: a run that leaves
  blocks unplaced can undercut a fully-placed run on cost alone when the
  unplaced penalty is small relative to the wirelength spread.)
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

from repro.obs.tracer import NullTracer, Tracer
from repro.place_kernel.result import StitchResult, pareto_key

__all__ = ["best_result", "fan_out", "graft_traces"]


def fan_out(
    fn: Callable[[Any], Any], jobs: Sequence[Any], n_workers: int | None
) -> tuple[list[Any], int]:
    """Apply ``fn`` to every job; returns ``(results, workers_used)``.

    Results come back in job order.  The jobs run in a pool of
    ``min(n_workers, len(jobs))`` processes, or serially in-process when
    that is below 2 or the pool fails with :class:`OSError`: when it is
    created (restricted sandboxes), or once dispatching has begun (the
    pool starts its processes on the first ``map``, so that is where a
    refused fork surfaces), in which case the whole batch reruns
    serially.  Results are identical either way because job order, not
    scheduling, defines the merge order.  ``workers_used`` is the pool's
    size, or 1 when the jobs ran serially.
    """
    jobs = list(jobs)
    want = min(int(n_workers or 0), len(jobs))
    if want > 1:
        try:
            pool = ProcessPoolExecutor(max_workers=want)
        except OSError:  # process pools unavailable (restricted sandboxes)
            pass
        else:
            broken = False
            try:
                # map() preserves job order, which winner tiebreaks rely on.
                return list(pool.map(fn, jobs)), want
            except OSError:  # pool died mid-flight: finish serially
                broken = True
            finally:
                pool.shutdown(wait=not broken, cancel_futures=broken)
    return [fn(job) for job in jobs], 1


def graft_traces(
    tracer: Tracer | NullTracer, traces: Sequence[dict | None]
) -> None:
    """Merge worker span trees into ``tracer``, exactly once each.

    Workers record their spans into worker-local tracers and ship the
    serialized trees back with their results; the fan-out site grafts
    them here, in job order, so the parent trace carries every worker's
    phase breakdown regardless of worker count.  ``None`` entries (jobs
    that ran with tracing disabled) are skipped.
    """
    for trace in traces:
        if trace is not None:
            tracer.graft(trace)


def best_result(results: Sequence[StitchResult]) -> StitchResult:
    """The family winner under the shared pareto key.

    Fewest unplaced blocks first, then lowest ``final_cost`` — exactly
    the ordering :class:`~repro.dse.explorer.DSEExplorer` applies across
    its optimizer portfolio.  Ties break toward the earliest entry, which
    combined with :func:`fan_out`'s job-order merge makes the winner
    independent of worker count.
    """
    if not results:
        raise ValueError("results must not be empty")
    best = results[0]
    for res in results[1:]:
        if pareto_key(res) < pareto_key(best):
            best = res
    return best
