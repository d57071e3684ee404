"""Multi-seed placement restarts over any :class:`Placer`.

Stochastic placers are cheap to restart and their final cost varies
with the seed, so the classic quality lever (RapidLayout-style
stochastic placement) is to run several independent seeds and keep the
best run.  :func:`place_best` does that for every placer in
:mod:`repro.flow.placers`, fanning the seeds out over worker processes
through the shared :func:`~repro.flow.fanout.fan_out`.

Winner selection is the shared pareto path
(:func:`~repro.flow.fanout.best_result`): fewest unplaced blocks first,
then lowest ``final_cost`` — the same key
:class:`~repro.dse.explorer.DSEExplorer` ranks portfolio placements by.
Ranking on ``final_cost`` alone (the old behavior) was a bug: a seed
that leaves a block unplaced can undercut a fully-placed seed on cost
alone (``tests/test_stitcher_restarts.py`` pins the regression).

Determinism: the winner depends only on the seed list — results are
collected in seed order and ties break toward the earliest seed — so the
same seeds produce the same :class:`~repro.flow.stitcher.StitchResult`
regardless of ``n_workers`` (enforced by
``tests/test_determinism_cross_process.py``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Sequence

from repro.device.grid import DeviceGrid
from repro.flow.blockdesign import BlockDesign
from repro.flow.fanout import best_result, fan_out, graft_traces
from repro.obs.tracer import NullTracer, Tracer, current_tracer
from repro.place.shapes import Footprint
from repro.place_kernel.protocol import Placer
from repro.place_kernel.result import StitchResult

__all__ = ["place_best"]


def _place_one(
    args: tuple[Placer, BlockDesign, Mapping[str, Footprint], DeviceGrid, bool],
) -> tuple[StitchResult, list[dict]]:
    """Worker entry point (module-level so it pickles).

    When ``want_trace`` is set the seed's span trees are recorded into a
    worker-local tracer and returned alongside the result, so the parent
    can graft every restart's phase breakdown into its own trace exactly
    once regardless of worker count.
    """
    placer, design, footprints, grid, want_trace = args
    tr = Tracer() if want_trace else None
    result = placer.place(design, footprints, grid, tracer=tr)
    return result, [root.to_json_dict() for root in tr.roots] if tr else []


def place_best(
    placer: Placer,
    design: BlockDesign,
    footprints: Mapping[str, Footprint],
    grid: DeviceGrid,
    *,
    n_seeds: int = 4,
    n_workers: int | None = None,
    seeds: Sequence[int] | None = None,
    tracer: Tracer | NullTracer | None = None,
) -> StitchResult:
    """Run ``placer`` over several independent seeds and return the best run.

    Parameters
    ----------
    placer:
        A placer whose ``params`` dataclass carries the seed (every
        placer in :mod:`repro.flow.placers`); ``params.seed`` is the base
        seed of the restart family.  Each restart runs ``placer`` with
        only ``params.seed`` replaced, so an explicit
        ``WarmStartedSAPlacer.gp_params`` keeps one analytic warm start
        for every seed.
    design, footprints, grid:
        As for :meth:`~repro.place_kernel.protocol.Placer.place`.
    n_seeds:
        Number of restarts when ``seeds`` is not given; seed ``k`` of the
        family is ``params.seed + k``.
    n_workers:
        Worker processes to fan the seeds over.  ``None``, 0 or 1 runs
        serially in-process; the winner is identical either way.
    seeds:
        Explicit seed list, overriding ``n_seeds``.
    tracer:
        Where the ``place.restarts`` span is recorded, with each seed's
        span trees as children (merged back from the workers when the
        seeds fan out); defaults to the ambient tracer.  With tracing
        disabled no seed records anything.

    Returns
    -------
    StitchResult
        The pareto-best run — fewest unplaced blocks, then lowest
        ``final_cost`` (the same key ``DSEExplorer`` selects by); ties
        break toward the earliest seed in the list.
        ``result.stats.seed`` records the winning seed.
    """
    if seeds is None:
        if n_seeds < 1:
            raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
        seeds = [placer.params.seed + k for k in range(n_seeds)]
    elif not seeds:
        raise ValueError("seeds must not be empty")
    ambient = tracer if tracer is not None else current_tracer()
    jobs = [
        (replace(placer, params=replace(placer.params, seed=s)), design,
         footprints, grid, ambient.enabled)
        for s in seeds
    ]
    with ambient.span("place.restarts", placer=placer.name,
                      n_seeds=len(jobs)) as sp:
        outcomes, _workers = fan_out(_place_one, jobs, n_workers)
        graft_traces(ambient, [t for _result, traces in outcomes for t in traces])

        best = best_result([result for result, _traces in outcomes])
        sp.set_attr("winner_seed", best.stats.seed if best.stats else None)
        sp.set_attr("best_cost", best.final_cost)
        sp.set_attr("best_unplaced", best.n_unplaced)
    return best
