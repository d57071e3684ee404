"""Simulated-annealing stitcher (RapidWright's global macro placer).

Places every pre-implemented block instance on the device, relocating each
only to x-positions whose column-kind pattern matches its footprint
(paper §IV).  The SA cost is inter-block half-perimeter wirelength plus a
penalty per unplaced block; overlapping candidates are *illegal moves*,
which the paper ties directly to footprint irregularity: ragged skylines
collide more, slowing convergence and inflating the final cost (§VIII:
the estimator's tighter, more rectangular footprints converge 1.37x
faster with 40% lower cost than constant CF = 1.68).

The geometry/cost primitives live in :mod:`repro.place_kernel`; this
module is the annealing driver around them.  For a fixed seed the
bitmask kernel produces the placements, costs and history of the
reference kernel in ``tests/kernel_oracle.py`` — enforced by
``tests/test_stitcher_equivalence.py`` and pinned by the golden costs in
``tests/test_golden_costs.py``.  The same kernel also powers the GA
placer (:mod:`repro.flow.evolve`), which is what makes SA-vs-GA costs
directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.device.grid import DeviceGrid
from repro.flow.blockdesign import BlockDesign
from repro.obs.tracer import NullTracer, Tracer, current_tracer
from repro.place.shapes import Footprint
from repro.place_kernel.problem import PlacementProblem
from repro.place_kernel.result import StitchResult, StitchStats, finish
from repro.place_kernel.uniform import UniformBuffer

__all__ = ["SAParams", "StitchResult", "StitchStats", "stitch"]


@dataclass(frozen=True)
class SAParams:
    """Annealing schedule and move mix."""

    max_iters: int = 60000
    steps_per_temp: int = 250
    alpha: float = 0.95
    patience: int = 6000
    #: Cost charged per CLB of unplaced block area (drives the placer to
    #: place everything it can before polishing wirelength).
    unplaced_weight: float = 40.0
    #: Probability of attempting to place an unplaced block per move.
    p_place: float = 0.15
    #: Probability of a same-module swap per move.
    p_swap: float = 0.15
    seed: int = 0


def stitch(
    design: BlockDesign,
    footprints: dict[str, Footprint],
    grid: DeviceGrid,
    params: SAParams | None = None,
    *,
    initial_placements: Mapping[str, tuple[int, int] | None] | None = None,
    tracer: Tracer | NullTracer | None = None,
) -> StitchResult:
    """Place all instances of ``design`` on ``grid``.

    Parameters
    ----------
    design:
        The block design (instances + connectivity).
    footprints:
        Per *module* footprint from pre-implementation; every instance of
        a module reuses the same relocatable footprint.
    grid:
        Target device.
    params:
        Annealing parameters.
    initial_placements:
        Optional warm start: anchor per instance name (``None`` entries
        and missing names stay unplaced).  Anchors are applied in
        instance order; an anchor that no longer fits (or overlaps an
        earlier one) leaves that instance unplaced rather than failing.
        Without it the anneal starts from the greedy tallest-first
        packing, exactly as before.
    tracer:
        Where the run's ``stitch`` span tree is recorded (the phase
        times live only there); defaults to the ambient tracer.  An
        untraced run records nothing.

    Returns
    -------
    StitchResult
        Placement, cost and convergence metrics, plus :class:`StitchStats`
        instrumentation.
    """
    params = params or SAParams()
    tr = tracer if tracer is not None else current_tracer()

    # The four phase spans tile the root span: every statement between
    # root entry and exit lives inside exactly one phase, so the phase
    # durations sum to the run's wall time (pinned by
    # tests/test_stitcher.py::test_phase_timings_tile_wall_time).
    with tr.span("stitch", seed=params.seed) as sp_root:
        with tr.span("stitch.setup") as sp_setup:
            problem = PlacementProblem.from_design(design, footprints, grid)
            names = problem.names
            st = problem.make_kernel(params.unplaced_weight)
            swappable = problem.swappable
            edges = problem.edges

        with tr.span("stitch.initial") as sp_initial:
            if initial_placements is None:
                st.greedy_initial()
            else:
                st.load_placements(names, initial_placements)
            cost = st.total_cost()
            best = cost
            improvements: list[tuple[int, float]] = [(0, best)]
            last_improve = 0
            # Initial temperature: accept ~half of typical uphill deltas.
            temp = max(1.0, 0.05 * cost / max(1, len(edges)))
            u = UniformBuffer(
                np.random.default_rng(params.seed),
                block=max(256, min(8192, 4 * params.steps_per_temp)),
            )
            # Placed/unplaced membership only changes on successful place
            # moves, so the candidate lists are maintained incrementally.
            placed_list = [i for i in range(st.n) if st.pos[i] is not None]
            unplaced_list = [i for i in range(st.n) if st.pos[i] is None]

        with tr.span("stitch.anneal") as sp_anneal:
            temp_trace: list[tuple[int, float]] = []
            it = 0
            while it < params.max_iters:
                steps = min(params.steps_per_temp, params.max_iters - it)
                cost, best, events = st.run_batch(
                    swappable, placed_list, unplaced_list,
                    steps, temp, params.p_place, params.p_swap, u, cost, best,
                )
                for off, c in events:
                    improvements.append((it + off, c))
                if events:
                    last_improve = it + events[-1][0]
                it += steps
                temp_trace.append((it, temp))
                temp *= params.alpha
                if it - last_improve > params.patience:
                    break

        with tr.span("stitch.fill") as sp_fill:
            # The fill phase also extracts the result, so the phases
            # keep tiling the run.
            res = finish(
                st, improvements, it,
                seed=params.seed, temperature_trace=temp_trace,
            )

        # Move-mix counters mirror StitchStats exactly; attrs record the
        # run's deterministic outcome for `repro trace summarize`.
        stats = res.stats
        sp_anneal.incr("iterations", it)
        sp_anneal.incr("move_attempts", stats.move_attempts)
        sp_anneal.incr("place_attempts", stats.place_attempts)
        sp_anneal.incr("swap_attempts", stats.swap_attempts)
        sp_anneal.incr("move_accepts", stats.move_accepts)
        sp_anneal.incr("place_accepts", stats.place_accepts)
        sp_anneal.incr("swap_accepts", stats.swap_accepts)
        sp_anneal.incr("illegal_moves", stats.illegal_moves)
        sp_initial.incr("n_placed_initial", len(placed_list))
        sp_setup.incr("n_instances", st.n)
        sp_setup.incr("n_edges", len(edges))
        sp_fill.incr("n_placed", res.n_placed)
        sp_root.set_attr("n_placed", res.n_placed)
        sp_root.set_attr("n_unplaced", res.n_unplaced)
        sp_root.set_attr("final_cost", res.final_cost)
        sp_root.set_attr("converged_at", res.converged_at)
    return res
