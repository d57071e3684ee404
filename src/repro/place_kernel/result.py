"""Result and instrumentation types shared by every placement optimizer.

Every placer (the SA stitcher, the GA evolver, parallel tempering and
the analytic placer) ends its run through :func:`finish`, which fills
and reads its kernel into a :class:`StitchResult` carrying a
:class:`StitchStats`, so downstream consumers (congestion maps, DSE,
the CLI) never care which optimizer produced a placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.place_kernel.kernel import PlacementKernel

__all__ = [
    "StitchResult",
    "StitchStats",
    "converge_history",
    "finish",
    "pareto_key",
]


def pareto_key(result: "StitchResult") -> tuple[int, float]:
    """The shared placement-quality ordering: ``(n_unplaced, final_cost)``.

    Fewer unplaced blocks always beats lower cost — a run that leaves a
    block on the floor is structurally worse however cheap its
    wirelength looks.  Used by :class:`~repro.dse.explorer.DSEExplorer`
    across its optimizer portfolio and by
    :func:`~repro.flow.fanout.best_result` for the restart-family
    winner, so every winner-selection path in the flow ranks runs the
    same way.
    """
    return (result.n_unplaced, result.final_cost)


def converge_history(
    history: list[tuple[int, float]] | tuple[tuple[int, float], ...],
    final_cost: float,
    at_op: int,
) -> tuple[tuple[tuple[int, float], ...], int]:
    """Fold the post-fill cost into a best-cost trajectory and locate the
    convergence point.

    The optimizers track best-cost improvements during their move
    phases, but the deterministic ``first_fit_fill`` afterwards can
    change the cost once more — so the convergence threshold must be
    anchored at the *true* ``final_cost``, not the move-phase best.
    When the fill improved on the trajectory, a terminal
    ``(at_op, final_cost)`` event is appended; when the fill was a
    no-op (or the optimizer's end state drifted above its best — SA
    returns its final state, not its best) the trajectory is returned
    byte-identical, which keeps the golden histories pinned.

    ``converged_at`` is the first event within 1% of the total descent
    from the trajectory's final cost (the paper's convergence-speed
    metric).

    Returns ``(history, converged_at)`` with ``history`` as a tuple.
    """
    hist = list(history)
    if not hist:
        return (), 0
    if final_cost < hist[-1][1] - 1e-9:
        hist.append((at_op, final_cost))
    initial_cost = hist[0][1]
    final_best = hist[-1][1]
    threshold = final_best + 0.01 * max(0.0, initial_cost - final_best)
    converged_at = next(
        (op for op, c in hist if c <= threshold), hist[-1][0]
    )
    return tuple(hist), converged_at


@dataclass(frozen=True)
class StitchStats:
    """Deterministic instrumentation of one placement run.

    Counters split the move mix into attempts and acceptances and mirror
    the optimizer's span counters; each trajectory field is named after
    what it records.  No field holds a time: the phase durations live
    only in the run's spans (``stitch.setup`` / ``stitch.initial`` /
    ``stitch.anneal`` / ``stitch.fill`` and the other placers' phase
    spans), so pass a :class:`~repro.obs.tracer.Tracer` to read them.
    Everything here is fixed by the seed.  The object is excluded from
    :class:`StitchResult` equality, which compares the placement outcome
    only.
    """

    seed: int
    move_attempts: int
    place_attempts: int
    swap_attempts: int
    move_accepts: int
    place_accepts: int
    swap_accepts: int
    illegal_moves: int
    #: ``(iteration, temperature)`` at the end of each temperature step:
    #: the SA schedule, or the coldest chain's under parallel tempering.
    #: Empty for the GA (its best-cost curve is ``StitchResult.history``)
    #: and for the analytic placer.
    temperature_trace: tuple[tuple[int, float], ...] = ()
    #: ``(gradient_step, smooth_objective)`` per descent step of the
    #: analytic placer; empty for every other placer.
    objective_trace: tuple[tuple[int, float], ...] = ()

    @property
    def accept_rate(self) -> float:
        """Accepted fraction over all attempted moves."""
        attempts = self.move_attempts + self.place_attempts + self.swap_attempts
        accepts = self.move_accepts + self.place_accepts + self.swap_accepts
        return accepts / attempts if attempts else 0.0


@dataclass(frozen=True)
class StitchResult:
    """Outcome of one placement run.

    Attributes
    ----------
    placements:
        Anchor ``(x, y)`` per instance, or ``None`` if unplaced.
    n_placed, n_unplaced:
        Placement counts (Fig. 5's headline metric).
    wirelength:
        Final weighted HPWL over inter-block edges.
    final_cost:
        Wirelength plus unplaced penalties (the optimizer objective).
    iterations:
        Total optimizer moves executed (SA iterations, or the GA's
        consumed move budget — directly comparable at equal budgets).
    converged_at:
        Iteration at which the run first came within 1% of its final
        cost (the paper's convergence-speed metric compares this across
        CF policies; footprint irregularity slows the descent).
    illegal_moves:
        Rejected-by-overlap move count.
    history:
        Best-cost trajectory as ``(iteration, cost)`` improvement points.
    occupancy:
        Final occupancy grid (columns x CLB rows), for rendering.
    stats:
        Move counters and the optimizer's trajectory
        (:class:`StitchStats`).
    """

    placements: dict[str, tuple[int, int] | None]
    n_placed: int
    n_unplaced: int
    wirelength: float
    final_cost: float
    iterations: int
    converged_at: int
    illegal_moves: int
    history: tuple[tuple[int, float], ...] = field(
        compare=False, repr=False, default=()
    )
    occupancy: np.ndarray | None = field(compare=False, repr=False, default=None)
    stats: StitchStats | None = field(compare=False, repr=False, default=None)

    def iters_to_cost(self, target: float) -> int | None:
        """First iteration whose best cost is <= ``target``.

        The time-to-target metric annealing comparisons use: how fast one
        run reaches the quality another run ends at.  ``None`` if the run
        never got there.
        """
        for it, c in self.history:
            if c <= target + 1e-9:
                return it
        return None

    def render(self, max_width: int = 100) -> str:
        """ASCII view of the occupancy (Fig. 5 / Fig. 13 style)."""
        occ = self.occupancy
        if occ is None:
            return "<no occupancy recorded>"
        cols, rows = occ.shape
        step = max(1, math.ceil(cols / max_width))
        lines = []
        for y in range(rows - 1, -1, -max(1, rows // 40)):
            line = "".join(
                "#" if occ[x : x + step, y].any() else "."
                for x in range(0, cols, step)
            )
            lines.append(line)
        return "\n".join(lines)


def finish(
    st: "PlacementKernel",
    history: Sequence[tuple[int, float]],
    iterations: int,
    *,
    seed: int,
    temperature_trace: Sequence[tuple[int, float]] = (),
    objective_trace: Sequence[tuple[int, float]] = (),
) -> StitchResult:
    """End a placement run on ``st``: fill, then read the kernel out.

    Runs the deterministic first-fit fill of every block the optimizer
    left unplaced, then reads the wirelength, cost, placements,
    occupancy and the seven move counters off the kernel.  ``history``
    is the run's best-cost trajectory and ``iterations`` the kernel
    operations it spent, where a fill that lowers the cost lands its
    terminal event (:func:`converge_history`); a run with no trajectory
    (the analytic placer) reports its final cost there.
    """
    st.first_fit_fill()
    final_cost = st.total_cost()
    hist, converged_at = converge_history(
        history or [(iterations, final_cost)], final_cost, iterations
    )
    n_placed = sum(1 for p in st.pos if p is not None)
    stats = StitchStats(
        seed=seed,
        move_attempts=st.move_attempts,
        place_attempts=st.place_attempts,
        swap_attempts=st.swap_attempts,
        move_accepts=st.move_accepts,
        place_accepts=st.place_accepts,
        swap_accepts=st.swap_accepts,
        illegal_moves=st.illegal,
        temperature_trace=tuple(temperature_trace),
        objective_trace=tuple(objective_trace),
    )
    return StitchResult(
        placements=dict(zip(st.names, st.pos)),
        n_placed=n_placed,
        n_unplaced=st.n - n_placed,
        wirelength=st.wirelength(),
        final_cost=final_cost,
        iterations=iterations,
        converged_at=converged_at,
        illegal_moves=st.illegal,
        history=hist,
        occupancy=st.occupancy_array(),
        stats=stats,
    )
