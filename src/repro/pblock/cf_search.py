"""Minimal-CF search (paper §VI-C, §VII).

The ground-truth label of every dataset sample: starting from CF = 0.9,
grow by 0.02 until the detailed placement succeeds.  For the cnvW1A1
analysis (Fig. 4) the search also walks *down* from 0.9 to find the
BRAM-driven / tiny modules whose minimal CF is below 0.7.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.device.grid import DeviceGrid
from repro.netlist.stats import NetlistStats
from repro.place.packer import PackDemand, PackResult, pack, pack_demand
from repro.place.quick import ShapeReport, quick_place
from repro.pblock.generator import PBlockGenerationError, build_pblock
from repro.pblock.pblock import PBlock
from repro.utils.validation import check_in_range, check_positive

__all__ = ["CFSearchResult", "InfeasibleModuleError", "minimal_cf", "recommended_step"]

#: Default sweep parameters from the paper.
DEFAULT_START = 0.9
DEFAULT_STEP = 0.02
DEFAULT_MAX_CF = 2.5
#: Lower bound of the downward search; below this, PBlock quantization
#: makes further reduction meaningless (paper §IV).
DOWN_LIMIT = 0.3


class InfeasibleModuleError(RuntimeError):
    """No CF up to the limit yields a feasible placement.

    Carries the number of attempted tool runs so dataset generation can
    account for the cost of infeasible sweeps (§VIII's run-count proxy).
    """

    def __init__(self, message: str, n_runs: int = 0) -> None:
        super().__init__(message)
        self.n_runs = n_runs


@dataclass(frozen=True)
class CFSearchResult:
    """Result of a minimal-CF sweep.

    Attributes
    ----------
    cf:
        Minimal feasible correction factor found at the given resolution.
    n_runs:
        Number of place-and-route attempts (the paper's "tool runs").
    pblock:
        The PBlock at the minimal CF.
    result:
        The packing result at the minimal CF.
    report:
        The quick-placement shape report used throughout the sweep.
    """

    cf: float
    n_runs: int
    pblock: PBlock
    result: PackResult
    report: ShapeReport


def recommended_step(n_luts: int) -> float:
    """Search-step resolution rule of paper §VI-C.

    Modules under 100 LUTs need no finer than 0.1 (the PBlock shape
    cannot change for smaller increments); mid-size modules (100-999
    LUTs) resolve at 0.05; from 1,000 LUTs up the rule returns the
    paper's full 0.02 dataset resolution, which satisfies §VI-C's
    requirement that ~2,500-LUT modules be swept at 0.03 or finer.  This
    helper exposes the rule for the resolution ablation.
    """
    if n_luts < 100:
        return 0.1
    if n_luts < 1000:
        return 0.05
    return 0.02


def _attempt(
    stats: NetlistStats,
    report: ShapeReport,
    cf: float,
    grid: DeviceGrid,
    previous: tuple[PBlock | None, PackResult] | None = None,
    demand: PackDemand | None = None,
) -> tuple[PBlock | None, PackResult]:
    """One tool run at ``cf``: snap a PBlock and pack the module into it.

    ``previous`` is the attempt of the sweep step before; when ``cf``
    snaps to the same PBlock, that attempt is returned instead of packing
    again.  Small CF steps often cannot change the snapped rectangle
    (paper §VI-C), and packing one module into one PBlock gives the same
    result at every step.  ``demand`` is the module's
    :func:`~repro.place.packer.pack_demand`, derived once by a caller
    that attempts several CFs.
    """
    try:
        pb = build_pblock(stats, report, cf, grid)
    except PBlockGenerationError:
        return None, PackResult(False, reason="no_pblock")
    if previous is not None and previous[0] == pb:
        return previous
    return pb, pack(stats, pb, demand)


def minimal_cf(
    stats: NetlistStats,
    grid: DeviceGrid,
    *,
    start: float = DEFAULT_START,
    step: float = DEFAULT_STEP,
    max_cf: float = DEFAULT_MAX_CF,
    search_down: bool = False,
    report: ShapeReport | None = None,
) -> CFSearchResult:
    """Find the minimal feasible CF for a module on ``grid``.

    Parameters
    ----------
    stats:
        Module statistics.
    grid:
        Target device.
    start, step, max_cf:
        Sweep parameters; the paper uses 0.9 / 0.02.
    search_down:
        Also walk below ``start`` when the start is already feasible
        (used for the cnvW1A1 distribution of Fig. 4).
    report:
        Reuse a precomputed shape report (one quick placement per module,
        as in Fig. 1).

    Every step counts as a tool run.  A step whose snapped PBlock repeats
    the previous step's reuses that step's packing instead of packing
    again, and the module's PBlock-independent packing demand is derived
    once for the whole sweep; the result is the same either way.

    Raises
    ------
    InfeasibleModuleError
        If no CF in ``[start, max_cf]`` fits (e.g. a carry chain taller
        than the device).
    """
    check_positive(step, "step")
    check_in_range(start, "start", 0.05, max_cf)
    if report is None:
        report = quick_place(stats)

    demand = pack_demand(stats)
    n_runs = 0
    attempt: tuple[PBlock | None, PackResult] | None = None
    # Upward sweep.
    cf = start
    best: tuple[float, PBlock, PackResult] | None = None
    while cf <= max_cf + 1e-9:
        attempt = _attempt(stats, report, cf, grid, attempt, demand)
        pb, res = attempt
        n_runs += 1
        if res.feasible and pb is not None:
            best = (cf, pb, res)
            break
        cf = round(cf + step, 10)
    if best is None:
        raise InfeasibleModuleError(
            f"{stats.name}: infeasible up to cf={max_cf} on {grid.name}",
            n_runs=n_runs,
        )

    if search_down and abs(best[0] - start) < step / 2:
        # Start was feasible: walk down until the first failure.
        cf = round(start - step, 10)
        while cf >= DOWN_LIMIT - 1e-9:
            attempt = _attempt(stats, report, cf, grid, attempt, demand)
            pb, res = attempt
            n_runs += 1
            if not (res.feasible and pb is not None):
                break
            best = (cf, pb, res)
            cf = round(cf - step, 10)

    return CFSearchResult(
        cf=best[0], n_runs=n_runs, pblock=best[1], result=best[2], report=report
    )
