"""Concrete :class:`~repro.place_kernel.protocol.Placer` implementations.

The optimizer portfolio: interchangeable placers behind one protocol,
all driving the same move kernel and scoring the same objective
(weighted HPWL plus the unplaced penalty), so their results are
directly comparable —

* :class:`SAPlacer` — the simulated-annealing stitcher;
* :class:`GAPlacer` — the evolutionary placer;
* :class:`WarmStartedSAPlacer` — a warm-start producer (a short GA
  pass, or the analytic placer with ``warm="gp"``) feeding a
  budget-shrunken anneal, the classic global-then-local pipeline;
* :class:`TemperedSAPlacer` — cooperative parallel tempering (replica
  exchange across a temperature ladder of SA chains).

``default_portfolio`` builds the five portfolio members at one total
move budget *cap* each (the gp+sa member spends only half — the warm
start is uncharged), which is what
:class:`~repro.dse.explorer.DSEExplorer` runs per variant when
portfolio mode is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.device.grid import DeviceGrid
from repro.flow.blockdesign import BlockDesign
from repro.flow.evolve import GAParams, evolve
from repro.flow.global_place import GPParams, global_place
from repro.flow.stitcher import SAParams, stitch
from repro.flow.tempering import PTParams, temper
from repro.obs.tracer import NullTracer, Tracer
from repro.place.shapes import Footprint
from repro.place_kernel.result import StitchResult, pareto_key

__all__ = [
    "GAPlacer",
    "SAPlacer",
    "TemperedSAPlacer",
    "WarmStartedSAPlacer",
    "default_portfolio",
]


@dataclass(frozen=True)
class SAPlacer:
    """The SA stitcher as a portfolio member."""

    params: SAParams = field(default_factory=SAParams)
    name: str = "sa"

    def place(
        self,
        design: BlockDesign,
        footprints: Mapping[str, Footprint],
        grid: DeviceGrid,
        *,
        tracer: Tracer | NullTracer | None = None,
    ) -> StitchResult:
        return stitch(design, dict(footprints), grid, self.params, tracer=tracer)


@dataclass(frozen=True)
class GAPlacer:
    """The evolutionary placer as a portfolio member."""

    params: GAParams = field(default_factory=GAParams)
    name: str = "ga"

    def place(
        self,
        design: BlockDesign,
        footprints: Mapping[str, Footprint],
        grid: DeviceGrid,
        *,
        tracer: Tracer | NullTracer | None = None,
    ) -> StitchResult:
        return evolve(design, dict(footprints), grid, self.params, tracer=tracer)


@dataclass(frozen=True)
class WarmStartedSAPlacer:
    """A warm-start producer feeding a budget-shrunken anneal.

    Two producers are supported:

    * ``warm="ga"`` (the historical default) — the GA spends
      ``warm_frac`` of the SA move budget finding a good global
      placement; the anneal's iteration budget is reduced by what the
      GA consumed, so the *total* kernel-operation spend still equals
      ``params.max_iters`` (the portfolio's equal-budget contract).
    * ``warm="gp"`` — the analytic global placer
      (:mod:`repro.flow.global_place`) produces the start for *free*
      (gradient steps and legalization snaps are uncharged), and the
      polishing anneal runs at only ``sa_frac`` of ``params.max_iters``
      — the total spend is *half* the budget cap, which is the
      warm-start perf gate's contract
      (``benchmarks/test_perf_warmstart.py``).

    Either way the pipeline returns the pareto-better of the warm
    start and the polished result.
    """

    params: SAParams = field(default_factory=SAParams)
    #: Warm-start producer: ``"ga"`` or ``"gp"``.
    warm: str = "ga"
    #: GA warm-start budget fraction (``warm="ga"`` only).
    warm_frac: float = 0.3
    #: Polish-anneal budget fraction (``warm="gp"`` only).
    sa_frac: float = 0.5
    #: Analytic-placer overrides (``warm="gp"``); ``None`` derives them
    #: from ``params`` (seed and unplaced weight must match for
    #: comparable costs).  Set, they also keep one warm start for every
    #: seed of :func:`~repro.flow.restarts.place_best`.
    gp_params: GPParams | None = None
    name: str = "warm-sa"

    def place(
        self,
        design: BlockDesign,
        footprints: Mapping[str, Footprint],
        grid: DeviceGrid,
        *,
        tracer: Tracer | NullTracer | None = None,
    ) -> StitchResult:
        if self.warm not in ("ga", "gp"):
            raise ValueError(
                f"unknown warm-start producer {self.warm!r}; "
                "choose from ('ga', 'gp')"
            )
        if self.warm == "gp":
            gp = self.gp_params or GPParams(
                unplaced_weight=self.params.unplaced_weight,
                seed=self.params.seed,
            )
            warm = global_place(design, dict(footprints), grid, gp, tracer=tracer)
            anneal = replace(
                self.params,
                max_iters=max(1, int(self.params.max_iters * self.sa_frac)),
            )
        else:
            warm_budget = max(1, int(self.params.max_iters * self.warm_frac))
            warm = evolve(
                design,
                dict(footprints),
                grid,
                GAParams(
                    move_budget=warm_budget,
                    unplaced_weight=self.params.unplaced_weight,
                    seed=self.params.seed,
                ),
                tracer=tracer,
            )
            anneal = replace(
                self.params,
                max_iters=max(1, self.params.max_iters - warm.iterations),
            )
        result = stitch(
            design,
            dict(footprints),
            grid,
            anneal,
            initial_placements=warm.placements,
            tracer=tracer,
        )
        # A converged warm start can be better than the re-annealed
        # result; the pipeline returns the better of the two.  The GA
        # path keeps its historical cost-only comparison (pinned by the
        # portfolio goldens); the gp path uses the shared pareto key.
        if self.warm == "gp":
            return min(warm, result, key=pareto_key)
        if warm.final_cost < result.final_cost:
            return warm
        return result


@dataclass(frozen=True)
class TemperedSAPlacer:
    """Cooperative parallel tempering as a portfolio member.

    Runs :func:`~repro.flow.tempering.temper`'s replica-exchange ladder,
    whose chains take turns on one in-process kernel;
    :func:`~repro.flow.restarts.place_best` fans restarts of it out over
    processes.
    """

    params: PTParams = field(default_factory=PTParams)
    name: str = "pt"

    def place(
        self,
        design: BlockDesign,
        footprints: Mapping[str, Footprint],
        grid: DeviceGrid,
        *,
        tracer: Tracer | NullTracer | None = None,
    ) -> StitchResult:
        return temper(design, dict(footprints), grid, self.params, tracer=tracer)


def default_portfolio(sa_params: SAParams | None = None) -> tuple[
    SAPlacer,
    GAPlacer,
    WarmStartedSAPlacer,
    TemperedSAPlacer,
    WarmStartedSAPlacer,
]:
    """SA, GA, GA-warm-started SA, parallel tempering and gp-warm-started
    SA at the same total move-budget *cap* each.

    The ``gp+sa`` member spends only half the cap — its analytic warm
    start is uncharged and its polish anneal runs at ``sa_frac=0.5`` —
    so it can only make the portfolio cheaper, never over-budget.
    """
    params = sa_params or SAParams()
    ga = GAParams(
        move_budget=params.max_iters,
        unplaced_weight=params.unplaced_weight,
        seed=params.seed,
    )
    pt = PTParams(
        max_iters=params.max_iters,
        unplaced_weight=params.unplaced_weight,
        p_place=params.p_place,
        p_swap=params.p_swap,
        seed=params.seed,
    )
    return (
        SAPlacer(params=params),
        GAPlacer(params=ga),
        WarmStartedSAPlacer(params=params),
        TemperedSAPlacer(params=pt),
        WarmStartedSAPlacer(params=params, warm="gp", name="gp+sa"),
    )
