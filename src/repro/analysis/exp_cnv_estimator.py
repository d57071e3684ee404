"""Figs. 11-13 and the §VIII metrics: the estimator applied to cnvW1A1.

* Fig. 11 — linear-regression (and NN) predictions on the 63 non-trivial
  cnvW1A1 modules, median absolute error;
* Fig. 12 — RF feature importance with cnvW1A1 as the test set;
* Fig. 13 / §VIII — flow impact: first-run success rate, tool runs vs the
  constant CF=0.9 baseline, SA convergence speed-up and final-cost drop vs
  constant CF=1.68 on the xc7z045.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.context import ExperimentContext
from repro.estimator.cf_estimator import CFEstimator
from repro.estimator.strategy import EstimatedCF
from repro.features.registry import feature_names
from repro.flow.policy import FixedCF, SweepCF
from repro.flow.preimpl import implement_design
from repro.flow.rwflow import RWFlowResult
from repro.flow.stitcher import SAParams, stitch
from repro.ml.metrics import median_absolute_relative_error
from repro.utils.tables import Table

__all__ = [
    "Fig11Result",
    "Fig12Result",
    "EstimatorImpactResult",
    "run_fig11_cnv_estimation",
    "run_fig12_cnv_importance",
    "run_estimator_impact",
]


@dataclass(frozen=True)
class Fig11Result:
    """Actual vs estimated CF on the cnvW1A1 modules (transfer test)."""

    actual: np.ndarray
    linreg_pred: np.ndarray
    nn_pred: np.ndarray
    n_modules: int

    @property
    def linreg_median_err(self) -> float:
        """Median absolute relative error of linreg (paper: 11.03%)."""
        return median_absolute_relative_error(self.actual, self.linreg_pred)

    @property
    def nn_median_err(self) -> float:
        """Median absolute relative error of the NN (paper: 9.5%)."""
        return median_absolute_relative_error(self.actual, self.nn_pred)

    @property
    def frac_error_below_4pct(self) -> float:
        """Share of NN estimates within 4% of the minimal CF
        (paper: 31.75%)."""
        rel = np.abs(self.nn_pred - self.actual) / self.actual
        return float(np.mean(rel < 0.04))

    def render(self) -> str:
        return (
            f"Fig. 11: {self.n_modules} cnvW1A1 modules as test set\n"
            f"  linear regression median abs err: {self.linreg_median_err * 100:.1f}%\n"
            f"  NN (additional features) median abs err: {self.nn_median_err * 100:.1f}%\n"
            f"  NN estimates within 4%: {self.frac_error_below_4pct * 100:.1f}%"
        )


def run_fig11_cnv_estimation(ctx: ExperimentContext) -> Fig11Result:
    """Train on the RTL dataset, test on the 63 non-trivial cnvW1A1
    modules (the paper's deployment scenario)."""
    train = ctx.balanced()
    test = ctx.cnv_nontrivial()
    y = np.array([r.min_cf for r in test])
    lin = CFEstimator(kind="linreg", feature_set="linreg9", seed=ctx.seed).fit(train)
    nn = CFEstimator(kind="nn", feature_set="additional", seed=ctx.seed).fit(train)
    return Fig11Result(
        actual=y,
        linreg_pred=lin.predict_many(test),
        nn_pred=nn.predict_many(test),
        n_modules=len(test),
    )


@dataclass(frozen=True)
class Fig12Result:
    """RF importances when cnvW1A1 is the test set (the model is trained
    on the RTL dataset; importances are a property of the trained model)."""

    importances: dict[str, float]
    cnv_median_err: float

    def top_feature(self) -> tuple[str, float]:
        """The dominant feature (paper: a relative one, Carry/All-like)."""
        name = max(self.importances, key=self.importances.get)
        return name, self.importances[name]

    def render(self) -> str:
        ranked = sorted(self.importances.items(), key=lambda kv: -kv[1])
        rows = "\n".join(f"  {n}: {v:.2f}" for n, v in ranked if v > 0.01)
        return (
            "Fig. 12: RF feature importance (all features), cnvW1A1 test\n"
            + rows
            + f"\n  median abs err on cnvW1A1: {self.cnv_median_err * 100:.1f}%"
        )


def run_fig12_cnv_importance(ctx: ExperimentContext) -> Fig12Result:
    """RF trained on all features; importances + cnvW1A1 transfer error."""
    train = ctx.balanced()
    test = ctx.cnv_nontrivial()
    rf = CFEstimator(
        kind="rf", feature_set="all", seed=ctx.seed, rf_trees=ctx.rf_trees
    ).fit(train)
    y = np.array([r.min_cf for r in test])
    err = median_absolute_relative_error(y, rf.predict_many(test))
    return Fig12Result(
        importances=dict(
            zip(feature_names("all"), (float(v) for v in rf.feature_importances_))
        ),
        cnv_median_err=err,
    )


@dataclass(frozen=True)
class EstimatorImpactResult:
    """§VIII / Fig. 13: flow-level impact of the estimator."""

    first_run_rate: float
    estimator_runs: int
    sweep_runs: int
    estimator_flow: RWFlowResult
    const_flow: RWFlowResult
    const_cf: float
    #: Per-SA-seed stitch results (seed-averaged metrics below).
    estimator_stitches: tuple = ()
    const_stitches: tuple = ()

    @property
    def runs_ratio(self) -> float:
        """Constant-CF=0.9 sweep runs / estimator runs (paper: 1.8x)."""
        return self.sweep_runs / self.estimator_runs if self.estimator_runs else 0.0

    def _pairs(self):
        est = self.estimator_stitches or (self.estimator_flow.stitch,)
        const = self.const_stitches or (self.const_flow.stitch,)
        return list(zip(est, const))

    @property
    def convergence_speedup(self) -> float:
        """Time-to-equal-quality speed-up vs constant CF (paper: 1.37x).

        For each SA seed: iterations the constant-CF anneal needed to
        reach its own final cost, divided by the iterations the
        estimator-driven anneal needed to reach that same cost; averaged
        over seeds.  Compact footprints descend faster, so the ratio
        exceeds 1 whenever the estimator flow is better.
        """
        ratios = []
        for est, const in self._pairs():
            target = const.final_cost
            ci = const.iters_to_cost(target)
            ei = est.iters_to_cost(target)
            if ei is None:
                ratios.append(0.0)
            elif ci is None:
                continue
            else:
                ratios.append(ci / max(1, ei))
        return sum(ratios) / len(ratios) if ratios else 0.0

    @property
    def cost_reduction(self) -> float:
        """Relative final-cost drop vs constant CF, seed-averaged
        (paper: 40%)."""
        pairs = self._pairs()
        c = sum(p[1].final_cost for p in pairs) / len(pairs)
        e = sum(p[0].final_cost for p in pairs) / len(pairs)
        return 1.0 - e / c if c else 0.0

    def render(self) -> str:
        t = Table(["metric", "value", "paper"], title="§VIII: estimator impact")
        t.add_row(
            ["first-run success", f"{self.first_run_rate * 100:.1f}%", "52.7%"]
        )
        t.add_row(
            [
                "tool runs, const CF=0.9 / estimator",
                f"{self.runs_ratio:.2f}x ({self.sweep_runs}/{self.estimator_runs})",
                "1.8x",
            ]
        )
        t.add_row(
            [
                "SA convergence speed-up (to equal quality)",
                f"{self.convergence_speedup:.2f}x",
                "1.37x",
            ]
        )
        t.add_row(["SA final-cost reduction", f"{self.cost_reduction * 100:.0f}%", "40%"])
        t.add_row(
            [
                "unplaced (estimator vs const)",
                f"{self.estimator_flow.stitch.n_unplaced} vs "
                f"{self.const_flow.stitch.n_unplaced}",
                "-",
            ]
        )
        return t.render()


def run_estimator_impact(
    ctx: ExperimentContext,
    sa_params: SAParams | None = None,
    estimator_kind: str = "nn",
    n_sa_seeds: int = 3,
) -> EstimatorImpactResult:
    """Reproduce §VIII: drive the cnvW1A1 flow with the trained estimator.

    Pre-implementation sizes PBlocks against the xc7z020; the full design
    is stitched on the larger xc7z045, as in the paper.  The annealing
    metrics (convergence speed, final cost) are averaged over
    ``n_sa_seeds`` SA seeds because single runs are noisy.
    """
    train = ctx.balanced()
    estimator = CFEstimator(
        kind=estimator_kind,
        feature_set="additional",
        seed=ctx.seed,
        rf_trees=ctx.rf_trees,
    ).fit(train)
    design = ctx.design()
    sa = sa_params or SAParams(max_iters=40000, seed=ctx.seed)

    from dataclasses import replace as _replace

    def _flow(policy, n_seeds=1):
        implemented = implement_design(design, ctx.z020, policy)
        footprints = {
            name: impl.outcome.result.footprint
            for name, impl in implemented.items()
            if impl.outcome.result.footprint is not None
        }
        stitches = tuple(
            stitch(design, footprints, ctx.z045, _replace(sa, seed=sa.seed + k))
            for k in range(n_seeds)
        )
        runs = sum(m.outcome.n_runs for m in implemented.values())
        return (
            RWFlowResult(
                implemented=implemented,
                stitch=stitches[0],
                total_tool_runs=runs,
                flow_stats=implemented.stats,
            ),
            stitches,
        )

    est_flow, est_stitches = _flow(
        EstimatedCF(estimator=estimator), n_sa_seeds
    )

    # Baseline 1: constant CF = 0.9 with upward sweep (run-count baseline).
    sweep_flow, _ = _flow(SweepCF(start=0.9))
    # Baseline 2: the constant worst-case CF (quality baseline, paper 1.68).
    const_cf = max(r.min_cf for r in ctx.cnv_records())
    const_flow, const_stitches = _flow(
        FixedCF(round(const_cf + 1e-9, 2)), n_sa_seeds
    )
    return EstimatorImpactResult(
        first_run_rate=est_flow.flow_stats.first_run_rate,
        estimator_runs=est_flow.total_tool_runs,
        sweep_runs=sweep_flow.total_tool_runs,
        estimator_flow=est_flow,
        const_flow=const_flow,
        const_cf=const_cf,
        estimator_stitches=est_stitches,
        const_stitches=const_stitches,
    )
