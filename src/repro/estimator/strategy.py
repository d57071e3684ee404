"""Estimator-driven CF policy with the paper's refinement loop (§VIII).

The flow tries the predicted CF first (52.7% of cnvW1A1 modules succeed on
the first run in the paper).  Under-estimates climb in coarse 0.1 steps
until feasible, then the last interval is re-searched at the fine 0.02
resolution.  The ``overhead`` knob biases predictions upward to trade
PBlock density for fewer tool runs, exactly as §VIII discusses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.device.grid import DeviceGrid
from repro.estimator.cf_estimator import CFEstimator
from repro.features.registry import make_record
from repro.flow.policy import CFOutcome, CFPolicy, FlowInfeasibleError
from repro.netlist.stats import NetlistStats
from repro.place.quick import ShapeReport
from repro.pblock.cf_search import _attempt

__all__ = ["EstimatedCF"]

_COARSE = 0.1
_FINE = 0.02
_MAX_CF = 3.0
#: Predictions are snapped to the sweep grid and never below this floor.
_MIN_CF = 0.3


@dataclass
class EstimatedCF(CFPolicy):
    """CF policy backed by a trained :class:`CFEstimator`.

    Attributes
    ----------
    estimator:
        The trained model.
    overhead:
        Additive CF margin applied to every prediction (0 = densest
        PBlocks, more runs; >0 = fewer runs, looser PBlocks).

    The policy keeps no state: the paper's first-run statistic (52.7%)
    is :attr:`~repro.flow.preimpl.FlowStats.first_run_rate` of the flow
    that used it.
    """

    estimator: CFEstimator
    overhead: float = 0.0

    def fingerprint(self) -> str:
        """Cache identity: model kind, features, overhead and weights.

        Hashes the serialized model state (via
        :func:`repro.ml.persist.model_to_dict`), so two estimators with
        the same architecture but different trained weights never share
        cache entries.
        """
        from repro.flow.cache import stable_json_digest
        from repro.ml.persist import model_to_dict

        if getattr(self.estimator, "_fitted", False):
            weights = stable_json_digest(model_to_dict(self.estimator.model))
        else:
            weights = "unfitted"
        return (
            f"EstimatedCF(kind={self.estimator.kind},"
            f"features={self.estimator.feature_set},"
            f"overhead={self.overhead!r},weights={weights})"
        )

    def choose(
        self, stats: NetlistStats, report: ShapeReport, grid: DeviceGrid
    ) -> CFOutcome:
        record = make_record(stats, report)
        predicted = float(self.estimator.predict(record)) + self.overhead
        cf0 = max(_MIN_CF, round(round(predicted / _FINE) * _FINE, 10))

        n_runs = 1
        attempted = [cf0]
        pb, res = _attempt(stats, report, cf0, grid)
        if pb is not None and res.feasible:
            return CFOutcome(
                cf=cf0, n_runs=n_runs, pblock=pb, result=res, predicted_cf=cf0
            )

        # Coarse climb: +0.1 until feasible.
        prev = cf0
        cf = round(cf0 + _COARSE, 10)
        while cf <= _MAX_CF + 1e-9:
            n_runs += 1
            attempted.append(cf)
            pb, res = _attempt(stats, report, cf, grid)
            if pb is not None and res.feasible:
                break
            prev = cf
            cf = round(cf + _COARSE, 10)
        else:
            raise FlowInfeasibleError(
                f"{stats.name}: no feasible CF up to {_MAX_CF} "
                f"(predicted {cf0:.2f})",
                attempted_cfs=tuple(attempted),
                n_runs=n_runs,
            )

        # Fine search of the last interval (prev, cf] at 0.02 resolution.
        fine = round(prev + _FINE, 10)
        while fine < cf - 1e-9:
            n_runs += 1
            pb_f, res_f = _attempt(stats, report, fine, grid)
            if pb_f is not None and res_f.feasible:
                cf, pb, res = fine, pb_f, res_f
                break
            fine = round(fine + _FINE, 10)

        return CFOutcome(
            cf=cf, n_runs=n_runs, pblock=pb, result=res, predicted_cf=cf0
        )
