"""Detailed tests of the §VIII refinement loop in EstimatedCF.

These pin the exact search behavior: predicted CF first, coarse +0.1
climb, then a fine 0.02 re-search of the last interval.
"""

import pytest

from repro.estimator.cf_estimator import CFEstimator
from repro.estimator.strategy import EstimatedCF
from repro.features.registry import FeatureExtractor
from repro.flow.policy import MinimalCFPolicy
from repro.netlist.stats import compute_stats
from repro.place.quick import quick_place
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud
from repro.synth.mapper import synthesize


class _FixedPredictor:
    """A stub estimator predicting one constant CF."""

    def __init__(self, cf: float, feature_set: str = "additional") -> None:
        self._cf = cf
        self.extractor = FeatureExtractor(feature_set)

    def predict(self, record) -> float:
        return self._cf


def _stats(name="strat", n_luts=500, avg=4.8):
    return compute_stats(
        synthesize(
            RTLModule.make(name, [RandomLogicCloud(n_luts=n_luts, avg_inputs=avg)])
        )
    )


@pytest.fixture(scope="module")
def target(z020):
    stats = _stats()
    report = quick_place(stats)
    true_min = MinimalCFPolicy().choose(stats, report, z020).cf
    return stats, report, true_min


class TestRefinementLoop:
    def test_exact_prediction_one_run(self, z020, target):
        stats, report, true_min = target
        policy = EstimatedCF(estimator=_FixedPredictor(true_min))
        out = policy.choose(stats, report, z020)
        assert out.n_runs == 1
        assert out.cf == pytest.approx(true_min)

    def test_overestimate_accepted_first_run(self, z020, target):
        stats, report, true_min = target
        policy = EstimatedCF(estimator=_FixedPredictor(true_min + 0.2))
        out = policy.choose(stats, report, z020)
        assert out.n_runs == 1
        assert out.cf == pytest.approx(round(round((true_min + 0.2) / 0.02) * 0.02, 10))

    def test_underestimate_climbs_and_refines(self, z020, target):
        stats, report, true_min = target
        start = round(true_min - 0.3, 10)
        policy = EstimatedCF(estimator=_FixedPredictor(start))
        out = policy.choose(stats, report, z020)
        # Final CF is feasible and close to the true minimum.
        assert out.result.feasible
        assert out.cf <= true_min + 0.1 + 1e-9
        assert out.cf >= true_min - 1e-9
        # Run accounting: 1 initial + coarse climbs + fine steps.
        assert out.n_runs >= 3

    def test_fine_step_granularity(self, z020, target):
        stats, report, true_min = target
        policy = EstimatedCF(estimator=_FixedPredictor(true_min - 0.25))
        out = policy.choose(stats, report, z020)
        # The accepted CF sits on the 0.02 grid relative to its start.
        steps = out.cf / 0.02
        assert abs(steps - round(steps)) < 1e-6

    def test_grossly_low_prediction_still_succeeds(self, z020, target):
        stats, report, true_min = target
        policy = EstimatedCF(estimator=_FixedPredictor(0.1))
        out = policy.choose(stats, report, z020)
        assert out.result.feasible
        assert out.predicted_cf <= 0.32  # clamped to the floor


class TestPredictionClamping:
    def test_negative_prediction_clamped(self, z020, target):
        stats, report, _ = target
        policy = EstimatedCF(estimator=_FixedPredictor(-3.0))
        out = policy.choose(stats, report, z020)
        assert out.predicted_cf >= 0.3
        assert out.result.feasible


class TestRealEstimatorIntegration:
    def test_trained_dt_drives_flow(self, z020, small_dataset):
        est = CFEstimator(kind="dt", feature_set="additional").fit(small_dataset)
        policy = EstimatedCF(estimator=est)
        stats = _stats(name="integ", n_luts=350)
        out = policy.choose(stats, quick_place(stats), z020)
        assert out.result.feasible
        assert 0.5 < out.cf < 2.5
