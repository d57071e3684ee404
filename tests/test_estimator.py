"""Tests for the CF estimator and the estimator-driven flow policy."""

import numpy as np
import pytest

from repro.dataset.balance import balance_dataset
from repro.estimator.cf_estimator import CFEstimator, train_estimator
from repro.estimator.strategy import EstimatedCF
from repro.features.registry import make_record
from repro.flow.blockdesign import BlockDesign
from repro.flow.policy import MinimalCFPolicy
from repro.flow.preimpl import implement_design
from repro.ml.metrics import mean_relative_error
from repro.netlist.stats import compute_stats
from repro.place.quick import quick_place
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud
from repro.synth.mapper import synthesize


@pytest.fixture(scope="module")
def trained(small_dataset):
    balanced = balance_dataset(small_dataset, cap_per_bin=20, seed=0)
    return train_estimator(balanced, kind="rf", feature_set="additional", rf_trees=40)


class TestCFEstimator:
    def test_predictions_reasonable(self, trained, small_dataset):
        preds = trained.predict_many(small_dataset[:20])
        y = np.array([r.min_cf for r in small_dataset[:20]])
        # Training-adjacent data: error should be well under 15%.
        assert mean_relative_error(y, preds) < 0.15
        assert np.all(preds > 0.3) and np.all(preds < 3.0)

    @pytest.mark.parametrize("kind", ["linreg", "dt", "rf", "nn"])
    def test_all_kinds_train(self, kind, small_dataset):
        fs = "linreg9" if kind == "linreg" else "additional"
        est = CFEstimator(kind=kind, feature_set=fs, rf_trees=10)
        if kind == "nn":
            est.model.epochs = 30  # keep the test quick
        est.fit(small_dataset[:60])
        assert np.isfinite(est.predict(small_dataset[0]))

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            CFEstimator(kind="svm")

    def test_predict_before_fit(self, small_dataset):
        with pytest.raises(RuntimeError):
            CFEstimator(kind="dt").predict(small_dataset[0])

    def test_unlabeled_training_rejected(self, small_dataset):
        stats = small_dataset[0].stats
        rec = make_record(stats)  # NaN label
        with pytest.raises(ValueError):
            CFEstimator(kind="dt").fit([rec])

    def test_importances_for_trees(self, trained):
        imp = trained.feature_importances_
        assert imp is not None
        assert imp.sum() == pytest.approx(1.0)


class TestEstimatedCFPolicy:
    def _fresh_stats(self, name="est_mod", n_luts=500, avg=4.8):
        return compute_stats(
            synthesize(
                RTLModule.make(name, [RandomLogicCloud(n_luts=n_luts, avg_inputs=avg)])
            )
        )

    def test_feasible_and_counts_runs(self, trained, z020):
        stats = self._fresh_stats()
        policy = EstimatedCF(estimator=trained)
        out = policy.choose(stats, quick_place(stats), z020)
        assert out.result.feasible
        assert out.n_runs >= 1

    def test_near_minimal(self, trained, z020):
        """The refined CF must not exceed minimal + the coarse step."""
        stats = self._fresh_stats(name="est_mod2")
        rep = quick_place(stats)
        est_out = EstimatedCF(estimator=trained).choose(stats, rep, z020)
        min_out = MinimalCFPolicy().choose(stats, rep, z020)
        assert est_out.cf <= min_out.cf + 0.1 + 1e-9

    def test_overhead_reduces_runs(self, trained, z020):
        """A generous overhead should mostly hit on the first run."""
        lean = EstimatedCF(estimator=trained, overhead=0.0)
        fat = EstimatedCF(estimator=trained, overhead=0.3)
        lean_runs = fat_runs = 0
        for i in range(6):
            stats = self._fresh_stats(name=f"ov{i}", n_luts=300 + 60 * i)
            rep = quick_place(stats)
            lean_runs += lean.choose(stats, rep, z020).n_runs
            fat_runs += fat.choose(stats, rep, z020).n_runs
        assert fat_runs <= lean_runs

    def test_overhead_increases_cf(self, trained, z020):
        stats = self._fresh_stats(name="ov_cf")
        rep = quick_place(stats)
        lean = EstimatedCF(estimator=trained, overhead=0.0).choose(stats, rep, z020)
        fat = EstimatedCF(estimator=trained, overhead=0.3).choose(stats, rep, z020)
        assert fat.cf >= lean.cf

    def test_first_run_rate_tracked(self, trained, z020):
        """The flow's FlowStats count the policy's first-run successes."""
        design = BlockDesign(name="first-run")
        for i in range(3):
            design.add_module(
                RTLModule.make(f"fr{i}", [RandomLogicCloud(n_luts=500, avg_inputs=4.8)])
            )
            design.add_instance(f"u{i}", f"fr{i}")
        policy = EstimatedCF(estimator=trained, overhead=0.5)
        res = implement_design(design, z020, policy)
        assert res.ok
        first = [res[f"fr{i}"].outcome.n_runs == 1 for i in range(3)]
        assert res.stats.first_run_rate == sum(first) / 3
        # The same rate as choosing each module directly.
        for i in range(3):
            stats = self._fresh_stats(name=f"fr{i}")
            out = policy.choose(stats, quick_place(stats), z020)
            assert (out.n_runs == 1) == first[i]
