"""Tests for dataset generation, balancing and persistence."""

import dataclasses

import numpy as np
import pytest

from repro.dataset.balance import balance_dataset, cf_histogram
from repro.dataset.generate import generate_dataset
from repro.dataset.io import (
    load_dataset_arrays,
    load_dataset_steps,
    load_generation_report,
    save_dataset_arrays,
    save_generation_report,
)
from repro.features.registry import feature_names
from repro.pblock.cf_search import recommended_step


class TestGeneration:
    def test_labels_on_grid(self, small_dataset):
        for rec in small_dataset:
            steps = (rec.min_cf - 0.9) / 0.02
            assert abs(steps - round(steps)) < 1e-6
            assert rec.min_cf >= 0.9

    def test_families_recorded(self, small_dataset):
        fams = {r.family for r in small_dataset}
        assert len(fams) >= 3

    def test_deterministic(self):
        a, _ = generate_dataset(20, seed=5)
        b, _ = generate_dataset(20, seed=5)
        assert [r.name for r in a] == [r.name for r in b]
        assert [r.min_cf for r in a] == [r.min_cf for r in b]

    def test_report_accounting(self):
        records, report = generate_dataset(30, seed=6)
        assert report.n_requested == 30
        assert (
            report.n_labeled + report.n_trivial + report.n_infeasible == 30
        )
        assert report.n_labeled == len(records)

    def test_no_trivial_modules(self, small_dataset):
        assert all(not r.stats.is_trivial() for r in small_dataset)

    def test_records_carry_sweep_step(self, small_dataset):
        assert all(r.sweep_step == 0.02 for r in small_dataset)

    def test_runs_counted(self):
        records, report = generate_dataset(20, seed=6)
        # Every labeled record took at least one P&R attempt.
        assert report.n_runs >= len(records) > 0
        assert not report.cache_hit
        assert report.n_workers == 1


class TestParallelGeneration:
    def test_workers_bitwise_identical(self):
        serial_recs, serial = generate_dataset(24, seed=7)
        par_recs, par = generate_dataset(24, seed=7, workers=2)
        assert par_recs == serial_recs
        assert par.n_runs == serial.n_runs
        assert par.n_labeled == serial.n_labeled
        assert par.n_trivial == serial.n_trivial
        assert par.infeasible_names == serial.infeasible_names

    def test_degenerate_worker_counts_are_sequential(self):
        for workers in (None, 0, 1):
            _, report = generate_dataset(6, seed=7, workers=workers)
            assert report.n_workers == 1

    def test_workers_capped_by_modules(self):
        _, report = generate_dataset(3, seed=7, workers=16)
        assert report.n_workers <= 3


class TestAdaptiveStep:
    def test_labels_on_per_record_grid(self):
        records, _ = generate_dataset(30, seed=8, adaptive_step=True)
        assert records
        for rec in records:
            assert rec.sweep_step == recommended_step(rec.stats.n_lut)
            steps = (rec.min_cf - 0.9) / rec.sweep_step
            assert abs(steps - round(steps)) < 1e-6

    def test_saves_tool_runs(self):
        _, fixed = generate_dataset(30, seed=8)
        _, adaptive = generate_dataset(30, seed=8, adaptive_step=True)
        # Small modules sweep at coarser resolution, so the adaptive
        # sweep needs strictly fewer P&R attempts overall.
        assert adaptive.n_runs < fixed.n_runs

    def test_distinct_steps_present(self):
        records, _ = generate_dataset(30, seed=8, adaptive_step=True)
        assert len({r.sweep_step for r in records}) >= 2


class TestBalancing:
    def test_cap_enforced(self, small_dataset):
        balanced = balance_dataset(small_dataset, cap_per_bin=3, seed=0)
        hist = cf_histogram(balanced)
        assert max(hist.values()) <= 3

    def test_subset(self, small_dataset):
        balanced = balance_dataset(small_dataset, cap_per_bin=5, seed=0)
        names = {r.name for r in small_dataset}
        assert all(r.name in names for r in balanced)

    def test_noop_with_huge_cap(self, small_dataset):
        balanced = balance_dataset(small_dataset, cap_per_bin=10**6, seed=0)
        assert len(balanced) == len(small_dataset)

    def test_deterministic(self, small_dataset):
        a = balance_dataset(small_dataset, cap_per_bin=4, seed=2)
        b = balance_dataset(small_dataset, cap_per_bin=4, seed=2)
        assert [r.name for r in a] == [r.name for r in b]

    def test_histogram_total(self, small_dataset):
        hist = cf_histogram(small_dataset)
        assert sum(hist.values()) == len(small_dataset)

    def test_histogram_respects_record_step(self, small_dataset):
        # A label on the 0.05 grid (1.15) is off the 0.02 grid; binning
        # with the record's own step must keep it exact instead of
        # snapping it to 1.16.
        rec = dataclasses.replace(
            small_dataset[0], min_cf=1.15, sweep_step=0.05
        )
        hist = cf_histogram([rec])
        assert hist == {1.15: 1}
        forced = cf_histogram([rec], step=0.02)
        assert 1.15 not in forced

    def test_histogram_merges_colliding_grids(self, small_dataset):
        # 1.0 exists on both the 0.02 and the 0.05 grids; counts from
        # both resolutions must merge under one CF key.
        a = dataclasses.replace(small_dataset[0], min_cf=1.0, sweep_step=0.02)
        b = dataclasses.replace(small_dataset[1], min_cf=1.0, sweep_step=0.05)
        assert cf_histogram([a, b]) == {1.0: 2}

    def test_balance_bins_on_record_step(self, small_dataset):
        # Same CF, different sweep grids: distinct bins, so a cap of 1
        # keeps one record per grid.
        recs = [
            dataclasses.replace(small_dataset[i], min_cf=1.1, sweep_step=s)
            for i, s in [(0, 0.02), (1, 0.02), (2, 0.05), (3, 0.05)]
        ]
        kept = balance_dataset(recs, cap_per_bin=1, seed=0)
        assert len(kept) == 2
        assert {r.sweep_step for r in kept} == {0.02, 0.05}
        # Forcing one uniform grid collapses them into a single bin.
        assert len(balance_dataset(recs, cap_per_bin=1, seed=0, step=0.02)) == 1


class TestPersistence:
    def test_roundtrip(self, small_dataset, tmp_path):
        path = tmp_path / "ds.npz"
        save_dataset_arrays(small_dataset, path)
        X, y, names, fams = load_dataset_arrays(path, "all")
        assert X.shape == (len(small_dataset), len(feature_names("all")))
        np.testing.assert_allclose(y, [r.min_cf for r in small_dataset])

    def test_feature_subset(self, small_dataset, tmp_path):
        path = tmp_path / "ds.npz"
        save_dataset_arrays(small_dataset, path)
        X_cls, *_ = load_dataset_arrays(path, "classical")
        X_all, *_ = load_dataset_arrays(path, "all")
        assert X_cls.shape[1] == len(feature_names("classical"))
        # Classical columns are a prefix of "all" in registry order.
        np.testing.assert_array_equal(X_cls, X_all[:, : X_cls.shape[1]])

    def test_unknown_feature_set(self, small_dataset, tmp_path):
        path = tmp_path / "ds.npz"
        save_dataset_arrays(small_dataset, path)
        with pytest.raises(KeyError):
            load_dataset_arrays(path, "nope")

    def test_steps_roundtrip(self, small_dataset, tmp_path):
        path = tmp_path / "ds.npz"
        mixed = [
            dataclasses.replace(r, sweep_step=0.05 if i % 2 else 0.02)
            for i, r in enumerate(small_dataset[:6])
        ]
        save_dataset_arrays(mixed, path)
        steps = load_dataset_steps(path)
        np.testing.assert_allclose(steps, [r.sweep_step for r in mixed])

    def test_report_roundtrip(self, tmp_path):
        _, report = generate_dataset(12, seed=9)
        path = tmp_path / "report.json"
        save_generation_report(report, path)
        assert load_generation_report(path) == report
