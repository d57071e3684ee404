"""Tests for block designs, CF policies, pre-implementation and flows."""

import pytest

from repro.flow.blockdesign import BlockDesign, Edge
from repro.flow.monolithic import monolithic_flow
from repro.flow.policy import FixedCF, FlowInfeasibleError, MinimalCFPolicy, SweepCF
from repro.flow.preimpl import implement_design, implement_module
from repro.netlist.stats import compute_stats
from repro.place.quick import quick_place
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud
from repro.synth.mapper import synthesize


def _module(name, n_luts=120, avg_inputs=4.0):
    return RTLModule.make(
        name, [RandomLogicCloud(n_luts=n_luts, avg_inputs=avg_inputs)]
    )


def _small_design() -> BlockDesign:
    d = BlockDesign(name="demo")
    d.add_module(_module("a", 150))
    d.add_module(_module("b", 80))
    d.add_instance("a0", "a")
    d.add_instance("a1", "a")
    d.add_instance("b0", "b")
    d.connect("a0", "b0", width=8)
    d.connect("a1", "b0", width=8)
    return d


class TestBlockDesign:
    def test_counts(self):
        d = _small_design()
        assert d.n_instances == 3
        assert d.n_unique == 2
        assert d.instance_counts()["a"] == 2

    def test_duplicate_module_rejected(self):
        d = _small_design()
        with pytest.raises(ValueError):
            d.add_module(_module("a"))

    def test_instance_of_unknown_module_rejected(self):
        d = _small_design()
        with pytest.raises(KeyError):
            d.add_instance("x", "nope")

    def test_duplicate_instance_rejected(self):
        d = _small_design()
        with pytest.raises(ValueError):
            d.add_instance("a0", "a")

    def test_edge_endpoints_checked(self):
        d = _small_design()
        with pytest.raises(KeyError):
            d.connect("a0", "ghost")

    def test_edge_width_positive(self):
        with pytest.raises(ValueError):
            Edge("a", "b", width=0)

    def test_validate_ok(self):
        _small_design().validate()


class TestPolicies:
    def _sr(self, name="polmod", avg=5.2):
        stats = compute_stats(synthesize(_module(name, 600, avg)))
        return stats, quick_place(stats)

    def test_fixed_single_run(self, z020):
        stats, rep = self._sr()
        out = FixedCF(1.8).choose(stats, rep, z020)
        assert out.n_runs == 1
        assert out.cf == 1.8
        assert out.result.feasible

    def test_fixed_infeasible_raises(self, z020):
        stats, rep = self._sr()
        with pytest.raises(FlowInfeasibleError):
            FixedCF(0.35).choose(stats, rep, z020)

    def test_sweep_counts_runs(self, z020):
        stats, rep = self._sr()
        out = SweepCF(start=0.9).choose(stats, rep, z020)
        assert out.n_runs == round((out.cf - 0.9) / 0.02) + 1
        assert out.result.feasible

    def test_minimal_not_above_sweep(self, z020):
        stats, rep = self._sr()
        sweep = SweepCF(start=0.9).choose(stats, rep, z020)
        minimal = MinimalCFPolicy().choose(stats, rep, z020)
        assert minimal.cf <= sweep.cf + 1e-9

    def test_fixed_attempted_cfs_on_failure(self, z020):
        stats, rep = self._sr()
        with pytest.raises(FlowInfeasibleError) as exc:
            FixedCF(0.35).choose(stats, rep, z020)
        assert exc.value.attempted_cfs == (0.35,)
        assert exc.value.n_runs == 1

    def test_sweep_infeasible_reports_full_ladder(self, z020):
        # A 600-LUT module cannot fit anywhere in [0.35, 0.41]; the error
        # must carry every CF of the ladder and one run per rung.
        stats, rep = self._sr()
        with pytest.raises(FlowInfeasibleError) as exc:
            SweepCF(start=0.35, step=0.02, max_cf=0.41).choose(
                stats, rep, z020
            )
        assert exc.value.attempted_cfs == (0.35, 0.37, 0.39, 0.41)
        assert exc.value.n_runs == 4

    def test_minimal_search_down_accounting(self, z020):
        # A small module is feasible at the 0.9 start, so MinimalCFPolicy
        # walks down; every downward probe is a tool run, including the
        # first failing one that terminates the walk.
        stats = compute_stats(synthesize(_module("downmod", 80, 3.2)))
        rep = quick_place(stats)
        out = MinimalCFPolicy().choose(stats, rep, z020)
        up_runs = round((0.9 - 0.9) / 0.02) + 1  # start feasible: 1 run up
        down_steps = round((0.9 - out.cf) / 0.02)
        assert out.cf <= 0.9 + 1e-9
        # 1 upward run + every feasible downward step + the failing probe
        # (absent only if the walk ran into the 0.3 search floor).
        expected = up_runs + down_steps + (1 if out.cf > 0.3 + 1e-9 else 0)
        assert out.n_runs == expected
        # The oracle reports its own result as the prediction.
        assert out.predicted_cf == out.cf

    def test_minimal_matches_sweep_when_start_infeasible(self, z020):
        # A module infeasible at 0.9 never searches down: run counts of
        # MinimalCFPolicy and SweepCF(start=0.9) must agree exactly.
        stats, rep = self._sr("upmod", avg=5.2)
        minimal = MinimalCFPolicy().choose(stats, rep, z020)
        sweep = SweepCF(start=0.9).choose(stats, rep, z020)
        if minimal.cf > 0.9 + 1e-9:
            assert minimal.n_runs == sweep.n_runs
            assert minimal.cf == sweep.cf

    def test_infeasible_error_default_run_count(self):
        err = FlowInfeasibleError("nope", attempted_cfs=(0.9, 0.92))
        assert err.n_runs == 2
        err2 = FlowInfeasibleError("nope", attempted_cfs=(0.9,), n_runs=5)
        assert err2.n_runs == 5
        assert FlowInfeasibleError("bare").attempted_cfs == ()

    def test_policy_fingerprints_distinguish_parameters(self):
        assert FixedCF(1.5).fingerprint() != FixedCF(1.8).fingerprint()
        assert SweepCF().fingerprint() != MinimalCFPolicy().fingerprint()
        assert (
            MinimalCFPolicy(step=0.02).fingerprint()
            != MinimalCFPolicy(step=0.1).fingerprint()
        )


class TestPreImplementation:
    def test_implement_module(self, z020):
        impl = implement_module(_module("impl1", 200), z020, FixedCF(1.5))
        assert impl.used_slices > 0
        assert impl.timing.total_ns > 0
        assert impl.outcome.pblock.caps.slices >= impl.used_slices

    def test_implement_design_caches_unique(self, z020):
        d = _small_design()
        cache = implement_design(d, z020, FixedCF(1.5))
        assert set(cache) == {"a", "b"}


class TestMonolithic:
    def test_per_instance_jitter(self, z020):
        d = _small_design()
        res = monolithic_flow(d, z020)
        a_slices = res.module_slices(d, "a")
        assert len(a_slices) == 2
        # Distinct instances of the same module get different placements.
        assert res.total_slices == sum(res.per_instance_slices.values())

    def test_small_design_fits(self, z020):
        res = monolithic_flow(_small_design(), z020)
        assert res.placed
        assert 0 < res.utilization < 0.2
