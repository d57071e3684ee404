"""Cross-module integration tests: full flows end to end."""

import pytest

from repro.dataset.balance import balance_dataset
from repro.estimator.cf_estimator import train_estimator
from repro.estimator.strategy import EstimatedCF
from repro.flow.blockdesign import BlockDesign
from repro.flow.policy import FixedCF, MinimalCFPolicy
from repro.flow.rwflow import run_rw_flow
from repro.flow.stitcher import SAParams
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import (
    DistributedMemory,
    RandomLogicCloud,
    ShiftRegisterBank,
    SumOfSquares,
)


@pytest.fixture(scope="module")
def pipeline_design() -> BlockDesign:
    """A small but heterogeneous multi-block design."""
    d = BlockDesign(name="pipeline")
    d.add_module(
        RTLModule.make("compute", [RandomLogicCloud(n_luts=400, avg_inputs=4.5),
                                   SumOfSquares(width=12, n_terms=2)])
    )
    d.add_module(RTLModule.make("buffer", [DistributedMemory(width=24, depth=128)]))
    d.add_module(
        RTLModule.make("shift", [ShiftRegisterBank(n_regs=48, depth=8, n_control_sets=4)])
    )
    for i in range(4):
        d.add_instance(f"c{i}", "compute")
    for i in range(2):
        d.add_instance(f"b{i}", "buffer")
    d.add_instance("s0", "shift")
    d.connect("s0", "c0", width=16)
    for i in range(3):
        d.connect(f"c{i}", f"c{i + 1}", width=8)
    d.connect("c1", "b0", width=32)
    d.connect("c3", "b1", width=32)
    return d


class TestRWFlowEndToEnd:
    def test_fixed_policy(self, pipeline_design, z020):
        res = run_rw_flow(
            pipeline_design, z020, FixedCF(1.6),
            sa_params=SAParams(max_iters=4000, seed=0),
        )
        assert res.stitch.n_unplaced == 0
        assert res.total_tool_runs == 3  # one per unique module
        assert set(res.implemented) == {"compute", "buffer", "shift"}

    def test_minimal_policy_denser(self, pipeline_design, z020):
        fixed = run_rw_flow(
            pipeline_design, z020, FixedCF(1.8),
            sa_params=SAParams(max_iters=4000, seed=0),
        )
        minimal = run_rw_flow(
            pipeline_design, z020, MinimalCFPolicy(),
            sa_params=SAParams(max_iters=4000, seed=0),
        )
        assert minimal.total_pblock_slices <= fixed.total_pblock_slices
        assert minimal.mean_cf <= 1.8

    def test_estimated_policy(self, pipeline_design, z020, small_dataset):
        balanced = balance_dataset(small_dataset, cap_per_bin=20, seed=0)
        est = train_estimator(balanced, kind="dt", feature_set="additional")
        policy = EstimatedCF(estimator=est)
        res = run_rw_flow(
            pipeline_design, z020, policy,
            sa_params=SAParams(max_iters=4000, seed=0),
        )
        assert res.stitch.n_unplaced == 0
        assert res.flow_stats.n_modules == 3
        assert res.flow_stats.n_infeasible == 0

    def test_stitch_on_larger_device(self, pipeline_design, z020, z045):
        res = run_rw_flow(
            pipeline_design, z020, FixedCF(1.6),
            stitch_grid=z045, sa_params=SAParams(max_iters=4000, seed=0),
        )
        assert res.stitch.n_unplaced == 0
        assert res.stitch.occupancy.shape[0] == z045.n_cols


class TestReuseSemantics:
    def test_identical_instances_share_footprint(self, pipeline_design, z020):
        res = run_rw_flow(
            pipeline_design, z020, FixedCF(1.6),
            sa_params=SAParams(max_iters=4000, seed=0),
        )
        impl = res.implemented["compute"]
        # All four instances were placed from one pre-implementation.
        assert impl.outcome.n_runs == 1
        positions = [
            res.stitch.placements[f"c{i}"] for i in range(4)
        ]
        assert all(p is not None for p in positions)
        assert len(set(positions)) == 4  # distinct locations


class TestCnvSmoke:
    def test_cnv_flow_runs(self, cnv, z020):
        res = run_rw_flow(
            cnv, z020, FixedCF(1.8), sa_params=SAParams(max_iters=6000, seed=0)
        )
        assert res.total_tool_runs == 74
        assert res.stitch.n_placed + res.stitch.n_unplaced == 175
        # Near-full device + CF 1.8 inflation: some blocks cannot fit.
        assert res.stitch.n_unplaced > 0
