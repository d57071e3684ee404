#!/usr/bin/env python3
"""Compile a user-defined neural network through the RW-style flow.

Shows how a downstream user builds their own block design — here a small
MLP accelerator with reused matrix-vector units — trains a CF estimator
and compiles the design with it, comparing against the naive constant-CF
approach.

Run:  python examples/custom_network.py   (~1 min)
"""

from repro.device import xc7z020
from repro.estimator import EstimatedCF, train_estimator
from repro.flow import BlockDesign, FixedCF, SAParams, run_rw_flow
from repro.rtlgen import (
    DistributedMemory,
    Pipeline,
    RandomLogicCloud,
    RTLModule,
    ShiftRegisterBank,
    SumOfSquares,
)
from repro.analysis import ExperimentContext
from repro.utils.tables import Table


def build_mlp_accelerator() -> BlockDesign:
    """A 3-layer MLP accelerator: per-layer matrix-vector units with
    shared weight memories and an input stream buffer."""
    d = BlockDesign(name="mlp-accel")
    d.add_module(
        RTLModule.make(
            "mvu",
            [
                RandomLogicCloud(n_luts=320, avg_inputs=4.4, fanout_hot=16,
                                 registered_fraction=0.3),
                SumOfSquares(width=8, n_terms=2, registered=True),
                Pipeline(width=16, stages=2),
            ],
        )
    )
    d.add_module(RTLModule.make("wmem", [DistributedMemory(width=48, depth=256)]))
    d.add_module(
        RTLModule.make(
            "stream",
            [ShiftRegisterBank(n_regs=32, depth=16, n_control_sets=2, use_srl=True)],
        )
    )
    d.add_instance("stream0", "stream")
    prev = "stream0"
    for layer in range(3):
        lanes = []
        for pe in range(4):
            inst = f"l{layer}_mvu{pe}"
            d.add_instance(inst, "mvu")
            d.connect(prev, inst, width=8)
            lanes.append(inst)
        winst = f"l{layer}_weights"
        d.add_instance(winst, "wmem")
        for lane in lanes:
            d.connect(winst, lane, width=32)
        prev = lanes[0]  # next layer reads the merged stream
    return d


def main() -> None:
    design = build_mlp_accelerator()
    grid = xc7z020()
    print(design.summary())
    print(
        f"reuse: {design.instance_counts().most_common(1)[0][1]} instances "
        "of the most common module\n"
    )

    # Train an estimator on a modest RTL dataset.
    ctx = ExperimentContext(seed=0, n_modules=300, cap_per_bin=25)
    estimator = train_estimator(
        ctx.balanced(), kind="rf", feature_set="additional", rf_trees=60
    )

    sa = SAParams(max_iters=8000, seed=0)
    t = Table(
        ["policy", "tool runs", "mean CF", "PBlock slices", "placed"],
        title="compiling the MLP accelerator",
    )
    for label, pol in [
        ("constant CF=1.7", FixedCF(1.7)),
        ("learned estimator", EstimatedCF(estimator=estimator)),
    ]:
        res = run_rw_flow(design, grid, pol, sa_params=sa)
        t.add_row(
            [
                label,
                res.total_tool_runs,
                f"{res.mean_cf:.2f}",
                res.total_pblock_slices,
                f"{res.stitch.n_placed}/{design.n_instances}",
            ]
        )
    print(t.render())
    print(
        f"\nestimator first-run success: "
        f"{res.flow_stats.first_run_rate * 100:.0f}% "
        "(paper §VIII: 52.7% on cnvW1A1)"
    )


if __name__ == "__main__":
    main()
