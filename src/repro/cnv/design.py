"""cnvW1A1 block-design assembly.

Builds the full :class:`~repro.flow.blockdesign.BlockDesign`:

1. every unique module is built at its pinned ``scale`` knob, the value
   whose post-fragmentation slice demand matches the inventory's
   flat-flow budget (divided by the flat flow's residual overhead);
   :func:`calibrate_scale` finds that value by bisection, and the tests
   recompute the pinned table with it;
2. instances are created per the inventory;
3. the dataflow pipeline is wired: pad → SWU → MVAU lanes (fed by their
   weight blocks) → threshold → width converter → pool/FIFO → next layer.

The design is deterministic and cached per process.
"""

from __future__ import annotations

import functools
import math

from repro.cnv.blocks import build_block
from repro.cnv.partition import BlockSpec, block_inventory
from repro.flow.blockdesign import BlockDesign
from repro.netlist.stats import NetlistStats, compute_stats
from repro.place.packer import slice_demand
from repro.synth.mapper import opt_design, synthesize

__all__ = ["cnv_design", "cnv_module_stats", "calibrate_scale"]

#: Flat-flow budgets include ~8.5% overhead over packer demand
#: (monolithic residual 3.5% + mean instance jitter 2.5%) plus ~2%
#: upward calibration bias; dividing it out lands the flat flow on the
#: budgets (~99% device utilization, like the paper's 99.98%).
_FLAT_FACTOR = 1.09


def _demand_for(kind: str, name: str, scale: float, extra: dict) -> int:
    module = build_block(kind, name, scale, **extra)
    return slice_demand(compute_stats(opt_design(synthesize(module))))


def calibrate_scale(spec: BlockSpec) -> float:
    """Find the scale whose slice demand best matches the spec's budget.

    Bisection over the (monotone in expectation) demand-vs-scale curve,
    refined by a local neighborhood scan to absorb quantization steps.
    """
    target = max(1, round(spec.target_slices / _FLAT_FACTOR))
    lo, hi = 0.02, 60.0
    if _demand_for(spec.kind, spec.module, hi, spec.extra) < target:
        return hi
    for _ in range(22):
        mid = math.sqrt(lo * hi)  # geometric bisection: scales span decades
        if _demand_for(spec.kind, spec.module, mid, spec.extra) < target:
            lo = mid
        else:
            hi = mid
    # Pick the best of a few candidates around the bracket.
    best_scale, best_err = hi, float("inf")
    for cand in (lo, math.sqrt(lo * hi), hi):
        err = abs(_demand_for(spec.kind, spec.module, cand, spec.extra) - target)
        if err < best_err:
            best_scale, best_err = cand, err
    return best_scale


#: The scale of every unique module, in inventory order: what
#: :func:`calibrate_scale` returns for its spec.  The bisection is
#: deterministic, so its results are pinned here rather than recomputed
#: (about 26 synthesis passes per module) in every process.  They hold
#: for the numpy ``Generator`` streams the block builders draw from;
#: ``tests/test_cnv_scales.py`` recomputes them and, on a mismatch,
#: prints the dict to paste in place of this one.
_SCALES: dict[str, float] = {
    "dma_in": 0.12857149246177121,
    "fifo_s0": 1.3333338114693192,
    "pad_0": 0.5454550415876326,
    "swu_0": 2.1785721623406955,
    "mvau_0": 0.6600006210450851,
    "weights_0": 0.6947367388542347,
    "weights_1": 0.6947374019344917,
    "weights_2": 0.6947374019344917,
    "wc_0": 1.0666669298375573,
    "fifo_s1": 1.1666675923213576,
    "swu_1": 2.063637664191427,
    "mvau_2": 0.7500004199547325,
    "weights_3": 1.538462425180944,
    "weights_4": 1.5052635640357825,
    "weights_5": 1.538462425180944,
    "weights_6": 1.5684215445184162,
    "weights_7": 1.538462425180944,
    "weights_8": 1.5684215445184162,
    "wc_1": 1.0666669298375573,
    "pool_0": 1.42500037760755,
    "swu_2": 1.5357146438471696,
    "weights_9": 1.5000001947378645,
    "weights_10": 1.5684215445184162,
    "weights_11": 1.5052635640357825,
    "weights_12": 1.5052635640357825,
    "weights_13": 1.484211173676663,
    "wc_2": 1.0666669298375573,
    "fifo_s2": 1.1666675923213576,
    "swu_3": 1.3214288595296415,
    "mvau_8": 1.2499977313351556,
    "weights_14": 25.499984609749472,
    "weights_15": 1.6842109630845508,
    "weights_16": 1.6842109630845508,
    "weights_17": 1.6538464780325288,
    "weights_18": 1.653843321062942,
    "wc_3": 1.0666669298375573,
    "pool_1": 1.275000064521318,
    "swu_4": 1.2454545616000834,
    "weights_19": 1.730769832368722,
    "weights_20": 1.730769832368722,
    "weights_21": 1.7000007261600314,
    "weights_22": 1.736842952111913,
    "weights_23": 1.6842109630845508,
    "wc_4": 1.0000009364878388,
    "fifo_s3": 1.291667680165718,
    "swu_5": 1.035714611631845,
    "mvau_12": 1.3266669535758426,
    "weights_24": 1.538462425180944,
    "weights_25": 1.5052635640357825,
    "weights_26": 1.5052635640357825,
    "weights_27": 1.5684215445184162,
    "weights_28": 1.538462425180944,
    "weights_29": 1.538462425180944,
    "wc_5": 1.0666669298375573,
    "fifo_s4": 1.3333338114693192,
    "thres_a": 0.20000014608070718,
    "thres_b": 0.02,
    "fifo_a": 1.1666675923213576,
    "mvau_15": 1.2500001174165765,
    "weights_30": 2.210528176873718,
    "weights_31": 2.1263158074289437,
    "fifo_s5": 1.1666675923213576,
    "weights_32": 2.1263158074289437,
    "weights_33": 2.1153850950058692,
    "weights_34": 2.0947373215317473,
    "fifo_s6": 1.291667680165718,
    "mvau_18": 0.36666694434848285,
    "weights_35": 0.8076927299187043,
    "weights_36": 0.8076927299187043,
    "weights_37": 0.7578950011880552,
    "weights_38": 0.8076927299187043,
    "weights_39": 0.789474019560862,
    "label_sel": 0.7454551565466507,
    "dma_out": 0.02,
}


@functools.lru_cache(maxsize=None)
def cnv_module_stats() -> dict[str, NetlistStats]:
    """Post-synthesis statistics of every unique cnvW1A1 module."""
    return {
        name: compute_stats(opt_design(synthesize(mod)))
        for name, mod in cnv_design().modules.items()
    }


@functools.lru_cache(maxsize=None)
def cnv_design() -> BlockDesign:
    """The complete cnvW1A1 block design (175 instances / 74 modules)."""
    design = BlockDesign(name="cnvW1A1")
    inventory = {spec.module: spec for spec in block_inventory()}
    for spec in inventory.values():
        design.add_module(
            build_block(spec.kind, spec.module, _SCALES[spec.module], **spec.extra)
        )
    for spec in inventory.values():
        for inst in spec.instance_names():
            design.add_instance(inst, spec.module)

    # ---------------------------------------------------------------- wiring
    # MVAU lanes per stage: slices of the shared-instance pools.
    mvau_2 = inventory["mvau_2"].instance_names()
    mvau_8 = inventory["mvau_8"].instance_names()
    mvau_15 = inventory["mvau_15"].instance_names()
    lanes = {
        "L0": ["mvau_0"],
        "L1": mvau_2[:24],
        "L2": mvau_2[24:],
        "L3": mvau_8[:10],
        "L4": mvau_8[10:],
        "L5": inventory["mvau_12"].instance_names(),
        "FC0": mvau_15[:4],
        "FC1": mvau_15[4:],
        "FC2": inventory["mvau_18"].instance_names(),
    }
    weights = {
        "L0": [f"weights_{i}" for i in range(0, 3)],
        "L1": [f"weights_{i}" for i in range(3, 9)],
        "L2": [f"weights_{i}" for i in range(9, 14)],
        "L3": [f"weights_{i}" for i in range(14, 19)],
        "L4": [f"weights_{i}" for i in range(19, 24)],
        "L5": [f"weights_{i}" for i in range(24, 30)],
        "FC0": [f"weights_{i}" for i in range(30, 32)],
        "FC1": [f"weights_{i}" for i in range(32, 35)],
        "FC2": [f"weights_{i}" for i in range(35, 40)],
    }
    thres = {
        **{f"L{k}": f"thres_a__i{k}" for k in range(6)},
        **{f"FC{k}": f"thres_b__i{k}" for k in range(3)},
    }
    # Per-stage entry (SWU for convs, the lanes directly for FCs) and the
    # block each stage's threshold feeds next.
    stage_exit: dict[str, str] = {}

    def wire_stage(layer: str, entry: str | None) -> str:
        """Wire one compute stage; returns its exit instance."""
        lane_list = lanes[layer]
        w_list = weights[layer]
        if entry is not None:
            for lane in lane_list:
                design.connect(entry, lane, width=8)
        # Weight blocks feed their share of the lanes (round-robin in both
        # directions so neither side is left unwired).
        for li, lane in enumerate(lane_list):
            design.connect(w_list[li % len(w_list)], lane, width=32)
        for wi in range(len(lane_list), len(w_list)):
            design.connect(w_list[wi], lane_list[wi % len(lane_list)], width=32)
        sink = thres[layer]
        for lane in lane_list:
            design.connect(lane, sink, width=4)
        return sink

    # Input path.
    design.connect("dma_in", "fifo_s0", width=64)
    design.connect("fifo_s0", "pad_0", width=24)
    design.connect("pad_0", "swu_0", width=24)
    stage_exit["L0"] = wire_stage("L0", "swu_0")
    design.connect(stage_exit["L0"], "wc_0", width=8)
    design.connect("wc_0", "fifo_s1", width=64)
    design.connect("fifo_s1", "swu_1", width=64)

    stage_exit["L1"] = wire_stage("L1", "swu_1")
    design.connect(stage_exit["L1"], "wc_1", width=8)
    design.connect("wc_1", "pool_0", width=64)
    design.connect("pool_0", "fifo_a__i0", width=64)
    design.connect("fifo_a__i0", "swu_2", width=64)

    stage_exit["L2"] = wire_stage("L2", "swu_2")
    design.connect(stage_exit["L2"], "wc_2", width=8)
    design.connect("wc_2", "fifo_s2", width=64)
    design.connect("fifo_s2", "swu_3", width=64)

    stage_exit["L3"] = wire_stage("L3", "swu_3")
    design.connect(stage_exit["L3"], "wc_3", width=8)
    design.connect("wc_3", "pool_1", width=64)
    design.connect("pool_1", "fifo_a__i1", width=64)
    design.connect("fifo_a__i1", "swu_4", width=64)

    stage_exit["L4"] = wire_stage("L4", "swu_4")
    design.connect(stage_exit["L4"], "wc_4", width=8)
    design.connect("wc_4", "fifo_s3", width=64)
    design.connect("fifo_s3", "swu_5", width=64)

    stage_exit["L5"] = wire_stage("L5", "swu_5")
    design.connect(stage_exit["L5"], "wc_5", width=8)
    design.connect("wc_5", "fifo_a__i2", width=64)

    # Fully connected head: FIFOs broadcast to the FC lanes directly.
    design.connect("fifo_a__i2", "fifo_s4", width=64)
    for lane in lanes["FC0"]:
        design.connect("fifo_s4", lane, width=64)
    stage_exit["FC0"] = wire_stage("FC0", None)
    design.connect(stage_exit["FC0"], "fifo_s5", width=64)
    for lane in lanes["FC1"]:
        design.connect("fifo_s5", lane, width=64)
    stage_exit["FC1"] = wire_stage("FC1", None)
    design.connect(stage_exit["FC1"], "fifo_s6", width=64)
    for lane in lanes["FC2"]:
        design.connect("fifo_s6", lane, width=16)
    stage_exit["FC2"] = wire_stage("FC2", None)

    design.connect(stage_exit["FC2"], "fifo_a__i3", width=16)
    design.connect("fifo_a__i3", "label_sel", width=16)
    design.connect("label_sel", "dma_out", width=32)

    design.validate()
    return design
