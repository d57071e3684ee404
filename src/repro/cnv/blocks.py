"""cnvW1A1 block builders.

Each builder produces an :class:`~repro.rtlgen.base.RTLModule` whose
resource signature matches its FINN counterpart, parameterized by a single
``scale`` knob fitted to the block's slice budget:

========== =============================================================
kind        signature
========== =============================================================
mvau        XNOR-popcount LUT cloud + popcount adder-tree carry chains +
            pipeline registers (binary matrix-vector product)
weights     LUTRAM-dominated storage with decode logic, optionally BRAM
swu         SRL line buffers + address/control logic (sliding window)
pool        comparator LUT cloud + carry + output registers (max pool)
thres       threshold comparators (carry chains) + small cloud
fifo        small SRL FIFO with handshake logic
wc          stream width converter (mux cloud + registers)
dma         AXI DMA engine stub (cloud + registers + carry counters)
misc        generic small control block
========== =============================================================
"""

from __future__ import annotations

import math
from typing import Callable

from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import (
    BlockMemory,
    Construct,
    DistributedMemory,
    FanoutTree,
    Pipeline,
    RandomLogicCloud,
    ShiftRegisterBank,
    SumOfSquares,
)

__all__ = ["BLOCK_BUILDERS", "build_block"]


def _mvau(name: str, scale: float) -> RTLModule:
    n_luts = max(12, int(150 * scale))
    acc_terms = max(1, int(round(2 * scale)))
    constructs: list[Construct] = [
        # XNOR + popcount LUT fabric; the input activations broadcast to
        # every PE lane.
        RandomLogicCloud(
            n_luts=n_luts,
            avg_inputs=4.2,
            fanout_hot=max(2, int(16 * scale)),
            registered_fraction=0.25,
        ),
        # Popcount adder tree / threshold accumulator.
        SumOfSquares(width=6, n_terms=acc_terms, registered=True),
        Pipeline(width=max(4, int(12 * scale)), stages=2, shared_control=True),
    ]
    return RTLModule.make(name, constructs, family="cnv_mvau", params={"scale": scale})


def _weights(name: str, scale: float, n_bram: int = 0) -> RTLModule:
    width = max(4, int(26 * scale))
    depth = 128
    constructs: list[Construct] = [
        DistributedMemory(width=width, depth=depth),
        # Read-address decode and output gating.
        RandomLogicCloud(
            n_luts=max(8, int(95 * scale)),
            avg_inputs=4.0,
            fanout_hot=max(2, int(8 * scale)),
            registered_fraction=0.25,
        ),
        Pipeline(width=max(4, int(10 * scale)), stages=1, shared_control=True),
    ]
    if n_bram > 0:
        constructs.append(BlockMemory(n_bram36=n_bram))
    return RTLModule.make(
        name, constructs, family="cnv_weights", params={"scale": scale, "n_bram": n_bram}
    )


def _swu(name: str, scale: float) -> RTLModule:
    n_regs = max(4, int(28 * scale))
    constructs: list[Construct] = [
        # Line buffers: SRL chains, one control set per buffer bank.
        ShiftRegisterBank(
            n_regs=n_regs,
            depth=24,
            n_control_sets=max(1, min(4, n_regs // 8)),
            fanin=2,
            use_srl=True,
        ),
        # Window address generation (counters -> carry) and muxing.
        RandomLogicCloud(
            n_luts=max(10, int(110 * scale)),
            avg_inputs=4.2,
            fanout_hot=max(2, int(12 * scale)),
            registered_fraction=0.35,
        ),
        SumOfSquares(width=10, n_terms=1),
    ]
    return RTLModule.make(name, constructs, family="cnv_swu", params={"scale": scale})


def _pool(name: str, scale: float) -> RTLModule:
    constructs: list[Construct] = [
        RandomLogicCloud(
            n_luts=max(10, int(120 * scale)),
            avg_inputs=4.0,
            fanout_hot=4,
            registered_fraction=0.40,
        ),
        SumOfSquares(width=8, n_terms=1),
        Pipeline(width=max(4, int(16 * scale)), stages=1),
    ]
    return RTLModule.make(name, constructs, family="cnv_pool", params={"scale": scale})


def _thres(name: str, scale: float) -> RTLModule:
    constructs: list[Construct] = [
        SumOfSquares(width=9, n_terms=max(1, int(round(scale)))),
        RandomLogicCloud(
            n_luts=max(6, int(45 * scale)),
            avg_inputs=3.8,
            fanout_hot=4,
            registered_fraction=0.30,
        ),
    ]
    return RTLModule.make(name, constructs, family="cnv_thres", params={"scale": scale})


def _fifo(name: str, scale: float) -> RTLModule:
    n_regs = max(2, int(8 * scale))
    constructs: list[Construct] = [
        ShiftRegisterBank(
            n_regs=n_regs, depth=16, n_control_sets=1, fanin=1, use_srl=True
        ),
        RandomLogicCloud(
            n_luts=max(4, int(24 * scale)),
            avg_inputs=3.5,
            fanout_hot=2,
            registered_fraction=0.5,
        ),
    ]
    return RTLModule.make(name, constructs, family="cnv_fifo", params={"scale": scale})


def _wc(name: str, scale: float) -> RTLModule:
    constructs: list[Construct] = [
        RandomLogicCloud(
            n_luts=max(6, int(60 * scale)),
            avg_inputs=4.8,
            fanout_hot=max(2, int(6 * scale)),
            registered_fraction=0.45,
        ),
        Pipeline(width=max(4, int(20 * scale)), stages=1),
    ]
    return RTLModule.make(name, constructs, family="cnv_wc", params={"scale": scale})


def _dma(name: str, scale: float) -> RTLModule:
    constructs: list[Construct] = [
        RandomLogicCloud(
            n_luts=max(8, int(70 * scale)),
            avg_inputs=4.3,
            fanout_hot=max(2, int(16 * scale)),
            registered_fraction=0.5,
        ),
        SumOfSquares(width=12, n_terms=1),  # burst address counters
        Pipeline(width=32, stages=1),
        FanoutTree(fanout=max(4, int(32 * scale))),
    ]
    return RTLModule.make(name, constructs, family="cnv_dma", params={"scale": scale})


def _misc(name: str, scale: float) -> RTLModule:
    constructs: list[Construct] = [
        RandomLogicCloud(
            n_luts=max(4, int(55 * scale)),
            avg_inputs=4.0,
            fanout_hot=4,
            registered_fraction=0.4,
        ),
        Pipeline(width=max(2, int(8 * scale)), stages=1),
    ]
    return RTLModule.make(name, constructs, family="cnv_misc", params={"scale": scale})


BLOCK_BUILDERS: dict[str, Callable[..., RTLModule]] = {
    "mvau": _mvau,
    "weights": _weights,
    "swu": _swu,
    "pool": _pool,
    "thres": _thres,
    "fifo": _fifo,
    "wc": _wc,
    "dma": _dma,
    "misc": _misc,
}


def build_block(kind: str, name: str, scale: float, **extra: int) -> RTLModule:
    """Build one cnvW1A1 block.

    Parameters
    ----------
    kind:
        Block type key in :data:`BLOCK_BUILDERS`.
    name:
        Instance-unique module name.
    scale:
        Size knob, positive and finite.  The designs use pinned scales,
        which :func:`repro.cnv.design.calibrate_scale` recomputes in the
        tests.
    extra:
        Builder-specific extras (e.g. ``n_bram`` for weights blocks).
    """
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be a positive finite number, got {scale!r}")
    try:
        builder = BLOCK_BUILDERS[kind]
    except KeyError:
        raise KeyError(f"unknown block kind {kind!r}; known: {sorted(BLOCK_BUILDERS)}")
    return builder(name, scale, **extra)
