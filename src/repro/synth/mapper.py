"""Construct lowering rules (the synthesis simulator).

Each rule translates one RTL construct into technology-mapped cells using
standard 7-series mapping conventions:

* a ``w x w`` LUT squarer/multiplier costs about ``w^2 / 2`` LUTs in
  ``w/2`` partial-product rows, each row terminated by a carry chain;
* a 64-deep 1-bit distributed RAM costs one M-slice LUT site; deeper
  memories add output muxes;
* an SRL holds up to 16 stages per M-slice LUT site;
* adders map to one carry chain of the result width.

The rules only need to get resource *statistics* right (counts, control
sets, chains, fanout), because that is all downstream placement consumes.
"""

from __future__ import annotations

import math
from functools import singledispatch

import numpy as np

from repro.netlist.netlist import Netlist, NetlistBuilder
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import (
    BlockMemory,
    Construct,
    DistributedMemory,
    FanoutTree,
    LFSRBank,
    MacArray,
    Pipeline,
    RandomLogicCloud,
    ShiftRegisterBank,
    SumOfSquares,
)
from repro.utils.rng import stream

__all__ = ["synthesize", "opt_design"]

_SRL_DEPTH = 16
_LUTRAM_DEPTH = 64


def synthesize(module: RTLModule) -> Netlist:
    """Technology-map ``module`` into a netlist.

    The result is deterministic: any tie-breaking randomness (e.g. LUT
    input-width jitter in logic clouds) is seeded from the module name.
    """
    builder = NetlistBuilder(module.name)
    for construct in module.constructs:
        _lower(construct, builder)
    return builder.build()


def opt_design(netlist: Netlist) -> Netlist:
    """Model Vivado's ``opt_design``; returns ``netlist`` itself.

    The mapper emits cells minimally, and the step's remaining effect,
    stripping dangling (zero-fanout) signal nets, has nothing to act on:
    :class:`~repro.netlist.netlist.NetlistBuilder` rejects such nets.  The
    flow still calls it, as the step that sits between synthesis and the
    PBlock estimate (Fig. 1).
    """
    return netlist


# --------------------------------------------------------------------- rules


@singledispatch
def _lower(construct: Construct, builder: NetlistBuilder) -> None:
    raise TypeError(f"no lowering rule for {type(construct).__name__}")


@_lower.register
def _(c: ShiftRegisterBank, builder: NetlistBuilder) -> None:
    per_cs = _split_even(c.n_regs, c.n_control_sets)
    for i, regs in enumerate(per_cs):
        if regs == 0:
            continue
        cs = builder.control_set("clk", reset=f"rst_{i}", enable=f"en_{i}")
        if c.use_srl:
            # One output FF per register, interior stages in SRLs.
            interior = max(0, c.depth - 1)
            builder.add_srls(regs * math.ceil(interior / _SRL_DEPTH) if interior else 0,
                             cs, depth=min(interior, _SRL_DEPTH) or 1)
            builder.add_ffs(regs, cs)
            n_ffs_cs = regs
        else:
            builder.add_ffs(regs * c.depth, cs)
            n_ffs_cs = regs * c.depth
        # Control signals broadcast to every register of the set.
        builder.add_broadcast_net(fanout=n_ffs_cs, is_control=True)
    if c.fanin > 1:
        # Input mux in front of each register: a fanin-wide select needs
        # ceil((fanin - 1) / 4) LUT levels' worth of 5-input muxes.
        mux_luts = c.n_regs * math.ceil((c.fanin - 1) / 4)
        builder.add_luts(mux_luts, inputs=5)
        builder.bump_depth(math.ceil(math.log2(c.fanin)) if c.fanin > 1 else 0)
        # Each select line fans out to all registers.
        builder.add_broadcast_net(fanout=c.n_regs)
    builder.set_min_depth(1)


@_lower.register
def _(c: DistributedMemory, builder: NetlistBuilder) -> None:
    cs = builder.control_set("clk", enable="we")
    banks = math.ceil(c.depth / _LUTRAM_DEPTH)
    builder.add_lutrams(c.width * banks * c.read_ports, cs)
    if banks > 1:
        # Output mux per bit per read port: one 4:1 LUT mux level per
        # factor-of-4 of banks.
        mux_levels = math.ceil(math.log(banks, 4))
        mux_luts = c.width * c.read_ports * math.ceil((banks - 1) / 3)
        builder.add_luts(mux_luts, inputs=6)
        builder.bump_depth(mux_levels)
    # Write-enable broadcast.
    builder.add_broadcast_net(fanout=c.width * banks, is_control=True)
    builder.set_min_depth(1)


@_lower.register
def _(c: SumOfSquares, builder: NetlistBuilder) -> None:
    w = c.width
    rows = max(1, w // 2)
    acc_width = 2 * w + max(1, math.ceil(math.log2(c.n_terms + 1)))
    # The statistics count cells and keep the chains in order, so each
    # kind of cell is added by count.  Per squarer: partial-product
    # generation plus one row adder per row.
    builder.add_luts(c.n_terms * rows * w, inputs=4)
    builder.add_carry_chains(c.n_terms * rows, w + 2)
    if c.registered:
        cs = builder.control_set("clk", reset="rst")
        builder.add_ffs(c.n_terms * 2 * w, cs)
    # A balanced adder tree over n terms has n - 1 adders.
    builder.add_luts((c.n_terms - 1) * acc_width, inputs=3)
    builder.add_carry_chains(c.n_terms - 1, acc_width)
    builder.bump_depth(rows + math.ceil(math.log2(c.n_terms + 1)))
    builder.set_min_depth(2)


@_lower.register
def _(c: LFSRBank, builder: NetlistBuilder) -> None:
    # LFSRs share control sets in groups of 16 (common clock/enable).
    groups = _split_even(c.count, math.ceil(c.count / 16))
    for gi, group in enumerate(groups):
        if group == 0:
            continue
        cs = builder.control_set("clk", enable=f"run_{gi}")
        builder.add_luts(group, inputs=4)  # feedback XOR over the taps
        if c.use_srl and c.width > 4:
            body = c.width - 2
            builder.add_srls(group * math.ceil(body / _SRL_DEPTH), cs,
                             depth=min(body, _SRL_DEPTH))
            builder.add_ffs(2 * group, cs)
        else:
            builder.add_ffs(group * c.width, cs)
        # Per group: an output accumulator (adds carry usage, paper §VI-A).
        builder.add_luts(c.width, inputs=3)
        builder.add_carry_chain(c.width)
        builder.add_ffs(c.width, cs)
    builder.set_min_depth(2)


@_lower.register
def _(c: RandomLogicCloud, builder: NetlistBuilder) -> None:
    rng = stream(0, "cloud", builder.name, c.n_luts, c.avg_inputs)
    lo = int(math.floor(c.avg_inputs))
    hi = min(6, lo + 1)
    p_hi = c.avg_inputs - lo if hi > lo else 0.0
    wide = rng.random(c.n_luts) < p_hi
    fanouts = rng.geometric(0.55, size=c.n_luts)
    # The statistics only count LUTs, pins and fanouts, none of which
    # depend on order: add each (input width, fanout) class in one call.
    for mask, width in ((wide, hi), (~wide, max(1, lo))):
        for fanout, n in enumerate(np.bincount(fanouts[mask]).tolist()):
            if n:
                builder.add_luts(n, inputs=width, fanout=fanout)
    n_ff = int(round(c.n_luts * c.registered_fraction))
    if n_ff > 0:
        n_cs = max(1, min(8, n_ff // 32))
        for i, ffs in enumerate(_split_even(n_ff, n_cs)):
            if ffs:
                cs = builder.control_set("clk", reset=f"rst_c{i}")
                builder.add_ffs(ffs, cs)
    if c.fanout_hot > 1:
        builder.add_broadcast_net(fanout=c.fanout_hot)
    builder.set_min_depth(max(1, math.ceil(math.log2(c.n_luts + 1)) - 2))


@_lower.register
def _(c: FanoutTree, builder: NetlistBuilder) -> None:
    builder.add_broadcast_net(fanout=c.fanout, is_control=c.is_control)
    # Replication buffers for very high fanout nets.
    if c.fanout > 64 and not c.is_control:
        builder.add_luts(math.ceil(c.fanout / 64), inputs=1, fanout=64)


@_lower.register
def _(c: BlockMemory, builder: NetlistBuilder) -> None:
    builder.add_bram(c.n_bram36)
    builder.add_luts(2 * c.n_bram36, inputs=5)  # address decode / muxing
    builder.set_min_depth(2)


@_lower.register
def _(c: MacArray, builder: NetlistBuilder) -> None:
    cs = builder.control_set("clk", enable="ce")
    if c.use_dsp:
        builder.add_dsp(c.n_macs)
        builder.add_ffs(2 * c.width * c.n_macs, cs)  # input registers
        builder.add_luts((c.width // 2) * c.n_macs, inputs=4)  # glue
    else:
        acc = 2 * c.width + 4
        for _ in range(c.n_macs):
            builder.add_luts(math.ceil(c.width * c.width * 0.6), inputs=4)
            builder.add_carry_chain(acc)
            builder.add_ffs(acc, cs)
    builder.set_min_depth(3)


@_lower.register
def _(c: Pipeline, builder: NetlistBuilder) -> None:
    if c.shared_control:
        cs = builder.control_set("clk", enable="stall_n")
        builder.add_ffs(c.width * c.stages, cs)
        builder.add_broadcast_net(fanout=c.width * c.stages, is_control=True)
    else:
        for s in range(c.stages):
            cs = builder.control_set("clk", enable=f"valid_{s}")
            builder.add_ffs(c.width, cs)
    if c.luts_per_stage > 0:
        builder.add_luts(c.luts_per_stage * c.stages, inputs=4)
    builder.set_min_depth(1)


# ------------------------------------------------------------------- helpers


def _split_even(total: int, parts: int) -> list[int]:
    """Split ``total`` into ``parts`` near-equal non-negative integers."""
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]
