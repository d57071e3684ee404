"""Detailed intra-PBlock placement (the feasibility ground truth).

Given a module's statistics and a candidate PBlock, decide whether place &
route would succeed inside it, how many slices the module occupies, and
what footprint (skyline) the placement leaves.  The mechanics implement
paper §V:

A. CLB-LM columns bring an implicit L slice (grid model);
B. control-set exclusivity fragments FF packing;
C. carry chains need vertically contiguous slices in one slice column;
D. high fanout lowers the routable-utilization ceiling;
E. balanced LUT/FF/carry demand degrades slice sharing.

A deterministic per-module noise term models residual placer
irregularity; it is a pure function of the module name, so the minimal
feasible CF is stable across sweeps yet not predictable from aggregate
features — bounding estimator accuracy away from zero, as in the paper.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.device.resources import LUTS_PER_SLICE, LUTRAM_PER_MSLICE
from repro.netlist.stats import NetlistStats
from repro.place.congestion import routable_utilization
from repro.place.shapes import Footprint
from repro.synth.packing import (
    ff_slice_demand_fragmented,
    lut_pack_efficiency,
    sharing_efficiency,
)
from repro.utils.rng import module_noise, stream

if TYPE_CHECKING:  # import only for annotations: pblock imports place
    from repro.pblock.pblock import PBlock

__all__ = ["PackResult", "pack", "pack_chains", "placer_noise_amplitude"]

#: Amplitude of the deterministic per-module demand noise.
_NOISE_HI = 0.07
_noise_hi_override: list[float] = []


class placer_noise_amplitude:
    """Context manager overriding the placer-noise amplitude.

    Used by the noise-sensitivity ablation to probe how much of the
    estimator's residual error is irreducible placer irregularity::

        with placer_noise_amplitude(0.0):
            records, _ = generate_dataset(200)

    Nesting is allowed; the innermost value wins.  The override is
    process-local and intended for experiments, not for flows.
    """

    def __init__(self, amplitude: float) -> None:
        if amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {amplitude}")
        self.amplitude = amplitude

    def __enter__(self) -> "placer_noise_amplitude":
        _noise_hi_override.append(self.amplitude)
        return self

    def __exit__(self, *exc) -> None:
        _noise_hi_override.pop()


def _noise_hi() -> float:
    return _noise_hi_override[-1] if _noise_hi_override else _NOISE_HI


#: Slice waste of a fully unconstrained placement (scales with PBlock slack).
_SPREAD_WASTE = 0.45


@dataclass(frozen=True)
class PackResult:
    """Outcome of one detailed packing attempt.

    Attributes
    ----------
    feasible:
        Whether place & route succeeds in the PBlock.
    reason:
        Failure category when infeasible (``"bram"``, ``"dsp"``,
        ``"m_slices"``, ``"chain_height"``, ``"chain_packing"``,
        ``"congestion"``); empty when feasible.
    used_slices:
        Occupied slices (0 when infeasible).
    demand_slices:
        Slice demand after fragmentation/sharing (also set on congestion
        failures, for diagnostics).
    utilization:
        ``used_slices / pblock.caps.slices``.
    footprint:
        Skyline of the placement (``None`` when infeasible).
    """

    feasible: bool
    reason: str = ""
    used_slices: int = 0
    demand_slices: int = 0
    utilization: float = 0.0
    footprint: Footprint | None = field(default=None, compare=False)


def slice_demand(stats: NetlistStats) -> int:
    """Post-fragmentation slice demand of a module (PBlock-independent).

    This is the packer's demand model without the geometry and congestion
    checks; the minimal CF is roughly ``demand / naive estimate`` plus the
    geometric and routability corrections.
    """
    lut_eff = lut_pack_efficiency(stats.avg_lut_inputs if stats.n_lut else 4.0)
    lut_slices = math.ceil(stats.n_lut / (LUTS_PER_SLICE * lut_eff))
    ff_slices = ff_slice_demand_fragmented(stats.ff_per_control_set)
    carry_slices = stats.n_carry4
    m_slices = math.ceil(stats.n_m_lut_sites / LUTRAM_PER_MSLICE)

    demands = (lut_slices, ff_slices, carry_slices)
    raw = sum(demands)
    if raw == 0:
        logic = 0.0
    else:
        dominant = max(demands)
        density = dominant / raw
        cs_pressure = stats.n_control_sets / max(1, ff_slices)
        share = sharing_efficiency(density, cs_pressure)
        logic = dominant + (raw - dominant) * (1.0 - share)

    hi = _noise_hi()
    noise = module_noise(stats.name, "pack", 0.0, hi) if hi > 0 else 0.0
    total = (logic + m_slices) * (1.0 + noise)
    return max(1, math.ceil(total))


def pack(stats: NetlistStats, pblock: PBlock) -> PackResult:
    """Attempt a detailed placement of ``stats`` inside ``pblock``."""
    caps = pblock.caps

    # Hard blocks first: no amount of CF slack fixes a missing BRAM column.
    if stats.n_bram > caps.bram36:
        return PackResult(False, reason="bram")
    if stats.n_dsp > caps.dsp48:
        return PackResult(False, reason="dsp")

    m_slice_demand = math.ceil(stats.n_m_lut_sites / LUTRAM_PER_MSLICE)
    if m_slice_demand > caps.m_slices:
        return PackResult(False, reason="m_slices")

    # Carry-chain geometry (paper §V-C): first-fit-decreasing into the
    # PBlock's slice columns.
    height = pblock.height  # slices per slice column
    chains = stats.carry_chain_slices
    if chains:
        if max(chains) > height:
            return PackResult(False, reason="chain_height")
        if pack_chains(Counter(chains), height, pblock.n_slice_cols) is None:
            return PackResult(False, reason="chain_packing", demand_slices=sum(chains))

    demand = slice_demand(stats)

    ceiling = routable_utilization(stats, caps)
    # A handful of slices routes trivially; the utilization ceiling only
    # makes sense once the region is large enough to congest.
    limit = caps.slices if caps.slices <= 8 else caps.slices * ceiling
    if demand > limit:
        return PackResult(
            False,
            reason="congestion",
            demand_slices=demand,
            utilization=demand / caps.slices if caps.slices else 0.0,
        )

    # Loose PBlocks waste slices: an unconstrained placer spreads logic
    # instead of packing it (Table I: the same module uses more slices at
    # CF 1.5 than at CF 1.0).  No waste above ~85% utilization — a tightly
    # constrained placement packs at least as well as a flat flow.
    u_raw = demand / caps.slices if caps.slices else 1.0
    spread = 1.0 + _SPREAD_WASTE * max(0.0, 1.0 - u_raw - 0.15)
    used = min(math.ceil(demand * spread), math.floor(caps.slices * ceiling))
    used = max(used, demand)

    footprint = _build_footprint(stats, pblock, used)
    return PackResult(
        True,
        used_slices=used,
        demand_slices=demand,
        utilization=used / caps.slices if caps.slices else 0.0,
        footprint=footprint,
    )


def pack_chains(
    counts: Mapping[int, int], height: int, n_cols: int
) -> list[int] | None:
    """First-fit-decreasing of carry chains into slice columns.

    ``counts`` maps a chain length (slices) to how many chains have it;
    each of the ``n_cols`` columns holds ``height`` slices.  Returns the
    free slices left per column, or ``None`` when some chain fits in no
    column.  Equal chains fill each column in turn, so one length at a
    time a column takes ``min(left, free // length)`` of them: the
    packing a chain-by-chain first fit makes, at a cost of distinct
    lengths times columns instead of chains times columns.
    """
    col_free = [height] * n_cols
    for length, left in sorted(counts.items(), reverse=True):
        for i, free in enumerate(col_free):
            if free >= length:
                take = left if length == 0 else min(left, free // length)
                col_free[i] = free - take * length
                left -= take
                if not left:
                    break
        else:
            return None
    return col_free


def _build_footprint(stats: NetlistStats, pblock: PBlock, demand: int) -> Footprint:
    """Distribute ``demand`` slices over the PBlock's columns as a skyline.

    Real placers spread logic when a region is loosely constrained; we
    model the per-column fill level as ``u^0.65`` of the height (u = slice
    utilization) with deterministic per-column jitter, then trim to the
    exact demand.  Tight PBlocks (u -> 1) therefore produce near-perfect
    rectangles, loose ones the irregular shapes of Fig. 3.
    """
    kinds = pblock.kinds
    height = pblock.height
    n_clb_cols = pblock.n_clb_cols
    cap = n_clb_cols * 2 * height
    u = min(1.0, demand / cap) if cap else 1.0

    need_clbs = min(math.ceil(demand / 2), n_clb_cols * height)
    rng = stream(0, "footprint", stats.name, pblock.width, pblock.height)

    # Start from the flattest possible profile (a rectangle plus one
    # partial stair), then let the placer wander in proportion to its
    # slack: skyline raggedness shrinks sharply as the PBlock tightens
    # (paper §IV: minimal-CF placements become "more rectangular").
    base, rem = divmod(need_clbs, n_clb_cols)
    targets = [base + (1 if c < rem else 0) for c in range(n_clb_cols)]
    amp = 0.02 + 0.55 * (1.0 - u) ** 1.5
    jitter = rng.uniform(1.0 - amp, 1.0 + amp, size=n_clb_cols)
    targets = [min(height, max(0, round(t * j))) for t, j in zip(targets, jitter)]

    # Restore the exact total, adjusting from the right so the bulk of
    # the profile stays flat.
    total = sum(targets)
    c = n_clb_cols - 1
    guard = 4 * n_clb_cols
    while total != need_clbs and guard > 0:
        guard -= 1
        if total < need_clbs and targets[c] < height:
            targets[c] += 1
            total += 1
        elif total > need_clbs and targets[c] > 0:
            targets[c] -= 1
            total -= 1
        c = c - 1 if c > 0 else n_clb_cols - 1

    heights: list[int] = []
    clb_i = 0
    for kind in kinds:
        if kind.is_clb:
            heights.append(targets[clb_i])
            clb_i += 1
        elif kind.value == "BRAM" and stats.n_bram > 0:
            heights.append(min(height, stats.n_bram * 5))
        elif kind.value == "DSP" and stats.n_dsp > 0:
            heights.append(min(height, stats.n_dsp * 5))
        else:
            heights.append(0)
    return Footprint(col_kinds=kinds, heights=tuple(heights))
