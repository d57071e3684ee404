"""Aggregate netlist statistics.

:class:`NetlistStats` is the single summary consumed by the quick placer,
the PBlock packer, the timing model and feature extraction.  It is derived
from the counts a :class:`~repro.netlist.netlist.Netlist` already holds, so
computing it costs one pass over the carry chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.netlist.netlist import Netlist

__all__ = ["NetlistStats", "compute_stats"]

_CARRY_BITS = 4
_FFS_PER_SLICE = 8


@dataclass(frozen=True)
class NetlistStats:
    """Aggregates of one module netlist.

    Counting conventions match the paper: ``n_carry4`` is the number of
    carry *slices* (CARRY4 segments, i.e. "carry cells"); ``carry_chain_slices``
    lists per-chain slice lengths for the geometry check.
    """

    name: str
    n_lut: int
    n_ff: int
    n_srl: int
    n_lutram: int
    n_bram: int
    n_dsp: int
    n_carry4: int
    carry_chain_slices: tuple[int, ...]
    n_control_sets: int
    ff_per_control_set: tuple[int, ...]
    max_fanout: int
    mean_fanout: float
    total_pins: int
    avg_lut_inputs: float
    logic_depth: int
    n_cells: int
    n_nets: int

    # ------------------------------------------------------------- derived

    @property
    def n_logic_luts(self) -> int:
        """LUT sites used for logic (excluding SRL/LUTRAM sites)."""
        return self.n_lut

    @property
    def n_m_lut_sites(self) -> int:
        """LUT sites that must be in M slices."""
        return self.n_srl + self.n_lutram

    @property
    def ff_slice_demand(self) -> int:
        """FF slice demand under control-set exclusivity (paper §V-B)."""
        return sum(math.ceil(n / _FFS_PER_SLICE) for n in self.ff_per_control_set)

    @property
    def max_chain_slices(self) -> int:
        """Tallest carry chain, in slices (0 when there are no chains)."""
        return max(self.carry_chain_slices, default=0)

    @property
    def total_sites(self) -> int:
        """All primitive sites; used to normalize relative features."""
        return (
            self.n_lut
            + self.n_ff
            + self.n_srl
            + self.n_lutram
            + self.n_carry4
            + self.n_bram
            + self.n_dsp
        )

    def is_trivial(self) -> bool:
        """True for one-or-two-tile modules the paper excludes from the
        estimator study (§VIII keeps 63 of cnvW1A1's 74 modules).

        A couple of tiles hold ~8 slices (~64 primitive sites); any module
        under that needs no estimator — its PBlock is quantization-driven.
        """
        if self.n_bram + self.n_dsp > 0:
            return False
        return (
            self.n_lut + self.n_ff + self.n_srl + self.n_lutram + self.n_carry4
            <= 64
        )


def compute_stats(netlist: Netlist) -> NetlistStats:
    """Derive the aggregate statistics of ``netlist``."""
    chain_slices = tuple(math.ceil(bits / _CARRY_BITS) for bits in netlist.carry_chains)
    n_carry4 = sum(chain_slices)
    n_lut, n_signal_nets = netlist.n_lut, netlist.n_signal_nets
    return NetlistStats(
        name=netlist.name,
        n_lut=n_lut,
        n_ff=netlist.n_ff,
        n_srl=netlist.n_srl,
        n_lutram=netlist.n_lutram,
        n_bram=netlist.n_bram,
        n_dsp=netlist.n_dsp,
        n_carry4=n_carry4,
        carry_chain_slices=chain_slices,
        n_control_sets=netlist.n_control_sets,
        ff_per_control_set=tuple(sorted(netlist.ff_per_control_set, reverse=True)),
        max_fanout=netlist.max_fanout,
        mean_fanout=(netlist.fanout_sum / n_signal_nets) if n_signal_nets else 0.0,
        total_pins=netlist.fanout_sum + n_signal_nets,  # loads + drivers
        avg_lut_inputs=(netlist.lut_inputs / n_lut) if n_lut else 0.0,
        logic_depth=netlist.logic_depth,
        n_cells=n_lut + netlist.n_ff + netlist.n_srl + netlist.n_lutram
        + n_carry4 + netlist.n_bram + netlist.n_dsp,
        n_nets=netlist.n_nets,
    )
