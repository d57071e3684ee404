"""Technology-mapped netlist model.

A :class:`~repro.netlist.netlist.Netlist` is what the synthesis simulator
produces for a module: the counts of its primitives (LUTs, FFs, CARRY4
chains, SRLs, LUTRAMs, BRAMs, DSPs), the fanout of its signal nets and its
flip-flop *control sets* (clock/reset/enable groups, paper §V-B), tallied
by a :class:`~repro.netlist.netlist.NetlistBuilder`.  The statistics used
by placement and feature extraction live in
:class:`~repro.netlist.stats.NetlistStats`, derived from those counts.
"""

from repro.netlist.netlist import Netlist, NetlistBuilder
from repro.netlist.stats import NetlistStats, compute_stats

__all__ = [
    "Netlist",
    "NetlistBuilder",
    "NetlistStats",
    "compute_stats",
]
