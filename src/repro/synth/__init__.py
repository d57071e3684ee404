"""Synthesis simulator.

Lowers :class:`~repro.rtlgen.base.RTLModule` descriptions to
technology-mapped :class:`~repro.netlist.netlist.Netlist` counts, the way
the paper's flow runs Vivado synthesis + ``opt_design`` before estimating a
PBlock (Fig. 1); ``opt_design`` returns its input, because the builder
admits no dangling net for it to strip.  The lowering rules are
deterministic functions of the construct parameters, so resource
statistics are exactly reproducible.
"""

from repro.synth.mapper import opt_design, synthesize
from repro.synth.packing import (
    ff_slice_demand_fragmented,
    lut_pack_efficiency,
    sharing_efficiency,
)
from repro.synth.report import UtilizationReport, utilization_report

__all__ = [
    "UtilizationReport",
    "ff_slice_demand_fragmented",
    "lut_pack_efficiency",
    "opt_design",
    "sharing_efficiency",
    "synthesize",
    "utilization_report",
]
