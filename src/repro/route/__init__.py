"""Routing-delay and longest-path model.

Reproduces the paper's Table I observation: tighter PBlocks use fewer
slices but worsen timing, because higher utilization forces routing
detours.  The model combines logic depth, congestion-dependent net delay,
carry propagation and fanout/clock-region penalties.  At the design
level, :func:`congestion_map` and :func:`block_critical_path` score a
stitched placement after the fact: channel demand under an HPWL
routing model, and the block graph's critical path with
placement-aware net delays.
"""

from repro.route.congestion_map import (
    CHANNEL_CAPACITY,
    CongestionMap,
    congestion_map,
)
from repro.route.timing import (
    BlockTimingReport,
    TimingReport,
    block_critical_path,
    longest_path,
)

__all__ = [
    "CHANNEL_CAPACITY",
    "BlockTimingReport",
    "CongestionMap",
    "TimingReport",
    "block_critical_path",
    "congestion_map",
    "longest_path",
]
