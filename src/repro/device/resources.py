"""Resource kinds and per-site capacities of the 7-series fabric.

The constants follow the real architecture: a slice holds 4 six-input LUTs,
8 flip-flops and one CARRY4 segment (4 carry bits).  Only M-type slices can
implement distributed RAM (LUTRAM) or shift registers (SRL), 4 LUT sites
each.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

__all__ = [
    "SliceType",
    "ResourceCaps",
    "LUTS_PER_SLICE",
    "FFS_PER_SLICE",
    "CARRY_BITS_PER_SLICE",
    "LUTRAM_PER_MSLICE",
    "SRL_PER_MSLICE",
    "SLICES_PER_CLB",
    "BRAM36_PER_REGION_COLUMN",
    "DSP48_PER_REGION_COLUMN",
]

LUTS_PER_SLICE = 4
FFS_PER_SLICE = 8
CARRY_BITS_PER_SLICE = 4
LUTRAM_PER_MSLICE = 4
SRL_PER_MSLICE = 4
SLICES_PER_CLB = 2

#: One BRAM36 spans five CLB rows, so a BRAM column holds 10 per 50-CLB
#: clock region.  DSP48 slices have the same 5-CLB pitch in this model.
BRAM36_PER_REGION_COLUMN = 10
DSP48_PER_REGION_COLUMN = 10


class SliceType(enum.Enum):
    """L-type (logic only) or M-type (logic + distributed RAM / SRL)."""

    SLICEL = "SLICEL"
    SLICEM = "SLICEM"


@dataclass(frozen=True)
class ResourceCaps:
    """Aggregate resource capacities of a fabric region (or demands of a
    netlist, when used as a requirement vector).

    Attributes
    ----------
    slices:
        Total slice count (M + L).
    m_slices:
        M-type slices (subset of ``slices``).
    luts, ffs:
        LUT and flip-flop sites.
    carry4:
        CARRY4 segments (one per slice).
    lutram_sites:
        LUT sites usable as distributed RAM or SRL (4 per M slice).
    bram36:
        36-kbit block RAMs.
    dsp48:
        DSP48 slices.
    """

    slices: int = 0
    m_slices: int = 0
    luts: int = 0
    ffs: int = 0
    carry4: int = 0
    lutram_sites: int = 0
    bram36: int = 0
    dsp48: int = 0

    def __post_init__(self) -> None:
        # The eight fields by name, not through ``fields``: every packed
        # PBlock builds one, and the lookup would cost more than the check.
        values = (self.slices, self.m_slices, self.luts, self.ffs,
                  self.carry4, self.lutram_sites, self.bram36, self.dsp48)
        if min(values) < 0:
            name, v = next((f.name, v) for f, v in zip(fields(self), values) if v < 0)
            raise ValueError(f"ResourceCaps.{name} must be >= 0, got {v}")
        if self.m_slices > self.slices:
            raise ValueError(
                f"m_slices ({self.m_slices}) cannot exceed slices ({self.slices})"
            )

    def __add__(self, other: "ResourceCaps") -> "ResourceCaps":
        return ResourceCaps(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    @staticmethod
    def for_slices(n_slices: int, n_m_slices: int = 0) -> "ResourceCaps":
        """Capacities of ``n_slices`` slices, ``n_m_slices`` of them M-type."""
        return ResourceCaps(
            slices=n_slices,
            m_slices=n_m_slices,
            luts=n_slices * LUTS_PER_SLICE,
            ffs=n_slices * FFS_PER_SLICE,
            carry4=n_slices,
            lutram_sites=n_m_slices * LUTRAM_PER_MSLICE,
        )
