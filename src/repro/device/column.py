"""Fabric columns.

A device is a left-to-right sequence of columns; each column is uniform in
the vertical direction.  CLB columns expose two *slice columns* (the two
side-by-side slices of every CLB); for a CLB-LM column, slice column 0 is
the M-type slice of each CLB and slice column 1 the L-type one, matching
the real SLICEM/SLICEL split of a CLBLM tile.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["ColumnKind", "Column"]


class ColumnKind(enum.Enum):
    """Resource kind of one fabric column."""

    CLBLL = "CLBLL"  # two SLICEL per CLB
    CLBLM = "CLBLM"  # one SLICEM + one SLICEL per CLB (paper §V-A)
    BRAM = "BRAM"
    DSP = "DSP"
    CLOCK = "CLOCK"  # vertical clock distribution spine

    @property
    def is_clb(self) -> bool:
        """True for columns contributing slices."""
        return self in (ColumnKind.CLBLL, ColumnKind.CLBLM)


@dataclass(frozen=True)
class Column:
    """One fabric column.

    Parameters
    ----------
    kind:
        Resource kind.
    x:
        Zero-based position in the device's column sequence.
    """

    kind: ColumnKind
    x: int
