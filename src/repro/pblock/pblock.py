"""The PBlock rectangle."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.device.column import ColumnKind
from repro.device.grid import DeviceGrid
from repro.device.resources import ResourceCaps

__all__ = ["PBlock"]


@dataclass(frozen=True)
class PBlock:
    """A rectangular area constraint on a device grid.

    Attributes
    ----------
    grid:
        The device.
    x0, width:
        Column window (all column kinds included; PBlocks never contain
        the clock spine).
    y0, height:
        CLB-row window; carry chains can span at most ``height`` slices.
    """

    grid: DeviceGrid
    x0: int
    width: int
    y0: int
    height: int

    def __post_init__(self) -> None:
        # The grid checks the column window and reads the clock spine off
        # its prefix tables: O(1) at any width, as a CF sweep builds a
        # PBlock at every step.
        has_clock = self.grid.spans_clock(self.x0, self.width)
        if self.y0 < 0 or self.height <= 0 or self.y0 + self.height > self.grid.height_clbs:
            raise ValueError(
                f"rows [{self.y0}, {self.y0 + self.height}) outside device "
                f"of {self.grid.height_clbs} CLB rows"
            )
        if has_clock:
            raise ValueError("a PBlock cannot contain the clock spine column")

    @cached_property
    def kinds(self) -> tuple[ColumnKind, ...]:
        """Column-kind pattern (the relocation signature)."""
        return self.grid.kinds(self.x0, self.width)

    @cached_property
    def caps(self) -> ResourceCaps:
        """Resource capacities inside the rectangle."""
        return self.grid.caps_in_rect(self.x0, self.width, self.y0, self.height)

    @property
    def n_clb_cols(self) -> int:
        """Number of CLB columns inside."""
        return self.grid.clb_cols(self.x0, self.width)

    @property
    def n_slice_cols(self) -> int:
        """Number of slice columns (two per CLB column)."""
        return 2 * self.n_clb_cols

    @property
    def area_clbs(self) -> int:
        """Bounding area in CLB cells (CLB columns x rows)."""
        return self.n_clb_cols * self.height

    def crosses_region_boundary(self) -> bool:
        """True if the PBlock spans a clock-region boundary (timing penalty)."""
        return self.grid.crosses_region_boundary(self.y0, self.height)

    def describe(self) -> str:
        """Short human-readable description."""
        return (
            f"PBlock[x={self.x0}+{self.width}, y={self.y0}+{self.height}] "
            f"{self.caps.slices} slices ({self.caps.m_slices} M), "
            f"{self.caps.bram36} BRAM36, {self.caps.dsp48} DSP48"
        )
