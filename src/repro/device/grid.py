"""The device grid: columns x CLB rows, with clock regions.

Coordinates
-----------
``x`` indexes columns (0-based, left to right); ``y`` indexes CLB rows
(0-based, bottom to top).  A rectangle is ``(x0, width_cols, y0,
height_clbs)``.  Heights of carry chains are measured in *slices*, which in
a CLB column correspond one-to-one to CLB rows (each CLB row contributes one
slice to each of the column's two slice columns).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

from repro.device.column import Column, ColumnKind
from repro.device.resources import (
    BRAM36_PER_REGION_COLUMN,
    DSP48_PER_REGION_COLUMN,
    FFS_PER_SLICE,
    LUTRAM_PER_MSLICE,
    LUTS_PER_SLICE,
    SLICES_PER_CLB,
    ResourceCaps,
)
from repro.utils.validation import check_positive

__all__ = ["DeviceGrid", "CLB_PER_REGION"]

#: 7-series clock regions are 50 CLBs tall.
CLB_PER_REGION = 50


class _ColumnTables(NamedTuple):
    """Per-grid tables behind :meth:`DeviceGrid.find_window` and
    :meth:`DeviceGrid.caps_in_rect`, indexed by column class ``k`` in the
    order of ``find_window``'s minima: CLB (LL or LM), CLB-LM, BRAM, DSP."""

    #: ``counts[k][x]``: columns of class ``k`` in ``[0, x)``.
    counts: tuple[tuple[int, ...], ...]
    #: ``positions[k]``: x of every column of class ``k``, left to right.
    positions: tuple[tuple[int, ...], ...]
    #: ``next_clock[x]``: the first clock spine at or after ``x``, or
    #: ``n_cols`` when there is none.
    next_clock: tuple[int, ...]


@dataclass(frozen=True)
class DeviceGrid:
    """A rectangular fabric of columns.

    Parameters
    ----------
    name:
        Part name, e.g. ``"xc7z020"``.
    columns:
        Left-to-right column sequence.
    n_regions:
        Number of clock-region rows; the grid is ``50 * n_regions`` CLB rows
        tall.

    Everything else a grid holds (its column tables and query memos) is
    derived from these three fields on first use, so it is never passed
    to the constructor, never carried over by :func:`dataclasses.replace`
    and never pickled.
    """

    name: str
    columns: tuple[Column, ...]
    n_regions: int

    def __post_init__(self) -> None:
        check_positive(self.n_regions, "n_regions")
        if not self.columns:
            raise ValueError("a device needs at least one column")
        for i, col in enumerate(self.columns):
            if col.x != i:
                raise ValueError(
                    f"column {i} has inconsistent x={col.x}; columns must be "
                    "numbered left to right"
                )

    def __getstate__(self) -> dict:
        # Only the defining fields: a pickle's bytes must not depend on
        # which queries the grid answered before it was pickled.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # ------------------------------------------------------------------ derived

    @cached_property
    def _tables(self) -> _ColumnTables:
        classes = [
            (k.is_clb, k is ColumnKind.CLBLM, k is ColumnKind.BRAM, k is ColumnKind.DSP)
            for k in self.kinds()
        ]
        counts = tuple(
            tuple(accumulate((int(c[k]) for c in classes), initial=0)) for k in range(4)
        )
        positions = tuple(
            tuple(x for x, c in enumerate(classes) if c[k]) for k in range(4)
        )
        next_clock = [self.n_cols] * self.n_cols
        clock = self.n_cols
        for col in reversed(self.columns):
            if col.kind is ColumnKind.CLOCK:
                clock = col.x
            next_clock[col.x] = clock
        return _ColumnTables(counts, positions, tuple(next_clock))

    @cached_property
    def _window_cache(self) -> dict[tuple[tuple[int, ...], int], tuple[int, int] | None]:
        return {}

    @cached_property
    def _kind_cache(self) -> dict[tuple[ColumnKind, ...], list[int]]:
        return {}

    @cached_property
    def memo(self) -> dict[str, object]:
        """Values other layers derive from this grid's defining fields
        alone (the module cache's grid fingerprint), kept per grid object
        so they are computed once.  Derived state: never pickled."""
        return {}

    # ------------------------------------------------------------------ geometry

    @property
    def n_cols(self) -> int:
        """Total number of columns (all kinds)."""
        return len(self.columns)

    @property
    def height_clbs(self) -> int:
        """Grid height in CLB rows."""
        return self.n_regions * CLB_PER_REGION

    @property
    def height_slices(self) -> int:
        """Height of one slice column, in slices (== CLB rows)."""
        return self.height_clbs

    def kinds(self, x0: int = 0, width: int | None = None) -> tuple[ColumnKind, ...]:
        """Column-kind pattern of the window ``[x0, x0+width)``."""
        if width is None:
            width = self.n_cols - x0
        self._check_window(x0, width)
        return tuple(c.kind for c in self.columns[x0 : x0 + width])

    def _check_window(self, x0: int, width: int) -> None:
        if x0 < 0 or width <= 0 or x0 + width > self.n_cols:
            raise ValueError(
                f"column window [{x0}, {x0 + width}) outside device "
                f"with {self.n_cols} columns"
            )

    def _check_rows(self, y0: int, height: int) -> None:
        if y0 < 0 or height <= 0 or y0 + height > self.height_clbs:
            raise ValueError(
                f"row window [{y0}, {y0 + height}) outside device "
                f"with {self.height_clbs} CLB rows"
            )

    # ------------------------------------------------------------------ capacity

    def caps_in_rect(self, x0: int, width: int, y0: int, height: int) -> ResourceCaps:
        """Resource capacities inside a rectangle.

        BRAM/DSP counts use each column's 5-CLB site pitch; partial pitches
        round down (a site must lie fully inside the rectangle).  The
        column counts come from the grid's prefix tables.
        """
        self._check_window(x0, width)
        self._check_rows(y0, height)
        clb, m, bram, dsp = (c[x0 + width] - c[x0] for c in self._tables.counts)
        n_slices = clb * height * SLICES_PER_CLB
        n_m = m * height  # one M slice per CLB-LM row
        return ResourceCaps(
            slices=n_slices,
            m_slices=n_m,
            luts=n_slices * LUTS_PER_SLICE,
            ffs=n_slices * FFS_PER_SLICE,
            carry4=n_slices,
            lutram_sites=n_m * LUTRAM_PER_MSLICE,
            bram36=bram * (height * BRAM36_PER_REGION_COLUMN // CLB_PER_REGION),
            dsp48=dsp * (height * DSP48_PER_REGION_COLUMN // CLB_PER_REGION),
        )

    def device_caps(self) -> ResourceCaps:
        """Capacities of the full device."""
        return self.caps_in_rect(0, self.n_cols, 0, self.height_clbs)

    def clb_column_xs(self, x0: int = 0, width: int | None = None) -> list[int]:
        """Absolute x of every CLB column in the window."""
        if width is None:
            width = self.n_cols - x0
        self._check_window(x0, width)
        return [c.x for c in self.columns[x0 : x0 + width] if c.kind.is_clb]

    def crosses_region_boundary(self, y0: int, height: int) -> bool:
        """True if the row window spans more than one clock region.

        PBlocks crossing a region boundary pay a clock-skew timing penalty
        (paper §IV: compact PBlocks can avoid clock distribution columns).
        """
        self._check_rows(y0, height)
        return (y0 // CLB_PER_REGION) != ((y0 + height - 1) // CLB_PER_REGION)

    # ------------------------------------------------------------------ relocation

    def compatible_x_anchors(self, pattern: Sequence[ColumnKind]) -> list[int]:
        """All x where a block whose columns follow ``pattern`` can sit.

        A pre-implemented block can only be relocated to positions where
        every column kind matches exactly (paper §IV).  Results are cached
        per pattern because the stitcher queries the same footprints many
        times.
        """
        key = tuple(pattern)
        cached = self._kind_cache.get(key)
        if cached is not None:
            return cached
        width = len(key)
        anchors: list[int] = []
        if 0 < width <= self.n_cols:
            all_kinds = self.kinds()
            for x in range(self.n_cols - width + 1):
                if all_kinds[x : x + width] == key:
                    anchors.append(x)
        self._kind_cache[key] = anchors
        return anchors

    def find_window(
        self,
        min_clb_cols: int,
        min_m_cols: int = 0,
        min_bram_cols: int = 0,
        min_dsp_cols: int = 0,
        start_x: int = 0,
    ) -> tuple[int, int] | None:
        """Find the narrowest window from ``start_x`` satisfying column minima.

        Returns ``(x0, width)`` of the narrowest window (the leftmost
        among equally narrow ones) that contains at least the requested
        number of CLB, CLB-LM, BRAM and DSP columns and no clock spine,
        or ``None`` if the device cannot satisfy it.  Used by the PBlock
        generator to snap a resource demand to the column grid.  Answers
        come from the grid's column tables and are memoized per
        ``(minima, start_x)``: a CF sweep asks the same question at many
        steps.
        """
        minima = (min_clb_cols, min_m_cols, min_bram_cols, min_dsp_cols)
        key = (minima, start_x)
        cache = self._window_cache
        if key in cache:
            return cache[key]
        counts, positions, next_clock = self._tables
        n = self.n_cols
        best: tuple[int, int] | None = None
        for x0 in range(start_x, n):
            # The narrowest window from x0 ends at the column that meets
            # its last minimum (n when too few remain); it is valid only
            # if no clock spine comes first.
            x1 = x0
            for need, count, xs in zip(minima, counts, positions):
                if need > 0:
                    i = count[x0] + need - 1
                    x1 = max(x1, xs[i] if i < len(xs) else n)
            width = x1 - x0 + 1
            if x1 < next_clock[x0] and (best is None or width < best[1]):
                best = (x0, width)
        cache[key] = best
        return best

    # ------------------------------------------------------------------ misc

    def clock_column_xs(self) -> list[int]:
        """x positions of clock spine columns."""
        return [c.x for c in self.columns if c.kind is ColumnKind.CLOCK]

    def summary(self) -> str:
        """One-line human-readable description."""
        caps = self.device_caps()
        return (
            f"{self.name}: {self.n_cols} cols x {self.height_clbs} CLB rows, "
            f"{caps.slices} slices ({caps.m_slices} M), "
            f"{caps.bram36} BRAM36, {caps.dsp48} DSP48"
        )

    @staticmethod
    def from_kinds(name: str, kinds: Iterable[ColumnKind], n_regions: int) -> "DeviceGrid":
        """Build a grid from a simple kind sequence."""
        cols = tuple(Column(kind=k, x=i) for i, k in enumerate(kinds))
        return DeviceGrid(name=name, columns=cols, n_regions=n_regions)
