"""Compatible-site geometry shared by every placement optimizer.

A :class:`SiteTable` caches, per unique (trimmed) footprint, everything
the move kernels need to probe and paint the device: compatible anchor
columns, the hard-block row pitch, per-column occupancy bitmasks (as a
list of occupied columns and as a skyline indexed by column offset),
one dilation shift schedule per distinct column height, the occupied
column offsets as one bitmask and the allowed-anchor-row mask.
Sharing one table across every instance of a module means a design with
heavy reuse (cnvW1A1: 175 instances / 74 modules) builds each table
once.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary

import numpy as np

from repro.device.column import ColumnKind
from repro.device.grid import DeviceGrid
from repro.place.shapes import Footprint

__all__ = [
    "HARD_KINDS",
    "HARD_PITCH",
    "SiteTable",
    "column_capacities",
    "site_table",
    "site_tables",
]

#: Column kinds whose sites span several CLB rows.
HARD_KINDS = (ColumnKind.BRAM, ColumnKind.DSP)
#: CLB rows per BRAM/DSP site (anchor rows must be multiples of this).
HARD_PITCH = 5


def _shift_schedule(h: int) -> tuple[int, ...]:
    """Shifts that dilate a column mask down by height ``h``.

    ORing ``mask >> s`` into ``mask`` for each ``s`` in turn (1, 2, 4,
    ... capped so they sum to ``h - 1``) sets bit ``y`` iff ``mask`` had
    any bit in ``[y, y + h)``: the anchor rows at which a column of
    height ``h`` collides.
    """
    shifts = []
    covered = 1
    while covered < h:
        s = min(covered, h - covered)
        shifts.append(s)
        covered += s
    return tuple(shifts)


class SiteTable:
    """Compatible-site table of one unique (trimmed) footprint.

    Shared by every instance of the same module, so a design with heavy
    reuse builds each table once.
    """

    __slots__ = (
        "footprint",
        "anchors_x",
        "y_step",
        "y_max",
        "n_y",
        "area",
        "max_height",
        "half_w",
        "half_h",
        "heights_arr",
        "masks",
        "dilations",
        "col_bits",
        "skyline",
        "allowed_mask",
    )

    def __init__(self, grid: DeviceGrid, fp: Footprint) -> None:
        self.footprint = fp
        self.anchors_x = grid.compatible_x_anchors(fp.col_kinds)
        self.y_step = (
            HARD_PITCH if any(k in HARD_KINDS for k in fp.col_kinds) else 1
        )
        self.y_max = grid.height_clbs - fp.max_height
        self.n_y = self.y_max // self.y_step + 1 if self.y_max >= 0 else 0
        self.area = fp.occupied_clbs
        self.max_height = fp.max_height
        self.half_w = fp.width / 2.0
        self.half_h = fp.max_height / 2.0
        self.heights_arr = fp.heights_array()
        self.masks = tuple(
            (c, (1 << int(h)) - 1, int(h))
            for c, h in enumerate(fp.heights)
            if h
        )
        # ``(columns, shifts)`` per distinct column height: the dilation
        # that turns the OR of device columns ``x + c`` (``c`` in
        # ``columns``) into the anchor rows those columns collide at (see
        # :func:`_shift_schedule`).  Dilation distributes over OR, so one
        # dilation per height equals one per column.
        by_height: dict[int, list[int]] = {}
        for c, _m, h in self.masks:
            by_height.setdefault(h, []).append(c)
        self.dilations = tuple(
            (tuple(cols), _shift_schedule(h)) for h, cols in by_height.items()
        )
        # Bit ``c`` set for every occupied column offset: shifted by an
        # anchor ``x``, the device columns a placement there occupies.
        self.col_bits = sum(1 << c for c, _m, _h in self.masks)
        # ``skyline[c]``: the occupied-row mask of column offset ``c`` (0
        # for an empty interior column), so a probe finds the block's own
        # rows in any device column its span covers.
        skyline = [0] * fp.width
        for c, m, _h in self.masks:
            skyline[c] = m
        self.skyline = tuple(skyline)
        allowed = 0
        if self.y_max >= 0:
            if self.y_step == 1:
                allowed = (1 << (self.y_max + 1)) - 1
            else:
                for y in range(0, self.y_max + 1, self.y_step):
                    allowed |= 1 << y
        self.allowed_mask = allowed


def column_capacities(grid: DeviceGrid) -> np.ndarray:
    """Per-column placeable CLB-row capacity of ``grid`` (float64 array).

    Every footprint column occupies ``height`` CLB rows regardless of
    kind (hard-block columns are painted at CLB-row granularity too), so
    each placeable column contributes ``grid.height_clbs`` rows of
    capacity.  Clock-spine columns can never appear in a footprint
    pattern (:meth:`DeviceGrid.find_window` refuses to cross them), so
    their capacity is zero — the analytic placer's density penalty uses
    this to steer demand away from the spine, and the ``gplace`` device
    utilization report sums it.
    """
    caps = np.full(grid.n_cols, float(grid.height_clbs), dtype=np.float64)
    for col in grid.columns:
        if col.kind is ColumnKind.CLOCK:
            caps[col.x] = 0.0
    return caps


#: Process-local compatible-site tables keyed by (grid, footprint).
#: A table is a pure, immutable function of its key, so sharing one
#: object across kernels (and across ``clear()``/``restore()`` cycles)
#: is bitwise-neutral; the weak key lets throwaway test grids be
#: collected.  Restart fan-outs build one kernel per seed over the same
#: problem — without the cache every seed re-derived every table.
_TABLE_CACHE: "WeakKeyDictionary[DeviceGrid, dict[Footprint, SiteTable]]" = (
    WeakKeyDictionary()
)


def site_tables(grid: DeviceGrid) -> dict[Footprint, SiteTable]:
    """The process-wide ``{footprint: SiteTable}`` cache of ``grid``.

    Hashing a grid hashes every column, so a caller that looks up many
    footprints fetches this dict once (a miss still goes through
    :func:`site_table`).
    """
    per_grid = _TABLE_CACHE.get(grid)
    if per_grid is None:
        per_grid = {}
        _TABLE_CACHE[grid] = per_grid
    return per_grid


def site_table(grid: DeviceGrid, fp: Footprint) -> SiteTable:
    """The shared :class:`SiteTable` for ``fp`` on ``grid`` (cached).

    Every kernel construction routes through the same cache, so serial
    restart families and the GA/tempering ``restore()`` round-trips pay
    the table derivation once per unique (grid, footprint) pair per
    process instead of once per seed.
    """
    per_grid = site_tables(grid)
    table = per_grid.get(fp)
    if table is None:
        table = SiteTable(grid, fp)
        per_grid[fp] = table
    return table
