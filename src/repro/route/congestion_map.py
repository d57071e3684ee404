"""Inter-block routing-congestion map of a stitched placement.

Decomposes every inter-block bus into horizontal and vertical demand over
the fabric columns/rows it crosses (HPWL routing model).  Dense, compact
placements shorten the buses and lower peak channel demand — the routing
face of the paper's §VIII cost improvement.

A bus charges exactly the channels its bounding box *crosses*: channel
``c`` sits between integer coordinates ``c`` and ``c + 1``, and a net
spanning ``[x0, x1]`` crosses the integer boundaries strictly inside
``(x0, x1)`` (boundary ``k`` belongs to channel ``k - 1``), so the range
is empty for zero-extent nets and for nets whose endpoints only touch a
boundary.  The map is a post-hoc score of a finished placement; no
placer optimizes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.device.grid import DeviceGrid
from repro.flow.blockdesign import BlockDesign
from repro.place.shapes import Footprint
from repro.place_kernel.result import StitchResult

__all__ = ["CHANNEL_CAPACITY", "CongestionMap", "congestion_map"]

#: Wires one inter-column (or inter-row) channel can carry.
CHANNEL_CAPACITY = 160


@dataclass(frozen=True)
class CongestionMap:
    """Routing demand over fabric channels.

    Attributes
    ----------
    column_demand:
        Wires crossing each vertical channel (between columns x and x+1).
    row_demand:
        Wires crossing each horizontal channel.
    n_routed_edges:
        Edges with both endpoints placed (and both modules footprinted).
    n_unrouted_edges:
        Edges skipped because an endpoint is unplaced or its module has
        no footprint (subset flows hand the stitcher partial footprint
        maps); these contribute no demand.
    """

    column_demand: np.ndarray
    row_demand: np.ndarray
    n_routed_edges: int
    n_unrouted_edges: int = 0

    @property
    def peak_column_demand(self) -> int:
        """Hottest vertical channel."""
        return int(self.column_demand.max()) if self.column_demand.size else 0

    @property
    def mean_column_demand(self) -> float:
        """Average vertical-channel load."""
        return float(self.column_demand.mean()) if self.column_demand.size else 0.0

    @property
    def overflowed_channels(self) -> int:
        """Channels beyond :data:`CHANNEL_CAPACITY`."""
        return int(np.sum(self.column_demand > CHANNEL_CAPACITY)) + int(
            np.sum(self.row_demand > CHANNEL_CAPACITY)
        )

    @property
    def total_overflow(self) -> int:
        """Total demand beyond capacity, summed over all channels:
        ``sum(max(0, demand - capacity))`` over vertical and horizontal
        channels."""
        over = np.maximum(self.column_demand - CHANNEL_CAPACITY, 0).sum()
        over += np.maximum(self.row_demand - CHANNEL_CAPACITY, 0).sum()
        return int(over)

    def render(self, width: int = 60) -> str:
        """One-line bar chart of the vertical-channel profile."""
        if self.column_demand.size == 0:
            return "<empty map>"
        peak = max(1, self.peak_column_demand)
        cols = np.array_split(self.column_demand, min(width, self.column_demand.size))
        glyphs = " .:-=+*#%@"
        line = "".join(
            glyphs[min(9, int(9 * chunk.max() / peak))] for chunk in cols
        )
        return f"[{line}] peak={self.peak_column_demand} wires"


def congestion_map(
    design: BlockDesign,
    footprints: dict[str, Footprint],
    stitch: StitchResult,
    grid: DeviceGrid,
) -> CongestionMap:
    """Build the demand map for a stitched placement.

    Instances whose module has no footprint (partial footprint maps from
    subset flows) are treated as unplaced: their edges are counted in
    ``n_unrouted_edges`` instead of raising.
    """
    col_demand = np.zeros(max(0, grid.n_cols - 1), dtype=np.int64)
    row_demand = np.zeros(max(0, grid.height_clbs - 1), dtype=np.int64)

    module_of = {i.name: i.module for i in design.instances}
    centers: dict[str, tuple[float, float]] = {}
    for name, pos in stitch.placements.items():
        if pos is None:
            continue
        fp = footprints.get(module_of[name])
        if fp is None:
            continue
        fp = fp.trimmed()
        centers[name] = (pos[0] + fp.width / 2.0, pos[1] + fp.max_height / 2.0)

    # Gather routable edges into flat arrays, then range-add each edge's
    # channel window with a difference array + cumsum (vectorized over
    # edges; no per-edge Python slice assignments).
    ax, ay, bx, by, w = [], [], [], [], []
    routed = unrouted = 0
    for e in design.edges:
        a = centers.get(e.src)
        b = centers.get(e.dst)
        if a is None or b is None:
            unrouted += 1
            continue
        routed += 1
        ax.append(a[0])
        ay.append(a[1])
        bx.append(b[0])
        by.append(b[1])
        w.append(e.width)

    if routed:
        wa = np.asarray(w, dtype=np.int64)
        for lo_f, hi_f, demand in (
            (np.minimum(ax, bx), np.maximum(ax, bx), col_demand),
            (np.minimum(ay, by), np.maximum(ay, by), row_demand),
        ):
            if not demand.size:
                continue
            # Channels floor(lo) .. ceil(hi) - 2, clipped to the grid.
            first = np.clip(np.floor(lo_f).astype(np.int64), 0, demand.size)
            last = np.clip(
                np.ceil(hi_f).astype(np.int64) - 2, -1, demand.size - 1
            )
            sel = first <= last
            diff = np.zeros(demand.size + 1, dtype=np.int64)
            np.add.at(diff, first[sel], wa[sel])
            np.add.at(diff, last[sel] + 1, -wa[sel])
            demand += np.cumsum(diff[:-1])

    return CongestionMap(
        column_demand=col_demand,
        row_demand=row_demand,
        n_routed_edges=routed,
        n_unrouted_edges=unrouted,
    )
