"""Move kernel: the geometry/cost primitives of macro placement.

:class:`FastKernel` implements overlap probing, occupancy painting,
incremental HPWL and greedy packing over per-column occupancy bitmasks
stored as Python big-ints.  An overlap probe is one shift+AND per
column; a relocation probe masks out the block's own rows instead of
lifting the block, so a rejected move never repaints; the greedy packer
finds the lowest legal row with a logarithmic bit dilation instead of a
row scan, one per distinct column height of the footprint (each site
table ORs the device columns of one height together and holds that
height's shift schedule).  Compatible-site tables are shared by every
instance of a module, and instance centers live in Python lists that
the per-move cost deltas read directly.

On a crowded device most place attempts and packing scans look for a
footprint that fits nowhere.  :class:`FastKernel` remembers that
*verdict* per site table (painting more cells cannot make a footprint
fit), and every scan it answers is skipped: a place attempt consumes
its probes' draws unread and counts their misses, and the packers
(``greedy_initial``, ``first_fit_fill``, the GA's decode) pass the
instance by.  Every unpaint logs the device columns it freed, and the
log restarts at each ``clear``/``restore``; a verdict older than the
last free is revalidated by scanning only the anchors whose columns
meet a column freed since it was recorded.  A verdict is exact: it
stands only when every anchor row a place attempt can draw fails
``fits``.

:class:`PlacementKernel` holds the packers and the one per-call move
``src/`` uses (``try_move``, the GA's memetic polish), which draw,
decide and count on top of abstract primitives.
:meth:`FastKernel.run_batch` is the one batch loop that ships: the SA
anneal, the GA's repair phase and every tempering chain run it, and it
is where ``src/`` writes the place and swap moves.  It reads its draws
straight off the :class:`~repro.place_kernel.uniform.UniformBuffer`
list and inlines the three moves and their probes, cost deltas and
position updates, so its draws, decisions and counters must stay
exactly those of the per-call moves the generic loop drives.
``tests/kernel_oracle.py`` is the executable specification both are
tested against: a subclass with the original straightforward
primitives (numpy occupancy slicing, lift/probe/put-back relocation
probes, per-edge Python sums), no verdicts, so it probes every attempt
the fast kernel skips, the per-call place and swap moves
(``try_place``/``try_swap``, functions over the kernel primitives) and
the generic batch loop that calls ``try_move``/``try_place``/``try_swap``
once per operation.  Both draw from the same batched uniform stream, so
a fixed seed produces identical placements, costs and history on
either — enforced by ``tests/test_stitcher_equivalence.py``.  With the
integer edge widths ``BlockDesign`` produces, every HPWL term is a
dyadic rational that float64 evaluates exactly in any summation order,
which is what makes the equivalence bitwise rather than approximate.

The kernel is optimizer-agnostic: the SA stitcher
(:mod:`repro.flow.stitcher`), the GA evolver (:mod:`repro.flow.evolve`),
the tempering chains and the analytic placer's legalizer all drive the
same move/cost primitives, which is what makes their costs directly
comparable and their legality guarantees shared
(``tests/test_place_kernel.py``).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.device.grid import DeviceGrid
from repro.place.shapes import Footprint
from repro.place_kernel.sites import SiteTable, site_table, site_tables
from repro.place_kernel.uniform import UniformBuffer

__all__ = ["PLACE_PROBES", "FastKernel", "PlacementKernel"]

#: Random sites one place attempt probes; each probe draws a column and
#: a row, so an attempt consumes ``2 * PLACE_PROBES`` draws.
PLACE_PROBES = 8


class PlacementKernel:
    """Shared state and move logic of one placement run.

    Subclasses provide the geometry/cost primitives (``fits``,
    ``fits_moved``, ``paint``, ``set_pos``, ``incident_cost``,
    ``wirelength``, ``lowest_fit_y``, ``nearest_fit_y``,
    ``occupancy_array``), the batch loop (``run_batch``) and may keep
    per-footprint verdicts (``fits_nowhere``, ``note_fits_nowhere``,
    ``check_fits_nowhere``).
    The packers and the relocation move ``try_move`` draw and decide
    here, once.  :meth:`FastKernel.run_batch` writes the three moves'
    draws and decisions inline; the reference kernel in
    ``tests/kernel_oracle.py`` runs the generic loop over ``try_move``
    and the oracle's place and swap moves, and the two must agree bit
    for bit whichever optimizer drives them.  A primitive
    answers a geometry or cost question and nothing else: it never
    draws, decides or counts.
    """

    def __init__(
        self,
        grid: DeviceGrid,
        names: list[str],
        footprints: list[Footprint],
        edges: list[tuple[int, int, int]],
        unplaced_weight: float,
    ) -> None:
        self.grid = grid
        self.names = names
        self.fps = footprints
        self.edges = edges
        self.unplaced_weight = unplaced_weight
        self.n = len(names)
        # Per-footprint site tables, shared across same-module instances
        # *and* across kernel instances on the same grid (the process
        # cache in :func:`repro.place_kernel.sites.site_table`), so
        # restart fan-outs and ``clear()``/``restore()`` round-trips
        # never re-derive a compatible-site table.  The grid's cache is
        # fetched once: hashing a grid hashes all of its columns.
        per_grid = site_tables(grid)
        table_index: dict[Footprint, int] = {}
        self.tables: list[SiteTable] = []
        self.table_of: list[int] = []
        for fp in footprints:
            idx = table_index.get(fp)
            if idx is None:
                idx = len(self.tables)
                table_index[fp] = idx
                self.tables.append(per_grid.get(fp) or site_table(grid, fp))
            self.table_of.append(idx)
        self.anchors_x = [self.tables[t].anchors_x for t in self.table_of]
        self.y_step = [self.tables[t].y_step for t in self.table_of]
        self.y_max = [self.tables[t].y_max for t in self.table_of]
        self.n_y = [self.tables[t].n_y for t in self.table_of]
        self.areas = [self.tables[t].area for t in self.table_of]
        self.pos: list[tuple[int, int] | None] = [None] * self.n
        self.illegal = 0
        self.move_attempts = 0
        self.place_attempts = 0
        self.swap_attempts = 0
        self.move_accepts = 0
        self.place_accepts = 0
        self.swap_accepts = 0

    # ------------------------------------------------------------ primitives

    def fits(self, i: int, x: int, y: int) -> bool:
        raise NotImplementedError

    def fits_moved(self, i: int, old: tuple[int, int], x: int, y: int) -> bool:
        """Would ``i``, placed at ``old``, fit at ``(x, y)`` once lifted?

        Leaves the occupancy as it found it.  The specification lifts
        the block, probes and puts it back; :class:`FastKernel` answers
        from its bitmasks without lifting.
        """
        raise NotImplementedError

    def paint(self, i: int, x: int, y: int, delta: int) -> None:
        raise NotImplementedError

    def set_pos(self, i: int, p: tuple[int, int] | None) -> None:
        self.pos[i] = p

    def incident_cost(self, i: int) -> float:
        raise NotImplementedError

    def wirelength(self) -> float:
        raise NotImplementedError

    def lowest_fit_y(self, i: int, x: int, bound: int | None = None) -> int | None:
        """Lowest legal anchor row for ``i`` in column ``x``.

        Rows at or above ``bound`` are rejected (the greedy packer's
        cannot-beat-the-best pruning).
        """
        raise NotImplementedError

    def nearest_fit_y(self, i: int, x: int, y_target: int) -> int | None:
        """Legal anchor row for ``i`` in column ``x`` nearest ``y_target``.

        The row on the footprint's anchor-row grid closest to the
        snapped target; distance ties break toward the lower row.  The
        analytic placer's legalization snap uses this to keep the
        gradient solution's vertical position as closely as the
        occupancy allows.
        """
        raise NotImplementedError

    def occupancy_array(self) -> np.ndarray:
        raise NotImplementedError

    def run_batch(
        self,
        swappable: Sequence[Sequence[int]],
        placed_list: list[int],
        unplaced_list: list[int],
        steps: int,
        temp: float,
        p_place: float,
        p_swap: float,
        u: UniformBuffer,
        cost: float,
        best: float,
        snapshot: list | None = None,
    ) -> tuple[float, float, list[tuple[int, float]]]:
        """Run ``steps`` operations of the shared SA move mix at ``temp``.

        This is *the* move loop every optimizer in the flow executes —
        the SA stitcher's anneal, the GA's polish/repair phase (at
        ``temp=0.0``) and each parallel-tempering chain all call it, so
        their draw order and acceptance behavior are identical by
        construction.  One call consumes exactly ``steps`` units of the
        shared kernel-operation budget (one unit == one SA iteration ==
        one GA budget unit).

        Each operation draws ``r``: below ``p_place`` (with an unplaced
        instance left) it is a place attempt on a drawn unplaced
        instance (up to :data:`PLACE_PROBES` random sites, the first
        that fits), below ``p_place + p_swap`` (with a swap group) a
        swap of two drawn members of a drawn group, otherwise a
        ``try_move`` of a drawn placed instance (none placed: the
        operation does nothing).  ``tests/kernel_oracle.py`` writes the
        place and swap moves out as ``try_place`` and ``try_swap``.

        ``placed_list`` / ``unplaced_list`` are mutated in place
        (membership changes on successful place moves).  Returns
        ``(cost, best, events)`` where ``events`` lists every new best
        as a 1-based ``(op_offset, cost)`` pair within the batch.  When
        ``snapshot`` is a list, the position vector at each new best
        replaces its contents — the tempering chains need the best-*ever*
        placement, not the batch-end state; left as ``None`` (the SA/GA
        callers) no copies are made.
        """
        raise NotImplementedError

    # ------------------------------------------------------------ verdicts
    # A verdict records that a footprint fits at no anchor site on the
    # current occupancy: every ``(x, y)`` a place attempt can draw fails
    # ``fits``, and ``lowest_fit_y`` is ``None`` in every anchor column.
    # The scans below skip what a standing verdict already answers.
    # This base keeps no verdicts, so the reference kernel still probes
    # everything and the equivalence tests compare skips with probes.

    def fits_nowhere(self, i: int) -> bool:
        """Is ``i``'s footprint known to fit nowhere right now?"""
        return False

    def note_fits_nowhere(self, i: int) -> None:
        """Record that a full anchor scan for ``i`` found no legal row.

        Only a scan of every anchor with no ``bound`` may record it.
        """

    def check_fits_nowhere(self, i: int) -> None:
        """Scan every anchor for ``i`` and record a verdict if none fits.

        Called when a place attempt's probes all missed; a kernel that
        keeps no verdicts has nothing to scan for.
        """

    def clear(self) -> None:
        """Unplace every instance and empty the occupancy.

        The GA evolver decodes many genomes through one kernel; clearing
        reuses the site tables (the expensive part of construction)
        between decodes.
        """
        for i in range(self.n):
            p = self.pos[i]
            if p is not None:
                self.paint(i, p[0], p[1], -1)
            self.set_pos(i, None)

    def restore(self, positions: list[tuple[int, int] | None]) -> None:
        """Re-paint a snapshot of a legal placement onto an empty device.

        The GA evolver and the tempering chains both round-trip
        placements through position snapshots; restoring reuses the site
        tables (the expensive part of construction) between runs.
        """
        self.clear()
        for i, p in enumerate(positions):
            if p is not None:
                self.set_pos(i, p)
                self.paint(i, p[0], p[1], +1)

    def load_placements(
        self,
        names: Sequence[str],
        placements: Mapping[str, tuple[int, int] | None],
    ) -> None:
        """Apply a warm-start anchor mapping in instance order.

        ``None`` entries and missing names stay unplaced; an anchor
        that is not a legal site of the instance's footprint (a column
        whose kinds do not match, rows outside the device, a hard-block
        row off the site pitch) or that overlaps an earlier one leaves
        that instance unplaced rather than failing — the contract every
        warm-started optimizer (stitch, temper) shares.
        """
        for i, name in enumerate(names):
            p = placements.get(name)
            if p is None:
                continue
            x, y = p
            # Bit ``y`` of the allowed mask covers 0 <= y <= y_max and
            # the hard-block pitch; ``x`` must be a compatible anchor.
            allowed = self.tables[self.table_of[i]].allowed_mask
            if (
                x in self.anchors_x[i]
                and y >= 0
                and allowed >> y & 1
                and self.fits(i, x, y)
            ):
                self.set_pos(i, (x, y))
                self.paint(i, x, y, +1)

    # ------------------------------------------------------------ cost

    def total_cost(self) -> float:
        pen = self.unplaced_weight * sum(
            self.areas[i] for i in range(self.n) if self.pos[i] is None
        )
        return self.wirelength() + pen

    # ------------------------------------------------------------ initial

    def greedy_initial(self) -> None:
        """Tallest-first best-fit packing.

        For each block, all compatible x anchors are scanned and the
        globally lowest fitting position is taken, which keeps the
        skyline level — the classic strip-packing heuristic.  Blocks are
        ordered by height, then area, so tall blocks claim full columns
        before shorter ones fragment them.
        """
        for i in self.greedy_order():
            if self.fits_nowhere(i):
                continue
            best: tuple[int, int] | None = None
            for x in self.anchors_x[i]:
                y = self.lowest_fit_y(i, x, None if best is None else best[1])
                if y is not None and (best is None or y < best[1]):
                    best = (x, y)
            if best is None:
                # No fit, so no bound ever pruned the scan.
                self.note_fits_nowhere(i)
            else:
                self.set_pos(i, best)
                self.paint(i, best[0], best[1], +1)

    def greedy_order(self) -> list[int]:
        """Tallest-first, then largest-area instance order (the packing
        heuristic's priority; also the GA's seeded elite permutation)."""
        return sorted(
            range(self.n),
            key=lambda i: (-self.tables[self.table_of[i]].max_height, -self.areas[i]),
        )

    def first_fit_fill(self) -> None:
        """Deterministic first-fit of any block the optimizer left
        unplaced (random place moves only sample a few sites per
        attempt)."""
        for i in range(self.n):
            if self.pos[i] is not None or self.fits_nowhere(i):
                continue
            for x in self.anchors_x[i]:
                y = self.lowest_fit_y(i, x)
                if y is not None:
                    self.set_pos(i, (x, y))
                    self.paint(i, x, y, +1)
                    break
            else:
                self.note_fits_nowhere(i)

    # ------------------------------------------------------------ moves

    def try_move(self, i: int, temp: float, u: UniformBuffer) -> float:
        """Relocate instance ``i``; returns the accepted cost delta.

        ``temp`` is the Metropolis temperature; at ``temp=0.0`` the move
        is pure hill climbing (only improving relocations accepted),
        which is how the GA's polish phase reuses the same primitive.
        """
        self.move_attempts += 1
        xs = self.anchors_x[i]
        if not xs or self.y_max[i] < 0:
            return 0.0
        x = xs[u.index(len(xs))]
        y = u.index(self.n_y[i]) * self.y_step[i]
        old = self.pos[i]
        assert old is not None
        if not self.fits_moved(i, old, x, y):
            self.illegal += 1
            return 0.0
        # The block stays painted at ``old`` until the move is accepted:
        # the cost terms read positions, never the occupancy.
        before = self.incident_cost(i)
        self.set_pos(i, (x, y))
        after = self.incident_cost(i)
        delta = after - before
        if delta <= 0 or u.next() < math.exp(-delta / max(temp, 1e-9)):
            self.paint(i, old[0], old[1], -1)
            self.paint(i, x, y, +1)
            self.move_accepts += 1
            return delta
        self.set_pos(i, old)
        return 0.0


class FastKernel(PlacementKernel):
    """Bitmask primitives over list-held centers (the move kernel)."""

    def __init__(self, grid, names, footprints, edges, unplaced_weight) -> None:
        super().__init__(grid, names, footprints, edges, unplaced_weight)
        # Occupancy as one big-int bitmask per column: bit y set means CLB
        # row y is occupied.  fits() is then a shift+AND per column.
        self.colmask = [0] * grid.n_cols
        # Per-instance references to the shared tables' column masks: the
        # (offset, mask, height) list of occupied columns, and the skyline
        # indexed by column offset that fits_moved reads the block's own
        # rows from.
        self.masks = [self.tables[t].masks for t in self.table_of]
        self.dilations = [self.tables[t].dilations for t in self.table_of]
        self.col_bits = [self.tables[t].col_bits for t in self.table_of]
        self.allowed = [self.tables[t].allowed_mask for t in self.table_of]
        self.skyline = [self.tables[t].skyline for t in self.table_of]
        self.half_w = [self.tables[t].half_w for t in self.table_of]
        self.half_h = [self.tables[t].half_h for t in self.table_of]
        # Instance centers, maintained by set_pos and read by the per-move
        # incident sums; the whole-design wirelength turns them into
        # arrays when called.
        self.cx = [0.0] * self.n
        self.cy = [0.0] * self.n
        # Flat edge endpoints and widths for the whole-design sums.
        self.ea = np.fromiter((e[0] for e in edges), dtype=np.intp, count=len(edges))
        self.eb = np.fromiter((e[1] for e in edges), dtype=np.intp, count=len(edges))
        self.ew = np.fromiter((e[2] for e in edges), dtype=np.float64, count=len(edges))
        # Neighbor lists (other endpoint, weight) per instance for the
        # O(deg) incident sums; a scalar loop over them beats a numpy
        # gather at every degree the shipped designs reach (cnvW1A1's
        # highest is 25).  A self-loop's term is always 0.0, which leaves
        # a sum of non-negative terms unchanged, so it is left out: a
        # relocation then prices its before and after sums in one pass
        # over neighbors that do not move.
        self.nbrs: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for a, b, w in edges:
            if a == b:
                continue
            self.nbrs[a].append((b, w))
            self.nbrs[b].append((a, w))
        # Verdicts.  ``_epoch`` counts unpaints and clears; ``_freed``
        # logs the device columns (one bitmask per unpaint) freed since
        # the last ``clear``/``restore``, which set ``_log_epoch`` to the
        # epoch the log starts at.  ``_nowhere[t] == _epoch`` says table
        # ``t``'s footprint fits nowhere on the current occupancy; a
        # stamp in ``[_log_epoch, _epoch)`` is a verdict that cells freed
        # since may have voided (``_freed[stamp - _log_epoch:]``); an
        # older stamp (or -1) is no verdict.  Painting more cells cannot
        # make a footprint fit, so paints leave verdicts standing.
        self._epoch = 0
        self._log_epoch = 0
        self._freed: list[int] = []
        self._nowhere = [-1] * len(self.tables)

    # ------------------------------------------------------------ geometry

    def fits(self, i: int, x: int, y: int) -> bool:
        cm = self.colmask
        for c, m, _h in self.masks[i]:
            if cm[x + c] & (m << y):
                return False
        return True

    def fits_moved(self, i: int, old: tuple[int, int], x: int, y: int) -> bool:
        # A collision only counts if it is not with ``i``'s own rows at
        # ``old``, which exist only in device columns that the old and
        # new spans share.  Nothing is repainted.
        cm = self.colmask
        for c, m, _h in self.masks[i]:
            hit = cm[x + c] & (m << y)
            if hit:
                d = x + c - old[0]
                sky = self.skyline[i]
                if 0 <= d < len(sky):
                    hit &= ~(sky[d] << old[1])
                if hit:
                    return False
        return True

    def paint(self, i: int, x: int, y: int, delta: int) -> None:
        cm = self.colmask
        if delta > 0:
            for c, m, _h in self.masks[i]:
                cm[x + c] |= m << y
        else:
            for c, m, _h in self.masks[i]:
                cm[x + c] &= ~(m << y)
            self._freed.append(self.col_bits[i] << x)
            self._epoch += 1

    def clear(self) -> None:
        self.colmask[:] = [0] * len(self.colmask)
        self.pos[:] = [None] * self.n
        # An empty device voids every verdict; the log starts afresh.
        self._epoch += 1
        self._log_epoch = self._epoch
        self._freed.clear()

    # ------------------------------------------------------------ verdicts

    def fits_nowhere(self, i: int) -> bool:
        t = self.table_of[i]
        stamp = self._nowhere[t]
        if stamp == self._epoch:
            return True
        if stamp < self._log_epoch:
            return False
        return self._revalidate(i, t, stamp)

    def _revalidate(self, i: int, t: int, stamp: int) -> bool:
        """Does table ``t``'s verdict, stamped at ``stamp``, still stand?

        Only an anchor whose columns meet a column freed since the stamp
        can have gained a legal row; every other anchor's columns hold
        at least the cells they held then.  The verdict is restamped if
        no such anchor fits, and dropped otherwise.
        """
        freed = 0
        for cols in self._freed[stamp - self._log_epoch :]:
            freed |= cols
        bits = self.col_bits[i]
        lowest_fit_y = self.lowest_fit_y
        for x in self.anchors_x[i]:
            if freed & (bits << x) and lowest_fit_y(i, x) is not None:
                self._nowhere[t] = -1
                return False
        self._nowhere[t] = self._epoch
        return True

    def note_fits_nowhere(self, i: int) -> None:
        self._nowhere[self.table_of[i]] = self._epoch

    def check_fits_nowhere(self, i: int) -> None:
        lowest_fit_y = self.lowest_fit_y
        for x in self.anchors_x[i]:
            if lowest_fit_y(i, x) is not None:
                return
        self.note_fits_nowhere(i)

    def set_pos(self, i: int, p: tuple[int, int] | None) -> None:
        self.pos[i] = p
        if p is not None:
            self.cx[i] = p[0] + self.half_w[i]
            self.cy[i] = p[1] + self.half_h[i]

    def lowest_fit_y(self, i: int, x: int, bound: int | None = None) -> int | None:
        # Dilating the OR of the device columns a footprint height covers
        # down by that height marks exactly the anchor rows they collide
        # at.
        allowed = self.allowed[i]
        if not allowed:
            return None
        bad = 0
        cm = self.colmask
        for cols, shifts in self.dilations[i]:
            col = 0
            for c in cols:
                col |= cm[x + c]
            if col:
                for s in shifts:
                    col |= col >> s
                bad |= col
        free = allowed & ~bad
        if not free:
            return None
        y = (free & -free).bit_length() - 1
        if bound is not None and y >= bound:
            return None
        return y

    def nearest_fit_y(self, i: int, x: int, y_target: int) -> int | None:
        # Same free-mask as lowest_fit_y, then one bit scan each way from
        # the snapped target: highest set bit at-or-below vs lowest set
        # bit above, ties toward the lower row — identical to the
        # reference kernel's outward probe walk.
        allowed = self.allowed[i]
        if not allowed:
            return None
        bad = 0
        cm = self.colmask
        for cols, shifts in self.dilations[i]:
            col = 0
            for c in cols:
                col |= cm[x + c]
            if col:
                for s in shifts:
                    col |= col >> s
                bad |= col
        free = allowed & ~bad
        if not free:
            return None
        step = self.y_step[i]
        t = min(max(y_target, 0), self.y_max[i])
        t -= t % step
        below_mask = free & ((1 << (t + 1)) - 1)
        above_mask = free >> (t + 1)
        if not above_mask:
            return below_mask.bit_length() - 1
        above = (above_mask & -above_mask).bit_length() + t
        if not below_mask:
            return above
        below = below_mask.bit_length() - 1
        return below if t - below <= above - t else above

    def occupancy_array(self) -> np.ndarray:
        occ = np.zeros((self.grid.n_cols, self.grid.height_clbs), dtype=np.int16)
        for i in range(self.n):
            p = self.pos[i]
            if p is None:
                continue
            x, y = p
            for c, _m, h in self.masks[i]:
                occ[x + c, y : y + h] += 1
        return occ

    # ------------------------------------------------------------ cost

    def incident_cost(self, i: int) -> float:
        if self.pos[i] is None:
            return 0.0
        pos = self.pos
        cx = self.cx
        cy = self.cy
        xi = cx[i]
        yi = cy[i]
        total = 0.0
        for o, w in self.nbrs[i]:
            if pos[o] is not None:
                total += w * (abs(xi - cx[o]) + abs(yi - cy[o]))
        return total

    def wirelength(self) -> float:
        if self.ea.size == 0:
            return 0.0
        # Per-edge center distance |dx| + |dy|; 0.0 unless both
        # endpoints are placed.
        placed = np.fromiter(
            (p is not None for p in self.pos), dtype=bool, count=self.n
        )
        cx = np.array(self.cx)
        cy = np.array(self.cy)
        ea, eb = self.ea, self.eb
        dist = np.abs(cx[ea] - cx[eb]) + np.abs(cy[ea] - cy[eb])
        dist = np.where(placed[ea] & placed[eb], dist, 0.0)
        return float(np.sum(self.ew * dist))

    # ------------------------------------------------------------ batch

    def run_batch(
        self,
        swappable: Sequence[Sequence[int]],
        placed_list: list[int],
        unplaced_list: list[int],
        steps: int,
        temp: float,
        p_place: float,
        p_swap: float,
        u: UniformBuffer,
        cost: float,
        best: float,
        snapshot: list | None = None,
    ) -> tuple[float, float, list[tuple[int, float]]]:
        # One loop, no per-operation calls on the common paths: the
        # draws come straight off the buffer's list (refilled exactly
        # where ``UniformBuffer.next`` refills), and the moves, probes,
        # cost deltas and paints of ``try_move`` and the oracle's
        # ``try_place``/``try_swap`` are written out in their order.
        events: list[tuple[int, float]] = []
        p_either = p_place + p_swap
        t_eff = max(temp, 1e-9)
        exp = math.exp
        refill = u._rng.random
        block = u._block
        buf = u._buf
        nb = len(buf)
        bi = u._i
        pos = self.pos
        cm = self.colmask
        cx = self.cx
        cy = self.cy
        nbrs = self.nbrs
        masks = self.masks
        skyline = self.skyline
        half_w = self.half_w
        half_h = self.half_h
        anchors_x = self.anchors_x
        n_y = self.n_y
        y_step = self.y_step
        y_max = self.y_max
        col_bits = self.col_bits
        freed = self._freed
        table_of = self.table_of
        nowhere = self._nowhere
        areas = self.areas
        unplaced_weight = self.unplaced_weight
        incident_cost = self.incident_cost
        set_pos = self.set_pos
        illegal = 0
        n_move = n_place = n_swap = 0
        a_move = a_place = a_swap = 0
        thresh = best - 1e-9
        for op in range(1, steps + 1):
            if bi >= nb:
                buf = refill(block).tolist()
                nb = len(buf)
                bi = 0
            r = buf[bi]
            bi += 1
            if unplaced_list and r < p_place:
                # ------------------------------------------ try_place
                if bi >= nb:
                    buf = refill(block).tolist()
                    nb = len(buf)
                    bi = 0
                n = len(unplaced_list)
                k = int(buf[bi] * n)
                bi += 1
                if k >= n:
                    k = n - 1
                i = unplaced_list[k]
                n_place += 1
                xs = anchors_x[i]
                if xs and y_max[i] >= 0:
                    t = table_of[i]
                    stamp = nowhere[t]
                    stands = stamp == self._epoch
                    fit_known = False
                    if not stands and stamp >= self._log_epoch:
                        stands = self._revalidate(i, t, stamp)
                        fit_known = not stands
                    if stands:
                        # Every probe must miss: skip their draws.
                        bi += 2 * PLACE_PROBES
                        while bi > nb:
                            bi -= nb
                            buf = refill(block).tolist()
                            nb = len(buf)
                        illegal += PLACE_PROBES
                    else:
                        mk = masks[i]
                        n_x = len(xs)
                        ny = n_y[i]
                        step = y_step[i]
                        for _ in range(PLACE_PROBES):
                            if bi >= nb:
                                buf = refill(block).tolist()
                                nb = len(buf)
                                bi = 0
                            kx = int(buf[bi] * n_x)
                            bi += 1
                            if kx >= n_x:
                                kx = n_x - 1
                            if bi >= nb:
                                buf = refill(block).tolist()
                                nb = len(buf)
                                bi = 0
                            ky = int(buf[bi] * ny)
                            bi += 1
                            if ky >= ny:
                                ky = ny - 1
                            x = xs[kx]
                            y = ky * step
                            for c, m, _h in mk:
                                if cm[x + c] & (m << y):
                                    break
                            else:
                                set_pos(i, (x, y))
                                self.paint(i, x, y, +1)
                                a_place += 1
                                cost += incident_cost(i) - unplaced_weight * areas[i]
                                unplaced_list[k] = unplaced_list[-1]
                                unplaced_list.pop()
                                placed_list.append(i)
                                break
                            illegal += 1
                        else:
                            # A fit the revalidation just found outlives
                            # missed probes: nothing was painted since.
                            if not fit_known:
                                self.check_fits_nowhere(i)
            elif swappable and r < p_either:
                # ------------------------------------------- try_swap
                if bi >= nb:
                    buf = refill(block).tolist()
                    nb = len(buf)
                    bi = 0
                n = len(swappable)
                k = int(buf[bi] * n)
                bi += 1
                if k >= n:
                    k = n - 1
                g = swappable[k]
                if bi >= nb:
                    buf = refill(block).tolist()
                    nb = len(buf)
                    bi = 0
                n = len(g)
                a = int(buf[bi] * n)
                bi += 1
                if a >= n:
                    a = n - 1
                if bi >= nb:
                    buf = refill(block).tolist()
                    nb = len(buf)
                    bi = 0
                n -= 1
                b = int(buf[bi] * n)
                bi += 1
                if b >= n:
                    b = n - 1
                if b >= a:
                    b += 1
                i = g[a]
                j = g[b]
                n_swap += 1
                pi = pos[i]
                pj = pos[j]
                if pi is not None and pj is not None and pi != pj:
                    # incident_cost(i) + incident_cost(j), summed as
                    # try_swap sums them (0.0 + a is exactly a).
                    before = 0.0
                    for k in (i, j):
                        xk = cx[k]
                        yk = cy[k]
                        inc = 0.0
                        for o, w in nbrs[k]:
                            if pos[o] is not None:
                                inc += w * (abs(xk - cx[o]) + abs(yk - cy[o]))
                        before += inc
                    pos[i] = pj
                    pos[j] = pi
                    cx[i] = pj[0] + half_w[i]
                    cy[i] = pj[1] + half_h[i]
                    cx[j] = pi[0] + half_w[j]
                    cy[j] = pi[1] + half_h[j]
                    after = 0.0
                    for k in (i, j):
                        xk = cx[k]
                        yk = cy[k]
                        inc = 0.0
                        for o, w in nbrs[k]:
                            if pos[o] is not None:
                                inc += w * (abs(xk - cx[o]) + abs(yk - cy[o]))
                        after += inc
                    delta = after - before
                    accept = delta <= 0
                    if not accept:
                        if bi >= nb:
                            buf = refill(block).tolist()
                            nb = len(buf)
                            bi = 0
                        accept = buf[bi] < exp(-delta / t_eff)
                        bi += 1
                    if accept:
                        # Identical footprints: occupancy is unchanged.
                        a_swap += 1
                        cost += delta
                    else:
                        pos[i] = pi
                        pos[j] = pj
                        cx[i] = pi[0] + half_w[i]
                        cy[i] = pi[1] + half_h[i]
                        cx[j] = pj[0] + half_w[j]
                        cy[j] = pj[1] + half_h[j]
            else:
                # ------------------------------------------- try_move
                if not placed_list:
                    continue
                if bi >= nb:
                    buf = refill(block).tolist()
                    nb = len(buf)
                    bi = 0
                n = len(placed_list)
                k = int(buf[bi] * n)
                bi += 1
                if k >= n:
                    k = n - 1
                i = placed_list[k]
                n_move += 1
                xs = anchors_x[i]
                if xs and y_max[i] >= 0:
                    if bi >= nb:
                        buf = refill(block).tolist()
                        nb = len(buf)
                        bi = 0
                    n = len(xs)
                    k = int(buf[bi] * n)
                    bi += 1
                    if k >= n:
                        k = n - 1
                    x = xs[k]
                    if bi >= nb:
                        buf = refill(block).tolist()
                        nb = len(buf)
                        bi = 0
                    n = n_y[i]
                    k = int(buf[bi] * n)
                    bi += 1
                    if k >= n:
                        k = n - 1
                    y = k * y_step[i]
                    ox, oy = pos[i]
                    mk = masks[i]
                    # fits_moved: a hit counts unless it is i's own rows.
                    for c, m, _h in mk:
                        hit = cm[x + c] & (m << y)
                        if hit:
                            d = x + c - ox
                            sky = skyline[i]
                            if 0 <= d < len(sky):
                                hit &= ~(sky[d] << oy)
                            if hit:
                                illegal += 1
                                break
                    else:
                        # The neighbors stay put, so one pass prices the
                        # incident cost at the old and the new center.
                        xi = cx[i]
                        yi = cy[i]
                        nxi = x + half_w[i]
                        nyi = y + half_h[i]
                        before = 0.0
                        after = 0.0
                        for o, w in nbrs[i]:
                            if pos[o] is not None:
                                xo = cx[o]
                                yo = cy[o]
                                before += w * (abs(xi - xo) + abs(yi - yo))
                                after += w * (abs(nxi - xo) + abs(nyi - yo))
                        delta = after - before
                        accept = delta <= 0
                        if not accept:
                            if bi >= nb:
                                buf = refill(block).tolist()
                                nb = len(buf)
                                bi = 0
                            accept = buf[bi] < exp(-delta / t_eff)
                            bi += 1
                        if accept:
                            for c, m, _h in mk:
                                cm[ox + c] &= ~(m << oy)
                            freed.append(col_bits[i] << ox)
                            self._epoch += 1
                            for c, m, _h in mk:
                                cm[x + c] |= m << y
                            pos[i] = (x, y)
                            cx[i] = nxi
                            cy[i] = nyi
                            a_move += 1
                            cost += delta
            if cost < thresh:
                best = cost
                thresh = best - 1e-9
                events.append((op, best))
                if snapshot is not None:
                    snapshot[:] = [list(pos)]
        u._buf = buf
        u._i = bi
        self.illegal += illegal
        self.move_attempts += n_move
        self.place_attempts += n_place
        self.swap_attempts += n_swap
        self.move_accepts += a_move
        self.place_accepts += a_place
        self.swap_accepts += a_swap
        return cost, best, events
