"""Property-based legality suite for the shared placement kernel.

The kernel is the one component every optimizer trusts blindly: SA
anneals through it and the GA decodes/polishes through it, so a legality
hole here corrupts *every* placer at once.  These tests drive random
move/repair sequences straight through the kernel API — the exact ops
SA and GA compose (``greedy_initial``, ``try_move`` and the oracle's
``try_place``/``try_swap``, ``clear`` + genome-order re-decode,
``first_fit_fill``) —
and assert the geometric contract after every sequence, on both the
fast kernel and the reference kernel in ``tests/kernel_oracle.py``:

* no overlap (occupancy never exceeds one anywhere);
* anchors in bounds and on column runs matching the footprint kinds;
* hard-block columns only at the BRAM/DSP site pitch;
* cost consistency (``total_cost == wirelength + penalty``).

Footprints are ragged (per-column heights, empty columns included), so
a relocation probe meets its own block's rows in shared columns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.column import ColumnKind
from repro.device.grid import DeviceGrid
from repro.flow.blockdesign import BlockDesign
from repro.place.shapes import Footprint
from repro.place_kernel import (
    PLACE_PROBES,
    HARD_KINDS,
    HARD_PITCH,
    PlacementProblem,
    SiteTable,
    UniformBuffer,
)
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud
from tests.kernel_oracle import KERNELS, ReferenceKernel, build, try_place, try_swap

_LL = ColumnKind.CLBLL
_LM = ColumnKind.CLBLM
_BR = ColumnKind.BRAM
_DS = ColumnKind.DSP

_GRID = DeviceGrid.from_kinds(
    "pk",
    [_LL, _LM, _BR, _LL, _LM, _DS, _LL, _LM, _LL, _LL],
    n_regions=1,
)

_PATTERNS = [
    (_LL,),
    (_LM,),
    (_LL, _LM),
    (_LM, _LL),
    (_BR,),
    (_LM, _DS),
    (_LL, _LM, _BR),
]

#: (column kinds, per-column heights); zeros make empty edge columns
#: (trimmed away) and interior gaps (kept).
_footprints = st.lists(
    st.sampled_from(_PATTERNS).flatmap(
        lambda kinds: st.tuples(
            st.just(kinds), st.tuples(*(st.integers(0, 30) for _ in kinds))
        )
    ),
    min_size=1,
    max_size=8,
)

#: A move/repair program: op kind plus a raw integer the interpreter
#: maps onto instance indices / temperatures.
_ops = st.lists(
    st.tuples(st.sampled_from(["move", "place", "swap", "redecode", "fill"]),
              st.integers(0, 1 << 16)),
    min_size=1,
    max_size=40,
)

_kernels = pytest.mark.parametrize("kernel", list(KERNELS))


def _build(fp_specs, self_loop=False):
    """``fp_specs``: (kinds, heights) pairs; an int height is a rectangle.
    ``self_loop`` adds an edge from every instance to itself."""
    d = BlockDesign(name="pk")
    fps = {}
    for k, (kinds, h) in enumerate(fp_specs):
        # Reuse one module per distinct spec so swap groups exist.
        name = f"m{fp_specs.index((kinds, h))}"
        if name not in fps:
            d.add_module(RTLModule.make(name, [RandomLogicCloud(n_luts=2)]))
            heights = h if isinstance(h, tuple) else (h,) * len(kinds)
            fps[name] = Footprint(kinds, heights)
        d.add_instance(f"i{k}", name)
        if k:
            d.connect(f"i{k - 1}", f"i{k}", width=2)
    if self_loop:
        for k in range(len(fp_specs)):
            d.connect(f"i{k}", f"i{k}", width=3)
    return PlacementProblem.from_design(d, fps, _GRID)


def _run_program(kernel, fp_specs, ops, seed):
    """Interpret a random op program on a fresh kernel."""
    problem = _build(fp_specs)
    kb = build(problem, kernel, 40.0)
    kb.greedy_initial()
    u = UniformBuffer(np.random.default_rng(seed), block=256)
    for op, raw in ops:
        i = raw % kb.n
        if op == "move":
            if kb.pos[i] is not None:
                kb.try_move(i, float(raw % 7), u)
        elif op == "place":
            if kb.pos[i] is None:
                try_place(kb, i, u)
        elif op == "swap":
            if problem.swappable:
                g = problem.swappable[raw % len(problem.swappable)]
                a, b = g[raw % len(g)], g[(raw + 1) % len(g)]
                if a != b:
                    try_swap(kb, a, b, float(raw % 5), u)
        elif op == "redecode":
            # The GA's decode step: clear and re-pack in genome order,
            # repairing to legality by scanning compatible columns.
            kb.clear()
            order = sorted(range(kb.n), key=lambda j: (j * raw + 7) % (kb.n + 3))
            for j in order:
                xs = kb.anchors_x[j]
                if not xs:
                    continue
                pref = raw % len(xs)
                for off in range(len(xs)):
                    x = xs[(pref + off) % len(xs)]
                    y = kb.lowest_fit_y(j, x)
                    if y is not None:
                        kb.set_pos(j, (x, y))
                        kb.paint(j, x, y, +1)
                        break
        elif op == "fill":
            kb.first_fit_fill()
    return problem, kb


def _assert_legal(problem, kb):
    occ = kb.occupancy_array()
    assert occ.max(initial=0) <= 1, "overlapping placements"
    all_kinds = _GRID.kinds()
    for i in range(kb.n):
        pos = kb.pos[i]
        if pos is None:
            continue
        fp = problem.footprints[i]
        x, y = pos
        assert 0 <= x and x + fp.width <= _GRID.n_cols
        assert 0 <= y <= _GRID.height_clbs - fp.max_height
        assert all_kinds[x : x + fp.width] == fp.col_kinds
        if any(kind in HARD_KINDS for kind in fp.col_kinds):
            assert y % HARD_PITCH == 0


class TestKernelLegality:
    """Random op programs preserve the legality invariants."""

    @_kernels
    @given(_footprints, _ops, st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_program_preserves_legality(self, kernel, fp_specs, ops, seed):
        problem, kb = _run_program(kernel, fp_specs, ops, seed)
        _assert_legal(problem, kb)

    @_kernels
    @given(_footprints, _ops, st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_cost_consistent_after_program(self, kernel, fp_specs, ops, seed):
        """``total_cost`` always decomposes into wirelength + penalty."""
        _problem, kb = _run_program(kernel, fp_specs, ops, seed)
        penalty = 40.0 * sum(
            kb.areas[i] for i in range(kb.n) if kb.pos[i] is None
        )
        assert kb.total_cost() == kb.wirelength() + penalty

    @given(_footprints, _ops, st.integers(0, 5))
    @settings(max_examples=25, deadline=None)
    def test_kernels_agree_on_program(self, fp_specs, ops, seed):
        """Both kernels execute the identical program identically."""
        p_fast, fast = _run_program("fast", fp_specs, ops, seed)
        p_ref, ref = _run_program("reference", fp_specs, ops, seed)
        assert fast.pos == ref.pos
        assert fast.total_cost() == ref.total_cost()
        assert np.array_equal(fast.occupancy_array(), ref.occupancy_array())
        assert fast.illegal == ref.illegal

    @_kernels
    @given(_footprints, st.integers(0, 5))
    @settings(max_examples=25, deadline=None)
    def test_clear_then_greedy_is_idempotent(self, kernel, fp_specs, seed):
        """clear() fully unpaints: a re-decode reproduces the packing."""
        problem = _build(fp_specs)
        kb = build(problem, kernel, 40.0)
        kb.greedy_initial()
        first = (list(kb.pos), kb.total_cost())
        kb.clear()
        assert all(p is None for p in kb.pos)
        assert kb.occupancy_array().max(initial=0) == 0
        kb.greedy_initial()
        assert (list(kb.pos), kb.total_cost()) == first


class TestLiftFreeProbe:
    """``FastKernel.fits_moved`` answers the lift/probe/put-back question
    of the reference kernel without lifting the block, and a rejected
    relocation never repaints."""

    #: Six identical columns, so every pair of anchors 0-2 columns apart
    #: has overlapping old and new spans.
    _SINGLE = DeviceGrid.from_kinds("single", [_LL] * 6, n_regions=1)

    def _kernel(self):
        d = BlockDesign(name="lift")
        for m in ("blk", "nbr"):
            d.add_module(RTLModule.make(m, [RandomLogicCloud(n_luts=2)]))
        d.add_instance("b", "blk")
        d.add_instance("n", "nbr")
        d.connect("b", "n", width=2)
        fps = {
            # Ragged, with an interior gap: the block's own rows differ
            # per column and one shared column has none.
            "blk": Footprint((_LL,) * 3, (9, 0, 4)),
            "nbr": Footprint((_LL,) * 2, (5, 7)),
        }
        kb = PlacementProblem.from_design(d, fps, self._SINGLE).make_kernel(40.0)
        kb.set_pos(1, (2, 20))
        kb.paint(1, 2, 20, +1)
        return kb

    def test_fits_moved_matches_lift_probe_put_back(self):
        kb = self._kernel()
        anchors = [
            (x, y)
            for x in kb.anchors_x[0]
            for y in range(0, kb.y_max[0] + 1, kb.y_step[0])
        ]
        olds = [a for a in anchors if kb.fits(0, *a)]
        seen = set()
        for old in olds:
            kb.set_pos(0, old)
            kb.paint(0, *old, +1)
            before = list(kb.colmask)
            for x, y in anchors:
                want = ReferenceKernel.fits_moved(kb, 0, old, x, y)
                assert kb.fits_moved(0, old, x, y) == want, (old, (x, y))
                seen.add((abs(x - old[0]) < 3, want))
            assert kb.colmask == before
            kb.paint(0, *old, -1)
        # Both answers occur with overlapping and with disjoint spans.
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_rejected_move_never_paints(self):
        kb = self._kernel()
        kb.set_pos(0, (0, 0))
        kb.paint(0, 0, 0, +1)
        calls = []
        paint = kb.paint

        def counting_paint(*args):
            calls.append(args)
            paint(*args)

        kb.paint = counting_paint
        u = UniformBuffer(np.random.default_rng(0), block=64)
        kinds = set()
        for _ in range(400):
            n_calls, mask, pos = len(calls), list(kb.colmask), list(kb.pos)
            accepts, illegal = kb.move_accepts, kb.illegal
            kb.try_move(0, 0.0, u)
            if kb.move_accepts > accepts:
                assert len(calls) == n_calls + 2
                kinds.add("accepted")
            else:
                assert len(calls) == n_calls
                assert kb.colmask == mask and kb.pos == pos
                kinds.add("illegal" if kb.illegal > illegal else "worse")
        assert kinds == {"accepted", "illegal", "worse"}


class TestKernelPrimitives:
    def test_greedy_order_tallest_first(self):
        problem = _build([((_LL,), 30), ((_LM,), 5), ((_LL, _LM), 12)])
        kb = problem.make_kernel(40.0)
        order = kb.greedy_order()
        heights = [kb.tables[kb.table_of[i]].max_height for i in order]
        assert heights == sorted(heights, reverse=True)

    def test_problem_missing_footprint_raises(self):
        d = BlockDesign(name="missing")
        d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=2)]))
        d.add_instance("i0", "m")
        with pytest.raises(KeyError, match="missing footprints"):
            PlacementProblem.from_design(d, {}, _GRID)

    def test_problem_swap_groups(self):
        problem = _build([((_LL,), 4), ((_LL,), 4), ((_LM,), 6)])
        assert problem.swappable == ((0, 1),)
        assert problem.n == 3

    def test_dilate_down(self):
        """A site table's shift schedule dilates the occupancy of the
        columns of one height down by that height: bit ``y`` ends up set
        iff the mask has a bit in ``[y, y + h)``, the anchor rows the
        columns collide at.  Dilation distributes over OR, so dilating
        the OR of a height's columns once equals dilating each column."""

        def dilate(mask, shifts):
            for s in shifts:
                mask |= mask >> s
            return mask

        def dilate_by(mask, h):
            want = mask
            for k in range(1, h):
                want |= mask >> k
            return want

        # Dilating a single occupied row by height h blocks the h
        # anchor rows whose span would cover it.
        mask = 1 << 10
        table = SiteTable(_GRID, Footprint((_LL, _LM, _LL), (1, 0, 3)))
        (c0, s0), (c2, s2) = table.dilations
        assert (c0, c2) == ((0,), (2,))
        assert dilate(mask, s0) == mask
        assert dilate(mask, s2) == (mask | mask >> 1 | mask >> 2)
        # Every height ORs exactly the shifts 0 .. h-1.
        rng = np.random.default_rng(0)
        for h in (*range(1, 70), 399, 400, 511, 512, 513, 900):
            table = SiteTable(_GRID, Footprint((_LL, _LM), (h, 1)))
            shifts = next(s for cols, s in table.dilations if 0 in cols)
            m = int.from_bytes(rng.bytes(140), "little")
            assert dilate(m, shifts) == dilate_by(m, h), h
        # Ragged footprints with repeated heights: one entry per distinct
        # height, holding each of its columns once, and OR-then-dilate
        # equals the per-column dilation on random occupancy.
        for _ in range(300):
            width = int(rng.integers(1, 9))
            heights = tuple(
                int(h) for h in rng.choice([0, 1, 2, 3, 5, 8, 13, 40], size=width)
            )
            if not any(heights):
                continue
            table = SiteTable(_GRID, Footprint((_LL,) * width, heights))
            occupied = [c for c, h in enumerate(heights) if h]
            assert sorted(c for cols, _s in table.dilations for c in cols) == occupied
            assert len(table.dilations) == len({h for h in heights if h})
            cols_masks = [int.from_bytes(rng.bytes(8), "little") for _ in heights]
            want = 0
            for c in occupied:
                want |= dilate_by(cols_masks[c], heights[c])
            got = 0
            for cols, shifts in table.dilations:
                col = 0
                for c in cols:
                    col |= cols_masks[c]
                got |= dilate(col, shifts)
            assert got == want, heights

    def test_uniform_buffer_matches_unbatched(self):
        """The batched stream is exactly the generator's raw stream."""
        u = UniformBuffer(np.random.default_rng(3), block=8)
        raw = np.random.default_rng(3).random(20).tolist()
        assert [u.next() for _ in range(20)] == raw
        # index() consumes the draw next() would, refills included.
        u = UniformBuffer(np.random.default_rng(3), block=8)
        mixed = [u.index(7) if k % 3 else u.next() for k in range(20)]
        assert mixed == [
            min(int(r * 7), 6) if k % 3 else r for k, r in enumerate(raw)
        ]

    def test_uniform_index_in_range(self):
        u = UniformBuffer(np.random.default_rng(0), block=16)
        assert all(0 <= u.index(7) < 7 for _ in range(200))

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_uniform_skip_matches_next(self, block):
        """``skip(n)`` leaves the stream where ``n`` calls to ``next``
        leave it, from every offset in a block and across refills."""
        for offset in range(2 * block + 1):
            for n in range(3 * block + 2):
                drawn = UniformBuffer(np.random.default_rng(9), block=block)
                skipped = UniformBuffer(np.random.default_rng(9), block=block)
                for u in (drawn, skipped):
                    for _ in range(offset):
                        u.next()
                for _ in range(n):
                    drawn.next()
                skipped.skip(n)
                after = [drawn.next() for _ in range(2 * block + 1)]
                assert [skipped.next() for _ in range(2 * block + 1)] == after, (
                    offset, n
                )


#: Tall footprints, several to a column type, so the grid runs out of
#: room and place attempts miss everywhere.
_crowded = st.lists(
    st.sampled_from(_PATTERNS).flatmap(
        lambda kinds: st.tuples(
            st.just(kinds), st.tuples(*(st.integers(8, 45) for _ in kinds))
        )
    ),
    min_size=4,
    max_size=12,
)

_verdict_ops = st.lists(
    st.tuples(
        st.sampled_from(["place", "move", "clear", "restore", "snapshot", "fill",
                         "greedy", "batch"]),
        st.integers(0, 1 << 16),
    ),
    min_size=1,
    max_size=40,
)


def _fits_somewhere(kb, i, occ):
    """Brute force: does ``i`` fit at any anchor column and row?"""
    heights = kb.fps[i].heights
    for x in kb.anchors_x[i]:
        for y in range(0, kb.y_max[i] + 1, kb.y_step[i]):
            if not any(
                h and occ[x + c, y : y + h].any() for c, h in enumerate(heights)
            ):
                return True
    return False


class TestVerdicts:
    """``FastKernel`` remembers per footprint that it fits nowhere; the
    memory must be exact, and a free must void it exactly when it makes
    room somewhere a place attempt can draw."""

    @given(_crowded, _verdict_ops, st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_verdicts_match_brute_force(self, fp_specs, ops, seed):
        problem = _build(fp_specs)
        kb = problem.make_kernel(40.0)
        kb.greedy_initial()
        snap = list(kb.pos)
        u = UniformBuffer(np.random.default_rng(seed), block=64)
        for op, raw in ops:
            i = raw % kb.n
            before = kb.occupancy_array()
            if op == "place":
                if kb.pos[i] is None:
                    try_place(kb, i, u)
            elif op == "move":
                if kb.pos[i] is not None:
                    kb.try_move(i, float(raw % 7), u)
            elif op == "clear":
                kb.clear()
            elif op == "restore":
                kb.restore(snap)
            elif op == "snapshot":
                snap = list(kb.pos)
            elif op == "fill":
                kb.first_fit_fill()
            elif op == "batch":
                # Many frees between two checks, through the fused loop.
                placed = [j for j in range(kb.n) if kb.pos[j] is not None]
                unplaced = [j for j in range(kb.n) if kb.pos[j] is None]
                cost = kb.total_cost()
                kb.run_batch(problem.swappable, placed, unplaced, raw % 60 + 1,
                             float(raw % 7), 0.3, 0.2, u, cost, cost)
            elif all(p is None for p in kb.pos):  # greedy packs an empty grid
                kb.greedy_initial()
            occ = kb.occupancy_array()
            freed = bool((before > occ).any())
            known = [j for j in range(kb.n) if kb.fits_nowhere(j)]
            # Every verdict that stands, one that survived a free
            # included, agrees with brute force.
            for j in known:
                assert not _fits_somewhere(kb, j, occ), (op, j, freed)

    def _crowded_kernel(self, kernel):
        # Five CLBLL columns for eight 40-row blocks: three stay out.
        problem = _build([((_LL,), 40)] * 8)
        kb = build(problem, kernel, 40.0)
        kb.greedy_initial()
        return kb

    def test_verdict_established_and_voided(self):
        kb = self._crowded_kernel("fast")
        out = [i for i in range(kb.n) if kb.pos[i] is None]
        assert len(out) == 3
        # greedy_initial's own unbounded scan recorded the verdict.
        assert all(kb.fits_nowhere(i) for i in out)
        # Painting more cannot make room; freeing a cell voids it.
        placed = next(i for i in range(kb.n) if kb.pos[i] is not None)
        x, y = kb.pos[placed]
        kb.paint(placed, x, y, -1)
        assert not any(kb.fits_nowhere(i) for i in out)
        kb.paint(placed, x, y, +1)
        kb.first_fit_fill()
        assert all(kb.fits_nowhere(i) for i in out)
        kb.clear()
        assert not any(kb.fits_nowhere(i) for i in range(kb.n))

    def test_skipped_attempt_matches_probes(self):
        """A skipped place attempt leaves the stream and the counters as
        the reference kernel's eight missed probes leave them."""
        fast = self._crowded_kernel("fast")
        ref = self._crowded_kernel("reference")
        i = next(j for j in range(fast.n) if fast.pos[j] is None)
        assert fast.fits_nowhere(i) and not ref.fits_nowhere(i)
        u_fast = UniformBuffer(np.random.default_rng(4), block=5)
        u_ref = UniformBuffer(np.random.default_rng(4), block=5)
        for _ in range(7):
            assert try_place(fast, i, u_fast) == try_place(ref, i, u_ref) == 0.0
            assert fast.illegal == ref.illegal
            assert fast.place_attempts == ref.place_attempts
        assert fast.illegal == 7 * PLACE_PROBES
        assert [u_fast.next() for _ in range(11)] == [u_ref.next() for _ in range(11)]


    def _two_height_kernel(self, kernel):
        """Six 30-row blocks for five CLBLL columns (one stays out; its
        verdict is recorded), ten 10-row CLBLL blocks filling the rows
        above them, and three 10-row CLBLM blocks in the CLBLM columns,
        which no CLBLL anchor's span meets."""
        problem = _build(
            [((_LL,), 30)] * 6 + [((_LL,), 10)] * 10 + [((_LM,), 10)] * 3
        )
        kb = build(problem, kernel, 40.0)
        kb.greedy_initial()
        assert [j for j in range(kb.n) if kb.pos[j] is None] == [5]
        return kb

    @staticmethod
    def _count_scans(kb):
        """Record the columns ``kb`` scans through ``lowest_fit_y``."""
        scanned = []
        lowest_fit_y = kb.lowest_fit_y

        def counting(i, x, bound=None):
            scanned.append(x)
            return lowest_fit_y(i, x, bound)

        kb.lowest_fit_y = counting
        return scanned

    def test_free_outside_every_anchor_keeps_verdict(self):
        """Freeing CLBLM cells leaves the CLBLL verdict standing without a
        scan, so the next place attempt skips its 16 draws."""
        fast = self._two_height_kernel("fast")
        ref = self._two_height_kernel("reference")
        out = 5
        assert fast.fits_nowhere(out)
        lm = next(j for j in range(fast.n) if fast.fps[j].col_kinds == (_LM,))
        for kb in (fast, ref):
            x, y = kb.pos[lm]
            kb.paint(lm, x, y, -1)
            kb.set_pos(lm, None)
        scanned = self._count_scans(fast)
        assert fast.fits_nowhere(out) and scanned == []
        assert not _fits_somewhere(fast, out, fast.occupancy_array())
        probes = []
        fits = fast.fits
        fast.fits = lambda *a: probes.append(a) or fits(*a)
        u_fast = UniformBuffer(np.random.default_rng(2), block=7)
        u_ref = UniformBuffer(np.random.default_rng(2), block=7)
        assert try_place(fast, out, u_fast) == try_place(ref, out, u_ref) == 0.0
        assert probes == [] and scanned == []
        assert fast.illegal == ref.illegal == PLACE_PROBES
        skipped = UniformBuffer(np.random.default_rng(2), block=7)
        skipped.skip(2 * PLACE_PROBES)
        after = [skipped.next() for _ in range(9)]
        assert [u_fast.next() for _ in range(9)] == after
        assert [u_ref.next() for _ in range(9)] == after

    def test_free_inside_an_anchor_is_revalidated(self):
        """A free in a CLBLL column rescans that anchor alone: the verdict
        stands while the freed rows are too few and falls once they
        make room, both as brute force says."""
        kb = self._two_height_kernel("fast")
        out = 5
        small = next(
            j for j in range(kb.n) if kb.fps[j].max_height == 10 and kb.pos[j][0] == 0
        )
        scanned = self._count_scans(kb)
        x, y = kb.pos[small]
        kb.paint(small, x, y, -1)
        kb.set_pos(small, None)
        assert kb.fits_nowhere(out) and scanned == [0]
        assert not _fits_somewhere(kb, out, kb.occupancy_array())
        # Restamped: a second look scans nothing.
        assert kb.fits_nowhere(out) and scanned == [0]
        tall = next(j for j in range(5) if kb.pos[j][0] == 3)
        x, y = kb.pos[tall]
        kb.paint(tall, x, y, -1)
        kb.set_pos(tall, None)
        assert not kb.fits_nowhere(out) and scanned == [0, 3]
        assert _fits_somewhere(kb, out, kb.occupancy_array())
        # The dropped verdict is no verdict: nothing is rescanned.
        assert not kb.fits_nowhere(out) and scanned == [0, 3]

    def test_batch_move_logs_its_free(self):
        """A move the fused loop accepts frees its old rows like
        ``paint(..., -1)``: the verdict it voids does not stand."""
        problem = _build([((_LL,), 10)] * 5 + [((_LL,), 40)])
        kb = problem.make_kernel(40.0)
        # One 10-row block mid-column in each CLBLL column leaves two
        # 20-row runs per column: the 40-row block fits nowhere.
        for j, x in enumerate(kb.anchors_x[0]):
            kb.set_pos(j, (x, 20))
            kb.paint(j, x, 20, +1)
        kb.check_fits_nowhere(5)
        assert kb.fits_nowhere(5)
        u = UniformBuffer(np.random.default_rng(0), block=64)
        cost = kb.total_cost()
        kb.run_batch((), list(range(5)), [5], 50, 1e9, 0.0, 0.0, u, cost, cost)
        assert kb.move_accepts > 0
        assert _fits_somewhere(kb, 5, kb.occupancy_array())
        assert not kb.fits_nowhere(5)


#: Crowded problems with module reuse, so swap groups exist: one to four
#: footprints, four to fourteen instances drawn from them.
_batch_specs = st.lists(
    st.sampled_from(_PATTERNS).flatmap(
        lambda kinds: st.tuples(
            st.just(kinds), st.tuples(*(st.integers(4, 45) for _ in kinds))
        )
    ),
    min_size=1,
    max_size=4,
).flatmap(lambda specs: st.lists(st.sampled_from(specs), min_size=4, max_size=14))

#: Consecutive batches: (steps, temp, p_place, p_swap, snapshot).
_batches = st.lists(
    st.tuples(
        st.integers(1, 300),
        st.sampled_from([0.0, 0.5, 4.0, 60.0]),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.booleans(),
    ),
    min_size=1,
    max_size=3,
)

_COUNTERS = (
    "illegal",
    "move_attempts",
    "place_attempts",
    "swap_attempts",
    "move_accepts",
    "place_accepts",
    "swap_accepts",
)


class TestBatchLoop:
    """``FastKernel.run_batch`` inlines the moves of the generic loop in
    ``tests/kernel_oracle.py``: the same draws, decisions and counts."""

    @given(_batch_specs, _batches, st.booleans(), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_fused_loop_matches_oracle(self, fp_specs, batches, self_loop, seed):
        problem = _build(fp_specs, self_loop)
        runs = []
        for name in KERNELS:
            kb = build(problem, name, 40.0)
            kb.greedy_initial()
            placed = [j for j in range(kb.n) if kb.pos[j] is not None]
            unplaced = [j for j in range(kb.n) if kb.pos[j] is None]
            # An odd block size makes attempts and skips straddle refills.
            u = UniformBuffer(np.random.default_rng(seed), block=37)
            cost = best = kb.total_cost()
            trail = []
            for steps, temp, p_place, p_swap, snap in batches:
                snapshot = [] if snap else None
                cost, best, events = kb.run_batch(
                    problem.swappable, placed, unplaced, steps, temp,
                    p_place, p_swap, u, cost, best, snapshot,
                )
                trail.append(
                    (cost, best, events, snapshot, list(kb.pos), list(placed),
                     list(unplaced))
                )
            runs.append(
                (
                    trail,
                    kb.occupancy_array(),
                    [getattr(kb, c) for c in _COUNTERS],
                    kb.total_cost(),
                    u.next(),
                )
            )
        (fast, fast_occ, *fast_rest), (ref, ref_occ, *ref_rest) = runs
        assert fast == ref
        assert np.array_equal(fast_occ, ref_occ)
        assert fast_rest == ref_rest
