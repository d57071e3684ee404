"""Tests for the device grid geometry and capacity queries."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.device.column import Column, ColumnKind
from repro.device.grid import CLB_PER_REGION, DeviceGrid
from repro.device.parts import list_parts, make_part, xc7z010, xc7z020
from repro.device.resources import (
    BRAM36_PER_REGION_COLUMN,
    DSP48_PER_REGION_COLUMN,
    SLICES_PER_CLB,
    ResourceCaps,
)
from repro.pblock.pblock import PBlock


def _reference_find_window(
    grid, min_clb_cols, min_m_cols=0, min_bram_cols=0, min_dsp_cols=0, start_x=0
):
    """Oracle: the column-by-column double loop ``find_window`` replaced."""
    best = None
    n = grid.n_cols
    for x0 in range(start_x, n):
        clb = m = bram = dsp = 0
        for x1 in range(x0, n):
            kind = grid.columns[x1].kind
            if kind is ColumnKind.CLOCK:
                break
            if kind.is_clb:
                clb += 1
                if kind is ColumnKind.CLBLM:
                    m += 1
            elif kind is ColumnKind.BRAM:
                bram += 1
            elif kind is ColumnKind.DSP:
                dsp += 1
            if (
                clb >= min_clb_cols
                and m >= min_m_cols
                and bram >= min_bram_cols
                and dsp >= min_dsp_cols
            ):
                width = x1 - x0 + 1
                if best is None or width < best[1]:
                    best = (x0, width)
                break
    return best


def _reference_caps_in_rect(grid, x0, width, y0, height):
    """Oracle: the per-column sum ``caps_in_rect`` replaced."""
    caps = ResourceCaps()
    for col in grid.columns[x0 : x0 + width]:
        if col.kind.is_clb:
            n_slices = height * SLICES_PER_CLB
            n_m = height if col.kind is ColumnKind.CLBLM else 0
            caps = caps + ResourceCaps.for_slices(n_slices, n_m)
        elif col.kind is ColumnKind.BRAM:
            caps = caps + ResourceCaps(bram36=height * BRAM36_PER_REGION_COLUMN // 50)
        elif col.kind is ColumnKind.DSP:
            caps = caps + ResourceCaps(dsp48=height * DSP48_PER_REGION_COLUMN // 50)
    return caps


def _random_grid(rng, n_cols):
    """A column sequence of every kind, with zero, one or more clock spines."""
    kinds = list(ColumnKind)
    weights = np.array([4.0, 4.0, 1.0, 1.0, 0.7])
    picks = rng.choice(len(kinds), size=n_cols, p=weights / weights.sum())
    n_regions = int(rng.integers(1, 4))
    return DeviceGrid.from_kinds("rand", [kinds[i] for i in picks], n_regions=n_regions)


#: Column minima (CLB, CLB-LM, BRAM, DSP): all zero, the shapes the PBlock
#: generator asks for, and demands no window of a modeled part meets.
_MINIMA = [
    (clb, m, bram, dsp)
    for clb in (0, 1, 2, 5, 13, 200)
    for m in (0, 1, 4, 30)
    for bram in (0, 1, 12)
    for dsp in (0, 1, 4)
    if m <= max(clb, 1)
]


class TestConstruction:
    def test_from_kinds_numbers_columns(self, tiny_grid):
        for i, col in enumerate(tiny_grid.columns):
            assert col.x == i

    def test_misnumbered_columns_rejected(self):
        cols = (Column(ColumnKind.CLBLL, 1),)
        with pytest.raises(ValueError, match="numbered"):
            DeviceGrid(name="bad", columns=cols, n_regions=1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DeviceGrid(name="bad", columns=(), n_regions=1)

    def test_height(self, tiny_grid):
        assert tiny_grid.height_clbs == CLB_PER_REGION
        assert tiny_grid.height_slices == tiny_grid.height_clbs


class TestCapacity:
    def test_full_device_slices(self, tiny_grid):
        caps = tiny_grid.device_caps()
        n_clb = sum(1 for c in tiny_grid.columns if c.kind.is_clb)
        assert caps.slices == n_clb * 2 * 50

    def test_m_slices_from_lm_columns(self, tiny_grid):
        caps = tiny_grid.device_caps()
        n_lm = sum(1 for c in tiny_grid.columns if c.kind is ColumnKind.CLBLM)
        assert caps.m_slices == n_lm * 50

    def test_bram_pitch(self, tiny_grid):
        # 1 BRAM column, 10 per 50 rows.
        assert tiny_grid.device_caps().bram36 == 10

    def test_subrect_scaling(self, tiny_grid):
        full = tiny_grid.caps_in_rect(0, 3, 0, 50)
        half = tiny_grid.caps_in_rect(0, 3, 0, 25)
        assert half.slices * 2 == full.slices

    def test_partial_bram_rounds_down(self, tiny_grid):
        caps = tiny_grid.caps_in_rect(3, 1, 0, 4)  # 4 rows < 5-row pitch
        assert caps.bram36 == 0

    def test_out_of_bounds_rejected(self, tiny_grid):
        with pytest.raises(ValueError):
            tiny_grid.caps_in_rect(0, 99, 0, 10)
        with pytest.raises(ValueError):
            tiny_grid.caps_in_rect(0, 1, 0, 999)


class TestAnchors:
    def test_pattern_match(self, tiny_grid):
        pattern = (ColumnKind.CLBLM, ColumnKind.CLBLL)
        anchors = tiny_grid.compatible_x_anchors(pattern)
        kinds = tiny_grid.kinds()
        for x in anchors:
            assert kinds[x : x + 2] == pattern
        assert anchors  # tiny grid has at least one LM,LL pair

    def test_no_match(self, tiny_grid):
        anchors = tiny_grid.compatible_x_anchors((ColumnKind.BRAM,) * 3)
        assert anchors == []

    def test_cache_stable(self, tiny_grid):
        p = (ColumnKind.CLBLL,)
        assert tiny_grid.compatible_x_anchors(p) is tiny_grid.compatible_x_anchors(p)


class TestFindWindow:
    def test_basic(self, tiny_grid):
        window = tiny_grid.find_window(min_clb_cols=2)
        assert window is not None
        x0, width = window
        assert sum(1 for k in tiny_grid.kinds(x0, width) if k.is_clb) >= 2

    def test_requires_bram(self, tiny_grid):
        x0, width = tiny_grid.find_window(min_clb_cols=1, min_bram_cols=1)
        assert ColumnKind.BRAM in tiny_grid.kinds(x0, width)

    def test_never_spans_clock(self, tiny_grid):
        # Any window found must exclude the clock spine.
        for clb in range(1, 6):
            w = tiny_grid.find_window(min_clb_cols=clb)
            if w is not None:
                assert ColumnKind.CLOCK not in tiny_grid.kinds(*w)

    def test_impossible_returns_none(self, tiny_grid):
        assert tiny_grid.find_window(min_clb_cols=100) is None

    def test_narrowest_then_leftmost(self):
        # A CLB+BRAM pair exists at x=3 (width 2); the leftmost window
        # that satisfies the minima, (0, 5), is wider and loses.
        assert xc7z020().find_window(min_clb_cols=1, min_bram_cols=1) == (3, 2)

    def test_repeated_query_is_memoized(self, tiny_grid):
        first = tiny_grid.find_window(min_clb_cols=2, start_x=1)
        assert tiny_grid.find_window(min_clb_cols=2, start_x=1) is first


class TestTablesMatchColumnLoops:
    """``find_window``, ``caps_in_rect`` and a PBlock's CLB-column count
    and clock-spine check answer from per-grid tables; they must agree
    with the column loops they replaced on every query."""

    @pytest.mark.parametrize("part", list_parts())
    def test_find_window_on_parts(self, part):
        grid = make_part(part)
        spine = grid.clock_column_xs()[0]
        n = grid.n_cols
        for start_x in (0, spine - 1, spine, spine + 1, n - 1, n):
            for minima in _MINIMA:
                assert grid.find_window(*minima, start_x=start_x) == (
                    _reference_find_window(grid, *minima, start_x=start_x)
                ), (part, minima, start_x)

    @pytest.mark.parametrize("seed", range(6))
    def test_find_window_on_random_columns(self, seed):
        rng = np.random.default_rng(seed)
        for n_cols in rng.integers(1, 28, size=8):
            grid = _random_grid(rng, int(n_cols))
            for start_x in range(grid.n_cols + 2):
                for minima in _MINIMA[::5]:
                    assert grid.find_window(*minima, start_x=start_x) == (
                        _reference_find_window(grid, *minima, start_x=start_x)
                    ), (grid.kinds(), minima, start_x)

    @pytest.mark.parametrize("part", list_parts())
    def test_caps_in_rect_on_parts(self, part):
        grid = make_part(part)
        h = grid.height_clbs
        for x0 in range(0, grid.n_cols, 5):
            for width in range(1, grid.n_cols - x0 + 1, 3):
                for y0, height in ((3, 4), (0, 5), (7, 9), (0, h)):
                    assert grid.caps_in_rect(x0, width, y0, height) == (
                        _reference_caps_in_rect(grid, x0, width, y0, height)
                    ), (part, x0, width, y0, height)

    @pytest.mark.parametrize("seed", range(6))
    def test_caps_in_rect_on_random_columns(self, seed):
        rng = np.random.default_rng(100 + seed)
        for n_cols in rng.integers(1, 20, size=5):
            grid = _random_grid(rng, int(n_cols))
            for x0 in range(grid.n_cols):
                for width in range(1, grid.n_cols - x0 + 1):
                    for height in (1, 4, 5, 11, grid.height_clbs):
                        assert grid.caps_in_rect(x0, width, 0, height) == (
                            _reference_caps_in_rect(grid, x0, width, 0, height)
                        ), (grid.kinds(), x0, width, height)

    @staticmethod
    def _check_pblocks(grid):
        # Every window, against a scan of its column kinds.
        for x0 in range(grid.n_cols):
            for width in range(1, grid.n_cols - x0 + 1):
                kinds = grid.kinds(x0, width)
                if ColumnKind.CLOCK in kinds:
                    with pytest.raises(ValueError, match="clock"):
                        PBlock(grid=grid, x0=x0, width=width, y0=0, height=1)
                    continue
                pb = PBlock(grid=grid, x0=x0, width=width, y0=0, height=1)
                assert pb.n_clb_cols == sum(1 for k in kinds if k.is_clb), (
                    kinds, x0, width,
                )

    @pytest.mark.parametrize("part", list_parts())
    def test_pblock_columns_on_parts(self, part):
        self._check_pblocks(make_part(part))

    @pytest.mark.parametrize("seed", range(6))
    def test_pblock_columns_on_random_columns(self, seed):
        rng = np.random.default_rng(200 + seed)
        for n_cols in rng.integers(1, 28, size=8):
            self._check_pblocks(_random_grid(rng, int(n_cols)))


class TestDerivedState:
    """Tables and memos are derived per grid: never shared with a
    ``dataclasses.replace`` copy and never pickled."""

    _PATTERN = (ColumnKind.CLBLL, ColumnKind.CLBLM)

    def _query(self, grid):
        return (
            grid.compatible_x_anchors(self._PATTERN),
            grid.find_window(min_clb_cols=3, min_bram_cols=1),
            grid.find_window(min_clb_cols=5, min_dsp_cols=1, start_x=4),
            grid.caps_in_rect(0, 9, 0, 50),
        )

    def test_replace_answers_for_its_own_columns(self):
        z020 = xc7z020()
        self._query(z020)
        swapped = dataclasses.replace(z020, columns=xc7z010().columns)
        assert len(swapped.compatible_x_anchors(self._PATTERN)) == 11
        assert len(z020.compatible_x_anchors(self._PATTERN)) == 22
        assert self._query(swapped) == self._query(xc7z010())

    def test_pickle_is_unchanged_by_queries(self):
        grid = xc7z020()
        before = pickle.dumps(grid)
        self._query(grid)
        grid.find_window(min_clb_cols=200)
        assert pickle.dumps(grid) == before

    def test_unpickled_grid_answers_like_the_original(self):
        grid = xc7z020()
        answers = self._query(grid)
        clone = pickle.loads(pickle.dumps(grid))
        assert clone == grid
        assert self._query(clone) == answers


class TestRegions:
    def test_single_region_never_crosses(self, tiny_grid):
        assert not tiny_grid.crosses_region_boundary(0, 50)

    def test_crossing(self, z020):
        assert z020.crosses_region_boundary(45, 10)
        assert not z020.crosses_region_boundary(0, 50)

    def test_clock_columns_listed(self, tiny_grid):
        assert tiny_grid.clock_column_xs() == [5]


class TestResourceCaps:
    def test_add(self):
        a = ResourceCaps.for_slices(10, 2)
        b = ResourceCaps.for_slices(5, 1)
        c = a + b
        assert c.slices == 15 and c.m_slices == 3 and c.luts == 60

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ResourceCaps(slices=-1)

    def test_every_field_checked(self):
        for f in dataclasses.fields(ResourceCaps):
            with pytest.raises(ValueError, match=rf"ResourceCaps\.{f.name} must be >= 0, got -1"):
                ResourceCaps(**{f.name: -1})

    def test_m_exceeding_total_rejected(self):
        with pytest.raises(ValueError):
            ResourceCaps(slices=1, m_slices=2)
