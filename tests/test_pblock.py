"""Tests for PBlock geometry, the Fig. 1 generator and the CF search."""

import pytest

from repro.device.column import ColumnKind
from repro.netlist.stats import compute_stats
from repro.pblock import cf_search
from repro.pblock.cf_search import (
    DOWN_LIMIT,
    CFSearchResult,
    InfeasibleModuleError,
    minimal_cf,
    recommended_step,
)
from repro.pblock.generator import PBlockGenerationError, build_pblock
from repro.pblock.pblock import PBlock
from repro.place.packer import PackResult, pack
from repro.place.quick import quick_place
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import (
    BlockMemory,
    DistributedMemory,
    RandomLogicCloud,
    SumOfSquares,
)
from repro.rtlgen.sweep import generate_sweep
from repro.synth.mapper import synthesize


def _stats(*constructs, name="pb"):
    return compute_stats(synthesize(RTLModule.make(name, list(constructs))))


def _reference_minimal_cf(stats, grid, report, *, search_down, start=0.9, step=0.02, max_cf=2.5):
    """Oracle: the sweep before packings were reused, with ``build_pblock``
    and ``pack`` at every step.

    Returns the search result (``None`` when no CF fits), the number of
    steps, and the number of steps whose PBlock differs from the step
    before's (the packings ``minimal_cf`` still has to run).
    """
    steps = []

    def attempt(cf):
        try:
            pb = build_pblock(stats, report, cf, grid)
        except PBlockGenerationError:
            pb, res = None, PackResult(False, reason="no_pblock")
        else:
            res = pack(stats, pb)
        steps.append(pb)
        return pb, res

    best = None
    cf = start
    while cf <= max_cf + 1e-9:
        pb, res = attempt(cf)
        if res.feasible and pb is not None:
            best = (cf, pb, res)
            break
        cf = round(cf + step, 10)
    if best is not None and search_down and abs(best[0] - start) < step / 2:
        cf = round(start - step, 10)
        while cf >= DOWN_LIMIT - 1e-9:
            pb, res = attempt(cf)
            if not (res.feasible and pb is not None):
                break
            best = (cf, pb, res)
            cf = round(cf - step, 10)
    n_packs = sum(
        1 for before, pb in zip([None, *steps], steps) if pb is not None and pb != before
    )
    if best is None:
        return None, len(steps), n_packs
    found = CFSearchResult(
        cf=best[0], n_runs=len(steps), pblock=best[1], result=best[2], report=report
    )
    return found, len(steps), n_packs


class TestPBlock:
    def test_caps_match_grid(self, z020):
        pb = PBlock(grid=z020, x0=0, width=4, y0=0, height=30)
        assert pb.caps == z020.caps_in_rect(0, 4, 0, 30)

    def test_cannot_contain_clock(self, z020):
        spine = z020.clock_column_xs()[0]
        with pytest.raises(ValueError, match="clock"):
            PBlock(grid=z020, x0=spine - 1, width=3, y0=0, height=10)

    def test_bounds_checked(self, z020):
        with pytest.raises(ValueError):
            PBlock(grid=z020, x0=0, width=1, y0=140, height=20)

    def test_slice_columns(self, z020):
        pb = PBlock(grid=z020, x0=0, width=2, y0=0, height=10)
        n_clb = pb.n_clb_cols
        assert pb.n_slice_cols == 2 * n_clb
        flags = pb.slice_col_is_m()
        assert len(flags) == pb.n_slice_cols

    def test_m_slice_columns_match_kinds(self, z020):
        pb = PBlock(grid=z020, x0=0, width=4, y0=0, height=10)
        n_lm = sum(1 for k in pb.kinds if k is ColumnKind.CLBLM)
        assert sum(pb.slice_col_is_m()) == n_lm

    def test_region_crossing(self, z020):
        assert PBlock(grid=z020, x0=0, width=2, y0=45, height=10).crosses_region_boundary()
        assert not PBlock(grid=z020, x0=0, width=2, y0=0, height=50).crosses_region_boundary()


class TestBuildPBlock:
    def test_capacity_scales_with_cf(self, z020):
        s = _stats(RandomLogicCloud(n_luts=900))
        rep = quick_place(s)
        small = build_pblock(s, rep, 1.0, z020)
        big = build_pblock(s, rep, 1.8, z020)
        assert big.caps.slices >= small.caps.slices

    def test_capacity_covers_target(self, z020):
        s = _stats(RandomLogicCloud(n_luts=500))
        rep = quick_place(s)
        for cf in (0.9, 1.2, 1.6):
            pb = build_pblock(s, rep, cf, z020)
            assert pb.caps.slices >= rep.est_slices * cf

    def test_honors_chain_height(self, z020):
        s = _stats(SumOfSquares(width=60, n_terms=1))
        rep = quick_place(s)
        pb = build_pblock(s, rep, 1.0, z020)
        assert pb.height >= s.max_chain_slices

    def test_includes_bram_columns(self, z020):
        s = _stats(RandomLogicCloud(n_luts=60), BlockMemory(n_bram36=6))
        pb = build_pblock(s, quick_place(s), 1.0, z020)
        assert pb.caps.bram36 >= 6

    def test_includes_m_columns(self, z020):
        s = _stats(DistributedMemory(width=64, depth=512))
        pb = build_pblock(s, quick_place(s), 1.0, z020)
        assert pb.caps.m_slices * 4 >= s.n_m_lut_sites

    def test_impossible_demand_raises(self, tiny_grid):
        s = _stats(RandomLogicCloud(n_luts=4000), BlockMemory(n_bram36=200))
        with pytest.raises(PBlockGenerationError):
            build_pblock(s, quick_place(s), 1.0, tiny_grid)

    def test_rejects_nonpositive_cf(self, z020):
        s = _stats(RandomLogicCloud(n_luts=50))
        with pytest.raises(ValueError):
            build_pblock(s, quick_place(s), 0.0, z020)


class TestMinimalCF:
    def test_result_is_feasible(self, z020):
        s = _stats(RandomLogicCloud(n_luts=700))
        found = minimal_cf(s, z020)
        assert found.result.feasible
        assert found.cf >= 0.9

    def test_minimality_bracketing(self, z020):
        """One step below the found CF must be infeasible (unless at the
        sweep start)."""
        s = _stats(RandomLogicCloud(n_luts=700, avg_inputs=5.0))
        found = minimal_cf(s, z020)
        if found.cf > 0.9 + 1e-9:
            below = build_pblock(s, found.report, found.cf - 0.02, z020)
            assert not pack(s, below).feasible

    def test_search_down_finds_sub_09(self, z020):
        # A BRAM-driven module: slice demand tiny, PBlock forced wide.
        s = _stats(RandomLogicCloud(n_luts=30), BlockMemory(n_bram36=8))
        up = minimal_cf(s, z020)
        down = minimal_cf(s, z020, search_down=True)
        assert down.cf <= up.cf
        assert down.cf < 0.9

    def test_runs_counted(self, z020):
        s = _stats(RandomLogicCloud(n_luts=700, avg_inputs=5.0))
        found = minimal_cf(s, z020)
        expected = round((found.cf - 0.9) / 0.02) + 1
        assert found.n_runs == expected

    def test_infeasible_raises(self, tiny_grid):
        s = _stats(SumOfSquares(width=64, n_terms=4))  # chains taller than grid
        if s.max_chain_slices > tiny_grid.height_clbs:
            with pytest.raises(InfeasibleModuleError):
                minimal_cf(s, tiny_grid)

    def test_step_respected(self, z020):
        s = _stats(RandomLogicCloud(n_luts=700, avg_inputs=5.0))
        fine = minimal_cf(s, z020, step=0.02)
        coarse = minimal_cf(s, z020, step=0.1)
        assert coarse.cf >= fine.cf - 1e-9
        # Both CFs lie on their own grid.
        assert abs((fine.cf - 0.9) / 0.02 - round((fine.cf - 0.9) / 0.02)) < 1e-6

    def test_deterministic(self, z020):
        s = _stats(RandomLogicCloud(n_luts=400))
        assert minimal_cf(s, z020).cf == minimal_cf(s, z020).cf


@pytest.fixture(scope="module")
def sweep_stats():
    return [compute_stats(synthesize(m)) for m in generate_sweep(30, seed=5)]


class TestPackReuse:
    """A sweep step that snaps to the previous step's PBlock reuses its
    packing: same result as packing at every step, fewer ``pack`` calls."""

    @pytest.mark.parametrize("search_down", [False, True])
    @pytest.mark.parametrize("grid_name", ["z020", "tiny_grid"])
    def test_sweep_matches_packing_every_step(
        self, grid_name, search_down, sweep_stats, request, monkeypatch
    ):
        # On the tiny grid about half the modules are infeasible.
        grid = request.getfixturevalue(grid_name)
        packed = []

        def counting_pack(stats, pb):
            packed.append(pb)
            return pack(stats, pb)

        monkeypatch.setattr(cf_search, "pack", counting_pack)
        n_reused = 0
        for stats in sweep_stats:
            report = quick_place(stats)
            expected, n_steps, n_packs = _reference_minimal_cf(
                stats, grid, report, search_down=search_down
            )
            packed.clear()
            if expected is None:
                with pytest.raises(InfeasibleModuleError) as err:
                    minimal_cf(stats, grid, search_down=search_down, report=report)
                assert err.value.n_runs == n_steps
            else:
                found = minimal_cf(stats, grid, search_down=search_down, report=report)
                assert (found.cf, found.n_runs, found.pblock, found.result) == (
                    expected.cf,
                    expected.n_runs,
                    expected.pblock,
                    expected.result,
                )
                assert found.result.footprint == expected.result.footprint
            assert len(packed) == n_packs
            if n_packs < n_steps:
                n_reused += 1
                assert len(packed) < n_steps
        assert n_reused > 0  # some modules' steps repeat a PBlock


class TestRecommendedStep:
    def test_rule(self):
        assert recommended_step(50) == 0.1
        assert recommended_step(500) == 0.05
        assert recommended_step(2500) == 0.02

    def test_monotone(self):
        assert recommended_step(50) >= recommended_step(500) >= recommended_step(5000)

    def test_boundaries(self):
        # The documented bands are [0, 100), [100, 1000), [1000, inf).
        assert recommended_step(99) == 0.1
        assert recommended_step(100) == 0.05
        assert recommended_step(999) == 0.05
        assert recommended_step(1000) == 0.02

    def test_fine_enough_for_2500_lut_modules(self):
        # §VI-C: ~2,500-LUT modules must be swept at 0.03 or finer.
        assert recommended_step(2500) <= 0.03
