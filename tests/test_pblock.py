"""Tests for PBlock geometry, the Fig. 1 generator and the CF search."""

import contextlib

import pytest

from repro.netlist.stats import compute_stats
from repro.pblock import cf_search
from repro.pblock.cf_search import (
    InfeasibleModuleError,
    minimal_cf,
    recommended_step,
)
from repro.pblock.generator import PBlockGenerationError, build_pblock
from repro.pblock.pblock import PBlock
from repro.place.packer import pack, pack_demand, placer_noise_amplitude
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
from tests.cf_oracle import reference_minimal_cf, reference_pack


def _stats(*constructs, name="pb"):
    return compute_stats(synthesize(RTLModule.make(name, list(constructs))))


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


#: The sweeps the reuse is checked on, as ``(minimal_cf keywords,
#: placer-noise amplitude)``: the paper's (start 0.9, step 0.02, max 2.5),
#: two others, and the paper's and one other without placer noise
#: (``None`` keeps the packer's amplitude).  Up to CF 1.3 about a third
#: of the modules are infeasible on z020 too.
_SWEEPS = [
    ({}, None),
    ({"start": 0.6, "step": 0.05, "max_cf": 1.3}, None),
    ({"start": 1.05, "step": 0.03, "max_cf": 3.0}, None),
    ({}, 0.0),
    ({"start": 0.6, "step": 0.05, "max_cf": 1.3}, 0.0),
]


class TestPackReuse:
    """A sweep step that snaps to the previous step's PBlock reuses its
    packing, and every packing of a sweep gets the module's demand derived
    once: same result as :mod:`tests.cf_oracle`'s sweep, which packs from
    scratch at every step, with fewer ``pack`` calls."""

    @pytest.mark.parametrize("search_down", [False, True])
    @pytest.mark.parametrize("grid_name", ["z020", "tiny_grid"])
    def test_sweep_matches_packing_every_step(
        self, grid_name, search_down, sweep_stats, request, monkeypatch
    ):
        # On the tiny grid about half the modules are infeasible.
        grid = request.getfixturevalue(grid_name)
        packed = []

        def counting_pack(stats, pb, demand):
            # Every packing the sweep makes, infeasible steps included,
            # must be the one the oracle derives from scratch.
            packed.append(demand)
            res = pack(stats, pb, demand)
            ref = reference_pack(stats, pb)
            assert (res, res.footprint) == (ref, ref.footprint)
            return res

        monkeypatch.setattr(cf_search, "pack", counting_pack)
        for sweep, amplitude in _SWEEPS:
            noise = (
                contextlib.nullcontext()
                if amplitude is None
                else placer_noise_amplitude(amplitude)
            )
            n_reused = 0
            with noise:
                for stats in sweep_stats:
                    report = quick_place(stats)
                    expected, n_steps, n_packs = reference_minimal_cf(
                        stats, grid, report, search_down=search_down, **sweep
                    )
                    packed.clear()
                    if expected is None:
                        with pytest.raises(InfeasibleModuleError) as err:
                            minimal_cf(
                                stats, grid, search_down=search_down, report=report, **sweep
                            )
                        assert err.value.n_runs == n_steps
                    else:
                        found = minimal_cf(
                            stats, grid, search_down=search_down, report=report, **sweep
                        )
                        assert (found.cf, found.n_runs, found.pblock, found.result) == (
                            expected.cf,
                            expected.n_runs,
                            expected.pblock,
                            expected.result,
                        )
                        assert found.result.footprint == expected.result.footprint
                    assert len(packed) == n_packs
                    if packed:
                        assert packed[0] == pack_demand(stats)
                        assert all(d is packed[0] for d in packed)
                    if n_packs < n_steps:
                        n_reused += 1
                        assert len(packed) < n_steps
            assert n_reused > 0, sweep  # some modules' steps repeat a PBlock

    def test_pack_matches_reference_on_any_pblock(self, z020, sweep_stats):
        # Shapes no sweep snaps to (shorter than the longest chain, no
        # CLB-LM or hard-block column) reach every outcome, with the demand
        # precomputed and without.
        reasons = set()
        for stats in sweep_stats:
            demand = pack_demand(stats)
            for x0 in (0, 3, 11):
                for width in (1, 2, 5, 9):
                    for height in (2, 9, 30, 80):
                        try:
                            pb = PBlock(grid=z020, x0=x0, width=width, y0=0, height=height)
                        except ValueError:  # holds the clock spine
                            continue
                        ref = reference_pack(stats, pb)
                        for res in (pack(stats, pb), pack(stats, pb, demand)):
                            assert (res, res.footprint) == (ref, ref.footprint)
                        reasons.add(ref.reason)
        assert reasons == {
            "", "bram", "dsp", "m_slices", "chain_height", "chain_packing", "congestion"
        }


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
