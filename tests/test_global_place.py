"""Analytic global placer: legality, determinism and budget contract.

The gp output feeds the SA stitcher as a warm start, so the one
property everything downstream trusts is that the legalized placement
honors the same geometric contract as the move kernels — verified here
by round-tripping every gp anchor through a fresh kernel's ``fits``
check and the shared ``_assert_legal`` helper from the place-kernel
suite.  The descent itself is pinned by the gp goldens in
``tests/test_golden_costs.py``; this file covers the structural
invariants, the ``nearest_fit_y`` kernel primitive the legalizer snaps
through, and the process-wide site-table cache.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.column import ColumnKind
from repro.flow.blockdesign import BlockDesign
from repro.flow.global_place import GPParams, global_place
from repro.flow.placers import WarmStartedSAPlacer
from repro.flow.stitcher import SAParams, stitch
from repro.obs.tracer import Tracer
from repro.place.shapes import Footprint
from repro.place_kernel import (
    PlacementProblem,
    column_capacities,
    site_table,
)
from repro.place_kernel.result import pareto_key
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud
from tests.kernel_oracle import KERNELS, build, kernel, reference_kernel
from tests.test_place_kernel import (
    _GRID,
    _PATTERNS,
    _assert_legal,
    _footprints,
)

_LL = ColumnKind.CLBLL
_LM = ColumnKind.CLBLM

_kernels = pytest.mark.parametrize("name", list(KERNELS))


def _design_from_specs(fp_specs):
    """The place-kernel suite's fixture shape, kept as (design, fps)."""
    d = BlockDesign(name="gp")
    fps = {}
    for k, (kinds, h) in enumerate(fp_specs):
        name = f"m{fp_specs.index((kinds, h))}"
        if name not in fps:
            d.add_module(RTLModule.make(name, [RandomLogicCloud(n_luts=2)]))
            heights = h if isinstance(h, tuple) else (h,) * len(kinds)
            fps[name] = Footprint(kinds, heights)
        d.add_instance(f"i{k}", name)
        if k:
            d.connect(f"i{k - 1}", f"i{k}", width=2)
    return d, fps


class TestGlobalPlaceLegality:
    @_kernels
    @given(_footprints, st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_output_is_legal_and_reloadable(self, name, fp_specs, seed):
        """Every gp anchor passes a fresh kernel's own fit check."""
        d, fps = _design_from_specs(fp_specs)
        with kernel(name):
            res = global_place(d, fps, _GRID, GPParams(n_iters=20, seed=seed))
        problem = PlacementProblem.from_design(d, fps, _GRID)
        kb = build(problem, name, 40.0)
        kb.load_placements(problem.names, res.placements)
        # load_placements silently skips non-fitting anchors; exact
        # equality proves none were skipped, i.e. the output is legal.
        assert {problem.names[i]: kb.pos[i] for i in range(kb.n)} == \
            dict(res.placements)
        _assert_legal(problem, kb)
        assert res.occupancy.max(initial=0) <= 1
        assert res.iterations == 0
        assert res.illegal_moves == 0

    @given(_footprints, st.integers(0, 3))
    @settings(max_examples=15, deadline=None)
    def test_kernels_agree(self, fp_specs, seed):
        """Both legalization kernels produce bitwise-identical results."""
        d, fps = _design_from_specs(fp_specs)
        p = GPParams(n_iters=20, seed=seed)
        a = global_place(d, fps, _GRID, p)
        with reference_kernel():
            b = global_place(d, fps, _GRID, p)
        assert a.placements == b.placements
        assert a.final_cost == b.final_cost
        assert a.wirelength == b.wirelength

    def test_deterministic_across_calls(self):
        d, fps = _design_from_specs([(p, 8) for p in _PATTERNS[:4]])
        a = global_place(d, fps, _GRID, GPParams(seed=3))
        b = global_place(d, fps, _GRID, GPParams(seed=3))
        assert a.placements == b.placements
        assert a.final_cost == b.final_cost
        assert a.stats.objective_trace == b.stats.objective_trace

    def test_zero_iters_still_legalizes(self):
        """n_iters=0 skips the descent but still snaps a legal start."""
        d, fps = _design_from_specs([((_LL,), 6), ((_LM,), 6)])
        res = global_place(d, fps, _GRID, GPParams(n_iters=0))
        assert res.n_placed == 2
        assert res.occupancy.max(initial=0) <= 1


class TestGlobalPlaceValidation:
    @pytest.mark.parametrize("bad", [
        GPParams(n_iters=-1),
        GPParams(gamma=0.0),
        GPParams(n_bands=0),
    ])
    def test_bad_params_rejected(self, bad):
        d, fps = _design_from_specs([((_LL,), 4)])
        with pytest.raises(ValueError):
            global_place(d, fps, _GRID, bad)


class TestGlobalPlaceTrace:
    def test_phase_spans_tile_root(self):
        d, fps = _design_from_specs([(p, 10) for p in _PATTERNS[:3]])
        tr = Tracer()
        global_place(d, fps, _GRID, GPParams(n_iters=10), tracer=tr)
        root = tr.roots[0]
        assert root.name == "gplace"
        assert [c.name for c in root.children] == [
            "gplace.init", "gplace.descent", "gplace.legalize"
        ]
        assert sum(c.dur_s for c in root.children) == pytest.approx(
            root.dur_s, rel=0.05
        )

    def test_stats_record_descent_trajectory(self):
        d, fps = _design_from_specs([((_LL,), 6), ((_LM,), 6)])
        res = global_place(d, fps, _GRID, GPParams(n_iters=7))
        assert len(res.stats.objective_trace) == 7
        assert [t for t, _f in res.stats.objective_trace] == list(range(7))
        assert res.stats.temperature_trace == ()  # no anneal, no schedule


class TestWarmStartPipeline:
    def test_gp_warm_started_sa_budget_and_quality(self):
        """gp+sa spends at most sa_frac of the cap and never loses to
        its own warm start (the pareto-better of the two wins)."""
        d, fps = _design_from_specs([(p, 8) for p in _PATTERNS[:5]])
        placer = WarmStartedSAPlacer(
            params=SAParams(max_iters=1000, seed=0), warm="gp",
        )
        res = placer.place(d, fps, _GRID)
        warm = global_place(d, fps, _GRID, GPParams(seed=0))
        assert res.iterations <= 500
        assert pareto_key(res) <= pareto_key(warm)
        assert res.occupancy.max(initial=0) <= 1

    def test_unknown_warm_producer_rejected(self):
        d, fps = _design_from_specs([((_LL,), 4)])
        placer = WarmStartedSAPlacer(warm="magnetic")
        with pytest.raises(ValueError, match="warm-start producer"):
            placer.place(d, fps, _GRID)

    def test_stitch_restarts_accept_warm_start(self, cli_placers):
        """Restarting the CLI's gp+sa placer polishes one warm start per
        seed: the winner is the pareto minimum of the GP warm start and
        every seed's half-budget polish anneal from it, serial or
        pooled."""
        from repro.flow.restarts import place_best

        # Seed 2 wins here, and would not if it re-ran the analytic
        # placer at its own seed.
        d, fps = _design_from_specs([(p, 8) for p in _PATTERNS[:3]])
        placer = cli_placers(600, 0)["gp+sa"]
        warm = global_place(d, fps, _GRID, GPParams(seed=0))
        polished = [
            stitch(d, fps, _GRID, SAParams(max_iters=300, seed=s),
                   initial_placements=warm.placements)
            for s in (0, 1, 2)
        ]
        expect = min([warm, *polished], key=pareto_key)
        serial = place_best(placer, d, fps, _GRID, n_seeds=3)
        pooled = place_best(placer, d, fps, _GRID, n_seeds=3, n_workers=2)
        for best in (serial, pooled):
            assert best.placements == expect.placements
            assert best.final_cost == expect.final_cost
        assert serial.stats.seed == pooled.stats.seed == 2


class TestNearestFitY:
    @_kernels
    @given(_footprints, st.integers(0, 200), st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_result_fits_and_is_nearest(self, name, fp_specs, y_target,
                                        salt):
        """nearest_fit_y returns the closest fitting row (ties lower)."""
        d, fps = _design_from_specs(fp_specs)
        problem = PlacementProblem.from_design(d, fps, _GRID)
        kb = build(problem, name, 40.0)
        kb.greedy_initial()
        i = salt % kb.n
        xs = kb.anchors_x[i]
        if not xs or kb.y_max[i] < 0:
            return
        x = xs[salt % len(xs)]
        # Vacate the probe instance so self-overlap can't mask fits.
        if kb.pos[i] is not None:
            px, py = kb.pos[i]
            kb.paint(i, px, py, -1)
            kb.set_pos(i, None)
        got = kb.nearest_fit_y(i, x, y_target)
        step = kb.y_step[i]
        fitting = [y for y in range(0, kb.y_max[i] + 1, step)
                   if kb.fits(i, x, y)]
        if not fitting:
            assert got is None
        else:
            t = min(max(y_target, 0), kb.y_max[i])
            t -= t % step
            expect = min(fitting,
                         key=lambda y: (abs(y - t), y))
            assert got == expect

    @given(_footprints, st.integers(-5, 250), st.integers(0, 7))
    @settings(max_examples=30, deadline=None)
    def test_kernels_agree(self, fp_specs, y_target, salt):
        d, fps = _design_from_specs(fp_specs)
        results = []
        for name in KERNELS:
            problem = PlacementProblem.from_design(d, fps, _GRID)
            kb = build(problem, name, 40.0)
            kb.greedy_initial()
            i = salt % kb.n
            xs = kb.anchors_x[i]
            if not xs:
                return
            results.append(kb.nearest_fit_y(i, xs[salt % len(xs)], y_target))
        assert results[0] == results[1]


class TestSiteInfrastructure:
    def test_column_capacities_shape_and_clock(self, tiny_grid):
        caps = column_capacities(tiny_grid)
        assert caps.shape == (tiny_grid.n_cols,)
        assert caps[5] == 0.0  # the clock-spine column holds nothing
        assert all(caps[x] == tiny_grid.height_clbs
                   for x in range(tiny_grid.n_cols) if x != 5)

    def test_site_tables_cached_per_grid(self):
        """Rebuilding a kernel on the same grid reuses the same tables."""
        fp = Footprint((_LL, _LM), (6, 6))
        assert site_table(_GRID, fp) is site_table(_GRID, fp)
        d, fps = _design_from_specs([((_LL, _LM), 6)])
        problem = PlacementProblem.from_design(d, fps, _GRID)
        a = problem.make_kernel(40.0)
        b = problem.make_kernel(40.0)
        assert a.tables[0] is b.tables[0]

    def test_cache_survives_restore_clear_cycles(self):
        """Snapshot/restore churn never invalidates the shared tables."""
        d, fps = _design_from_specs([((_LL,), 5), ((_LM,), 5)])
        problem = PlacementProblem.from_design(d, fps, _GRID)
        kb = problem.make_kernel(40.0)
        tables = list(kb.tables)
        kb.greedy_initial()
        snap = list(kb.pos)
        kb.clear()
        kb.restore(snap)
        kb2 = problem.make_kernel(40.0)
        assert all(x is y for x, y in zip(tables, kb2.tables))

    def test_distinct_grids_do_not_share(self, tiny_grid):
        fp = Footprint((_LL,), (4,))
        assert site_table(_GRID, fp) is not site_table(tiny_grid, fp)


class TestDensityAccounting:
    def test_descent_monotone_without_density(self):
        """With the density term off the objective is pure smooth HPWL
        and Armijo backtracking guarantees a non-increasing trajectory."""
        d, fps = _design_from_specs([((_LL,), 4)] * 8)
        res = global_place(
            d, fps, _GRID,
            GPParams(n_iters=60, density_weight=0.0, seed=0),
        )
        fs = [f for _t, f in res.stats.objective_trace]
        assert all(b <= a + 1e-9 for a, b in zip(fs, fs[1:]))

    def test_cost_matches_kernel_scoring(self):
        """The reported cost is exactly what a kernel scores the same
        placement at — gp and SA costs are directly comparable."""
        d, fps = _design_from_specs([(p, 8) for p in _PATTERNS[:4]])
        res = global_place(d, fps, _GRID, GPParams(seed=0))
        problem = PlacementProblem.from_design(d, fps, _GRID)
        kb = problem.make_kernel(40.0)
        kb.load_placements(problem.names, res.placements)
        assert res.final_cost == kb.total_cost()
        assert res.wirelength == kb.wirelength()
