"""Tests for the GA placer and the optimizer portfolio.

The evolver must honor the same contracts the SA stitcher does — the
shared :class:`StitchResult` shape, seeded bitwise determinism,
equivalence with the reference kernel in ``tests/kernel_oracle.py``,
phase spans that tile the run — plus its
own: the kernel-operation budget is never exceeded, and at an equal
budget it matches or beats single-seed SA on the reference fixtures
(the perf-smoke gate checks the same on the cnvW1A1 stitch).
"""

from unittest import mock

import numpy as np
import pytest

from repro.device.column import ColumnKind
from repro.flow.blockdesign import BlockDesign
from repro.flow.evolve import GAParams, evolve
from repro.flow.placers import (
    GAPlacer,
    SAPlacer,
    WarmStartedSAPlacer,
    default_portfolio,
)
from repro.flow.restarts import place_best
from repro.flow.stitcher import SAParams, stitch
from repro.obs.tracer import Tracer
from repro.place.shapes import Footprint
from repro.place_kernel import FastKernel, Placer, StitchResult
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud
from tests.kernel_oracle import reference_kernel

_LL = ColumnKind.CLBLL
_LM = ColumnKind.CLBLM


@pytest.fixture()
def chain():
    d = BlockDesign(name="evolve-chain")
    d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=4)]))
    fp = Footprint((_LL, _LM), (12, 12))
    for i in range(12):
        d.add_instance(f"i{i}", "m")
    for i in range(11):
        d.connect(f"i{i}", f"i{i + 1}", width=4)
    return d, {"m": fp}


@pytest.fixture()
def crowded():
    """A chain far too big for ``tiny_grid``: most placement scans find
    nothing, so the fast kernel's fits-nowhere verdicts come into play."""
    fps = {
        "tall": Footprint((_LL,), (40,)),
        "pair": Footprint((_LL, _LM), (20, 20)),
        "side": Footprint((_LM,), (30,)),
    }
    d = BlockDesign(name="evolve-crowded")
    for name in fps:
        d.add_module(RTLModule.make(name, [RandomLogicCloud(n_luts=4)]))
    mods = ["tall"] * 6 + ["pair"] * 3 + ["side"] * 5
    for i, m in enumerate(mods):
        d.add_instance(f"i{i}", m)
    for i in range(len(mods) - 1):
        d.connect(f"i{i}", f"i{i + 1}", width=1 + i % 3)
    return d, fps


class TestEvolve:
    def test_result_shape(self, chain, z020):
        d, fps = chain
        res = evolve(d, fps, z020, GAParams(move_budget=1500, seed=0))
        assert isinstance(res, StitchResult)
        assert res.n_placed + res.n_unplaced == 12
        assert set(res.placements) == {f"i{i}" for i in range(12)}
        assert res.final_cost >= 0
        assert res.occupancy.max(initial=0) <= 1
        assert res.history[0][0] == 0
        assert res.stats is not None

    def test_budget_respected(self, chain, z020):
        """iterations == consumed kernel ops, never above the budget.

        The seeded elite's decode (one op per instance) is the one cost a
        smaller budget cannot refuse, so the bound is ``max(budget, n)``.
        Budgets 1-39 cannot pay for a second decode plus a restore
        (3n+4 ops with the seeded decode), so the GA must skip both.
        """
        d, fps = chain
        n = len(d.instances)
        for budget in (1, 11, 12, 13, 20, 39, 50, 400, 2000):
            res = evolve(d, fps, z020, GAParams(move_budget=budget, seed=0))
            assert res.iterations <= max(budget, n), budget

    def test_deterministic(self, chain, z020):
        d, fps = chain
        a = evolve(d, fps, z020, GAParams(move_budget=1200, seed=3))
        b = evolve(d, fps, z020, GAParams(move_budget=1200, seed=3))
        assert a.placements == b.placements
        assert a.final_cost == b.final_cost
        assert a.history == b.history

    def test_kernel_equivalence(self, chain, z020):
        """Bitwise-identical GA runs on the fast and reference kernels."""
        d, fps = chain
        params = GAParams(move_budget=1200, seed=1)
        fast = evolve(d, fps, z020, params)
        with reference_kernel():
            ref = evolve(d, fps, z020, params)
        assert fast.placements == ref.placements
        assert fast.final_cost == ref.final_cost
        assert fast.history == ref.history
        assert np.array_equal(fast.occupancy, ref.occupancy)

    @pytest.mark.parametrize("placer", ["ga", "warm-sa"])
    def test_kernel_equivalence_crowded(self, crowded, tiny_grid, placer):
        """Bitwise-identical runs on a crowded device, where the fast
        kernel skips scans and place attempts that its fits-nowhere
        verdicts answer and the reference kernel probes them all."""
        d, fps = crowded

        def run():
            if placer == "ga":
                return evolve(d, fps, tiny_grid, GAParams(move_budget=3000, seed=2))
            sa = SAParams(max_iters=3000, seed=2)
            return WarmStartedSAPlacer(params=sa).place(d, fps, tiny_grid)

        answers = []
        fits_nowhere = FastKernel.fits_nowhere

        def spy(self, i):
            answers.append(fits_nowhere(self, i))
            return answers[-1]

        with mock.patch.object(FastKernel, "fits_nowhere", spy):
            fast = run()
        with reference_kernel():
            ref = run()
        assert any(answers), "no verdict reached: the case is not crowded"
        assert fast.n_unplaced > 0
        assert fast.placements == ref.placements
        assert fast.final_cost == ref.final_cost
        assert fast.history == ref.history
        assert fast.illegal_moves == ref.illegal_moves
        assert fast.stats == ref.stats
        assert np.array_equal(fast.occupancy, ref.occupancy)

    def test_spans_tile_run(self, chain, z020):
        """init + generations + repair phases tile the evolve span."""
        d, fps = chain
        tr = Tracer()
        evolve(d, fps, z020, GAParams(move_budget=800, seed=0), tracer=tr)
        root = tr.roots[0]
        assert root.name == "evolve"
        names = [c.name for c in root.children]
        assert names == ["evolve.init", "evolve.generations", "evolve.repair"]
        assert sum(c.dur_s for c in root.children) == pytest.approx(
            root.dur_s, rel=0.05
        )

    def test_stats_map_ga_phases(self, chain, z020):
        d, fps = chain
        res = evolve(d, fps, z020, GAParams(move_budget=800, seed=0))
        st = res.stats
        assert st.seed == 0
        # The GA has no temperature; its (budget_used, best_cost) curve
        # is the result's history.
        assert st.temperature_trace == ()
        assert all(b >= 0 and c >= 0 for b, c in res.history)

    def test_matches_or_beats_sa_at_equal_budget(self, chain, z020):
        """The acceptance gate in miniature (perf-smoke runs cnvW1A1)."""
        d, fps = chain
        budget = 2000
        sa = stitch(d, fps, z020, SAParams(max_iters=budget, seed=0))
        ga = evolve(d, fps, z020, GAParams(move_budget=budget, seed=0))
        assert ga.n_placed >= sa.n_placed
        assert ga.final_cost <= sa.final_cost


class TestEvolveBest:
    """Restarts of the GA: ``place_best`` over a GAPlacer."""

    def test_beats_or_matches_every_seed(self, chain, z020):
        d, fps = chain
        params = GAParams(move_budget=800, seed=0)
        best = place_best(GAPlacer(params), d, fps, z020, n_seeds=3)
        for k in range(3):
            single = evolve(d, fps, z020, GAParams(move_budget=800, seed=k))
            assert best.final_cost <= single.final_cost

    def test_winner_seed_recorded(self, chain, z020):
        d, fps = chain
        best = place_best(GAPlacer(GAParams(move_budget=800, seed=0)),
                          d, fps, z020, seeds=[5, 6])
        assert best.stats.seed in (5, 6)

    def test_empty_seeds_rejected(self, chain, z020):
        d, fps = chain
        with pytest.raises(ValueError, match="seeds"):
            place_best(GAPlacer(GAParams(move_budget=100)), d, fps, z020,
                       seeds=[])

    def test_restart_span_tree(self, chain, z020):
        d, fps = chain
        tr = Tracer()
        place_best(GAPlacer(GAParams(move_budget=400, seed=0)), d, fps, z020,
                   n_seeds=2, tracer=tr)
        root = tr.roots[0]
        assert root.name == "place.restarts"
        assert root.attrs["placer"] == "ga"
        assert [c.name for c in root.children] == ["evolve", "evolve"]


class TestPlacers:
    def test_all_satisfy_protocol(self):
        for placer in default_portfolio():
            assert isinstance(placer, Placer)
        assert {p.name for p in default_portfolio()} == {
            "sa", "ga", "warm-sa", "pt", "gp+sa"
        }

    def test_sa_placer_equals_stitch(self, chain, z020):
        d, fps = chain
        params = SAParams(max_iters=1000, seed=0)
        direct = stitch(d, fps, z020, params)
        via = SAPlacer(params=params).place(d, fps, z020)
        assert via.placements == direct.placements
        assert via.final_cost == direct.final_cost

    def test_ga_placer_equals_evolve(self, chain, z020):
        d, fps = chain
        params = GAParams(move_budget=1000, seed=0)
        direct = evolve(d, fps, z020, params)
        via = GAPlacer(params=params).place(d, fps, z020)
        assert via.placements == direct.placements
        assert via.final_cost == direct.final_cost

    def test_warm_started_sa_runs_and_is_deterministic(self, chain, z020):
        d, fps = chain
        placer = WarmStartedSAPlacer(params=SAParams(max_iters=1500, seed=0))
        a = placer.place(d, fps, z020)
        b = placer.place(d, fps, z020)
        assert a.placements == b.placements
        assert a.final_cost == b.final_cost
        assert a.occupancy.max(initial=0) <= 1

    def test_portfolio_equal_budget(self):
        sa, ga, warm, pt, gpsa = default_portfolio(
            SAParams(max_iters=4321, seed=9)
        )
        assert ga.params.move_budget == 4321
        assert ga.params.seed == 9
        assert warm.params.max_iters == 4321
        assert pt.params.max_iters == 4321
        assert pt.params.seed == 9
        # The gp+sa member polishes at half the cap (its warm start is
        # uncharged), so it never exceeds the portfolio budget.
        assert gpsa.warm == "gp"
        assert gpsa.params.max_iters == 4321
        assert gpsa.sa_frac == 0.5


class TestStitchWarmStart:
    def test_initial_placements_applied(self, chain, z020):
        """A legal warm start seeds the anneal instead of greedy packing."""
        d, fps = chain
        warm = evolve(d, fps, z020, GAParams(move_budget=600, seed=0))
        res = stitch(d, fps, z020, SAParams(max_iters=200, seed=0),
                     initial_placements=warm.placements)
        assert res.n_placed >= warm.n_placed - res.n_unplaced
        assert res.occupancy.max(initial=0) <= 1

    def test_conflicting_warm_start_degrades_gracefully(self, chain, z020):
        """Overlapping anchors leave later instances unplaced, not broken."""
        d, fps = chain
        same = {f"i{i}": (0, 0) for i in range(12)}
        res = stitch(d, fps, z020, SAParams(max_iters=300, seed=0),
                     initial_placements=same)
        assert res.occupancy.max(initial=0) <= 1
