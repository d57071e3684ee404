"""Tests for multi-seed placer restarts (:mod:`repro.flow.restarts`).

Most cases restart the SA stitcher (``place_best`` over an
:class:`SAPlacer`); ``TestPlaceBest`` covers every placer ``repro
place`` can build.
"""

import pytest

from repro.cli import PLACERS
from repro.device.column import ColumnKind
from repro.flow.blockdesign import BlockDesign
from repro.flow.placers import SAPlacer
from repro.flow.restarts import place_best
from repro.flow.stitcher import SAParams, stitch
from repro.obs.tracer import Tracer
from repro.place.shapes import Footprint
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud

_LL = ColumnKind.CLBLL
_LM = ColumnKind.CLBLM


@pytest.fixture()
def chain():
    d = BlockDesign(name="restart")
    d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=4)]))
    fp = Footprint((_LL, _LM), (10, 10))
    for i in range(10):
        d.add_instance(f"i{i}", "m")
    for i in range(9):
        d.connect(f"i{i}", f"i{i + 1}", width=4)
    return d, {"m": fp}


class TestStitchBest:
    """Restarts of the SA stitcher: ``place_best`` over an SAPlacer."""

    def test_beats_or_matches_every_seed(self, chain, z020):
        d, fps = chain
        params = SAParams(max_iters=1500, seed=0)
        best = place_best(SAPlacer(params), d, fps, z020, n_seeds=4)
        for k in range(4):
            params_k = SAParams(max_iters=1500, seed=k)
            single = stitch(d, fps, z020, params_k)
            assert best.final_cost <= single.final_cost

    def test_single_seed_equals_stitch(self, chain, z020):
        d, fps = chain
        params = SAParams(max_iters=1000, seed=5)
        best = place_best(SAPlacer(params), d, fps, z020, n_seeds=1)
        single = stitch(d, fps, z020, params)
        assert best.placements == single.placements
        assert best.final_cost == single.final_cost

    def test_explicit_seed_list(self, chain, z020):
        d, fps = chain
        params = SAParams(max_iters=1000, seed=0)
        best = place_best(SAPlacer(params), d, fps, z020, seeds=[11, 12, 13])
        assert best.stats is not None
        assert best.stats.seed in (11, 12, 13)

    def test_deterministic_and_worker_independent(self, chain, z020):
        d, fps = chain
        params = SAParams(max_iters=1000, seed=0)
        placer = SAPlacer(params)
        serial = place_best(placer, d, fps, z020, n_seeds=3, n_workers=None)
        again = place_best(placer, d, fps, z020, n_seeds=3, n_workers=1)
        parallel = place_best(placer, d, fps, z020, n_seeds=3, n_workers=2)
        assert serial.placements == again.placements == parallel.placements
        assert serial.final_cost == again.final_cost == parallel.final_cost
        assert serial.stats.seed == parallel.stats.seed

    def test_winner_records_seed(self, chain, z020):
        d, fps = chain
        params = SAParams(max_iters=1000, seed=7)
        best = place_best(SAPlacer(params), d, fps, z020, n_seeds=3)
        assert best.stats.seed in (7, 8, 9)

    def test_invalid_arguments(self, chain, z020):
        d, fps = chain
        with pytest.raises(ValueError, match="n_seeds"):
            place_best(SAPlacer(), d, fps, z020, n_seeds=0)
        with pytest.raises(ValueError, match="seeds"):
            place_best(SAPlacer(), d, fps, z020, seeds=[])


class TestFlowIntegration:
    def test_rw_flow_restarts(self, z020):
        from repro.flow.policy import FixedCF
        from repro.flow.rwflow import run_rw_flow

        d = BlockDesign(name="flow-restart")
        d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=120)]))
        for i in range(3):
            d.add_instance(f"i{i}", "m")
        for i in range(2):
            d.connect(f"i{i}", f"i{i + 1}")
        base = run_rw_flow(
            d, z020, FixedCF(1.6), sa_params=SAParams(max_iters=1000, seed=0)
        )
        multi = run_rw_flow(
            d, z020, FixedCF(1.6),
            sa_params=SAParams(max_iters=1000, seed=0), n_seeds=3,
        )
        assert multi.stitch.final_cost <= base.stitch.final_cost
        assert multi.stitch.n_unplaced == 0

    @staticmethod
    def _small_design():
        d = BlockDesign(name="flow-args")
        d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=120)]))
        d.add_instance("i0", "m")
        d.add_instance("i1", "m")
        d.connect("i0", "i1")
        return d

    @pytest.mark.parametrize("n_seeds", [0, -3])
    def test_rw_flow_rejects_bad_seed_count_before_any_tool_run(
        self, z020, monkeypatch, n_seeds
    ):
        from repro.flow.policy import FixedCF
        from repro.flow.rwflow import run_rw_flow

        def no_tool_runs(*args, **kwargs):
            raise AssertionError("pre-implementation ran")

        monkeypatch.setattr("repro.flow.rwflow.implement_design", no_tool_runs)
        with pytest.raises(ValueError, match="n_seeds"):
            run_rw_flow(self._small_design(), z020, FixedCF(1.6),
                        n_seeds=n_seeds)

    def test_rw_flow_rejects_placer_with_sa_params(self, z020):
        from repro.flow.policy import FixedCF
        from repro.flow.rwflow import run_rw_flow

        with pytest.raises(ValueError, match="not both"):
            run_rw_flow(self._small_design(), z020, FixedCF(1.6),
                        sa_params=SAParams(), placer=SAPlacer())


class TestParetoWinner:
    """Regression: the restart winner used to be crowned by ``final_cost``
    alone, so a cheaper seed that left a block unplaced could beat a
    fully-placed seed.  Winner selection must use the shared pareto key
    ``(n_unplaced, final_cost)``."""

    @staticmethod
    def _fake_result(seed: int, n_unplaced: int, cost: float):
        from repro.flow.stitcher import StitchResult, StitchStats

        stats = StitchStats(
            seed=seed, move_attempts=0, place_attempts=0,
            swap_attempts=0, move_accepts=0, place_accepts=0,
            swap_accepts=0, illegal_moves=0,
        )
        return StitchResult(
            placements={}, n_placed=10 - n_unplaced, n_unplaced=n_unplaced,
            wirelength=cost, final_cost=cost, iterations=100,
            converged_at=0, illegal_moves=0, stats=stats,
        )

    def test_fully_placed_beats_cheaper_unplaced(self, chain, z020, monkeypatch):
        """A lower-cost seed that leaves a block on the floor must lose
        to a fully-placed seed (this failed before the fix)."""
        results = {
            0: self._fake_result(0, n_unplaced=1, cost=50.0),
            1: self._fake_result(1, n_unplaced=0, cost=100.0),
        }

        def fake_stitch(design, footprints, grid, params, *,
                        initial_placements=None, tracer=None):
            return results[params.seed]

        monkeypatch.setattr("repro.flow.placers.stitch", fake_stitch)
        d, fps = chain
        best = place_best(SAPlacer(SAParams(seed=0)), d, fps, z020,
                          seeds=[0, 1], n_workers=None)
        assert best.n_unplaced == 0
        assert best.final_cost == 100.0
        assert best.stats.seed == 1

    def test_cost_breaks_ties_among_fully_placed(self, chain, z020,
                                                 monkeypatch):
        results = {
            0: self._fake_result(0, n_unplaced=0, cost=80.0),
            1: self._fake_result(1, n_unplaced=0, cost=60.0),
            2: self._fake_result(2, n_unplaced=0, cost=70.0),
        }

        def fake_stitch(design, footprints, grid, params, *,
                        initial_placements=None, tracer=None):
            return results[params.seed]

        monkeypatch.setattr("repro.flow.placers.stitch", fake_stitch)
        d, fps = chain
        best = place_best(SAPlacer(SAParams(seed=0)), d, fps, z020,
                          seeds=[0, 1, 2], n_workers=None)
        assert best.stats.seed == 1

    def test_exact_tie_goes_to_earliest_seed(self, chain, z020, monkeypatch):
        results = {
            3: self._fake_result(3, n_unplaced=0, cost=75.0),
            4: self._fake_result(4, n_unplaced=0, cost=75.0),
        }

        def fake_stitch(design, footprints, grid, params, *,
                        initial_placements=None, tracer=None):
            return results[params.seed]

        monkeypatch.setattr("repro.flow.placers.stitch", fake_stitch)
        d, fps = chain
        best = place_best(SAPlacer(SAParams(seed=3)), d, fps, z020,
                          seeds=[3, 4], n_workers=None)
        assert best.stats.seed == 3

    def test_best_result_unit(self):
        from repro.flow.fanout import best_result

        cheap_broken = self._fake_result(0, n_unplaced=2, cost=10.0)
        placed = self._fake_result(1, n_unplaced=0, cost=99.0)
        assert best_result([cheap_broken, placed]) is placed
        assert best_result([placed, cheap_broken]) is placed

    def test_best_result_empty_rejected(self):
        import pytest as _pytest

        from repro.flow.fanout import best_result

        with _pytest.raises(ValueError, match="results"):
            best_result([])


#: The span trees one seed records, for the placers whose restarts no
#: other file traces (sa, ga and pt: ``TestRestartsTrace`` in
#: test_obs_integration.py, ``TestEvolveBest`` and ``TestTemperBest``).
_SEED_SPANS = {
    "warm-sa": ["evolve", "stitch"],
    "gp+sa": ["gplace", "stitch"],
}


class TestPlaceBest:
    """``place_best`` restarts every placer ``repro place`` can build."""

    @pytest.mark.parametrize("name", sorted(_SEED_SPANS))
    def test_restart_span_tree(self, chain, z020, cli_placers, name):
        d, fps = chain
        placer = cli_placers(800, 0)[name]
        tr = Tracer()
        best = place_best(placer, d, fps, z020, n_seeds=2, tracer=tr)
        root = tr.roots[0]
        assert len(tr.roots) == 1
        assert root.name == "place.restarts"
        assert root.attrs["placer"] == name
        assert root.attrs["n_seeds"] == 2
        assert [c.name for c in root.children] == _SEED_SPANS[name] * 2
        assert root.attrs["best_cost"] == best.final_cost

    @pytest.mark.parametrize("name", PLACERS)
    def test_each_seed_is_the_placer_at_that_seed(self, chain, z020,
                                                  cli_placers, name):
        from dataclasses import replace

        from repro.place_kernel.result import pareto_key

        d, fps = chain
        placer = cli_placers(800, 3)[name]
        best = place_best(placer, d, fps, z020, seeds=[3, 4])
        runs = [
            replace(placer, params=replace(placer.params, seed=s)).place(
                d, fps, z020)
            for s in (3, 4)
        ]
        expect = min(runs, key=pareto_key)
        assert best.placements == expect.placements
        assert best.final_cost == expect.final_cost
