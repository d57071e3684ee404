"""Tests for the longest-path timing model."""

import pytest

from repro.netlist.stats import compute_stats
from repro.pblock.generator import build_pblock
from repro.pblock.pblock import PBlock
from repro.place.packer import pack
from repro.place.quick import quick_place
from repro.route.timing import longest_path
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud, SumOfSquares
from repro.synth.mapper import synthesize


def _stats(*constructs, name="t"):
    return compute_stats(synthesize(RTLModule.make(name, list(constructs))))


def _placed(stats, grid, cf):
    pb = build_pblock(stats, quick_place(stats), cf, grid)
    res = pack(stats, pb)
    assert res.feasible
    return res, pb


class TestLongestPath:
    def test_positive_and_decomposed(self, z020):
        s = _stats(RandomLogicCloud(n_luts=300), SumOfSquares(width=16, n_terms=1))
        res, pb = _placed(s, z020, 1.5)
        rep = longest_path(s, res, pb)
        assert rep.total_ns > 0
        assert rep.total_ns == pytest.approx(
            rep.logic_ns + rep.net_ns + rep.carry_ns + rep.fanout_ns + rep.skew_ns
        )

    def test_tighter_pblock_slower(self, z020):
        """Table I: minimal-CF placements trade timing for area."""
        s = _stats(RandomLogicCloud(n_luts=900, avg_inputs=5.0))
        from repro.pblock.cf_search import minimal_cf

        tight = minimal_cf(s, z020)
        loose_pb = build_pblock(s, tight.report, tight.cf + 0.5, z020)
        loose = pack(s, loose_pb)
        t_tight = longest_path(s, tight.result, tight.pblock).total_ns
        t_loose = longest_path(s, loose, loose_pb).total_ns
        assert t_tight > t_loose

    def test_fanout_penalty(self, z020):
        calm = _stats(RandomLogicCloud(n_luts=200, fanout_hot=2), name="a")
        hot = _stats(RandomLogicCloud(n_luts=200, fanout_hot=800), name="a")
        res, pb = _placed(calm, z020, 1.5)
        t_calm = longest_path(calm, res, pb)
        t_hot = longest_path(hot, res, pb)
        assert t_hot.fanout_ns > t_calm.fanout_ns

    def test_region_crossing_penalty(self, z020):
        s = _stats(RandomLogicCloud(n_luts=200))
        inside = PBlock(grid=z020, x0=0, width=4, y0=0, height=30)
        crossing = PBlock(grid=z020, x0=0, width=4, y0=35, height=30)
        r1, r2 = pack(s, inside), pack(s, crossing)
        assert longest_path(s, r2, crossing).skew_ns > longest_path(s, r1, inside).skew_ns

    def test_carry_term_scales_with_chain(self, z020):
        short = _stats(SumOfSquares(width=8, n_terms=1), name="a")
        long_ = _stats(SumOfSquares(width=40, n_terms=1), name="a")
        res, pb = _placed(long_, z020, 1.5)
        assert (
            longest_path(long_, res, pb).carry_ns
            > longest_path(short, res, pb).carry_ns
        )

    def test_infeasible_rejected(self, z020):
        s = _stats(RandomLogicCloud(n_luts=200))
        from repro.place.packer import PackResult

        with pytest.raises(ValueError):
            longest_path(s, PackResult(False, reason="congestion"), None)


class TestBlockCriticalPath:
    """Design-level critical path over the stitched block graph."""

    def _design(self, n=4, width=16):
        from repro.device.column import ColumnKind
        from repro.flow.blockdesign import BlockDesign
        from repro.place.shapes import Footprint

        d = BlockDesign(name="bcp")
        d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=4)]))
        for i in range(n):
            d.add_instance(f"i{i}", "m")
        for i in range(n - 1):
            d.connect(f"i{i}", f"i{i + 1}", width=width)
        fps = {"m": Footprint((ColumnKind.CLBLL,), (8,))}
        return d, fps

    def _result(self, placements):
        from repro.place_kernel.result import StitchResult

        placed = sum(1 for p in placements.values() if p is not None)
        return StitchResult(
            placements=placements,
            n_placed=placed,
            n_unplaced=len(placements) - placed,
            wirelength=0.0,
            final_cost=0.0,
            iterations=0,
            converged_at=0,
            illegal_moves=0,
        )

    def test_chain_path_and_delay(self):
        from repro.route.timing import NET_DELAY_NS, NS_PER_CLB
        from repro.route import block_critical_path

        d, fps = self._design(3)
        res = self._result({"i0": (0, 0), "i1": (2, 0), "i2": (4, 0)})
        rep = block_critical_path(d, fps, res, module_delays={"m": 2.0})
        assert rep.path == ("i0", "i1", "i2")
        assert rep.n_cyclic_edges == 0
        assert rep.n_unplaced_edges == 0
        # 3 nodes at 2.0 ns plus two hops of NET + 2 CLBs of distance.
        expected = 3 * 2.0 + 2 * (NET_DELAY_NS + 2 * NS_PER_CLB)
        assert rep.critical_path_ns == pytest.approx(expected)

    def test_spread_placement_is_slower(self):
        from repro.route import block_critical_path

        d, fps = self._design(3)
        tight = self._result({"i0": (0, 0), "i1": (1, 0), "i2": (2, 0)})
        wide = self._result({"i0": (0, 0), "i1": (4, 0), "i2": (8, 0)})
        t = block_critical_path(d, fps, tight, module_delays={"m": 2.0})
        w = block_critical_path(d, fps, wide, module_delays={"m": 2.0})
        assert w.critical_path_ns > t.critical_path_ns

    def test_unplaced_edges_use_nominal_hop(self):
        from repro.route import block_critical_path

        d, fps = self._design(3)
        res = self._result({"i0": (0, 0), "i1": None, "i2": (2, 0)})
        rep = block_critical_path(d, fps, res, module_delays={"m": 2.0})
        assert rep.n_unplaced_edges == 2
        assert rep.critical_path_ns > 0

    def test_default_node_delay_fallback(self):
        from repro.route.timing import DEFAULT_NODE_DELAY_NS
        from repro.route import block_critical_path

        d, fps = self._design(2)
        res = self._result({"i0": (0, 0), "i1": (1, 0)})
        with_map = block_critical_path(
            d, fps, res, module_delays={"m": DEFAULT_NODE_DELAY_NS}
        )
        without = block_critical_path(d, fps, res)
        assert with_map.critical_path_ns == without.critical_path_ns

    def test_empty_design(self):
        from repro.flow.blockdesign import BlockDesign
        from repro.route import block_critical_path

        rep = block_critical_path(BlockDesign(name="e"), {}, self._result({}))
        assert rep.critical_path_ns == 0.0
        assert rep.path == ()
