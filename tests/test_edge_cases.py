"""Edge-case and failure-injection tests across modules."""

from repro.device.column import ColumnKind
from repro.flow.blockdesign import BlockDesign
from repro.flow.policy import FixedCF
from repro.flow.preimpl import implement_module
from repro.flow.stitcher import SAParams, stitch
from repro.netlist.netlist import NetlistBuilder
from repro.netlist.stats import compute_stats
from repro.pblock.pblock import PBlock
from repro.place.packer import pack
from repro.place.quick import quick_place
from repro.place.shapes import Footprint
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud, SumOfSquares
from repro.synth.mapper import synthesize

_LL = ColumnKind.CLBLL


class TestTinyModules:
    """One-or-two-cell modules must flow through every stage."""

    def _tiny_stats(self):
        b = NetlistBuilder("tiny")
        b.add_lut()
        return compute_stats(b.build())

    def test_quick_place(self):
        rep = quick_place(self._tiny_stats())
        assert rep.est_slices >= 1
        assert rep.est_height_clbs >= 1

    def test_pack_into_minimal_pblock(self, z020):
        s = self._tiny_stats()
        pb = PBlock(grid=z020, x0=0, width=1, y0=0, height=1)
        res = pack(s, pb)
        assert res.feasible
        assert res.used_slices >= 1

    def test_implement(self, z020):
        module = RTLModule.make("tiny_flow", [RandomLogicCloud(n_luts=1)])
        impl = implement_module(module, z020, FixedCF(1.5))
        assert impl.used_slices >= 1


class TestEmptyResourceClasses:
    def test_ff_only_module(self, z020):
        b = NetlistBuilder("ffonly")
        cs = b.control_set("clk")
        b.add_ffs(64, cs)
        s = compute_stats(b.build())
        assert s.n_lut == 0
        rep = quick_place(s)
        pb = PBlock(grid=z020, x0=0, width=2, y0=0, height=20)
        assert pack(s, pb).feasible
        assert rep.est_slices >= 8

    def test_carry_only_module(self, z020):
        b = NetlistBuilder("carryonly")
        for _ in range(6):
            b.add_carry_chain(16)
        s = compute_stats(b.build())
        rep = quick_place(s)
        assert rep.min_height_clbs == 4
        pb = PBlock(grid=z020, x0=0, width=2, y0=0, height=10)
        assert pack(s, pb).feasible

    def test_bram_only_module(self, z020):
        b = NetlistBuilder("bramonly")
        b.add_bram(3)
        s = compute_stats(b.build())
        # A window with no BRAM columns fails for the right reason.
        pb = PBlock(grid=z020, x0=0, width=2, y0=0, height=30)
        res = pack(s, pb)
        assert not res.feasible and res.reason == "bram"


class TestStitcherEdges:
    def test_footprint_taller_than_device(self, tiny_grid):
        d = BlockDesign(name="tall")
        d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=4)]))
        d.add_instance("i0", "m")
        fp = Footprint((_LL,), (tiny_grid.height_clbs + 10,))
        res = stitch(d, {"m": fp}, tiny_grid, SAParams(max_iters=200, seed=0))
        assert res.n_unplaced == 1

    def test_single_instance_no_edges(self, z020):
        d = BlockDesign(name="solo")
        d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=4)]))
        d.add_instance("only", "m")
        res = stitch(
            d, {"m": Footprint((_LL,), (5,))}, z020, SAParams(max_iters=300, seed=0)
        )
        assert res.n_placed == 1
        assert res.wirelength == 0.0

    def test_zero_height_footprint(self, z020):
        d = BlockDesign(name="flat")
        d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=4)]))
        d.add_instance("i0", "m")
        fp = Footprint((_LL,), (0,))
        res = stitch(d, {"m": fp}, z020, SAParams(max_iters=200, seed=0))
        # A zero-area block trivially "places" without painting anything.
        assert res.occupancy.sum() == 0


class TestChainGeometryEdges:
    def test_chain_exactly_fits(self, z020):
        s = compute_stats(
            synthesize(RTLModule.make("fit", [SumOfSquares(width=38, n_terms=1)]))
        )
        h = s.max_chain_slices
        pb = PBlock(grid=z020, x0=0, width=4, y0=0, height=h)
        assert pack(s, pb).feasible or pack(s, pb).reason != "chain_height"

    def test_many_chains_saturate_columns(self, z020):
        b = NetlistBuilder("manychains")
        for _ in range(20):
            b.add_carry_chain(40)  # 10 slices each
        s = compute_stats(b.build())
        # 1 CLB column = 2 slice columns of height 10: fits 2 chains only.
        pb = PBlock(grid=z020, x0=0, width=1, y0=0, height=10)
        res = pack(s, pb)
        assert not res.feasible
        assert res.reason in ("chain_packing", "congestion")


class TestPolicyTrivialModules:
    def test_trivial_module_through_flow(self, z020):
        d = BlockDesign(name="trivial-flow")
        d.add_module(RTLModule.make("t", [RandomLogicCloud(n_luts=2)]))
        d.add_module(RTLModule.make("big", [RandomLogicCloud(n_luts=300)]))
        d.add_instance("t0", "t")
        d.add_instance("b0", "big")
        d.connect("t0", "b0")
        from repro.flow.rwflow import run_rw_flow

        res = run_rw_flow(d, z020, FixedCF(1.6), sa_params=SAParams(max_iters=500, seed=0))
        assert res.stitch.n_unplaced == 0
