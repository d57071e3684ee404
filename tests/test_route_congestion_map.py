"""Tests for the inter-block routing-congestion map."""

import numpy as np
import pytest

from repro.device.column import ColumnKind
from repro.flow.blockdesign import BlockDesign
from repro.flow.stitcher import SAParams, stitch
from repro.place.shapes import Footprint
from repro.route.congestion_map import CongestionMap, congestion_map
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud

_LL = ColumnKind.CLBLL
_LM = ColumnKind.CLBLM


def _chain_design(n: int) -> tuple[BlockDesign, dict]:
    d = BlockDesign(name="congestion")
    d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=4)]))
    for i in range(n):
        d.add_instance(f"i{i}", "m")
    for i in range(n - 1):
        d.connect(f"i{i}", f"i{i + 1}", width=16)
    return d, {"m": Footprint((_LL, _LM), (10, 10))}


class TestCongestionMap:
    def test_all_edges_routed_when_placed(self, z020):
        d, fps = _chain_design(6)
        res = stitch(d, fps, z020, SAParams(max_iters=3000, seed=0))
        cmap = congestion_map(d, fps, res, z020)
        assert cmap.n_routed_edges == 5

    def test_unplaced_edges_skipped(self, z020):
        d, fps = _chain_design(3)
        res = stitch(d, fps, z020, SAParams(max_iters=1000, seed=0))
        # Fake an unplaced endpoint.
        placements = dict(res.placements)
        placements["i1"] = None
        from dataclasses import replace

        res2 = replace(res, placements=placements)
        cmap = congestion_map(d, fps, res2, z020)
        assert cmap.n_routed_edges == 0  # both edges touch i1

    def test_demand_nonnegative_and_bounded(self, z020):
        d, fps = _chain_design(8)
        res = stitch(d, fps, z020, SAParams(max_iters=3000, seed=0))
        cmap = congestion_map(d, fps, res, z020)
        total_width = sum(e.width for e in d.edges)
        assert cmap.column_demand.min() >= 0
        assert cmap.peak_column_demand <= total_width

    def test_compact_placement_less_congested(self, z020):
        """A longer SA run (better placement) never increases peak demand
        much over a barely-annealed one."""
        d, fps = _chain_design(14)
        good = stitch(d, fps, z020, SAParams(max_iters=20000, seed=0))
        bad = stitch(d, fps, z020, SAParams(max_iters=150, seed=0))
        c_good = congestion_map(d, fps, good, z020)
        c_bad = congestion_map(d, fps, bad, z020)
        assert c_good.column_demand.sum() <= c_bad.column_demand.sum() * 1.1

    def test_render(self, z020):
        d, fps = _chain_design(5)
        res = stitch(d, fps, z020, SAParams(max_iters=1000, seed=0))
        out = congestion_map(d, fps, res, z020).render()
        assert out.startswith("[") and "peak=" in out

    def test_empty_map(self):
        cmap = CongestionMap(
            column_demand=np.array([], dtype=np.int64),
            row_demand=np.array([], dtype=np.int64),
            n_routed_edges=0,
        )
        assert cmap.peak_column_demand == 0
        assert cmap.render() == "<empty map>"


def _manual_result(placements: dict) -> "StitchResult":
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


class TestChannelCrossingRegression:
    """Pin the exact crossing semantics: a net charges only the channels
    its bounding box crosses, never the channels its endpoints sit in.

    These are hand-computed demands that fail on the historical
    ``floor(x0)..ceil(x1)-1`` window, which overcounted by one channel
    for fractional net extents.
    """

    def test_fractional_centers_charge_single_channel(self, z020):
        # One-column footprint: center x = anchor + 0.5.  i0 at x=0 and
        # i1 at x=1 give a net spanning [0.5, 1.5], which crosses only
        # the integer boundary x=1 — channel 0, not channels 0 and 1.
        d = BlockDesign(name="frac")
        d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=4)]))
        d.add_instance("i0", "m")
        d.add_instance("i1", "m")
        d.connect("i0", "i1", width=16)
        fps = {"m": Footprint((_LL,), (9,))}
        res = _manual_result({"i0": (0, 0), "i1": (1, 0)})
        cmap = congestion_map(d, fps, res, z020)
        assert cmap.n_routed_edges == 1
        assert cmap.column_demand[0] == 16
        assert cmap.column_demand[1] == 0
        assert cmap.column_demand.sum() == 16
        # Same row (center y = 4.5 for both): zero vertical extent means
        # no horizontal channel is crossed at all.
        assert cmap.row_demand.sum() == 0

    def test_integer_centers_exclude_endpoint_boundaries(self, z020):
        # Two-column footprint: center x = anchor + 1.0.  Centers at
        # x=1 and x=3 cross only the boundary strictly inside (1, 3) —
        # x=2, i.e. channel 1.  Boundaries *at* the endpoints are
        # touched, not crossed.
        d = BlockDesign(name="intc")
        d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=4)]))
        d.add_instance("i0", "m")
        d.add_instance("i1", "m")
        d.connect("i0", "i1", width=8)
        fps = {"m": Footprint((_LL, _LM), (8, 8))}
        res = _manual_result({"i0": (0, 0), "i1": (2, 0)})
        cmap = congestion_map(d, fps, res, z020)
        assert cmap.column_demand[1] == 8
        assert cmap.column_demand.sum() == 8

    # Center x is the anchor plus half the footprint width, so a width-1
    # footprint centers on a half coordinate and a width-2 one on an
    # integer.  A bus crosses the integer boundaries strictly inside
    # its span, and boundary k belongs to channel k - 1.
    @pytest.mark.parametrize(
        "a, b, channels",
        [
            ((1, 0), (1, 1), [0]),  # (0.5, 1.5): crosses boundary 1
            ((1, 1), (1, 1), []),  # (1.5, 1.5): zero extent
            ((2, 0), (2, 2), [1]),  # (1.0, 3.0): touches 1 and 3, crosses 2
            ((1, 0), (2, 0), []),  # (0.5, 1.0): inside channel 0
            ((1, 2), (1, 5), [2, 3, 4]),  # (2.5, 5.5): crosses 3, 4 and 5
        ],
        ids=["one-boundary", "zero-extent", "integer-touch", "sub-unit",
             "wide-span"],
    )
    def test_crossed_channels(self, z020, a, b, channels):
        (wa, xa), (wb, xb) = a, b
        d = BlockDesign(name="span")
        d.add_module(RTLModule.make("a", [RandomLogicCloud(n_luts=4)]))
        d.add_module(RTLModule.make("b", [RandomLogicCloud(n_luts=4)]))
        d.add_instance("i0", "a")
        d.add_instance("i1", "b")
        d.connect("i0", "i1", width=8)
        fps = {
            "a": Footprint((_LL, _LM)[:wa], (8,) * wa),
            "b": Footprint((_LL, _LM)[:wb], (8,) * wb),
        }
        res = _manual_result({"i0": (xa, 0), "i1": (xb, 20)})
        cmap = congestion_map(d, fps, res, z020)
        expected = np.zeros_like(cmap.column_demand)
        expected[channels] = 8
        assert np.array_equal(cmap.column_demand, expected)


class TestMissingFootprints:
    def test_instance_without_footprint_is_unrouted(self, z020):
        # Subset flows hand the map partial footprint dicts; an edge to
        # an un-footprinted instance must count as unrouted, not raise.
        d = BlockDesign(name="part")
        d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=4)]))
        d.add_module(RTLModule.make("q", [RandomLogicCloud(n_luts=4)]))
        d.add_instance("i0", "m")
        d.add_instance("i1", "q")
        d.connect("i0", "i1", width=16)
        fps = {"m": Footprint((_LL,), (9,))}
        res = _manual_result({"i0": (0, 0), "i1": (5, 0)})
        cmap = congestion_map(d, fps, res, z020)  # must not KeyError
        assert cmap.n_routed_edges == 0
        assert cmap.n_unrouted_edges == 1
        assert cmap.column_demand.sum() == 0

    def test_unrouted_count_complements_routed(self, z020):
        d, fps = _chain_design(4)
        res = stitch(d, fps, z020, SAParams(max_iters=1000, seed=0))
        placements = dict(res.placements)
        placements["i1"] = None
        from dataclasses import replace

        cmap = congestion_map(d, fps, replace(res, placements=placements), z020)
        assert cmap.n_routed_edges + cmap.n_unrouted_edges == len(d.edges)
        assert cmap.n_unrouted_edges == 2  # both edges touching i1


class TestOverflowProperties:
    def test_total_overflow_sums_above_capacity(self):
        from repro.route.congestion_map import CHANNEL_CAPACITY

        col = np.array([CHANNEL_CAPACITY + 5, CHANNEL_CAPACITY, 3], dtype=np.int64)
        row = np.array([CHANNEL_CAPACITY + 2], dtype=np.int64)
        cmap = CongestionMap(
            column_demand=col, row_demand=row, n_routed_edges=1
        )
        assert cmap.total_overflow == 7
        assert cmap.overflowed_channels == 2
