"""Tests for footprints, quick placement, congestion and the packer."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.column import ColumnKind
from repro.device.resources import ResourceCaps
from repro.netlist.stats import compute_stats
from repro.place.congestion import routable_utilization
from repro.place.packer import pack, pack_chains, slice_demand
from repro.place.quick import naive_slice_estimate, quick_place
from repro.place.shapes import Footprint
from repro.pblock.generator import build_pblock
from repro.pblock.pblock import PBlock
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import (
    DistributedMemory,
    RandomLogicCloud,
    ShiftRegisterBank,
    SumOfSquares,
)
from repro.synth.mapper import synthesize

_LL = ColumnKind.CLBLL
_LM = ColumnKind.CLBLM


def _stats(*constructs, name="p"):
    return compute_stats(synthesize(RTLModule.make(name, list(constructs))))


class TestFootprint:
    def test_geometry(self):
        fp = Footprint((_LL, _LM, _LL), (4, 2, 0))
        assert fp.width == 3
        assert fp.max_height == 4
        assert fp.occupied_clbs == 6
        assert fp.bbox_clbs == 12
        assert fp.rectangularity == 0.5

    def test_perfect_rectangle(self):
        fp = Footprint((_LL, _LL), (5, 5))
        assert fp.rectangularity == 1.0

    def test_trimmed(self):
        fp = Footprint((_LL, _LM, _LL, _LL), (0, 3, 2, 0)).trimmed()
        assert fp.width == 2
        assert fp.heights == (3, 2)

    def test_trim_empty(self):
        fp = Footprint((_LL, _LM), (0, 0)).trimmed()
        assert fp.width == 1

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Footprint((_LL,), (1, 2))

    def test_negative_heights_rejected(self):
        with pytest.raises(ValueError):
            Footprint((_LL,), (-1,))


class TestQuickPlace:
    def test_estimate_positive(self):
        s = _stats(RandomLogicCloud(n_luts=100))
        assert naive_slice_estimate(s) >= math.ceil(100 / 4 / 1.15)

    def test_ignores_control_sets(self):
        few = _stats(ShiftRegisterBank(n_regs=32, depth=2, n_control_sets=1), name="a")
        many = _stats(ShiftRegisterBank(n_regs=32, depth=2, n_control_sets=8), name="b")
        assert naive_slice_estimate(few) == naive_slice_estimate(many)

    def test_chain_sets_min_height(self):
        s = _stats(SumOfSquares(width=32, n_terms=1))
        rep = quick_place(s)
        assert rep.min_height_clbs == s.max_chain_slices
        assert rep.est_height_clbs >= rep.min_height_clbs

    def test_square_shape_for_logic(self):
        s = _stats(RandomLogicCloud(n_luts=800))
        rep = quick_place(s)
        assert 0.3 <= rep.aspect_ratio <= 3.0

    def test_bram_widens(self):
        logic = _stats(RandomLogicCloud(n_luts=100), name="a")
        from repro.rtlgen.constructs import BlockMemory

        with_bram = _stats(
            RandomLogicCloud(n_luts=100), BlockMemory(n_bram36=4), name="b"
        )
        assert quick_place(with_bram).est_width_cols > quick_place(logic).est_width_cols


class TestCongestion:
    def test_bounds(self):
        s = _stats(RandomLogicCloud(n_luts=50))
        u = routable_utilization(s, ResourceCaps.for_slices(100))
        assert 0.80 <= u <= 0.97

    def test_fanout_lowers_ceiling(self):
        calm = _stats(RandomLogicCloud(n_luts=50, fanout_hot=2), name="a")
        hot = _stats(RandomLogicCloud(n_luts=50, fanout_hot=900), name="b")
        caps = ResourceCaps.for_slices(100)
        assert routable_utilization(hot, caps) < routable_utilization(calm, caps)

    def test_bigger_pblock_relaxes_pin_density(self):
        s = _stats(RandomLogicCloud(n_luts=200))
        small = routable_utilization(s, ResourceCaps.for_slices(60))
        big = routable_utilization(s, ResourceCaps.for_slices(600))
        assert big >= small


class TestPacker:
    def test_feasible_in_large_pblock(self, z020):
        s = _stats(RandomLogicCloud(n_luts=200))
        pb = PBlock(grid=z020, x0=0, width=6, y0=0, height=40)
        res = pack(s, pb)
        assert res.feasible
        assert res.used_slices >= slice_demand(s)
        assert res.footprint is not None

    def test_m_slices_enforced(self, z020):
        s = _stats(DistributedMemory(width=64, depth=256))
        # An all-L window: columns 0 (CLBLL) only.
        pb = PBlock(grid=z020, x0=0, width=1, y0=0, height=100)
        res = pack(s, pb)
        assert not res.feasible and res.reason == "m_slices"

    def test_chain_height_enforced(self, z020):
        s = _stats(SumOfSquares(width=60, n_terms=1))
        tall = s.max_chain_slices
        pb = PBlock(grid=z020, x0=0, width=4, y0=0, height=tall - 1)
        res = pack(s, pb)
        assert not res.feasible and res.reason == "chain_height"

    def test_congestion_in_tight_pblock(self, z020):
        s = _stats(RandomLogicCloud(n_luts=800))
        need = slice_demand(s)
        height = max(5, need // 8)
        pb = PBlock(grid=z020, x0=0, width=2, y0=0, height=height)
        if pb.caps.slices < need:
            res = pack(s, pb)
            assert not res.feasible

    def test_loose_pblock_wastes_slices(self, z020):
        s = _stats(RandomLogicCloud(n_luts=600))
        tight = PBlock(grid=z020, x0=0, width=3, y0=0, height=35)
        loose = PBlock(grid=z020, x0=0, width=9, y0=0, height=100)
        r_tight = pack(s, tight)
        r_loose = pack(s, loose)
        assert r_tight.feasible and r_loose.feasible
        assert r_loose.used_slices >= r_tight.used_slices

    def test_loose_pblock_less_rectangular(self, z020):
        s = _stats(RandomLogicCloud(n_luts=600))
        tight = pack(s, PBlock(grid=z020, x0=0, width=3, y0=0, height=35))
        loose = pack(s, PBlock(grid=z020, x0=0, width=9, y0=0, height=100))
        assert (
            loose.footprint.trimmed().rectangularity
            <= tight.footprint.trimmed().rectangularity + 1e-9
        )

    def test_demand_deterministic(self):
        s1 = _stats(RandomLogicCloud(n_luts=300), name="same")
        s2 = _stats(RandomLogicCloud(n_luts=300), name="same")
        assert slice_demand(s1) == slice_demand(s2)

    def test_demand_depends_on_name(self):
        # Placer noise is keyed on the module name.
        a = _stats(RandomLogicCloud(n_luts=300), name="na")
        b = _stats(RandomLogicCloud(n_luts=300), name="nb")
        # Demands may coincide, but the underlying noise must differ;
        # check across several names that at least one differs.
        demands = {
            slice_demand(_stats(RandomLogicCloud(n_luts=300), name=f"n{i}"))
            for i in range(6)
        }
        assert len(demands) > 1

    def test_control_set_fragmentation_raises_demand(self):
        few = _stats(
            ShiftRegisterBank(n_regs=64, depth=2, n_control_sets=1), name="few"
        )
        many = _stats(
            ShiftRegisterBank(n_regs=64, depth=2, n_control_sets=25), name="few"
        )
        # Same name so the noise term matches; only fragmentation differs.
        assert slice_demand(many) > slice_demand(few)

    def test_footprint_area_tracks_usage(self, z020):
        s = _stats(RandomLogicCloud(n_luts=400))
        pb = build_pblock(s, quick_place(s), 1.3, z020)
        res = pack(s, pb)
        assert res.feasible
        occupied = res.footprint.occupied_clbs
        assert abs(occupied - res.used_slices / 2) <= max(4, 0.1 * occupied)


def _pack_chain_by_chain(chains, height, n_cols):
    """The per-chain first-fit-decreasing loop :func:`pack_chains` must
    reproduce: each chain, longest first, takes the first column with
    room for it."""
    col_free = [height] * n_cols
    for chain in sorted(chains, reverse=True):
        for i, free in enumerate(col_free):
            if free >= chain:
                col_free[i] = free - chain
                break
        else:
            return None
    return col_free


class TestChainPacking:
    """Packing one chain length at a time leaves every column exactly as
    the chain-by-chain loop does, and fails exactly when it fails."""

    @given(
        st.lists(st.integers(0, 12), max_size=60),
        st.integers(0, 24),
        st.integers(0, 6),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_chain_by_chain(self, chains, height, n_cols):
        got = pack_chains(Counter(chains), height, n_cols)
        assert got == _pack_chain_by_chain(chains, height, n_cols)

    def test_sweep_shaped_multisets(self):
        """Hundreds of chains of two lengths, the label-train modules'
        shape, on both sides of the capacity limit."""
        fits = failures = 0
        for n_long in (0, 1, 7, 40, 150):
            for n_short in (0, 3, 100, 262):
                for height in (9, 10, 33):
                    for n_cols in (1, 4, 16):
                        chains = [9] * n_long + [2] * n_short
                        want = _pack_chain_by_chain(chains, height, n_cols)
                        got = pack_chains(Counter(chains), height, n_cols)
                        assert got == want, (n_long, n_short, height, n_cols)
                        fits += want is not None
                        failures += want is None
        assert fits and failures

    def test_zero_length_chain_packs(self):
        assert pack_chains(Counter([0, 0, 3]), 3, 1) == [0]
        assert pack_chains(Counter([0]), 5, 2) == [5, 5]
        # Without a column there is nowhere to put even an empty chain.
        assert pack_chains(Counter([0]), 5, 0) is None

    def test_pack_reports_chain_packing(self, z020):
        """Chains each shorter than the PBlock that do not fit together
        fail with ``chain_packing`` and the total as demand."""
        s = _stats(SumOfSquares(width=24, n_terms=4))
        pb = PBlock(grid=z020, x0=0, width=1, y0=0, height=s.max_chain_slices)
        assert pb.n_slice_cols == 2
        res = pack(s, pb)
        assert not res.feasible and res.reason == "chain_packing"
        assert res.demand_slices == sum(s.carry_chain_slices)

