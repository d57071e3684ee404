"""Tests for PBlock position optimization (future-work extension)."""

from repro.netlist.stats import compute_stats
from repro.pblock.cf_search import minimal_cf
from repro.pblock.pblock import PBlock
from repro.pblock.position import (
    anchor_candidates,
    optimize_position,
    region_aligned_height,
    score_position,
)
from repro.place.packer import pack
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import BlockMemory, RandomLogicCloud
from repro.synth.mapper import synthesize


def _stats(*constructs, name="pos"):
    return compute_stats(synthesize(RTLModule.make(name, list(constructs))))


class TestScore:
    def test_region_crossing_penalized(self, z020):
        inside = PBlock(grid=z020, x0=0, width=2, y0=0, height=30)
        crossing = PBlock(grid=z020, x0=0, width=2, y0=40, height=30)
        assert score_position(crossing).total > score_position(inside).total

    def test_spine_proximity_penalized(self, z020):
        spine = z020.clock_column_xs()[0]
        near = PBlock(grid=z020, x0=spine + 1, width=2, y0=0, height=10)
        far = PBlock(grid=z020, x0=0, width=2, y0=0, height=10)
        assert (
            score_position(near).spine_proximity
            > score_position(far).spine_proximity
        )


class TestAnchors:
    def test_candidates_are_legal(self, z020):
        pb = PBlock(grid=z020, x0=0, width=3, y0=0, height=20)
        for x, y in anchor_candidates(pb)[:50]:
            cand = PBlock(grid=z020, x0=x, width=3, y0=y, height=20)
            assert cand.kinds == pb.kinds

    def test_hard_block_pitch(self, z020):
        # A window containing the BRAM column at x=4.
        pb = PBlock(grid=z020, x0=3, width=3, y0=0, height=20)
        assert any(k.value == "BRAM" for k in pb.kinds)
        for _x, y in anchor_candidates(pb):
            assert y % 5 == 0


class TestOptimize:
    def test_never_worse(self, z020):
        s = _stats(RandomLogicCloud(n_luts=500))
        found = minimal_cf(s, z020)
        best = optimize_position(found.pblock, s)
        assert score_position(best).total <= score_position(found.pblock).total

    def test_preserves_feasibility(self, z020):
        s = _stats(RandomLogicCloud(n_luts=500))
        found = minimal_cf(s, z020)
        best = optimize_position(found.pblock, s)
        assert pack(s, best).feasible

    def test_avoids_region_crossing_when_possible(self, z020):
        s = _stats(RandomLogicCloud(n_luts=300))
        # Force a crossing anchor, then optimize.
        found = minimal_cf(s, z020)
        pb = found.pblock
        if pb.height <= 50:
            crossing = PBlock(
                grid=z020, x0=pb.x0, width=pb.width, y0=45, height=pb.height
            )
            best = optimize_position(crossing, s)
            assert not best.crosses_region_boundary()

    def test_preserves_capacity_for_hard_blocks(self, z020):
        s = _stats(RandomLogicCloud(n_luts=60), BlockMemory(n_bram36=4))
        found = minimal_cf(s, z020, search_down=True)
        best = optimize_position(found.pblock, s)
        assert best.caps.bram36 >= 4
        assert pack(s, best).feasible


class TestAlignedHeight:
    def test_snaps_up(self):
        assert region_aligned_height(3) == 5
        assert region_aligned_height(7) == 10
        assert region_aligned_height(11) == 25
        assert region_aligned_height(26) == 50

    def test_large_unchanged(self):
        assert region_aligned_height(80) == 80
