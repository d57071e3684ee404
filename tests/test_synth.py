"""Tests for the synthesis simulator (construct lowering rules)."""

import dataclasses
import math

import pytest

from repro.cnv import cnv_design, tfc_design
from repro.flow.cache import stable_json_digest
from repro.netlist.netlist import NetlistBuilder
from repro.netlist.stats import compute_stats
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import (
    BlockMemory,
    DistributedMemory,
    FanoutTree,
    LFSRBank,
    MacArray,
    Pipeline,
    RandomLogicCloud,
    ShiftRegisterBank,
    SumOfSquares,
)
from repro.rtlgen.sweep import generate_sweep
from repro.synth.mapper import opt_design, synthesize
from repro.synth.packing import (
    ff_slice_demand_fragmented,
    lut_pack_efficiency,
    sharing_efficiency,
)
from repro.synth.report import utilization_report


def _synth(*constructs, name="t"):
    return compute_stats(synthesize(RTLModule.make(name, list(constructs))))


class TestShiftRegLowering:
    def test_ff_count(self):
        s = _synth(ShiftRegisterBank(n_regs=10, depth=4, n_control_sets=2))
        assert s.n_ff == 40
        assert s.n_control_sets == 2

    def test_control_set_split_even(self):
        s = _synth(ShiftRegisterBank(n_regs=10, depth=4, n_control_sets=2))
        assert s.ff_per_control_set == (20, 20)

    def test_srl_variant_uses_m_sites(self):
        s = _synth(ShiftRegisterBank(n_regs=8, depth=17, n_control_sets=1, use_srl=True))
        assert s.n_srl == 8  # ceil(16/16) per register
        assert s.n_ff == 8  # output FFs only

    def test_fanin_muxes(self):
        plain = _synth(ShiftRegisterBank(n_regs=8, depth=2), name="a")
        muxed = _synth(ShiftRegisterBank(n_regs=8, depth=2, fanin=8), name="b")
        assert muxed.n_lut > plain.n_lut


class TestMemoryLowering:
    def test_lutram_sites_per_64_words(self):
        s = _synth(DistributedMemory(width=16, depth=128))
        assert s.n_lutram == 16 * 2

    def test_deep_memory_needs_muxes(self):
        shallow = _synth(DistributedMemory(width=8, depth=64), name="a")
        deep = _synth(DistributedMemory(width=8, depth=512), name="b")
        assert shallow.n_lut == 0
        assert deep.n_lut > 0

    def test_read_ports_replicate(self):
        one = _synth(DistributedMemory(width=8, depth=64, read_ports=1), name="a")
        two = _synth(DistributedMemory(width=8, depth=64, read_ports=2), name="b")
        assert two.n_lutram == 2 * one.n_lutram


class TestCarryLowering:
    def test_chains_scale_with_terms(self):
        one = _synth(SumOfSquares(width=8, n_terms=1), name="a")
        four = _synth(SumOfSquares(width=8, n_terms=4), name="b")
        assert four.n_carry4 > one.n_carry4
        assert len(four.carry_chain_slices) > len(one.carry_chain_slices)

    def test_registered_adds_ffs(self):
        comb = _synth(SumOfSquares(width=8, n_terms=2), name="a")
        reg = _synth(SumOfSquares(width=8, n_terms=2, registered=True), name="b")
        assert comb.n_ff == 0 and reg.n_ff > 0

    def test_adder_tree_width(self):
        s = _synth(SumOfSquares(width=4, n_terms=2))
        # Tree adder chain: 2w + ceil(log2(3)) bits.
        assert max(s.carry_chain_slices) >= math.ceil((2 * 4 + 2) / 4)


class TestLfsrLowering:
    def test_mixture_of_resources(self):
        s = _synth(LFSRBank(width=16, count=8, use_srl=True))
        assert s.n_lut > 0 and s.n_ff > 0 and s.n_srl > 0 and s.n_carry4 > 0

    def test_no_srl_variant(self):
        s = _synth(LFSRBank(width=16, count=4, use_srl=False))
        assert s.n_srl == 0
        assert s.n_ff >= 16 * 4


class TestCloudLowering:
    def test_lut_count_exact(self):
        s = _synth(RandomLogicCloud(n_luts=100, avg_inputs=4.0))
        assert s.n_lut == 100

    def test_avg_inputs_respected(self):
        s = _synth(RandomLogicCloud(n_luts=500, avg_inputs=4.5))
        assert abs(s.avg_lut_inputs - 4.5) < 0.2

    def test_hot_fanout(self):
        s = _synth(RandomLogicCloud(n_luts=10, avg_inputs=3.0, fanout_hot=300))
        assert s.max_fanout >= 300

    def test_deterministic_per_name(self):
        a = _synth(RandomLogicCloud(n_luts=50), name="same")
        b = _synth(RandomLogicCloud(n_luts=50), name="same")
        assert a == b


class TestOtherLowering:
    def test_bram(self):
        assert _synth(BlockMemory(n_bram36=3)).n_bram == 3

    def test_mac_dsp(self):
        s = _synth(MacArray(n_macs=4, width=8, use_dsp=True))
        assert s.n_dsp == 4 and s.n_carry4 == 0

    def test_mac_fabric(self):
        s = _synth(MacArray(n_macs=2, width=8, use_dsp=False))
        assert s.n_dsp == 0 and s.n_carry4 > 0 and s.n_lut > 0

    def test_pipeline_control_sets(self):
        shared = _synth(Pipeline(width=8, stages=4, shared_control=True), name="a")
        per_stage = _synth(Pipeline(width=8, stages=4, shared_control=False), name="b")
        assert shared.n_control_sets == 1
        assert per_stage.n_control_sets == 4

    def test_fanout_tree_buffers(self):
        s = _synth(FanoutTree(fanout=500))
        assert s.max_fanout >= 500
        assert s.n_lut == math.ceil(500 / 64)


class TestOptDesign:
    def test_no_dangling_net_to_strip(self):
        nl = synthesize(RTLModule.make("t", [RandomLogicCloud(n_luts=5)]))
        assert opt_design(nl) is nl
        # The builder refuses the zero-fanout nets opt_design would strip.
        b = NetlistBuilder("t")
        with pytest.raises(ValueError):
            b.add_lut(fanout=0)
        with pytest.raises(ValueError):
            b.add_broadcast_net(fanout=0)

    def test_keeps_cells(self):
        nl = synthesize(RTLModule.make("t", [RandomLogicCloud(n_luts=5)]))
        assert compute_stats(opt_design(nl)).n_cells == compute_stats(nl).n_cells


#: stable_json_digest of every module's NetlistStats, in design (or draw)
#: order.  The sweep's digest also depends on numpy's Generator streams.
STATS_DIGESTS = {
    "cnvW1A1": "08b2038db8db73d9751d7dd83456c9f5542eba5b4ff5c9912d6d1e7c9d2c106a",
    "tfcW1A1": "e1f1d51e2d899d6c1a17911f973bd9b16e86a49efd380437997443630bb9f588",
    "sweep400": "b365363a80aed140d42a761e037e60e5d66bcecc902f144fdd0695323126dd30",
}


def test_stats_match_pinned_digests():
    modules = {
        "cnvW1A1": list(cnv_design().modules.values()),
        "tfcW1A1": list(tfc_design().modules.values()),
        "sweep400": generate_sweep(400, seed=0),
    }
    fresh = {
        name: stable_json_digest(
            [dataclasses.asdict(compute_stats(opt_design(synthesize(m)))) for m in mods]
        )
        for name, mods in modules.items()
    }
    assert fresh == STATS_DIGESTS, f"NetlistStats drifted; recomputed digests: {fresh}"


class TestPackingModels:
    def test_lut_eff_monotone_decreasing(self):
        assert lut_pack_efficiency(2.0) > lut_pack_efficiency(5.5)

    def test_lut_eff_clamped(self):
        assert lut_pack_efficiency(0.0) <= 1.15
        assert lut_pack_efficiency(10.0) >= 0.72

    def test_sharing_best_when_dominated(self):
        assert sharing_efficiency(1.0, 0.0) > sharing_efficiency(1 / 3, 0.0)

    def test_sharing_cs_penalty(self):
        assert sharing_efficiency(0.8, 1.0) < sharing_efficiency(0.8, 0.0)

    def test_sharing_bounds(self):
        for d in (0.34, 0.5, 1.0):
            for p in (0.0, 0.5, 1.0):
                assert 0.0 <= sharing_efficiency(d, p) <= 1.0

    def test_sharing_bad_density(self):
        with pytest.raises(ValueError):
            sharing_efficiency(0.0, 0.0)

    def test_ff_fragmentation(self):
        assert ff_slice_demand_fragmented([16]) == 2
        assert ff_slice_demand_fragmented([2] * 8) == 8  # same FFs, 4x slices


class TestReport:
    def test_render_mentions_resources(self):
        nl = synthesize(
            RTLModule.make("r", [RandomLogicCloud(n_luts=7), SumOfSquares(4, 1)])
        )
        text = utilization_report(nl).render()
        assert "LUT (logic)" in text and "CARRY4" in text and "r" in text
