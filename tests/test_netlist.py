"""Tests for the netlist builder and statistics."""

import math

import pytest

from repro.netlist.netlist import NetlistBuilder
from repro.netlist.stats import compute_stats


def _stats(b):
    return compute_stats(b.build())


class TestCells:
    def test_m_slice_kinds(self):
        b = NetlistBuilder("m")
        cs = b.control_set("clk")
        b.add_luts(5)
        b.add_srls(2, cs)
        b.add_lutrams(3, cs)
        s = _stats(b)
        assert s.n_m_lut_sites == 2 + 3  # SRLs and LUTRAMs, not logic LUTs
        assert s.n_logic_luts == 5

    def test_negative_inputs_rejected(self):
        b = NetlistBuilder("m")
        with pytest.raises(ValueError):
            b.add_lut(inputs=-1)


class TestNets:
    def test_negative_fanout_rejected(self):
        b = NetlistBuilder("m")
        with pytest.raises(ValueError):
            b.add_broadcast_net(fanout=-1, is_control=True)
        with pytest.raises(ValueError):
            b.add_broadcast_net(fanout=-1)


class TestBuilder:
    def test_control_set_interning(self):
        b = NetlistBuilder("m")
        i1 = b.control_set("clk", "rst")
        i2 = b.control_set("clk", "rst")
        i3 = b.control_set("clk", "other")
        assert i1 == i2 != i3
        b.add_ff(i1)
        b.add_ff(i2)
        s = _stats(b)
        assert s.n_control_sets == 1
        assert s.ff_per_control_set == (2,)

    def test_carry_chain_cells(self):
        b = NetlistBuilder("m")
        assert b.add_carry_chain(bits=10) == 0
        assert b.add_carry_chain(bits=4) == 1
        s = _stats(b)
        assert s.n_carry4 == math.ceil(10 / 4) + 1
        assert s.carry_chain_slices == (3, 1)
        assert s.n_cells == 4

    def test_carry_chains_by_count(self):
        """``add_carry_chains(n, bits)`` builds what ``n`` calls of
        ``add_carry_chain(bits)`` build, in order after earlier chains."""
        one = NetlistBuilder("m")
        many = NetlistBuilder("m")
        for b in (one, many):
            b.add_carry_chain(bits=10)
        for _ in range(3):
            one.add_carry_chain(bits=4, fanout=2)
        one.add_carry_chain(bits=13)
        many.add_carry_chains(3, bits=4, fanout=2)
        many.add_carry_chains(0, bits=7)
        many.add_carry_chains(1, bits=13)
        assert one.build() == many.build()
        assert many.build().carry_chains == (10, 4, 4, 4, 13)
        with pytest.raises(ValueError):
            many.add_carry_chains(2, bits=0)

    def test_ff_requires_interned_cs(self):
        b = NetlistBuilder("m")
        with pytest.raises(IndexError):
            b.add_ff(0)

    @pytest.mark.parametrize("add", ["add_srl", "add_lutram"])
    @pytest.mark.parametrize("cs_index", [-3, 1, 7])
    def test_srl_and_lutram_require_interned_cs(self, add, cs_index):
        b = NetlistBuilder("m")
        b.control_set("clk")  # index 0 is the only interned set
        with pytest.raises(IndexError):
            getattr(b, add)(cs_index)
        with pytest.raises(IndexError):
            getattr(b, add + "s")(2, cs_index)
        assert _stats(b) == _stats(NetlistBuilder("m"))  # nothing was counted

    def test_lut_input_bounds(self):
        b = NetlistBuilder("m")
        with pytest.raises(ValueError):
            b.add_lut(inputs=7)
        with pytest.raises(ValueError):
            b.add_lut(inputs=0)

    def test_srl_depth_bounds(self):
        b = NetlistBuilder("m")
        cs = b.control_set("clk")
        with pytest.raises(ValueError):
            b.add_srl(cs, depth=33)
        with pytest.raises(ValueError):
            b.add_srl(cs, depth=0)

    def test_signal_nets_need_a_load(self):
        b = NetlistBuilder("m")
        cs = b.control_set("clk")
        for add in (
            lambda: b.add_lut(fanout=0),
            lambda: b.add_luts(3, fanout=0),
            lambda: b.add_ff(cs, fanout=0),
            lambda: b.add_carry_chain(8, fanout=0),
            lambda: b.add_bram(fanout=0),
            lambda: b.add_broadcast_net(fanout=0),
        ):
            with pytest.raises(ValueError):
                add()
        # A control net rides dedicated routing and may have no load.
        b.add_broadcast_net(fanout=0, is_control=True)
        s = _stats(b)
        assert s.n_nets == 1
        assert s.n_cells == s.n_control_sets == 0  # a rejected call counts nothing

    def test_depth_tracking(self):
        b = NetlistBuilder("m")
        b.bump_depth(3)
        b.bump_depth(2)
        b.set_min_depth(4)  # lower than current 5: no-op
        assert _stats(b).logic_depth == 5
        with pytest.raises(ValueError):
            b.bump_depth(-1)


class TestStats:
    def _sample(self):
        b = NetlistBuilder("m")
        cs1 = b.control_set("clk", "rst1")
        cs2 = b.control_set("clk", "rst2")
        b.add_luts(80, inputs=4)
        b.add_ffs(3, cs2)
        b.add_ffs(10, cs1)
        b.add_carry_chain(8)
        b.add_srls(2, cs1)
        b.add_broadcast_net(fanout=40)
        b.add_broadcast_net(fanout=100, is_control=True)
        b.set_min_depth(3)
        return b.build()

    def test_counts(self):
        s = compute_stats(self._sample())
        assert s.n_lut == 80
        assert s.n_ff == 13
        assert s.n_srl == 2
        assert s.n_carry4 == 2
        assert s.carry_chain_slices == (2,)
        assert s.n_control_sets == 2
        assert s.n_cells == 80 + 13 + 2 + 2
        assert s.logic_depth == 3

    def test_ff_per_control_set_sorted(self):
        s = compute_stats(self._sample())
        assert s.ff_per_control_set == (10, 3)
        assert s.ff_slice_demand == math.ceil(10 / 8) + math.ceil(3 / 8)

    def test_control_nets_excluded_from_fanout(self):
        s = compute_stats(self._sample())
        assert s.max_fanout == 40  # not the 100-fanout control net
        # 80 LUT + 13 FF + 1 carry + 2 SRL output nets, plus the broadcast.
        signal_nets, loads = 97, 96 + 40
        assert s.n_nets == signal_nets + 1
        assert s.total_pins == loads + signal_nets
        assert s.mean_fanout == loads / signal_nets

    def test_lut_inputs_averaged(self):
        b = NetlistBuilder("m")
        b.add_luts(3, inputs=6)
        b.add_lut(inputs=2)
        assert _stats(b).avg_lut_inputs == (3 * 6 + 2) / 4

    def test_lutram_only_control_set(self):
        b = NetlistBuilder("m")
        ram = b.control_set("clk", enable="we")
        regs = b.control_set("clk")
        b.add_lutrams(4, ram)
        b.add_ffs(5, regs)
        s = _stats(b)
        assert s.n_control_sets == 2
        assert s.ff_per_control_set == (5,)

    def test_unused_control_set_not_counted(self):
        b = NetlistBuilder("m")
        used = b.control_set("clk")
        b.control_set("clk", reset="never_used")
        b.add_ffs(4, used)
        b.add_srls(0, b.control_set("clk", enable="empty"))
        s = _stats(b)
        assert s.n_control_sets == 1
        assert s.ff_per_control_set == (4,)

    def test_empty(self):
        s = _stats(NetlistBuilder("e"))
        assert (s.n_cells, s.n_nets, s.max_fanout, s.mean_fanout) == (0, 0, 0, 0.0)
        assert s.avg_lut_inputs == 0.0 and s.carry_chain_slices == ()

    def test_trivial_detection(self):
        b = NetlistBuilder("t")
        b.add_lut()
        assert compute_stats(b.build()).is_trivial()

    def test_nontrivial(self):
        s = compute_stats(self._sample())
        assert not s.is_trivial()

    def test_total_sites(self):
        s = compute_stats(self._sample())
        assert s.total_sites == 80 + 13 + 2 + 2
