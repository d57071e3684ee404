"""Tests for the cnvW1A1 block design (paper §III structure)."""

import math

import pytest

from repro.cnv.blocks import BLOCK_BUILDERS, build_block
from repro.cnv.partition import block_inventory, total_target_slices
from repro.netlist.stats import compute_stats
from repro.place.packer import slice_demand
from repro.synth.mapper import synthesize


class TestBlockBuilders:
    @pytest.mark.parametrize("kind", sorted(BLOCK_BUILDERS))
    def test_builders_produce_modules(self, kind):
        m = build_block(kind, f"t_{kind}", 1.0)
        s = compute_stats(synthesize(m))
        assert s.total_sites > 0

    def test_scale_monotone(self):
        small = slice_demand(compute_stats(synthesize(build_block("mvau", "sm", 0.5))))
        big = slice_demand(compute_stats(synthesize(build_block("mvau", "sm", 4.0))))
        assert big > small

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            build_block("nope", "x", 1.0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_non_positive_or_non_finite_scale(self, scale):
        with pytest.raises(ValueError, match="positive finite"):
            build_block("mvau", "x", scale)

    def test_weights_are_lutram_heavy(self):
        s = compute_stats(synthesize(build_block("weights", "w", 2.0)))
        assert s.n_lutram > 0
        assert s.n_m_lut_sites > s.n_carry4

    def test_swu_uses_srls(self):
        s = compute_stats(synthesize(build_block("swu", "s", 1.0)))
        assert s.n_srl > 0

    def test_mvau_has_carry_and_luts(self):
        s = compute_stats(synthesize(build_block("mvau", "m", 1.0)))
        assert s.n_carry4 > 0 and s.n_lut > 0


class TestInventory:
    def test_published_structure(self):
        inv = block_inventory()
        assert len(inv) == 74  # unique modules
        assert sum(b.n_instances for b in inv) == 175  # instances

    def test_reuse_counts(self):
        by_name = {b.module: b for b in block_inventory()}
        assert by_name["mvau_2"].n_instances == 48  # layers 1+2
        assert by_name["mvau_8"].n_instances == 20  # layers 3+4
        assert by_name["mvau_18"].n_instances == 4  # Table I footnote

    def test_weights_14_is_largest(self):
        inv = block_inventory()
        largest = max(inv, key=lambda b: b.target_slices)
        assert largest.module == "weights_14"

    def test_no_duplicate_modules(self):
        names = [b.module for b in block_inventory()]
        assert len(set(names)) == len(names)

    def test_target_near_device(self):
        # ~99% of the xc7z020's 13,200 slices.
        assert 0.95 < total_target_slices() / 13200 < 1.01

    def test_instance_names_unique(self):
        names = [n for b in block_inventory() for n in b.instance_names()]
        assert len(set(names)) == 175


class TestDesign:
    def test_structure(self, cnv):
        assert cnv.n_instances == 175
        assert cnv.n_unique == 74
        cnv.validate()

    def test_connected_pipeline(self, cnv):
        # Every instance participates in at least one edge.
        touched = set()
        for e in cnv.edges:
            touched.add(e.src)
            touched.add(e.dst)
        names = {i.name for i in cnv.instances}
        assert touched == names

    def test_calibration_quality(self, cnv, cnv_stats):
        """Per-block demand lands near its budget (within quantization)."""
        inv = {b.module: b for b in block_inventory()}
        worst = 0.0
        for name, stats in cnv_stats.items():
            target = inv[name].target_slices / 1.09
            demand = slice_demand(stats)
            err = abs(demand - target) / max(target, 8)
            worst = max(worst, err)
        assert worst < 0.35  # small blocks quantize coarsely

    def test_total_demand_fills_device(self, cnv, cnv_stats, z020):
        inv = {b.module: b for b in block_inventory()}
        total = sum(
            slice_demand(cnv_stats[b.module]) * b.n_instances for b in inv.values()
        )
        assert 0.85 < total / z020.device_caps().slices < 1.0

    def test_m_budget_respected(self, cnv_stats, z020):
        inv = {b.module: b for b in block_inventory()}
        m_total = sum(
            math.ceil(cnv_stats[b.module].n_m_lut_sites / 4) * b.n_instances
            for b in inv.values()
        )
        assert m_total <= z020.device_caps().m_slices

    def test_table1_block_sizes(self, cnv_stats):
        """The two Table I blocks land near their published sizes."""
        w14 = slice_demand(cnv_stats["weights_14"])
        assert abs(w14 - 1371) / 1371 < 0.08  # paper: 1371 at CF=1
        m18 = slice_demand(cnv_stats["mvau_18"])
        assert abs(m18 - 28) <= 4  # paper: 28 at CF=1

    def test_deterministic(self, cnv):
        from repro.cnv.design import cnv_design

        assert cnv_design() is cnv  # cached singleton
