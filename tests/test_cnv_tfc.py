"""Tests for the tfcW1A1 generalization workload."""

from repro.cnv.tfc import tfc_design, tfc_inventory
from repro.flow.analysis_graph import analyze_design
from repro.flow.monolithic import monolithic_flow
from repro.flow.policy import MinimalCFPolicy
from repro.flow.preimpl import implement_design
from repro.netlist.stats import compute_stats
from repro.synth.mapper import opt_design, synthesize


class TestInventory:
    def test_counts(self):
        inv = tfc_inventory()
        assert len(inv) == 21  # unique modules
        assert sum(b.n_instances for b in inv) == 33

    def test_lower_reuse_than_cnv(self):
        inv = tfc_inventory()
        reuse = sum(b.n_instances for b in inv) / len(inv)
        assert reuse < 175 / 74  # cnvW1A1's reuse ratio

    def test_unique_names(self):
        names = [b.module for b in tfc_inventory()]
        assert len(set(names)) == len(names)


class TestDesign:
    def test_structure(self):
        d = tfc_design()
        assert d.n_instances == 33
        assert d.n_unique == 21
        d.validate()

    def test_fully_wired_dag(self):
        stats = analyze_design(tfc_design())
        assert stats.n_components == 1
        assert stats.is_dag
        assert stats.depth >= 6  # 3 FC stages plus glue

    def test_weight_dominated_profile(self):
        """TFC is weight-memory heavy: weight blocks out-demand MVAUs."""
        d = tfc_design()
        from repro.place.packer import slice_demand

        demands = {
            name: slice_demand(compute_stats(opt_design(synthesize(m))))
            for name, m in d.modules.items()
        }
        w_total = sum(v for k, v in demands.items() if "weights" in k)
        mvau_total = sum(
            demands[k] * n
            for k, n in d.instance_counts().items()
            if "mvau" in k
        )
        assert w_total > mvau_total

    def test_fits_small_device_comfortably(self, z020):
        res = monolithic_flow(tfc_design(), z020)
        assert res.placed
        assert res.utilization < 0.5  # TFC is far smaller than cnvW1A1

    def test_minimal_cf_flow_runs(self, z020):
        impls = implement_design(tfc_design(), z020, MinimalCFPolicy())
        assert len(impls) == 21
        cfs = [impl.outcome.cf for impl in impls.values()]
        assert min(cfs) < 1.0 < max(cfs)  # the CF spread generalizes
