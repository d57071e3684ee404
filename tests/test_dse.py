"""Tests for the DSE explorer."""

import numpy as np
import pytest

from repro.device.parts import xc7z020
from repro.dse.explorer import DSEExplorer, DSEPoint, pareto_front
from repro.flow.blockdesign import BlockDesign, Edge, Instance
from repro.flow.placers import SAPlacer
from repro.flow.policy import FixedCF
from repro.flow.preimpl import implement_module
from repro.flow.stitcher import SAParams
from repro.obs.tracer import Tracer
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud


def _module(name: str, n_luts: int) -> RTLModule:
    return RTLModule.make(
        name, [RandomLogicCloud(n_luts=n_luts)], params={"n": n_luts}
    )


def _design() -> BlockDesign:
    d = BlockDesign(name="dse-test")
    d.add_module(_module("pe", 240))
    d.add_module(_module("mem", 100))
    for i in range(3):
        d.add_instance(f"pe{i}", "pe")
    d.add_instance("mem0", "mem")
    d.connect("mem0", "pe0")
    d.connect("pe0", "pe1")
    d.connect("pe1", "pe2")
    return d


@pytest.fixture()
def explorer(z020):
    return DSEExplorer(
        _design(), z020, FixedCF(1.7), sa_params=SAParams(max_iters=1500, seed=0)
    )


class TestEvaluate:
    def test_base_point(self, explorer):
        p = explorer.evaluate("base")
        assert p.n_unplaced == 0
        assert p.area_slices > 0
        assert p.worst_path_ns > 0
        assert p.cache_hits == 0  # cold cache
        assert p.implemented_effort > 0

    def test_cache_reuse_across_variants(self, explorer):
        base = explorer.evaluate("base")
        p2 = explorer.evaluate("smaller-pe", {"pe": _module("pe", 120)})
        # Only the changed module is re-implemented: mem is a cache hit and
        # the step effort covers just the new pe.
        assert p2.cache_hits == 1
        assert 0 < p2.implemented_effort < base.implemented_effort

    def test_identical_variant_all_hits(self, explorer):
        explorer.evaluate("base")
        p = explorer.evaluate("same")
        assert p.cache_hits == 2
        assert p.implemented_effort == 0

    def test_bigger_variant_costs_area(self, explorer):
        base = explorer.evaluate("base")
        big = explorer.evaluate("big", {"pe": _module("pe", 500)})
        assert big.area_slices > base.area_slices

    def test_unknown_override_rejected(self, explorer):
        with pytest.raises(KeyError):
            explorer.evaluate("bad", {"ghost": _module("ghost", 10)})

    def test_dict_params_override(self, explorer):
        # Regression: a directly-constructed module with dict params used
        # to crash the cache lookup with ``TypeError: unhashable type``.
        raw = RTLModule(
            "pe", (RandomLogicCloud(n_luts=240),), params={"n": 240}
        )
        base = explorer.evaluate("base")
        p = explorer.evaluate("raw-pe", {"pe": raw})
        # Same content, same cache entries: the variant is free.
        assert p.cache_hits == 2
        assert p.implemented_effort == 0
        assert p.area_slices == base.area_slices

    def test_render(self, explorer):
        explorer.evaluate("base")
        out = explorer.render()
        assert "base" in out and "pareto" in out


class TestPortfolio:
    def test_default_is_single_sa(self, explorer):
        assert [p.name for p in explorer.placers] == ["sa"]
        assert explorer.evaluate("base").placer == "sa"

    def test_portfolio_registers_all_five(self, z020):
        ex = DSEExplorer(
            _design(), z020, FixedCF(1.7),
            sa_params=SAParams(max_iters=1200, seed=0),
            placers="portfolio",
        )
        assert [p.name for p in ex.placers] == [
            "sa", "ga", "warm-sa", "pt", "gp+sa"
        ]
        p = ex.evaluate("base")
        assert p.placer in {"sa", "ga", "warm-sa", "pt", "gp+sa"}

    def test_portfolio_no_worse_than_sa_alone(self, z020):
        """The portfolio keeps the pareto-best placement per scenario."""
        sa_only = DSEExplorer(
            _design(), z020, FixedCF(1.7),
            sa_params=SAParams(max_iters=1200, seed=0),
        )
        portfolio = DSEExplorer(
            _design(), z020, FixedCF(1.7),
            sa_params=SAParams(max_iters=1200, seed=0),
            placers="portfolio",
        )
        assert portfolio.evaluate("base").n_unplaced <= (
            sa_only.evaluate("base").n_unplaced
        )

    def test_explicit_placer_list(self, z020):
        from repro.flow.placers import GAPlacer
        from repro.flow.evolve import GAParams

        ex = DSEExplorer(
            _design(), z020, FixedCF(1.7),
            placers=[GAPlacer(params=GAParams(move_budget=1200, seed=0))],
        )
        assert ex.evaluate("base").placer == "ga"

    def test_bad_portfolio_name_rejected(self, z020):
        with pytest.raises(ValueError, match="unknown placer portfolio"):
            DSEExplorer(_design(), z020, FixedCF(1.7), placers="zoo")

    def test_empty_placers_rejected(self, z020):
        with pytest.raises(ValueError, match="must not be empty"):
            DSEExplorer(_design(), z020, FixedCF(1.7), placers=[])


class _Counting:
    """A portfolio member that counts its runs and keeps the last call's
    arguments."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.runs = 0
        self.last = None

    def place(self, design, footprints, grid, *, tracer=None):
        self.runs += 1
        self.last = (design, dict(footprints), grid)
        return self.inner.place(design, footprints, grid, tracer=tracer)


class _Recording:
    """An outer wrapper assigned to ``explorer.placers`` after
    construction, the way the end-to-end benchmark records calls."""

    def __init__(self, inner, calls):
        self.inner = inner
        self.name = inner.name
        self.calls = calls

    def place(self, design, footprints, grid, **kwargs):
        result = self.inner.place(design, footprints, grid, **kwargs)
        self.calls.append((self.name, result))
        return result


def _hot_mem(avg_inputs: float) -> RTLModule:
    """A ``mem`` that no 1.3 PBlock can route (minimal CF about 1.4)."""
    return RTLModule.make(
        "mem",
        [RandomLogicCloud(n_luts=100, avg_inputs=avg_inputs)],
        params={"n": 100, "avg_inputs": avg_inputs},
    )


def _footprint(module, grid):
    return implement_module(module, grid, FixedCF(1.3)).outcome.result.footprint


def _recorded(grid, calls, **kwargs):
    ex = DSEExplorer(
        _design(), grid, FixedCF(1.3),
        sa_params=SAParams(max_iters=1200, seed=0), placers="portfolio",
        **kwargs,
    )
    ex.placers = tuple(_Recording(p, calls) for p in ex.placers)
    return ex


class TestStitchReuse:
    """Each member runs once per distinct stitch problem per explorer.

    At ``FixedCF(1.3)`` a 238-LUT ``pe`` keeps the 240-LUT one's
    footprint but not its slice count or path delay, and ``_hot_mem``
    is infeasible, so the explorer stitches the ``pe`` subset.
    """

    def _explorer(self, grid, counting=None, **kwargs):
        counting = counting or _Counting(SAPlacer(SAParams(max_iters=400, seed=0)))
        ex = DSEExplorer(
            _design(), grid, FixedCF(1.3), placers=[counting], **kwargs
        )
        return ex, counting

    def test_repeat_runs_once(self, z020):
        ex, counting = self._explorer(z020)
        a = ex.evaluate("a")
        b = ex.evaluate("b")
        assert counting.runs == 1
        assert (b.placer, b.n_unplaced) == (a.placer, a.n_unplaced)

    def test_changed_footprint_runs_again(self, z020):
        big = _module("pe", 500)
        assert _footprint(big, z020) != _footprint(_module("pe", 240), z020)
        ex, counting = self._explorer(z020)
        ex.evaluate("base")
        ex.evaluate("big", {"pe": big})
        assert counting.runs == 2
        # Any earlier step counts, not only the one before.
        ex.evaluate("base-again")
        assert counting.runs == 2

    def test_changed_infeasible_subset_runs_again(self, z020):
        ex, counting = self._explorer(z020)
        ex.evaluate("base")
        hot = ex.evaluate("hot", {"mem": _hot_mem(6.0)})
        assert hot.n_unplaced >= 1
        assert counting.runs == 2
        assert [i.module for i in counting.last[0].instances] == ["pe"] * 3
        # Another infeasible mem leaves the same subset to stitch.
        hot2 = ex.evaluate("hot2", {"mem": _hot_mem(5.8)})
        assert counting.runs == 2
        assert hot2.n_unplaced == hot.n_unplaced

    def test_other_stitch_grid_runs_again(self, z020, z045):
        ex, counting = self._explorer(z020)
        ex.evaluate("base")
        design, footprints, _ = counting.last
        stored = ex.placers[0].place(design, footprints, z020)
        # The key covers content, not objects: an equal design and a new
        # grid of the same part pose the same problem.
        assert ex.placers[0].place(_design(), dict(footprints), xc7z020()) is stored
        assert counting.runs == 1
        other, _ = self._explorer(z020, counting, stitch_grid=z045)
        other.evaluate("base")
        assert counting.runs == 2
        ex.placers[0].place(design, footprints, z045)
        assert counting.runs == 3

    def test_changed_design_content_runs_again(self, z020):
        ex, counting = self._explorer(z020)
        ex.evaluate("base")
        design, footprints, grid = counting.last
        wider = _design()
        wider.edges[0] = Edge(wider.edges[0].src, wider.edges[0].dst, width=8)
        renamed = _design()
        renamed.instances[3] = Instance("mem9", "mem")
        renamed.edges[0] = Edge("mem9", renamed.edges[0].dst)
        reordered = _design()
        reordered.instances.reverse()
        for k, changed in enumerate([wider, renamed, reordered], start=2):
            ex.placers[0].place(changed, footprints, grid)
            assert counting.runs == k

    def test_reused_results_equal_fresh_runs(self, z020):
        calls: list = []
        ex = _recorded(z020, calls)
        ex.evaluate("base")
        variant = {"pe": _module("pe", 238)}
        ex.evaluate("pe238", variant)
        fresh_calls: list = []
        _recorded(z020, fresh_calls).evaluate("pe238", variant)
        assert [n for n, _ in calls[5:]] == [n for n, _ in fresh_calls]
        for (_, got), (_, want) in zip(calls[5:], fresh_calls):
            assert got == want
            assert got.placements == want.placements
            assert got.history == want.history
            assert got.stats == want.stats
            assert np.array_equal(got.occupancy, want.occupancy)

    def test_outer_wrapper_sees_every_call(self, z020):
        calls: list = []
        tr = Tracer()
        ex = _recorded(z020, calls, tracer=tr)
        ex.evaluate("a")
        ex.evaluate("b")
        names = ["sa", "ga", "warm-sa", "pt", "gp+sa"]
        assert [n for n, _ in calls] == names + names
        assert all(r is s for (_, r), (_, s) in zip(calls[5:], calls[:5]))
        first, second = tr.roots
        assert first.counters["placements_reused"] == 0
        assert second.counters["placements_reused"] == len(ex.placers) == 5
        assert first.find("stitch") is not None
        for span in ("stitch", "evolve", "tempering", "gplace"):
            assert second.find(span) is None

    def test_repeated_point_is_its_own(self, z020):
        pe238 = _module("pe", 238)
        assert _footprint(pe238, z020) == _footprint(_module("pe", 240), z020)
        ex, counting = self._explorer(z020)
        base = ex.evaluate("base")
        p = ex.evaluate("pe238", {"pe": pe238})
        assert counting.runs == 1
        assert (p.placer, p.n_unplaced) == (base.placer, base.n_unplaced)
        impls = {
            "pe": implement_module(pe238, z020, FixedCF(1.3)),
            "mem": implement_module(_module("mem", 100), z020, FixedCF(1.3)),
        }
        assert p.area_slices == 3 * impls["pe"].used_slices + impls["mem"].used_slices
        assert p.worst_path_ns == max(i.timing.total_ns for i in impls.values())
        assert (p.area_slices, p.worst_path_ns) != (
            base.area_slices, base.worst_path_ns
        )
        assert p.cache_hits == 1 and p.implemented_effort > 0


class TestPareto:
    def _pt(self, label, area, ns, unplaced=0):
        return DSEPoint(
            label=label,
            area_slices=area,
            worst_path_ns=ns,
            n_unplaced=unplaced,
            implemented_effort=0,
            cache_hits=0,
        )

    def test_dominance(self):
        a = self._pt("a", 100, 5.0)
        b = self._pt("b", 120, 6.0)
        assert a.dominates(b)
        assert not b.dominates(a)

    def test_tradeoff_points_both_on_front(self):
        fast = self._pt("fast", 200, 4.0)
        small = self._pt("small", 100, 6.0)
        front = pareto_front([fast, small])
        assert {p.label for p in front} == {"fast", "small"}
        assert front[0].label == "small"  # sorted by area

    def test_infeasible_excluded(self):
        good = self._pt("good", 100, 5.0)
        broken = self._pt("broken", 50, 3.0, unplaced=4)
        front = pareto_front([good, broken])
        assert [p.label for p in front] == ["good"]

    def test_infeasible_never_dominates(self):
        broken = self._pt("broken", 50, 3.0, unplaced=1)
        good = self._pt("good", 100, 5.0)
        assert not broken.dominates(good)

    def test_equal_metrics_do_not_dominate(self):
        # Dominance requires a strict improvement on at least one metric;
        # in particular a feasible point must not dominate an infeasible
        # twin on merely-equal numbers.
        a = self._pt("a", 100, 5.0)
        twin = self._pt("twin", 100, 5.0)
        broken_twin = self._pt("broken", 100, 5.0, unplaced=2)
        assert not a.dominates(twin)
        assert not twin.dominates(a)
        assert not a.dominates(broken_twin)

    def test_front_dedupes_identical_metrics(self):
        first = self._pt("first", 100, 5.0)
        dup = self._pt("dup", 100, 5.0)
        other = self._pt("other", 200, 4.0)
        front = pareto_front([first, dup, other])
        # Earliest-explored duplicate kept, tie does not inflate the front.
        assert [p.label for p in front] == ["first", "other"]

    def test_front_dedupe_keeps_earliest(self):
        a = self._pt("a", 100, 5.0)
        b = self._pt("b", 100, 5.0)
        assert [p.label for p in pareto_front([b, a])] == ["b"]
