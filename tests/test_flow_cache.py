"""Tests for the pre-implementation cache, parallel fan-out and
failure aggregation."""

import pickle
from pathlib import Path
from unittest import mock

import pytest

from repro.device.parts import xc7z045
from repro.dse.explorer import DSEExplorer
from repro.flow.blockdesign import BlockDesign
from repro.flow.cache import (
    ModuleCache,
    cache_key,
    grid_fingerprint,
    module_fingerprint,
    policy_fingerprint,
)
from repro.flow.policy import FixedCF, FlowInfeasibleError, SweepCF
from repro.flow.preimpl import ImplementedModule, implement_design, implement_module
from repro.flow.rwflow import run_rw_flow
from repro.flow.stitcher import SAParams
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud


def _module(name, n_luts=120, avg_inputs=4.0):
    return RTLModule.make(
        name, [RandomLogicCloud(n_luts=n_luts, avg_inputs=avg_inputs)]
    )


def _design() -> BlockDesign:
    d = BlockDesign(name="cache-demo")
    d.add_module(_module("a", 150))
    d.add_module(_module("b", 80))
    d.add_module(_module("c", 220))
    d.add_instance("a0", "a")
    d.add_instance("a1", "a")
    d.add_instance("b0", "b")
    d.add_instance("c0", "c")
    d.connect("a0", "b0", width=8)
    d.connect("a1", "c0", width=4)
    return d


class _Raising:
    """Pickles as a call to ``int(*args)``, which raises on load."""

    def __init__(self, args):
        self.args = args

    def __reduce__(self):
        return (int, self.args)


def _mixed_design() -> BlockDesign:
    """One implementable module plus one that fails under a tight FixedCF."""
    d = BlockDesign(name="mixed")
    d.add_module(_module("good", 100))
    d.add_module(_module("huge", 600, avg_inputs=5.2))
    d.add_instance("g0", "good")
    d.add_instance("h0", "huge")
    d.add_instance("h1", "huge")
    d.connect("g0", "h0", width=8)
    return d


class TestCacheKeys:
    def test_key_stable(self, z020):
        m = _module("k", 100)
        p = FixedCF(1.5)
        assert cache_key(m, z020, p) == cache_key(m, z020, p)
        # Equal content in a fresh object hashes identically.
        assert cache_key(_module("k", 100), z020, FixedCF(1.5)) == cache_key(
            m, z020, p
        )

    def test_key_sensitive_to_module_name(self, z020):
        # Placer noise is keyed on the name, so the name is cache identity.
        p = FixedCF(1.5)
        assert module_fingerprint(_module("x", 100)) != module_fingerprint(
            _module("y", 100)
        )
        assert cache_key(_module("x", 100), z020, p) != cache_key(
            _module("y", 100), z020, p
        )

    def test_key_sensitive_to_content_policy_grid(self, z020, tiny_grid):
        m = _module("k", 100)
        base = cache_key(m, z020, FixedCF(1.5))
        assert cache_key(_module("k", 101), z020, FixedCF(1.5)) != base
        assert cache_key(m, z020, FixedCF(1.6)) != base
        assert cache_key(m, z020, SweepCF()) != base
        assert cache_key(m, tiny_grid, FixedCF(1.5)) != base

    def test_key_sensitive_to_params(self, z020):
        a = RTLModule("p", (RandomLogicCloud(n_luts=50),), params={"w": 1})
        b = RTLModule("p", (RandomLogicCloud(n_luts=50),), params={"w": 2})
        assert module_fingerprint(a) != module_fingerprint(b)

    def test_grid_fingerprint_differs(self, z020, z045, tiny_grid):
        fps = {grid_fingerprint(g) for g in (z020, z045, tiny_grid)}
        assert len(fps) == 3

    def test_key_pinned(self, z020):
        """Keys stay byte-identical: a changed key would silently turn
        every existing disk cache cold."""
        from repro.cnv import cnv_design

        key = cache_key(cnv_design().modules["dma_in"], z020, FixedCF(1.3))
        assert key == "b2bd009c7b64264cf181de65f72f9994dd1347bc1c9e1e7c7fcc8e4ef1bbfd27"

    def test_grid_fingerprint_kept_on_grid_not_pickled(self, z020):
        fp = grid_fingerprint(z020)
        assert z020.memo["fingerprint"] == fp
        clone = pickle.loads(pickle.dumps(z020))
        assert "memo" not in vars(clone)
        assert grid_fingerprint(clone) == fp
        assert pickle.dumps(clone) == pickle.dumps(z020)

    def test_policy_fingerprint_uses_policy_method(self):
        assert policy_fingerprint(FixedCF(1.5)) != policy_fingerprint(
            FixedCF(1.8)
        )
        assert policy_fingerprint(SweepCF(start=0.9)) != policy_fingerprint(
            SweepCF(start=1.1)
        )


class TestModuleCacheStore:
    def test_memory_roundtrip(self, z020):
        cache = ModuleCache()
        impl = implement_module(_module("rt", 100), z020, FixedCF(1.5))
        key = cache.key(_module("rt", 100), z020, FixedCF(1.5))
        assert cache.get(key, ImplementedModule) is None
        cache.put(key, impl)
        assert cache.get(key, ImplementedModule) is impl
        assert cache.stats.misses == 1 and cache.stats.mem_hits == 1
        assert cache.stats.stores == 1

    def test_disk_persistence_across_instances(self, z020, tmp_path):
        m = _module("disk", 100)
        impl = implement_module(m, z020, FixedCF(1.5))
        first = ModuleCache(tmp_path)
        key = first.key(m, z020, FixedCF(1.5))
        first.put(key, impl)
        assert [p.name for p in tmp_path.glob("*.pkl")] == [f"{key}.pkl"]

        second = ModuleCache(tmp_path)  # fresh process, same directory
        loaded = second.get(key, ImplementedModule)
        assert loaded is not None
        assert loaded.used_slices == impl.used_slices
        assert loaded.outcome.cf == impl.outcome.cf
        assert second.stats.disk_hits == 1
        # Promoted to memory: the next get is a mem hit.
        second.get(key, ImplementedModule)
        assert second.stats.mem_hits == 1

    def test_corrupt_disk_entry_is_a_miss(self, z020, tmp_path):
        cache = ModuleCache(tmp_path)
        m = _module("corrupt", 100)
        key = cache.key(m, z020, FixedCF(1.5))
        cache.put(key, implement_module(m, z020, FixedCF(1.5)))

        path = tmp_path / f"{key}.pkl"
        # Unpickling runs the constructor an entry names, so a corrupt
        # entry can raise anything, not only unpickling errors.
        for payload in (
            b"not a pickle",
            pickle.dumps(_Raising(("x",))),  # int('x'): ValueError
            pickle.dumps(_Raising(("a", "b", "c"))),  # TypeError
        ):
            path.write_bytes(payload)
            fresh = ModuleCache(tmp_path)
            assert fresh.get(key, ImplementedModule) is None, payload
            assert fresh.stats.misses == 1
            assert not path.exists()  # corrupt entry dropped

    def test_absent_entry_is_never_unlinked(self, z020, tmp_path):
        """A miss on a key with no file removes nothing: a concurrent
        ``put`` may rename its entry into place at any moment."""
        cache = ModuleCache(tmp_path)
        key = cache.key(_module("absent", 100), z020, FixedCF(1.5))
        with mock.patch.object(Path, "unlink", autospec=True) as unlink:
            assert cache.get(key, ImplementedModule) is None
            # Also with no cache directory at all.
            assert ModuleCache(tmp_path / "none").get(key, ImplementedModule) is None
        unlink.assert_not_called()
        assert cache.stats.misses == 1

    def test_corrupt_entry_unlinked_once(self, z020, tmp_path):
        """An entry that exists but is corrupt is removed and counted as
        a miss."""
        cache = ModuleCache(tmp_path)
        key = cache.key(_module("broken", 100), z020, FixedCF(1.5))
        path = tmp_path / f"{key}.pkl"
        path.write_bytes(b"not a pickle")
        unlinked = []
        real_unlink = Path.unlink

        def spy(self, *args, **kwargs):
            unlinked.append(self)
            return real_unlink(self, *args, **kwargs)

        with mock.patch.object(Path, "unlink", spy):
            assert cache.get(key, ImplementedModule) is None
        assert unlinked == [path]
        assert not path.exists()
        assert cache.stats.misses == 1 and cache.stats.hits == 0

    def test_truncated_pickle_is_a_miss(self, z020, tmp_path):
        cache = ModuleCache(tmp_path)
        m = _module("trunc", 100)
        key = cache.key(m, z020, FixedCF(1.5))
        cache.put(key, implement_module(m, z020, FixedCF(1.5)))
        path = tmp_path / f"{key}.pkl"
        path.write_bytes(path.read_bytes()[:20])
        assert ModuleCache(tmp_path).get(key, ImplementedModule) is None

    def test_wrong_type_entry_is_a_miss(self, z020, tmp_path):
        """A readable entry of another type is a miss, not a crash."""
        design = _design()
        policy = FixedCF(1.5)
        cold = implement_design(design, z020, policy, cache_dir=str(tmp_path))
        key = ModuleCache.key(design.modules["a"], z020, policy)
        path = tmp_path / f"{key}.pkl"
        path.write_bytes(pickle.dumps([1, 2, 3]))
        fresh = ModuleCache(tmp_path)
        warm = implement_design(design, z020, policy, cache=fresh)
        assert warm.ok
        assert warm.stats.cache_hits == 2 and warm.stats.cache_misses == 1
        assert fresh.stats.disk_hits == 2 and fresh.stats.misses == 1
        assert warm["a"].outcome.cf == cold["a"].outcome.cf
        # The re-implementation replaced the stray entry.
        assert isinstance(pickle.loads(path.read_bytes()), ImplementedModule)


class TestParallelDeterminism:
    def test_parallel_identical_to_sequential(self, z020):
        d = _design()
        seq = implement_design(d, z020, FixedCF(1.5))
        par = implement_design(d, z020, FixedCF(1.5), n_workers=4)
        assert set(seq) == set(par) == {"a", "b", "c"}
        # Identical implementations for any worker count (frozen
        # dataclasses compare field-by-field, so this is exact).
        assert dict(seq.modules) == dict(par.modules)
        # And identical per-module run accounting.
        assert [(m.module, m.n_runs) for m in seq.stats.modules] == [
            (m.module, m.n_runs) for m in par.stats.modules
        ]
        assert seq.stats.total_tool_runs == par.stats.total_tool_runs
        assert seq.stats.new_tool_runs == par.stats.new_tool_runs

    def test_two_workers_match_four(self, z020):
        d = _design()
        two = implement_design(d, z020, FixedCF(1.5), n_workers=2)
        four = implement_design(d, z020, FixedCF(1.5), n_workers=4)
        assert dict(two.modules) == dict(four.modules)

    def test_parallel_failures_aggregate_identically(self, z020):
        d = _mixed_design()
        seq = implement_design(d, z020, FixedCF(0.35))
        par = implement_design(d, z020, FixedCF(0.35), n_workers=2)
        assert seq.report.modules == par.report.modules
        assert [f.attempted_cfs for f in seq.report.failures] == [
            f.attempted_cfs for f in par.report.failures
        ]


class TestWarmCache:
    def test_second_run_zero_new_tool_runs(self, z020, tmp_path):
        d = _design()
        cold = implement_design(d, z020, FixedCF(1.5), cache_dir=tmp_path)
        assert cold.stats.new_tool_runs > 0
        assert cold.stats.hit_rate == 0.0

        warm = implement_design(d, z020, FixedCF(1.5), cache_dir=tmp_path)
        assert warm.stats.new_tool_runs == 0
        assert warm.stats.hit_rate == 1.0
        assert warm.stats.cache_hits == d.n_unique
        # The outcome run-count proxy is preserved on hits.
        assert warm.stats.total_tool_runs == cold.stats.total_tool_runs
        assert dict(warm.modules) == dict(cold.modules)

    def test_shared_cache_object_across_calls(self, z020):
        d = _design()
        cache = ModuleCache()
        implement_design(d, z020, FixedCF(1.5), cache=cache)
        warm = implement_design(d, z020, FixedCF(1.5), cache=cache)
        assert warm.stats.new_tool_runs == 0
        assert warm.stats.hit_rate == 1.0

    def test_policy_change_invalidates(self, z020):
        d = _design()
        cache = ModuleCache()
        implement_design(d, z020, FixedCF(1.5), cache=cache)
        other = implement_design(d, z020, FixedCF(1.8), cache=cache)
        assert other.stats.cache_hits == 0
        assert other.stats.new_tool_runs > 0

    def test_parallel_run_populates_cache(self, z020, tmp_path):
        d = _design()
        implement_design(
            d, z020, FixedCF(1.5), n_workers=2, cache_dir=tmp_path
        )
        warm = implement_design(d, z020, FixedCF(1.5), cache_dir=tmp_path)
        assert warm.stats.new_tool_runs == 0


class TestFailureAggregation:
    def test_partial_result_instead_of_raise(self, z020):
        res = implement_design(_mixed_design(), z020, FixedCF(0.35))
        assert not res.ok
        assert set(res) == set()  # 0.35 is infeasible for both modules here
        assert set(res.report.modules) == {"good", "huge"}
        for f in res.report.failures:
            assert f.attempted_cfs == (0.35,)
            assert f.n_runs == 1
        assert res.stats.n_infeasible == 2

    def test_partial_success_keeps_good_modules(self, z020):
        d = _mixed_design()
        res = implement_design(d, z020, SweepCF(start=0.9, max_cf=1.0))
        # "good" fits within the short sweep, "huge" does not.
        assert "good" in res
        assert res.report.modules == ("huge",)
        assert len(res.report.failures[0].attempted_cfs) == 6  # 0.9..1.0
        assert "huge" in res.report.describe()

    def test_raise_if_infeasible(self, z020):
        res = implement_design(_mixed_design(), z020, FixedCF(0.35))
        with pytest.raises(FlowInfeasibleError) as exc:
            res.raise_if_infeasible()
        assert exc.value.attempted_cfs == (0.35, 0.35)
        res_ok = implement_design(_design(), z020, FixedCF(1.5))
        res_ok.raise_if_infeasible()  # no-op when everything implemented

    def test_mapping_protocol(self, z020):
        res = implement_design(_design(), z020, FixedCF(1.5))
        assert res.ok
        assert len(res) == 3
        assert set(res.keys()) == {"a", "b", "c"}
        assert res["a"].used_slices > 0
        assert dict(res.items()) == dict(res.modules)


class TestFlowDegradation:
    def test_rw_flow_places_subset(self, z020):
        d = _mixed_design()
        res = run_rw_flow(
            d, z020, SweepCF(start=0.9, max_cf=1.0),
            sa_params=SAParams(max_iters=1500, seed=0),
        )
        assert not res.ok
        assert res.infeasible.modules == ("huge",)
        # g0 stitched; h0/h1 reported unplaced with None placements.
        assert res.stitch.placements["g0"] is not None
        assert res.stitch.placements["h0"] is None
        assert res.stitch.placements["h1"] is None
        assert res.stitch.n_unplaced == 2
        # The failed sweep's runs still count toward the §VIII proxy.
        assert res.total_tool_runs > res.flow_stats.new_tool_runs - 1
        assert res.flow_stats.n_infeasible == 1

    def test_rw_flow_nothing_placeable(self, z020):
        d = _mixed_design()
        res = run_rw_flow(d, z020, FixedCF(0.35))
        assert not res.ok
        assert res.stitch.n_placed == 0
        assert res.stitch.n_unplaced == 3
        assert all(p is None for p in res.stitch.placements.values())

    def test_rw_flow_warm_cache(self, z020, tmp_path):
        d = _design()
        params = SAParams(max_iters=1500, seed=0)
        cold = run_rw_flow(
            d, z020, FixedCF(1.5), sa_params=params, cache_dir=tmp_path
        )
        warm = run_rw_flow(
            d, z020, FixedCF(1.5), sa_params=params, cache_dir=tmp_path
        )
        assert warm.flow_stats.new_tool_runs == 0
        assert warm.flow_stats.hit_rate == 1.0
        assert warm.stitch.placements == cold.stitch.placements
        assert warm.total_tool_runs == cold.total_tool_runs

    def test_rw_flow_parallel_matches_serial(self, z020):
        d = _design()
        params = SAParams(max_iters=1500, seed=0)
        a = run_rw_flow(d, z020, FixedCF(1.5), sa_params=params)
        b = run_rw_flow(
            d, z020, FixedCF(1.5), sa_params=params, preimpl_workers=2
        )
        assert a.stitch.placements == b.stitch.placements
        assert a.total_tool_runs == b.total_tool_runs

    def test_stitch_grid_override_still_works(self, z020):
        res = run_rw_flow(
            _design(), z020, FixedCF(1.5),
            stitch_grid=xc7z045(), sa_params=SAParams(max_iters=1500, seed=0),
        )
        assert res.ok and res.stitch.n_unplaced == 0


class TestDSESharedCache:
    def test_explorers_share_disk_cache(self, z020, tmp_path):
        d = BlockDesign(name="dse-cache")
        d.add_module(_module("pe", 240))
        d.add_instance("pe0", "pe")
        params = SAParams(max_iters=1500, seed=0)

        first = DSEExplorer(
            d, z020, FixedCF(1.7), sa_params=params, cache_dir=tmp_path
        )
        p1 = first.evaluate("base")
        assert p1.cache_hits == 0

        # A brand-new explorer (fresh session) warm-starts from disk.
        second = DSEExplorer(
            d, z020, FixedCF(1.7), sa_params=params, cache_dir=tmp_path
        )
        p2 = second.evaluate("base")
        assert p2.cache_hits == 1
        assert p2.implemented_effort == 0
        assert p2.area_slices == p1.area_slices

    def test_explorer_and_flow_share_cache(self, z020):
        d = _design()
        cache = ModuleCache()
        run_rw_flow(
            d, z020, FixedCF(1.7),
            sa_params=SAParams(max_iters=1500, seed=0), cache=cache,
        )
        explorer = DSEExplorer(
            d, z020, FixedCF(1.7),
            sa_params=SAParams(max_iters=1500, seed=0), cache=cache,
        )
        p = explorer.evaluate("base")
        assert p.cache_hits == d.n_unique

    def test_infeasible_variant_does_not_abort(self, z020):
        d = BlockDesign(name="dse-inf")
        d.add_module(_module("pe", 240))
        d.add_instance("pe0", "pe")
        d.add_instance("pe1", "pe")
        explorer = DSEExplorer(
            d, z020, FixedCF(0.35), sa_params=SAParams(max_iters=1500, seed=0)
        )
        p = explorer.evaluate("base")
        assert p.n_unplaced == 2
        assert p.area_slices == 0


class TestSubset:
    def test_subset_keeps_edges_between_kept(self):
        d = _design()
        sub = d.subset({"a", "b"})
        assert set(sub.modules) == {"a", "b"}
        assert {i.name for i in sub.instances} == {"a0", "a1", "b0"}
        assert len(sub.edges) == 1  # a0-b0 kept, a1-c0 dropped

    def test_subset_unknown_module_rejected(self):
        with pytest.raises(KeyError):
            _design().subset({"a", "ghost"})

    def test_subset_validates(self):
        _design().subset({"a"}).validate()
