"""Tests for the dataset layer of the content-addressed store: a labeled
sweep kept in a :class:`~repro.flow.cache.ModuleCache` under
:func:`~repro.flow.cache.dataset_key`."""

import pickle

import pytest

from repro.dataset.generate import generate_dataset
from repro.device.parts import xc7z010, xc7z020
from repro.flow.cache import ModuleCache, dataset_key
from repro.place.packer import placer_noise_amplitude


@pytest.fixture(scope="module")
def grid():
    return xc7z020()


class TestKey:
    def test_stable(self, grid):
        a = dataset_key(
            50, 1, grid, start=0.9, step=0.02, max_cf=2.5,
            skip_trivial=True, adaptive_step=False, noise_amplitude=0.05,
        )
        b = dataset_key(
            50, 1, grid, start=0.9, step=0.02, max_cf=2.5,
            skip_trivial=True, adaptive_step=False, noise_amplitude=0.05,
        )
        assert a == b

    def test_sensitive_to_every_parameter(self, grid):
        base = dict(
            start=0.9, step=0.02, max_cf=2.5,
            skip_trivial=True, adaptive_step=False, noise_amplitude=0.05,
        )
        ref = dataset_key(50, 1, grid, **base)
        assert dataset_key(51, 1, grid, **base) != ref
        assert dataset_key(50, 2, grid, **base) != ref
        assert dataset_key(50, 1, xc7z010(), **base) != ref
        for field, value in [
            ("start", 1.0),
            ("step", 0.05),
            ("max_cf", 3.0),
            ("skip_trivial", False),
            ("adaptive_step", True),
            ("noise_amplitude", 0.0),
        ]:
            assert dataset_key(50, 1, grid, **{**base, field: value}) != ref


class TestStore:
    def test_memory_hit(self, grid):
        cache = ModuleCache()
        records, report = generate_dataset(8, seed=1, grid=grid, cache=cache)
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        again, again_report = generate_dataset(8, seed=1, grid=grid, cache=cache)
        assert again == records
        assert again_report.cache_hit
        assert again_report.n_runs == report.n_runs
        assert cache.stats.mem_hits == 1

    def test_disk_hit_across_instances(self, grid, tmp_path):
        d = tmp_path / "ds"
        records, _ = generate_dataset(8, seed=1, grid=grid, cache_dir=d)
        fresh = ModuleCache(d)
        warm, report = generate_dataset(8, seed=1, grid=grid, cache=fresh)
        assert warm == records
        assert report.cache_hit
        assert fresh.stats.disk_hits == 1
        assert len(list(d.glob("*.pkl"))) == 1

    def test_different_config_misses(self, grid, tmp_path):
        d = tmp_path / "ds"
        cache = ModuleCache(d)
        generate_dataset(8, seed=1, grid=grid, cache=cache)
        _, report = generate_dataset(8, seed=2, grid=grid, cache=cache)
        assert not report.cache_hit
        assert cache.stats.misses == cache.stats.stores == 2
        assert len(list(d.glob("*.pkl"))) == 2

    def test_noise_amplitude_in_key(self, grid):
        cache = ModuleCache()
        _, base = generate_dataset(8, seed=1, grid=grid, cache=cache)
        with placer_noise_amplitude(0.0):
            _, quiet = generate_dataset(8, seed=1, grid=grid, cache=cache)
        # Regenerated, not served from the noisy sweep's entry.
        assert not quiet.cache_hit
        assert cache.stats.hits == 0
        assert cache.stats.stores == 2

    def test_corrupt_entry_degrades_to_miss(self, grid, tmp_path):
        d = tmp_path / "ds"
        records, _ = generate_dataset(8, seed=1, grid=grid, cache_dir=d)
        (pkl,) = d.glob("*.pkl")
        pkl.write_bytes(b"not a pickle")
        fresh = ModuleCache(d)
        warm, report = generate_dataset(8, seed=1, grid=grid, cache=fresh)
        assert warm == records  # regenerated, not crashed
        assert not report.cache_hit
        assert fresh.stats.misses == 1
        # The corrupt file was dropped and replaced by the regeneration.
        entry = pickle.loads(pkl.read_bytes())
        assert entry[0] == records

    def test_wrong_shape_entry_degrades_to_miss(self, grid, tmp_path):
        d = tmp_path / "ds"
        records, _ = generate_dataset(8, seed=1, grid=grid, cache_dir=d)
        (pkl,) = d.glob("*.pkl")
        pkl.write_bytes(pickle.dumps([1, 2, 3]))
        fresh = ModuleCache(d)
        warm, report = generate_dataset(8, seed=1, grid=grid, cache=fresh)
        assert not report.cache_hit
        assert warm == records
        # Counted as a miss, never as a hit of the stray entry.
        assert fresh.stats.disk_hits == 0
        assert fresh.stats.misses == 1 and fresh.stats.stores == 1
        # The regeneration replaced the stray entry.
        assert pickle.loads(pkl.read_bytes())[0] == records

    def test_memory_only_cache_has_no_disk(self, grid, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = ModuleCache()
        generate_dataset(8, seed=1, grid=grid, cache=cache)
        assert cache.cache_dir is None
        assert cache.stats.stores == 1
        assert list(tmp_path.rglob("*.pkl")) == []

    def test_hit_returns_fresh_list(self, grid):
        cache = ModuleCache()
        records, _ = generate_dataset(8, seed=1, grid=grid, cache=cache)
        records.append("cold sentinel")
        warm, _ = generate_dataset(8, seed=1, grid=grid, cache=cache)
        assert "cold sentinel" not in warm
        warm.append("sentinel")
        again, _ = generate_dataset(8, seed=1, grid=grid, cache=cache)
        assert again == warm[:-1]
        assert "sentinel" not in again
