"""Dataset pipeline perf smoke: cache cold vs warm, parallel fan-out,
forest fit vs the reference grower.

Three gates keep the PR's perf work honest:

* a warm :class:`~repro.flow.cache.ModuleCache` run must serve the
  whole sweep from disk (``cache_hit``, identical records, >=5x faster);
* the parallel fan-out must be bitwise identical to the sequential
  sweep — and actually faster when the machine has the cores to show it
  (the speedup assertion is skipped on boxes with fewer than 4 CPUs,
  where a process pool can only add overhead);
* the forest fit must beat the reference grower of
  ``tests/tree_oracle.py`` while growing bitwise identical trees on the
  Table 2 config (depth 20, a third of the features per split).

The generation reports and measured timings are dumped as JSON so CI can
archive them as an artifact next to the FlowStats one.
"""

import json
import os
import time

import numpy as np

from repro.dataset.generate import generate_dataset
from repro.device.parts import xc7z020
from repro.features.registry import extract_matrix
from repro.flow.cache import ModuleCache
from repro.ml.forest import RandomForestRegressor
from tests.tree_oracle import fit_reference_forest

#: Where the report JSON lands (CI uploads this as an artifact).
STATS_PATH = os.environ.get("REPRO_DATASET_STATS", "dataset_report.json")

#: Sweep size of the perf smoke (small enough for CI, large enough that
#: the labeling work dominates the cache's pickle round-trip).
N_SMOKE = int(os.environ.get("REPRO_BENCH_DATASET_SMOKE", "200"))

_payload: dict = {}


def _dump() -> None:
    with open(STATS_PATH, "w") as fh:
        json.dump(_payload, fh, indent=2, sort_keys=True)


def test_perf_dataset_cold_vs_warm(tmp_path):
    """A warm cache run does zero synthesis/CF-search work."""
    grid = xc7z020()
    cache = ModuleCache(tmp_path / "ds-cache")

    t0 = time.perf_counter()
    cold_recs, cold = generate_dataset(N_SMOKE, seed=3, grid=grid, cache=cache)
    t_cold = time.perf_counter() - t0
    assert not cold.cache_hit
    assert cold.n_runs > 0
    assert cold.n_labeled == len(cold_recs) > 0

    t0 = time.perf_counter()
    warm_recs, warm = generate_dataset(N_SMOKE, seed=3, grid=grid, cache=cache)
    t_warm = time.perf_counter() - t0
    assert warm.cache_hit
    assert warm_recs == cold_recs
    assert cache.stats.hits == 1
    speedup = t_cold / t_warm
    assert speedup >= 5.0, (
        f"warm cache run ({t_warm * 1e3:.1f} ms) less than 5x faster than "
        f"cold generation ({t_cold * 1e3:.1f} ms)"
    )

    _payload["cold"] = {**cold.to_json_dict(), "measured_wall_s": t_cold}
    _payload["warm"] = {**warm.to_json_dict(), "measured_wall_s": t_warm}
    _payload["cache_speedup"] = speedup
    _dump()

    print(f"cold: {t_cold * 1e3:.1f} ms, {cold.n_runs} tool runs")
    print(f"warm: {t_warm * 1e3:.1f} ms, cache hit ({speedup:.1f}x faster)")


def test_perf_dataset_parallel_generation():
    """4-worker fan-out: bitwise identical, faster where cores exist."""
    grid = xc7z020()

    t0 = time.perf_counter()
    serial_recs, serial = generate_dataset(N_SMOKE, seed=3, grid=grid)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    par_recs, par = generate_dataset(N_SMOKE, seed=3, grid=grid, workers=4)
    t_par = time.perf_counter() - t0

    assert par_recs == serial_recs
    assert par.n_runs == serial.n_runs
    assert par.n_labeled == serial.n_labeled

    _payload["parallel"] = {
        "n_workers": par.n_workers,
        "serial_wall_s": t_serial,
        "parallel_wall_s": t_par,
        "speedup": t_serial / t_par,
        "cpu_count": os.cpu_count(),
    }
    _dump()
    print(
        f"serial: {t_serial * 1e3:.1f} ms, "
        f"{par.n_workers} workers: {t_par * 1e3:.1f} ms "
        f"({t_serial / t_par:.1f}x)"
    )

    if (os.cpu_count() or 1) >= 4 and par.n_workers > 1:
        assert t_par < t_serial, (
            f"4-worker generation ({t_par * 1e3:.1f} ms) not faster than "
            f"sequential ({t_serial * 1e3:.1f} ms) on a "
            f"{os.cpu_count()}-core machine"
        )


def test_perf_forest_fast_vs_reference(dataset_records):
    """The forest fit must beat the reference grower.

    Both grow bitwise identical forests on the Table 2 config (depth 20,
    ``max_features="third"``); this gate fails if a regression makes the
    library's grower slower than the reference one.
    """
    X, y = extract_matrix(dataset_records, "additional")
    n_trees = max(10, min(40, len(dataset_records) // 20))
    params = dict(n_estimators=n_trees, max_depth=20, min_samples_leaf=1, seed=0)

    t0 = time.perf_counter()
    fast = RandomForestRegressor(**params).fit(X, y)
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    ref = fit_reference_forest(X, y, **params)
    t_ref = time.perf_counter() - t0

    pred_fast = fast.predict(X)
    pred_ref = ref.predict(X)
    np.testing.assert_array_equal(pred_fast, pred_ref)
    np.testing.assert_array_equal(
        fast.feature_importances_, ref.feature_importances_
    )

    speedup = t_ref / t_fast
    _payload["forest_fit"] = {
        "n_samples": int(X.shape[0]),
        "n_features": int(X.shape[1]),
        "n_trees": n_trees,
        "fast_wall_s": t_fast,
        "reference_wall_s": t_ref,
        "speedup": speedup,
    }
    _dump()
    print(
        f"forest fit ({n_trees} trees, {X.shape[0]}x{X.shape[1]}): "
        f"{t_fast * 1e3:.1f} ms vs reference {t_ref * 1e3:.1f} ms "
        f"({speedup:.1f}x)"
    )
    assert t_fast < t_ref, (
        f"forest fit ({t_fast * 1e3:.1f} ms) slower than the reference "
        f"grower ({t_ref * 1e3:.1f} ms)"
    )
