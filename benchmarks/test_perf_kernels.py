"""Performance micro-benchmarks of the library's hot kernels.

Unlike the experiment benches (which run once), these use real
pytest-benchmark rounds: they track the throughput of the detailed
packer, the minimal-CF sweep, the tree and forest fits and the stitcher
move loop — the kernels every experiment's wall-clock depends on.
"""

import numpy as np
import pytest

from repro.device.parts import xc7z020
from repro.flow.blockdesign import BlockDesign
from repro.flow.stitcher import SAParams, stitch
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor
from repro.netlist.stats import compute_stats
from repro.pblock.cf_search import InfeasibleModuleError, minimal_cf
from repro.pblock.generator import build_pblock
from repro.place.packer import pack
from repro.place.quick import quick_place
from repro.place.shapes import Footprint
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud, SumOfSquares
from repro.rtlgen.sweep import generate_sweep
from repro.synth.mapper import synthesize
from tests.cf_oracle import reference_minimal_cf
from tests.kernel_oracle import kernel
from tests.tree_oracle import fit_reference_forest


@pytest.fixture(scope="module")
def grid():
    return xc7z020()


@pytest.fixture(scope="module")
def module_stats():
    m = RTLModule.make(
        "perf_mod",
        [RandomLogicCloud(n_luts=800, avg_inputs=4.5), SumOfSquares(width=16, n_terms=2)],
    )
    return compute_stats(synthesize(m))


def test_perf_pack(benchmark, grid, module_stats):
    """One detailed packing attempt (the CF sweep's inner loop)."""
    report = quick_place(module_stats)
    pb = build_pblock(module_stats, report, 1.4, grid)
    result = benchmark(pack, module_stats, pb)
    assert result.feasible


def test_perf_minimal_cf(benchmark, grid, module_stats):
    """A full minimal-CF sweep for a mid-size module."""
    report = quick_place(module_stats)
    result = benchmark(
        minimal_cf, module_stats, grid, report=report
    )
    assert result.cf >= 0.9


def test_perf_cf_sweep_vs_reference():
    """The minimal-CF sweep at the label-train shape must find the
    reference sweep's results bit for bit, at least 1.4x as fast.

    ``generate_sweep(200)`` on xc7z020 at the paper's sweep (start 0.9,
    step 0.02, max 2.5), as ``generate_dataset`` labels it in the
    benchmark's ``label-train`` workload.  The reference
    (``tests/cf_oracle.py``) snaps a PBlock and packs from scratch at
    every step.  Every round sweeps a fresh grid, so neither side finds
    the other's window memo warm.
    """
    import time

    stats = [compute_stats(synthesize(m)) for m in generate_sweep(200)]
    reports = [quick_place(s) for s in stats]

    def key(found):
        pb = found.pblock
        return (
            found.cf, found.n_runs, pb.x0, pb.width, pb.y0, pb.height,
            found.result, found.result.footprint,
        )

    def sweep() -> list:
        grid = xc7z020()
        out = []
        for s, r in zip(stats, reports):
            try:
                out.append(key(minimal_cf(s, grid, report=r)))
            except InfeasibleModuleError as exc:
                out.append(exc.n_runs)
        return out

    def reference() -> list:
        grid = xc7z020()
        out = []
        for s, r in zip(stats, reports):
            found, n_steps, _ = reference_minimal_cf(s, grid, r, search_down=False)
            out.append(n_steps if found is None else key(found))
        return out

    def best_of(run, results: list) -> float:
        elapsed = []
        for _ in range(3):
            t0 = time.perf_counter()
            results.append(run())
            elapsed.append(time.perf_counter() - t0)
        return min(elapsed)

    swept: list = []
    refs: list = []
    t_sweep = best_of(sweep, swept)
    t_ref = best_of(reference, refs)
    assert all(out == refs[0] for out in swept + refs)
    print(
        f"cf sweep: {t_sweep * 1e3:.1f} ms vs reference {t_ref * 1e3:.1f} ms "
        f"({t_ref / t_sweep:.2f}x, {len(stats)} modules)"
    )
    assert 1.4 * t_sweep <= t_ref, (
        f"minimal-CF sweep ({t_sweep * 1e3:.1f} ms) less than 1.4x faster "
        f"than the reference sweep ({t_ref * 1e3:.1f} ms)"
    )


def test_perf_synthesize(benchmark):
    """Technology mapping of a 800-LUT module."""
    m = RTLModule.make(
        "perf_synth", [RandomLogicCloud(n_luts=800, avg_inputs=4.2)]
    )
    netlist = benchmark(synthesize, m)
    assert compute_stats(netlist).n_cells >= 800


def test_perf_tree_fit(benchmark):
    """CART fit at dataset scale (1,500 x 16)."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(1500, 16))
    y = X @ rng.normal(size=16) + 0.1 * rng.normal(size=1500)

    def fit():
        return DecisionTreeRegressor(max_depth=20, min_samples_leaf=2).fit(X, y)

    model = benchmark(fit)
    assert model.depth() > 2


def test_perf_forest_fit():
    """The forest fit at the label-train shape must grow the reference
    grower's trees bit for bit, at least twice as fast.

    154 rows x 7 features, 50 trees of depth 20, two features drawn per
    split and CF-like labels on a 0.02 grid, as ``train_estimator``
    fits them in the benchmark's ``label-train`` workload.  Most nodes
    there hold a few samples, so the gate measures per-node cost.
    """
    import time

    rng = np.random.default_rng(0)
    X = rng.normal(size=(154, 7))
    y = np.round((1.2 + 0.3 * np.tanh(X @ rng.normal(size=7))) / 0.02) * 0.02
    params = dict(n_estimators=50, max_depth=20, max_features="third", seed=0)

    def best_of(fit, results: list) -> float:
        elapsed = []
        for _ in range(3):
            t0 = time.perf_counter()
            results.append(fit())
            elapsed.append(time.perf_counter() - t0)
        return min(elapsed)

    models: list = []
    refs: list = []
    t_fit = best_of(lambda: RandomForestRegressor(**params).fit(X, y), models)
    t_ref = best_of(lambda: fit_reference_forest(X, y, **params), refs)
    model, ref = models[0], refs[0]
    for tree, spec in zip(model.trees_, ref.trees_, strict=True):
        for a, b in zip(tree._flat_arrays(), spec._flat_arrays()):
            assert a.tobytes() == b.tobytes()
    assert model.feature_importances_.tobytes() == ref.feature_importances_.tobytes()
    assert model.predict(X).tobytes() == ref.predict(X).tobytes()
    print(
        f"forest fit: {t_fit * 1e3:.1f} ms vs reference {t_ref * 1e3:.1f} ms "
        f"({t_ref / t_fit:.2f}x)"
    )
    assert 2.0 * t_fit <= t_ref, (
        f"forest fit ({t_fit * 1e3:.1f} ms) less than 2x faster than the "
        f"reference grower ({t_ref * 1e3:.1f} ms)"
    )


def _stitch_case() -> tuple[BlockDesign, dict[str, Footprint]]:
    """A 40-macro chain, the stitcher benchmarks' shared workload."""
    from repro.device.column import ColumnKind

    d = BlockDesign(name="perf")
    d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=8)]))
    fp = Footprint((ColumnKind.CLBLL, ColumnKind.CLBLM), (12, 12))
    for i in range(40):
        d.add_instance(f"i{i}", "m")
    for i in range(39):
        d.connect(f"i{i}", f"i{i + 1}", width=4)
    return d, {"m": fp}


def test_perf_stitch_small(benchmark, grid):
    """A short stitching run over 40 macros (fast kernel, the default)."""
    d, fps = _stitch_case()

    def run():
        return stitch(d, fps, grid, SAParams(max_iters=2000, seed=0))

    result = benchmark(run)
    assert result.n_unplaced == 0


def _cnv_case(grid) -> tuple[BlockDesign, dict[str, Footprint]]:
    """cnvW1A1 pre-implemented at CF 1.3, less its infeasible modules.

    On the xc7z020 the footprints crowd the device: most blocks stay
    unplaced and most place attempts find no site anywhere.
    """
    from repro.cnv import cnv_design
    from repro.flow.policy import FixedCF
    from repro.flow.preimpl import implement_design

    design = cnv_design()
    pre = implement_design(design, grid, FixedCF(1.3))
    footprints = {
        name: impl.outcome.result.footprint
        for name, impl in pre.items()
        if impl.outcome.result.footprint is not None
    }
    if any(i.module not in footprints for i in design.instances):
        design = design.subset(set(footprints))
    return design, footprints


@pytest.mark.parametrize("case", ["chain", "crowded"])
def test_perf_stitch_fast_vs_reference(grid, case):
    """The fast kernel must beat the reference kernel on the same run.

    This is the CI perf-smoke gate: it fails if a regression makes the
    bitmask kernel slower than the straightforward one in
    ``tests/kernel_oracle.py``, and doubles as
    an equivalence check on the benchmark workload.  The equivalence
    covers every draw-dependent output: a fast path that skips or
    double-counts a probe shows in the history, the illegal-move count
    or an attempt/accept counter even when the placement survives.
    The 40-macro chain places every block; the crowded cnvW1A1 case is
    where the fast kernel skips place attempts it knows must miss.
    """
    import time

    d, fps = _stitch_case() if case == "chain" else _cnv_case(grid)
    params = SAParams(max_iters=2000, seed=0)

    def best_of(name: str, results: list) -> float:
        elapsed = []
        with kernel(name):
            for _ in range(3):
                t0 = time.perf_counter()
                results.append(stitch(d, fps, grid, params))
                elapsed.append(time.perf_counter() - t0)
        return min(elapsed)

    fast_results: list = []
    ref_results: list = []
    t_fast = best_of("fast", fast_results)
    t_ref = best_of("reference", ref_results)
    fast, ref = fast_results[0], ref_results[0]
    assert (fast.n_unplaced > 0) == (case == "crowded")
    assert fast.placements == ref.placements
    assert fast.final_cost == ref.final_cost
    assert fast.history == ref.history
    assert fast.illegal_moves == ref.illegal_moves
    for counter in (
        "move_attempts", "place_attempts", "swap_attempts",
        "move_accepts", "place_accepts", "swap_accepts",
    ):
        assert getattr(fast.stats, counter) == getattr(ref.stats, counter), counter
    assert t_fast < t_ref, (
        f"fast kernel ({t_fast * 1e3:.1f} ms) slower than reference "
        f"({t_ref * 1e3:.1f} ms)"
    )


def test_perf_ga_vs_sa_equal_budget(grid):
    """The GA must match or beat single-seed SA on the cnvW1A1 stitch.

    This is the CI perf-smoke gate for the optimizer portfolio: both
    placers spend the same kernel-operation budget (one GA unit == one
    SA iteration) on the same pre-implemented cnvW1A1 footprints, and
    the GA's (unplaced, cost) outcome must not be worse.  Set
    ``REPRO_GA_STATS`` to a path to write the comparison as a JSON
    artifact, and ``REPRO_BENCH_GA_BUDGET`` to change the shared budget.
    """
    import json
    import os
    import time

    from repro.flow.evolve import GAParams, evolve

    design, footprints = _cnv_case(grid)
    budget = int(os.environ.get("REPRO_BENCH_GA_BUDGET", "4000"))
    t0 = time.perf_counter()
    sa = stitch(design, footprints, grid, SAParams(max_iters=budget, seed=0))
    t_sa = time.perf_counter() - t0
    t0 = time.perf_counter()
    ga = evolve(design, footprints, grid,
                GAParams(move_budget=budget, seed=0))
    t_ga = time.perf_counter() - t0

    stats = {
        "budget": budget,
        "n_instances": len(design.instances),
        "sa": {"final_cost": sa.final_cost, "n_placed": sa.n_placed,
               "n_unplaced": sa.n_unplaced, "iterations": sa.iterations,
               "wall_s": round(t_sa, 4)},
        "ga": {"final_cost": ga.final_cost, "n_placed": ga.n_placed,
               "n_unplaced": ga.n_unplaced, "iterations": ga.iterations,
               "wall_s": round(t_ga, 4)},
    }
    out = os.environ.get("REPRO_GA_STATS")
    if out:
        with open(out, "w") as fh:
            json.dump(stats, fh, indent=2, sort_keys=True)
    print(json.dumps(stats, indent=2, sort_keys=True))

    assert ga.iterations <= budget
    assert (ga.n_unplaced, ga.final_cost) <= (sa.n_unplaced, sa.final_cost), (
        f"GA (unplaced={ga.n_unplaced}, cost={ga.final_cost}) worse than "
        f"SA (unplaced={sa.n_unplaced}, cost={sa.final_cost}) "
        f"at budget {budget}"
    )


def test_perf_tracer_overhead(grid):
    """Tracing must stay cheap on the stitch benchmark workload.

    This is the CI perf-smoke gate for the observability layer.  With
    tracing disabled (the ambient default) ``stitch`` records nothing:
    every span is the shared no-op and no tracer is built.  An explicit
    enabled tracer adds the phase spans' clock reads and the span
    forest.  The traced run must land within ~2% of the untraced one,
    plus a fixed epsilon that absorbs timer jitter on a sub-100 ms
    workload.
    """
    import time

    from repro.obs.tracer import Tracer

    d, fps = _stitch_case()
    params = SAParams(max_iters=2000, seed=0)

    def best_of(tracer) -> float:
        elapsed = []
        for _ in range(5):
            t0 = time.perf_counter()
            stitch(d, fps, grid, params, tracer=tracer)
            elapsed.append(time.perf_counter() - t0)
        return min(elapsed)

    stitch(d, fps, grid, params)  # warm caches before timing
    t_disabled = best_of(None)
    t_enabled = best_of(Tracer())
    budget = 1.02 * t_disabled + 0.005
    assert t_enabled <= budget, (
        f"enabled tracer ({t_enabled * 1e3:.1f} ms) exceeds the overhead "
        f"budget ({budget * 1e3:.1f} ms; disabled: {t_disabled * 1e3:.1f} ms)"
    )
