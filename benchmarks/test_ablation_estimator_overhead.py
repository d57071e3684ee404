"""Ablation — the run-time vs PBlock-density trade-off (§VIII).

The paper: "by adding an overhead to the estimator, the user can adjust
which of the two goals (run-time versus PBlock density) is more critical".
This bench sweeps the overhead and shows tool runs fall while total
PBlock area rises.
"""

from _bench_utils import run_once

from repro.cnv.design import cnv_module_stats
from repro.estimator.cf_estimator import CFEstimator
from repro.estimator.strategy import EstimatedCF
from repro.place.quick import quick_place
from repro.utils.tables import Table

_OVERHEADS = (0.0, 0.05, 0.15, 0.30)


def _sweep(ctx):
    estimator = CFEstimator(
        kind="nn", feature_set="additional", seed=ctx.seed, rf_trees=ctx.rf_trees
    ).fit(ctx.balanced())
    stats = {
        name: s for name, s in cnv_module_stats().items() if not s.is_trivial()
    }
    rows = []
    for overhead in _OVERHEADS:
        policy = EstimatedCF(estimator=estimator, overhead=overhead)
        runs = 0
        area = 0
        first = 0
        for s in stats.values():
            out = policy.choose(s, quick_place(s), ctx.z020)
            runs += out.n_runs
            area += out.pblock.caps.slices
            first += out.n_runs == 1
        rows.append((overhead, runs, area, first / len(stats)))
    return rows


def test_ablation_estimator_overhead(benchmark, ctx):
    rows = run_once(benchmark, _sweep, ctx)

    t = Table(
        ["overhead", "tool runs", "PBlock slices", "first-run rate"],
        float_fmt="{:.2f}",
        title="estimator overhead trade-off (cnvW1A1 modules)",
    )
    for overhead, runs, area, rate in rows:
        t.add_row([overhead, runs, area, rate])
    print("\n" + t.render())

    base, fat = rows[0], rows[-1]
    # More overhead -> fewer (or equal) tool runs but looser PBlocks.
    assert fat[1] <= base[1]
    assert fat[2] >= base[2]
    # First-run success improves monotonically in expectation.
    assert fat[3] >= base[3]
