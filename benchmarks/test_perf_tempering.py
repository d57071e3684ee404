"""Perf-smoke gate: cooperative tempering vs independent SA restarts.

Parallel tempering's claim is that *cooperating* chains (replica
exchange + best migration) beat the same number of *independent* SA
restarts at an equal total move budget.  This gate pins that claim on
the cnvW1A1 stitch: ``temper`` with N chains spends exactly the same
number of kernel operations as N SA restarts (``place_best`` over an
``SAPlacer`` with N seeds; one tempering unit == one SA iteration), and
the tempering ``(unplaced, cost)`` outcome must not be worse.

Set ``REPRO_PT_STATS`` to a path to write the comparison as a JSON
artifact (CI uploads it as ``tempering_vs_restarts.json``) and
``REPRO_BENCH_PT_BUDGET`` to change the shared budget.  Budgets below
~4000 give the ladder too few synchronization rounds for exchange to
pay off — cooperation needs a few exchange events to beat independence.
"""

import json
import os
import time

import pytest

from repro.device.parts import xc7z020
from repro.flow.policy import FixedCF
from repro.flow.preimpl import implement_design
from repro.flow.placers import SAPlacer
from repro.flow.restarts import place_best
from repro.flow.stitcher import SAParams
from repro.flow.tempering import PTParams, temper

N_FAMILIES = 4


@pytest.fixture(scope="module")
def grid():
    return xc7z020()


def test_perf_tempering_vs_restarts_equal_budget(grid):
    """Tempering must match or beat SA restarts at an equal total budget."""
    from repro.cnv import cnv_design

    design = cnv_design()
    pre = implement_design(design, grid, FixedCF(1.3))
    footprints = {
        name: impl.outcome.result.footprint
        for name, impl in pre.items()
        if impl.outcome.result.footprint is not None
    }
    if any(i.module not in footprints for i in design.instances):
        design = design.subset(set(footprints))

    budget = int(os.environ.get("REPRO_BENCH_PT_BUDGET", "4000"))
    # N independent SA seeds at budget/N each == N cooperating chains
    # sharing one budget: both sides spend `budget` kernel ops total.
    t0 = time.perf_counter()
    sb = place_best(
        SAPlacer(SAParams(max_iters=budget // N_FAMILIES, seed=0)),
        design, footprints, grid,
        n_seeds=N_FAMILIES,
    )
    t_sb = time.perf_counter() - t0
    t0 = time.perf_counter()
    pt = temper(
        design, footprints, grid,
        PTParams(max_iters=budget, n_chains=N_FAMILIES,
                 steps_per_round=100, seed=0),
    )
    t_pt = time.perf_counter() - t0

    stats = {
        "budget": budget,
        "n_families": N_FAMILIES,
        "n_instances": len(design.instances),
        "restarts": {
            "final_cost": sb.final_cost, "n_placed": sb.n_placed,
            "n_unplaced": sb.n_unplaced, "winner_seed": sb.stats.seed,
            "wall_s": round(t_sb, 4),
        },
        "tempering": {
            "final_cost": pt.final_cost, "n_placed": pt.n_placed,
            "n_unplaced": pt.n_unplaced, "iterations": pt.iterations,
            "wall_s": round(t_pt, 4),
        },
    }
    out = os.environ.get("REPRO_PT_STATS")
    if out:
        with open(out, "w") as fh:
            json.dump(stats, fh, indent=2, sort_keys=True)
    print(json.dumps(stats, indent=2, sort_keys=True))

    assert pt.iterations == budget
    assert (pt.n_unplaced, pt.final_cost) <= (sb.n_unplaced, sb.final_cost), (
        f"tempering (unplaced={pt.n_unplaced}, cost={pt.final_cost}) worse "
        f"than SA restarts (unplaced={sb.n_unplaced}, cost={sb.final_cost}) "
        f"at budget {budget}"
    )
