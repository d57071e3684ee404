"""Perf-smoke gate: a DSE step that poses an earlier step's stitch
problem again runs no placer.

cnvW1A1 on the xc7z020 at ``FixedCF(1.3)`` (five modules infeasible,
so the explorer stitches the implementable subset), with the
five-member portfolio at 2,000 moves.  After the base step come two
repeats: one with no overrides, and one that resizes ``fifo_s0`` to a
scale whose PBlock snaps to the same footprint (its slice count moves,
its footprint does not).  Each repeat must answer every member from the
explorer's store: no placer span, ``placements_reused == 5``, and the
base step's winner and unplaced count.  The gate counts work; it times
nothing.
"""

from repro.analysis.exp_incremental import modify_module
from repro.cnv import cnv_design
from repro.device.parts import xc7z020
from repro.dse.explorer import DSEExplorer
from repro.flow.policy import FixedCF
from repro.flow.preimpl import implement_module
from repro.flow.stitcher import SAParams
from repro.obs.tracer import Tracer

PLACER_SPANS = ("stitch", "evolve", "tempering", "gplace")


def test_perf_dse_stitches_each_problem_once():
    grid = xc7z020()
    design = cnv_design()
    policy = FixedCF(1.3)
    resized = modify_module(design, "fifo_s0", 1.45).modules["fifo_s0"]
    footprints = [
        implement_module(m, grid, policy).outcome.result.footprint
        for m in (design.modules["fifo_s0"], resized)
    ]
    assert footprints[0] == footprints[1], "fifo_s0 x1.45 must keep its footprint"

    tr = Tracer()
    explorer = DSEExplorer(
        design, grid, policy,
        sa_params=SAParams(max_iters=2000, seed=0),
        placers="portfolio", tracer=tr,
    )
    base = explorer.evaluate("base")
    repeats = [
        explorer.evaluate("same"),
        explorer.evaluate("fifo_s0x1.45", {"fifo_s0": resized}),
    ]

    first, *again = tr.roots
    assert first.counters["placements_reused"] == 0
    assert all(first.find(s) is not None for s in PLACER_SPANS)
    for span, point in zip(again, repeats):
        print(
            f"{point.label}: placements_reused="
            f"{span.counters['placements_reused']} winner={point.placer} "
            f"unplaced={point.n_unplaced} effort={point.implemented_effort}"
        )
        assert span.counters["placements_reused"] == 5
        assert all(span.find(s) is None for s in PLACER_SPANS)
        assert (point.placer, point.n_unplaced) == (base.placer, base.n_unplaced)
    # The resized module was implemented again; only its stitch was reused.
    assert repeats[1].implemented_effort > 0
