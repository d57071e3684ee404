"""The reference CF sweep: the spec :func:`repro.pblock.cf_search.minimal_cf`
must match.

:func:`reference_minimal_cf` walks the paper's sweep (§VI-C) the plain
way: ``build_pblock`` and :func:`reference_pack` at every step, with
nothing carried from one step to the next.  :func:`reference_pack` is a
frozen copy of the packer's ``pack`` from before a sweep derived each
module's demand once: every call recomputes the M-slice demand, the
chain-length counts and ``slice_demand``, and counts the PBlock's CLB
columns by scanning its column kinds.  The library's sweep must
reproduce it bit for bit: the same minimal CF, tool-run count, PBlock,
packing result and footprint, or the same infeasibility after the same
number of runs.  The sweep tests and the CF-sweep benchmark compare
against this module; nothing in ``src/`` imports it.
"""

from __future__ import annotations

import math
from collections import Counter

from repro.device.resources import LUTRAM_PER_MSLICE
from repro.pblock.cf_search import DOWN_LIMIT, CFSearchResult
from repro.pblock.generator import PBlockGenerationError, build_pblock
from repro.place.congestion import routable_utilization
from repro.place.packer import (
    _SPREAD_WASTE,
    PackResult,
    _build_footprint,
    pack_chains,
    slice_demand,
)

__all__ = ["reference_minimal_cf", "reference_pack"]


def reference_pack(stats, pblock) -> PackResult:
    """Attempt a detailed placement of ``stats`` inside ``pblock``,
    deriving everything from scratch."""
    caps = pblock.caps

    if stats.n_bram > caps.bram36:
        return PackResult(False, reason="bram")
    if stats.n_dsp > caps.dsp48:
        return PackResult(False, reason="dsp")

    m_slice_demand = math.ceil(stats.n_m_lut_sites / LUTRAM_PER_MSLICE)
    if m_slice_demand > caps.m_slices:
        return PackResult(False, reason="m_slices")

    height = pblock.height
    chains = stats.carry_chain_slices
    if chains:
        if max(chains) > height:
            return PackResult(False, reason="chain_height")
        n_slice_cols = 2 * sum(1 for k in pblock.kinds if k.is_clb)
        if pack_chains(Counter(chains), height, n_slice_cols) is None:
            return PackResult(False, reason="chain_packing", demand_slices=sum(chains))

    demand = slice_demand(stats)

    ceiling = routable_utilization(stats, caps)
    limit = caps.slices if caps.slices <= 8 else caps.slices * ceiling
    if demand > limit:
        return PackResult(
            False,
            reason="congestion",
            demand_slices=demand,
            utilization=demand / caps.slices if caps.slices else 0.0,
        )

    u_raw = demand / caps.slices if caps.slices else 1.0
    spread = 1.0 + _SPREAD_WASTE * max(0.0, 1.0 - u_raw - 0.15)
    used = min(math.ceil(demand * spread), math.floor(caps.slices * ceiling))
    used = max(used, demand)

    footprint = _build_footprint(stats, pblock, used)
    return PackResult(
        True,
        used_slices=used,
        demand_slices=demand,
        utilization=used / caps.slices if caps.slices else 0.0,
        footprint=footprint,
    )


def reference_minimal_cf(
    stats, grid, report, *, search_down, start=0.9, step=0.02, max_cf=2.5
):
    """The sweep with ``build_pblock`` and :func:`reference_pack` at every
    step.

    Returns the search result (``None`` when no CF fits), the number of
    steps, and the number of steps whose PBlock differs from the step
    before's (the packings ``minimal_cf`` still has to run).
    """
    steps = []

    def attempt(cf):
        try:
            pb = build_pblock(stats, report, cf, grid)
        except PBlockGenerationError:
            pb, res = None, PackResult(False, reason="no_pblock")
        else:
            res = reference_pack(stats, pb)
        steps.append(pb)
        return pb, res

    best = None
    cf = start
    while cf <= max_cf + 1e-9:
        pb, res = attempt(cf)
        if res.feasible and pb is not None:
            best = (cf, pb, res)
            break
        cf = round(cf + step, 10)
    if best is not None and search_down and abs(best[0] - start) < step / 2:
        cf = round(start - step, 10)
        while cf >= DOWN_LIMIT - 1e-9:
            pb, res = attempt(cf)
            if not (res.feasible and pb is not None):
                break
            best = (cf, pb, res)
            cf = round(cf - step, 10)
    n_packs = sum(
        1 for before, pb in zip([None, *steps], steps) if pb is not None and pb != before
    )
    if best is None:
        return None, len(steps), n_packs
    found = CFSearchResult(
        cf=best[0], n_runs=len(steps), pblock=best[1], result=best[2], report=report
    )
    return found, len(steps), n_packs
