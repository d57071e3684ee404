"""Dataset generation: RTL sweep -> synthesized modules -> minimal-CF labels.

Labeling one module — synthesize, opt, quick-place, multi-run minimal-CF
search — is a pure function of the module's content and the sweep
parameters, so the ~2,000-module sweep fans out over
:func:`~repro.flow.fanout.fan_out` in deterministic chunks: results are
assembled in sweep order and are bitwise identical for any worker count
(the same discipline as :func:`~repro.flow.preimpl.implement_design`).
A :class:`~repro.flow.cache.ModuleCache` in front, keyed by
:func:`~repro.flow.cache.dataset_key`, makes one generation durable
across runs and sessions; a warm hit does zero synthesis and zero
CF-search tool runs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.device.grid import DeviceGrid
from repro.device.parts import xc7z020
from repro.features.registry import ModuleRecord, make_record
from repro.flow.cache import ModuleCache, dataset_key
from repro.flow.fanout import fan_out, graft_traces
from repro.netlist.stats import compute_stats
from repro.obs.tracer import NullTracer, Tracer, current_tracer
from repro.pblock.cf_search import (
    InfeasibleModuleError,
    minimal_cf,
    recommended_step,
)
from repro.place.packer import _noise_hi, placer_noise_amplitude
from repro.place.quick import quick_place
from repro.rtlgen.base import RTLModule
from repro.rtlgen.sweep import generate_sweep
from repro.synth.mapper import opt_design, synthesize

__all__ = ["GenerationReport", "LabeledSweep", "generate_dataset"]


@dataclass(frozen=True)
class GenerationReport:
    """Bookkeeping of one dataset generation run.

    Attributes
    ----------
    n_requested:
        Modules drawn from the generators.
    n_labeled:
        Modules that received a minimal-CF label.
    n_trivial:
        Modules skipped as one-or-two-tile trivial (the paper excludes
        them from the estimator study, §VIII).
    n_infeasible:
        Modules with no feasible CF up to the sweep limit (counted, not
        silently dropped).
    n_runs:
        Total place-and-route attempts of the sweep (the paper's §VIII
        "tool runs" proxy), including the attempts of infeasible
        modules.  An adaptive-resolution sweep reports its run savings
        here.
    n_workers:
        Worker processes the labeling fanned over (1 = sequential).
    cache_hit:
        True when the records were served from a
        :class:`~repro.flow.cache.ModuleCache` instead of being
        regenerated.
    """

    n_requested: int
    n_labeled: int
    n_trivial: int
    n_infeasible: int
    infeasible_names: tuple[str, ...] = field(default=())
    n_runs: int = 0
    n_workers: int = 1
    cache_hit: bool = False

    def to_json_dict(self) -> dict:
        """Plain-JSON representation (CLI ``--json`` and CI artifacts)."""
        return {
            "n_requested": self.n_requested,
            "n_labeled": self.n_labeled,
            "n_trivial": self.n_trivial,
            "n_infeasible": self.n_infeasible,
            "infeasible_names": list(self.infeasible_names),
            "n_runs": self.n_runs,
            "n_workers": self.n_workers,
            "cache_hit": self.cache_hit,
        }


class LabeledSweep(NamedTuple):
    """One generation as :class:`~repro.flow.cache.ModuleCache` stores it."""

    records: list[ModuleRecord]
    report: GenerationReport


#: Outcome tag of one labeled module inside a worker chunk.
_OK, _TRIVIAL, _INFEASIBLE = "ok", "trivial", "infeasible"


def _label_module(
    module: RTLModule,
    grid: DeviceGrid,
    start: float,
    step: float,
    max_cf: float,
    skip_trivial: bool,
    adaptive_step: bool,
) -> tuple[str, ModuleRecord | str, int]:
    """Label one module: ``(tag, record-or-name, n_runs)``."""
    stats = compute_stats(opt_design(synthesize(module)))
    if skip_trivial and stats.is_trivial():
        return (_TRIVIAL, stats.name, 0)
    report = quick_place(stats)
    used_step = recommended_step(stats.n_lut) if adaptive_step else step
    try:
        found = minimal_cf(
            stats, grid, start=start, step=used_step, max_cf=max_cf, report=report
        )
    except InfeasibleModuleError as exc:
        return (_INFEASIBLE, stats.name, exc.n_runs)
    record = make_record(
        stats,
        report,
        min_cf=found.cf,
        family=module.family,
        sweep_step=used_step,
    )
    return (_OK, record, found.n_runs)


def _label_chunk(
    args: tuple[
        list[RTLModule], DeviceGrid, float, float, float, bool, bool, float, bool
    ],
) -> tuple[list[tuple[str, ModuleRecord | str, int]], list[dict] | None]:
    """Worker entry point (module-level so it pickles).

    The parent's placer-noise amplitude is re-applied inside the worker:
    the override stack is process-local, and a noise-ablation sweep must
    label identically whether it runs sequentially or fanned out.

    When ``want_trace`` is set, one ``dataset.module`` span is recorded
    per module into a worker-local tracer and the span dicts ride back
    with the outcomes; the parent grafts each exactly once, so the
    merged trace is identical for any worker count (the sequential path
    goes through this same entry point).
    """
    (
        modules, grid, start, step, max_cf, skip_trivial, adaptive, noise,
        want_trace,
    ) = args
    tr = Tracer() if want_trace else None
    outcomes = []
    with placer_noise_amplitude(noise):
        for m in modules:
            span = tr.span("dataset.module", module=m.name) if tr else None
            if span is None:
                outcomes.append(
                    _label_module(
                        m, grid, start, step, max_cf, skip_trivial, adaptive
                    )
                )
                continue
            with span as sp:
                out = _label_module(
                    m, grid, start, step, max_cf, skip_trivial, adaptive
                )
                sp.set_attr("outcome", out[0])
                sp.incr("n_runs", out[2])
            outcomes.append(out)
    traces = [root.to_json_dict() for root in tr.roots] if tr else None
    return outcomes, traces


def _chunked(items: list, n_chunks: int) -> list[list]:
    """Split into at most ``n_chunks`` contiguous, order-preserving runs."""
    n_chunks = max(1, min(n_chunks, len(items)))
    size, extra = divmod(len(items), n_chunks)
    chunks, at = [], 0
    for i in range(n_chunks):
        end = at + size + (1 if i < extra else 0)
        chunks.append(items[at:end])
        at = end
    return chunks


def generate_dataset(
    n_modules: int = 2000,
    seed: int = 0,
    grid: DeviceGrid | None = None,
    *,
    start: float = 0.9,
    step: float = 0.02,
    max_cf: float = 2.5,
    skip_trivial: bool = True,
    adaptive_step: bool = False,
    workers: int | None = None,
    cache: ModuleCache | None = None,
    cache_dir: str | None = None,
    tracer: Tracer | NullTracer | None = None,
) -> tuple[list[ModuleRecord], GenerationReport]:
    """Produce labeled module records for estimator training.

    Parameters
    ----------
    n_modules:
        Sweep size (the paper generates ~2,000).
    seed:
        Root seed of the sweep.
    grid:
        Device the CF labels are computed against (default xc7z020).
    start, step, max_cf:
        CF sweep parameters (paper: 0.9 / 0.02).
    skip_trivial:
        Drop one-or-two-tile modules.
    adaptive_step:
        Sweep each module at :func:`~repro.pblock.cf_search.recommended_step`
        of its LUT count instead of the fixed ``step`` (§VI-C's
        resolution rule); records carry the step actually used and the
        report's ``n_runs`` shows the tool-run savings.
    workers:
        Worker processes the labeling fans over.  ``None``, 0 or 1 runs
        sequentially in-process; results are bitwise identical for any
        worker count (chunks are assembled in sweep order).  Falls back
        to sequential when process pools are unavailable.
    cache:
        A :class:`~repro.flow.cache.ModuleCache` to consult and
        populate; a :class:`LabeledSweep` is stored under
        :func:`~repro.flow.cache.dataset_key`.  A warm hit returns the
        stored records with zero synthesis/CF-search work; an entry of
        any other type counts as a miss.
    cache_dir:
        Convenience: when ``cache`` is not given, build a disk-persistent
        cache rooted here.  Ignored if ``cache`` is provided.
    tracer:
        Where the ``dataset`` span tree is recorded (cache probe, sweep,
        one ``dataset.module`` span per labeled module — merged from the
        workers when the labeling fans out); defaults to the ambient
        tracer.  An untraced call records nothing.

    Returns
    -------
    (records, report)
        Labeled records (``min_cf`` set) and the generation report.
    """
    tr = tracer if tracer is not None else current_tracer()
    grid = grid or xc7z020()
    noise = _noise_hi()

    with tr.span("dataset", n_modules=n_modules, seed=seed) as sp_root:
        with tr.span("dataset.cache") as sp_cache:
            if cache is None and cache_dir is not None:
                cache = ModuleCache(cache_dir)
            key = None
            hit = None
            if cache is not None:
                key = dataset_key(
                    n_modules,
                    seed,
                    grid,
                    start=start,
                    step=step,
                    max_cf=max_cf,
                    skip_trivial=skip_trivial,
                    adaptive_step=adaptive_step,
                    noise_amplitude=noise,
                )
                hit = cache.get(key, LabeledSweep)
                sp_cache.incr("hits", 1 if hit is not None else 0)
                sp_cache.incr("misses", 0 if hit is not None else 1)
        if hit is not None:
            records, report = hit
            sp_root.set_attr("cache_hit", True)
            report = dataclasses.replace(report, cache_hit=True, n_workers=1)
            return list(records), report

        with tr.span("dataset.sweep") as sp_sweep:
            modules = generate_sweep(n_modules, seed=seed)
            sp_sweep.incr("n_generated", len(modules))

        with tr.span("dataset.label") as sp_label:
            # Several chunks per worker keep the pool busy even when
            # module sizes (and so labeling costs) are skewed.
            n_pool = min(workers or 0, len(modules))
            chunks = _chunked(modules, 4 * n_pool if n_pool > 1 else 1)
            jobs = [
                (
                    c, grid, start, step, max_cf, skip_trivial,
                    adaptive_step, noise, tr.enabled,
                )
                for c in chunks
            ]
            # Chunk order, not completion order: each module labels
            # deterministically, so the concatenation is independent of
            # the worker count.
            parts, workers_used = fan_out(_label_chunk, jobs, workers)
            outcomes = [o for part, _traces in parts for o in part]
            graft_traces(tr, [t for _part, traces in parts for t in traces or ()])

        records: list[ModuleRecord] = []
        n_trivial = 0
        n_runs = 0
        infeasible: list[str] = []
        for tag, payload, runs in outcomes:
            n_runs += runs
            if tag == _OK:
                records.append(payload)
            elif tag == _TRIVIAL:
                n_trivial += 1
            else:
                infeasible.append(payload)

        sp_label.incr("n_labeled", len(records))
        sp_label.incr("n_trivial", n_trivial)
        sp_label.incr("n_infeasible", len(infeasible))
        sp_label.incr("n_runs", n_runs)
        sp_root.set_attr("n_workers", workers_used)

        report_ = GenerationReport(
            n_requested=n_modules,
            n_labeled=len(records),
            n_trivial=n_trivial,
            n_infeasible=len(infeasible),
            infeasible_names=tuple(infeasible),
            n_runs=n_runs,
            n_workers=workers_used,
            cache_hit=False,
        )
        if cache is not None and key is not None:
            with tr.span("dataset.store"):
                cache.put(key, LabeledSweep(list(records), report_))
    return records, report_
