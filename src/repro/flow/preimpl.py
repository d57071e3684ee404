"""Per-module pre-implementation with caching, parallel fan-out and
failure aggregation.

RapidWright implements each unique module once — synthesis, optimization,
quick placement, PBlock generation, detailed place & route — and reuses
the result for every instance (paper §I).  ``implement_design`` is that
loop, upgraded in three ways over the naive sequential version:

* **Persistent cache** — modules are looked up in a
  :class:`~repro.flow.cache.ModuleCache` (content-addressed on module,
  policy and grid), so repeated flow runs and DSE steps re-implement only
  what changed.  A design with 175 instances of 74 unique modules runs at
  most 74 implementations, and zero on a warm cache.
* **Process-pool fan-out** — cache misses are independent (every module's
  implementation is a pure function of its content), so they fan out over
  ``n_workers`` processes through :func:`~repro.flow.fanout.fan_out`.
  Results are collected per-module and assembled in design order, making
  the output bitwise identical for any worker count (the same discipline
  as :func:`~repro.flow.restarts.place_best`).
* **Failure aggregation** — an infeasible module no longer aborts the
  whole design.  Everything implementable is implemented; the failures are
  returned in a :class:`FlowInfeasibleReport` so the caller can stitch the
  placeable subset and count the rest as unplaced.

Every call also produces :class:`FlowStats`: per-module tool runs, cache
hits and the policy's CF prediction error, all identical for any worker
count.  Its time is in the ``preimpl`` span tree, when traced.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

from repro.device.grid import DeviceGrid
from repro.flow.blockdesign import BlockDesign
from repro.flow.cache import ModuleCache
from repro.flow.fanout import fan_out, graft_traces
from repro.flow.policy import CFOutcome, CFPolicy, FlowInfeasibleError
from repro.netlist.stats import NetlistStats, compute_stats
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer, current_tracer
from repro.place.quick import ShapeReport, quick_place
from repro.route.timing import TimingReport, longest_path
from repro.rtlgen.base import RTLModule
from repro.synth.mapper import opt_design, synthesize

__all__ = [
    "FlowInfeasibleReport",
    "FlowStats",
    "ImplementedModule",
    "ModuleFailure",
    "ModuleFlowStats",
    "PreImplResult",
    "implement_design",
    "implement_module",
]


@dataclass(frozen=True)
class ImplementedModule:
    """A pre-implemented (relocatable, placed & routed) module.

    Attributes
    ----------
    stats:
        Post-synthesis statistics.
    report:
        Quick-placement shape report.
    outcome:
        CF selection outcome (CF, PBlock, packing, tool runs).
    timing:
        Longest-path report of the placed module.
    """

    stats: NetlistStats
    report: ShapeReport
    outcome: CFOutcome
    timing: TimingReport

    @property
    def name(self) -> str:
        """Module name."""
        return self.stats.name

    @property
    def used_slices(self) -> int:
        """Slices occupied by the placed module."""
        return self.outcome.result.used_slices


@dataclass(frozen=True)
class ModuleFailure:
    """One module the policy could not implement."""

    module: str
    reason: str
    attempted_cfs: tuple[float, ...] = ()
    n_runs: int = 0


@dataclass(frozen=True)
class FlowInfeasibleReport:
    """Every infeasible module of one pre-implementation pass.

    Truthiness reflects whether anything failed, so callers can write
    ``if result.report: ...``.
    """

    failures: tuple[ModuleFailure, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.failures)

    def __len__(self) -> int:
        return len(self.failures)

    @property
    def modules(self) -> tuple[str, ...]:
        """Names of the failed modules, in design order."""
        return tuple(f.module for f in self.failures)

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        if not self.failures:
            return "all modules implemented"
        lines = [f"{len(self.failures)} infeasible module(s):"]
        for f in self.failures:
            tried = (
                f" (tried {len(f.attempted_cfs)} CFs: "
                f"{f.attempted_cfs[0]:.2f}..{f.attempted_cfs[-1]:.2f})"
                if f.attempted_cfs
                else ""
            )
            lines.append(f"  - {f.module}: {f.reason}{tried}")
        return "\n".join(lines)

    def raise_if_any(self) -> None:
        """Restore abort-on-failure semantics for strict callers."""
        if self.failures:
            raise FlowInfeasibleError(
                self.describe(),
                attempted_cfs=tuple(
                    cf for f in self.failures for cf in f.attempted_cfs
                ),
                n_runs=sum(f.n_runs for f in self.failures),
            )


@dataclass(frozen=True)
class ModuleFlowStats:
    """Observability record of one module's trip through the flow.

    ``n_runs`` is the paper's tool-run count for the module's outcome;
    ``new_runs`` is what this call actually executed (0 on a cache hit).
    """

    module: str
    feasible: bool
    cache_hit: bool
    n_runs: int
    new_runs: int
    cf: float = 0.0
    predicted_cf: float = 0.0

    @property
    def prediction_error(self) -> float:
        """Implemented CF minus the policy's initial guess."""
        return self.cf - self.predicted_cf


@dataclass(frozen=True)
class FlowStats:
    """Aggregate observability of one ``implement_design`` call.

    Attributes
    ----------
    modules:
        One record per unique module, in design order (failures included).
    n_workers:
        Worker processes the misses were fanned over (1 = sequential).
    """

    modules: tuple[ModuleFlowStats, ...] = ()
    n_workers: int = 1

    # ------------------------------------------------------------- counters

    @property
    def n_modules(self) -> int:
        """Unique modules processed."""
        return len(self.modules)

    @property
    def cache_hits(self) -> int:
        """Modules served from the cache."""
        return sum(1 for m in self.modules if m.cache_hit)

    @property
    def cache_misses(self) -> int:
        """Modules actually implemented by this call."""
        return sum(1 for m in self.modules if not m.cache_hit)

    @property
    def hit_rate(self) -> float:
        """Cache hits over all modules."""
        return self.cache_hits / len(self.modules) if self.modules else 0.0

    @property
    def total_tool_runs(self) -> int:
        """Run count of every outcome, cached or not (the §VIII proxy)."""
        return sum(m.n_runs for m in self.modules)

    @property
    def new_tool_runs(self) -> int:
        """Runs actually executed by this call (0 on a fully warm cache)."""
        return sum(m.new_runs for m in self.modules)

    @property
    def n_infeasible(self) -> int:
        """Modules no CF could implement."""
        return sum(1 for m in self.modules if not m.feasible)

    @property
    def first_run_rate(self) -> float:
        """Fraction of implemented modules that needed exactly one run
        (the paper's 52.7% statistic, derived without policy-side state)."""
        done = [m for m in self.modules if m.feasible]
        if not done:
            return 0.0
        return sum(1 for m in done if m.n_runs == 1) / len(done)

    @property
    def mean_abs_prediction_error(self) -> float:
        """Mean ``|cf - predicted_cf|`` over implemented modules."""
        errs = [abs(m.prediction_error) for m in self.modules if m.feasible]
        return sum(errs) / len(errs) if errs else 0.0

    # ------------------------------------------------------------- export

    def to_json_dict(self) -> dict:
        """Plain-JSON representation (CLI ``--json`` and CI artifacts)."""
        return {
            "n_modules": self.n_modules,
            "n_workers": self.n_workers,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
            "total_tool_runs": self.total_tool_runs,
            "new_tool_runs": self.new_tool_runs,
            "n_infeasible": self.n_infeasible,
            "first_run_rate": self.first_run_rate,
            "mean_abs_prediction_error": self.mean_abs_prediction_error,
            "modules": [
                {
                    "module": m.module,
                    "feasible": m.feasible,
                    "cache_hit": m.cache_hit,
                    "n_runs": m.n_runs,
                    "new_runs": m.new_runs,
                    "cf": m.cf,
                    "predicted_cf": m.predicted_cf,
                }
                for m in self.modules
            ],
        }


@dataclass(frozen=True)
class PreImplResult(Mapping):
    """Pre-implementation of a design: modules, failures and stats.

    Behaves as a read-only mapping from module name to
    :class:`ImplementedModule` (only successfully implemented modules are
    present), so legacy callers that treated ``implement_design``'s return
    value as a dict keep working unchanged.
    """

    modules: dict[str, ImplementedModule]
    report: FlowInfeasibleReport = field(default_factory=FlowInfeasibleReport)
    stats: FlowStats = field(default_factory=FlowStats)

    # ------------------------------------------------------------- mapping

    def __getitem__(self, name: str) -> ImplementedModule:
        return self.modules[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)

    # ------------------------------------------------------------- queries

    @property
    def ok(self) -> bool:
        """True when every module implemented."""
        return not self.report

    def raise_if_infeasible(self) -> None:
        """Abort-on-failure semantics for callers that need them."""
        self.report.raise_if_any()


def implement_module(
    module: RTLModule, grid: DeviceGrid, policy: CFPolicy
) -> ImplementedModule:
    """Synthesize, size and place one module under ``policy``."""
    netlist = opt_design(synthesize(module))
    stats = compute_stats(netlist)
    report = quick_place(stats)
    outcome = policy.choose(stats, report, grid)
    timing = longest_path(stats, outcome.result, outcome.pblock)
    return ImplementedModule(
        stats=stats, report=report, outcome=outcome, timing=timing
    )


def _implement_one(
    args: tuple[RTLModule, DeviceGrid, CFPolicy, bool],
) -> tuple[str, ImplementedModule | None, str, tuple[float, ...], int, dict | None]:
    """Worker entry point (module-level so it pickles).

    Returns ``(name, impl, reason, attempted_cfs, fail_runs, trace)``;
    ``impl`` is ``None`` exactly when the module is infeasible.
    When ``want_trace`` is set the module's ``preimpl.module`` span tree
    is recorded into a worker-local tracer and shipped back as a plain
    dict, which the parent grafts into its own trace exactly once —
    spans therefore merge identically for any worker count, and for the
    in-process sequential path, which uses the same entry point.
    """
    module, grid, policy, want_trace = args
    tr = Tracer() if want_trace else None
    impl: ImplementedModule | None = None
    reason = ""
    attempted: tuple[float, ...] = ()
    fail_runs = 0
    span = tr.span("preimpl.module", module=module.name) if tr else NULL_TRACER.span("")
    with span as sp:
        try:
            impl = implement_module(module, grid, policy)
        except FlowInfeasibleError as exc:
            reason = str(exc)
            attempted = exc.attempted_cfs
            fail_runs = exc.n_runs
            sp.set_attr("feasible", False)
            sp.incr("n_runs", exc.n_runs)
        else:
            sp.set_attr("feasible", True)
            sp.set_attr("cf", impl.outcome.cf)
            sp.incr("n_runs", impl.outcome.n_runs)
    trace = tr.roots[0].to_json_dict() if tr else None
    return (module.name, impl, reason, attempted, fail_runs, trace)


def implement_design(
    design: BlockDesign,
    grid: DeviceGrid,
    policy: CFPolicy,
    *,
    n_workers: int | None = None,
    cache: ModuleCache | None = None,
    cache_dir: str | None = None,
    tracer: Tracer | NullTracer | None = None,
) -> PreImplResult:
    """Pre-implement every unique module of ``design``.

    Parameters
    ----------
    design:
        The block design; only its unique modules are implemented.
    grid:
        Pre-implementation device (PBlock sizing target).
    policy:
        CF selection policy.
    n_workers:
        Worker processes for the cache misses.  ``None``, 0 or 1 runs
        sequentially in-process; results are identical either way
        (assembled in design order, one deterministic implementation per
        module).  Falls back to sequential when process pools are
        unavailable.
    cache:
        A :class:`~repro.flow.cache.ModuleCache` to consult and populate.
        Sharing one cache across calls (and, with a ``cache_dir``, across
        processes and sessions) is what makes repeated DSE compilations
        cheap.
    cache_dir:
        Convenience: when ``cache`` is not given, build a disk-persistent
        cache rooted here.  Ignored if ``cache`` is provided.
    tracer:
        Where the ``preimpl`` span tree is recorded (cache probe, one
        ``preimpl.module`` span per miss — merged from the workers when
        the misses fan out); defaults to the ambient tracer.  An
        untraced call records nothing.

    Returns
    -------
    PreImplResult
        A name-keyed mapping of implemented modules plus a
        :class:`FlowInfeasibleReport` (infeasible modules no longer raise;
        call :meth:`PreImplResult.raise_if_infeasible` for the old
        behaviour) and :class:`FlowStats`.  Total tool runs of the outcome
        are ``result.stats.total_tool_runs``; runs this call actually
        executed are ``result.stats.new_tool_runs``.
    """
    tr = tracer if tracer is not None else current_tracer()

    with tr.span("preimpl", design=design.name) as sp_root:
        with tr.span("preimpl.cache") as sp_cache:
            design.validate()
            if cache is None:
                cache = ModuleCache(cache_dir)

            order = list(design.modules)
            keys = {
                name: cache.key(module, grid, policy)
                for name, module in design.modules.items()
            }

            hits: dict[str, ImplementedModule] = {}
            misses: list[tuple[str, RTLModule]] = []
            for name, module in design.modules.items():
                impl = cache.get(keys[name], ImplementedModule)
                if impl is not None:
                    hits[name] = impl
                else:
                    misses.append((name, module))
            sp_cache.incr("hits", len(hits))
            sp_cache.incr("misses", len(misses))

        jobs = [(module, grid, policy, tr.enabled) for _, module in misses]
        with tr.span("preimpl.implement") as sp_impl:
            # Job order, not completion order: each module's implementation
            # is deterministic, so the assembled result is independent of
            # the worker count.
            outcomes, workers_used = fan_out(_implement_one, jobs, n_workers)
            graft_traces(tr, [out[5] for out in outcomes])

        implemented: dict[str, ImplementedModule] = {}
        fresh: dict[str, ImplementedModule] = {}
        failures: dict[str, ModuleFailure] = {}
        for name, impl, reason, attempted, fail_runs, _trace in outcomes:
            if impl is None:
                failures[name] = ModuleFailure(
                    module=name,
                    reason=reason,
                    attempted_cfs=attempted,
                    n_runs=fail_runs,
                )
            else:
                fresh[name] = impl
                cache.put(keys[name], impl)

        per_module: list[ModuleFlowStats] = []
        for name in order:
            impl = hits.get(name) or fresh.get(name)
            if impl is not None:
                implemented[name] = impl
                per_module.append(
                    ModuleFlowStats(
                        module=name,
                        feasible=True,
                        cache_hit=name in hits,
                        n_runs=impl.outcome.n_runs,
                        new_runs=0 if name in hits else impl.outcome.n_runs,
                        cf=impl.outcome.cf,
                        predicted_cf=impl.outcome.predicted_cf,
                    )
                )
            else:
                f = failures[name]
                per_module.append(
                    ModuleFlowStats(
                        module=name,
                        feasible=False,
                        cache_hit=False,
                        n_runs=f.n_runs,
                        new_runs=f.n_runs,
                    )
                )

        stats = FlowStats(modules=tuple(per_module), n_workers=workers_used)
        sp_impl.incr("new_tool_runs", stats.new_tool_runs)
        sp_root.set_attr("n_workers", workers_used)
        sp_root.incr("total_tool_runs", stats.total_tool_runs)
        sp_root.incr("n_infeasible", stats.n_infeasible)

    report = FlowInfeasibleReport(
        failures=tuple(failures[name] for name in order if name in failures)
    )
    return PreImplResult(modules=implemented, report=report, stats=stats)
