"""Correction-factor selection policies.

A policy decides, per module, which CF(s) to try and at what cost in tool
runs.  The paper compares: a constant CF high enough for every module
(1.68), a constant low starting point with upward search (0.9), the
ground-truth minimal CF, and the learned estimator (in
:mod:`repro.estimator.strategy`, which implements this same interface).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.device.grid import DeviceGrid
from repro.netlist.stats import NetlistStats
from repro.place.packer import PackResult
from repro.place.quick import ShapeReport
from repro.pblock.cf_search import (
    DEFAULT_START,
    InfeasibleModuleError,
    _attempt,
    minimal_cf,
)
from repro.pblock.pblock import PBlock
from repro.utils.validation import check_positive

__all__ = [
    "CFOutcome",
    "CFPolicy",
    "FixedCF",
    "SweepCF",
    "MinimalCFPolicy",
    "FlowInfeasibleError",
]


class FlowInfeasibleError(RuntimeError):
    """A module could not be implemented under the policy.

    Attributes
    ----------
    attempted_cfs:
        Every CF the policy tried before giving up (diagnostic payload
        for :class:`~repro.flow.preimpl.FlowInfeasibleReport`).
    n_runs:
        Tool runs spent on the failed attempts; defaults to
        ``len(attempted_cfs)``.
    """

    def __init__(
        self,
        message: str,
        *,
        attempted_cfs: tuple[float, ...] = (),
        n_runs: int | None = None,
    ) -> None:
        super().__init__(message)
        self.attempted_cfs = tuple(attempted_cfs)
        self.n_runs = len(self.attempted_cfs) if n_runs is None else n_runs


def _swept_cfs(start: float, step: float, max_cf: float) -> tuple[float, ...]:
    """The CF ladder an upward sweep visits (for failure diagnostics)."""
    cfs: list[float] = []
    cf = start
    while cf <= max_cf + 1e-9:
        cfs.append(round(cf, 10))
        cf = round(cf + step, 10)
    return tuple(cfs)


@dataclass(frozen=True)
class CFOutcome:
    """Result of CF selection for one module.

    Attributes
    ----------
    cf:
        The CF the module was finally implemented with.
    n_runs:
        Place-and-route attempts spent (the paper's "tool runs").
    pblock, result:
        The accepted PBlock and packing result.
    predicted_cf:
        The policy's initial guess (equals ``cf`` for constant policies).
    """

    cf: float
    n_runs: int
    pblock: PBlock
    result: PackResult
    predicted_cf: float


class CFPolicy(abc.ABC):
    """Interface: pick a CF for a module on a device."""

    @abc.abstractmethod
    def choose(
        self, stats: NetlistStats, report: ShapeReport, grid: DeviceGrid
    ) -> CFOutcome:
        """Implement the module; raises :class:`FlowInfeasibleError` on failure."""

    def fingerprint(self) -> str:
        """Stable identity of the policy and its parameters.

        The pre-implementation cache keys entries on this string, so two
        policies with the same fingerprint must produce identical
        :class:`CFOutcome` objects for any module.  The default renders
        the class name plus all dataclass init fields; policies with
        trained state (see :class:`~repro.estimator.strategy.EstimatedCF`)
        override it to hash their weights.
        """
        import dataclasses

        name = type(self).__qualname__
        if dataclasses.is_dataclass(self):
            parts = ",".join(
                f"{f.name}={getattr(self, f.name)!r}"
                for f in dataclasses.fields(self)
                if f.init
            )
            return f"{name}({parts})"
        return name


@dataclass
class FixedCF(CFPolicy):
    """A single constant CF (the paper's CF = 1.5 / 1.68 setups)."""

    cf: float

    def __post_init__(self) -> None:
        check_positive(self.cf, "cf")

    def choose(
        self, stats: NetlistStats, report: ShapeReport, grid: DeviceGrid
    ) -> CFOutcome:
        pb, res = _attempt(stats, report, self.cf, grid)
        if pb is None or not res.feasible:
            raise FlowInfeasibleError(
                f"{stats.name}: infeasible at constant cf={self.cf} ({res.reason})",
                attempted_cfs=(self.cf,),
            )
        return CFOutcome(
            cf=self.cf, n_runs=1, pblock=pb, result=res, predicted_cf=self.cf
        )


@dataclass
class SweepCF(CFPolicy):
    """Start low and sweep upward (the paper's constant CF = 0.9 baseline).

    Every attempt is a tool run; this is the expensive-but-compact
    reference the estimator is measured against (§VIII: 1.8x more runs).
    """

    start: float = 0.9
    step: float = 0.02
    max_cf: float = 2.5

    def choose(
        self, stats: NetlistStats, report: ShapeReport, grid: DeviceGrid
    ) -> CFOutcome:
        try:
            found = minimal_cf(
                stats,
                grid,
                start=self.start,
                step=self.step,
                max_cf=self.max_cf,
                report=report,
            )
        except InfeasibleModuleError as exc:
            raise FlowInfeasibleError(
                str(exc),
                attempted_cfs=_swept_cfs(self.start, self.step, self.max_cf),
            ) from exc
        return CFOutcome(
            cf=found.cf,
            n_runs=found.n_runs,
            pblock=found.pblock,
            result=found.result,
            predicted_cf=self.start,
        )


@dataclass
class MinimalCFPolicy(CFPolicy):
    """Ground-truth minimal CF (oracle; used for Fig. 4/5c).

    Searches downward too, so BRAM-driven modules reach their true
    minimum; the run count reflects the full sweep.
    """

    step: float = 0.02
    max_cf: float = 2.5

    def choose(
        self, stats: NetlistStats, report: ShapeReport, grid: DeviceGrid
    ) -> CFOutcome:
        try:
            found = minimal_cf(
                stats,
                grid,
                step=self.step,
                max_cf=self.max_cf,
                search_down=True,
                report=report,
            )
        except InfeasibleModuleError as exc:
            raise FlowInfeasibleError(
                str(exc),
                attempted_cfs=_swept_cfs(DEFAULT_START, self.step, self.max_cf),
            ) from exc
        return CFOutcome(
            cf=found.cf,
            n_runs=found.n_runs,
            pblock=found.pblock,
            result=found.result,
            predicted_cf=found.cf,
        )
