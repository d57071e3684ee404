"""The ``Placer`` protocol: one contract for every placement optimizer.

Anything that turns (design, footprints, grid) into a
:class:`~repro.place_kernel.result.StitchResult` is a placer.  The SA
stitcher, the GA evolver, parallel tempering and the warm-started SA
pipeline (GA or analytic warm start) all satisfy it (see :mod:`repro.flow.placers`).  It is the one way the
flow chooses an optimizer: :func:`~repro.flow.rwflow.run_rw_flow`,
:func:`~repro.flow.restarts.place_best`, ``repro place`` and the
:class:`~repro.dse.explorer.DSEExplorer` portfolio, which keeps the
best placement per scenario, all take placers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Protocol, runtime_checkable

from repro.device.grid import DeviceGrid
from repro.place.shapes import Footprint
from repro.place_kernel.result import StitchResult

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a flow cycle
    from repro.flow.blockdesign import BlockDesign
    from repro.obs.tracer import NullTracer, Tracer

__all__ = ["Placer"]


@runtime_checkable
class Placer(Protocol):
    """A macro-placement optimizer.

    Implementations must be deterministic for a fixed configuration
    (seeded RNG, fixed iteration/generation counts, no wall-clock
    stopping) — the repo-wide reproducibility guarantee — and should
    honor ``tracer`` by recording their span tree into it.
    """

    #: Short optimizer name (``"sa"``, ``"ga"``, ``"warm-sa"``, ...) used
    #: in portfolio reports and span attributes.
    name: str

    def place(
        self,
        design: "BlockDesign",
        footprints: Mapping[str, Footprint],
        grid: DeviceGrid,
        *,
        tracer: "Tracer | NullTracer | None" = None,
    ) -> StitchResult:
        """Place all instances of ``design`` on ``grid``."""
        ...
