"""Shared placement kernel: geometry, cost and legality for macro placers.

Extracted from ``repro.flow.stitcher`` so that every placement
optimizer — the SA stitcher, the GA evolver, and whatever comes next —
drives the *same* primitives:

* :mod:`repro.place_kernel.sites` — per-footprint compatible-site
  tables (anchor columns, hard-block pitch, occupancy bitmasks);
* :mod:`repro.place_kernel.kernel` — the bitmask move kernel with
  its fused batch loop and move, packing and HPWL primitives, tested
  bit for bit against the reference kernel in
  ``tests/kernel_oracle.py``;
* :mod:`repro.place_kernel.uniform` — the batched uniform stream all
  optimizer randomness flows through;
* :mod:`repro.place_kernel.problem` — the flattened
  :class:`PlacementProblem` instance both optimizers score;
* :mod:`repro.place_kernel.result` — the shared
  :class:`StitchResult`/:class:`StitchStats` outcome shape, and
  :func:`~repro.place_kernel.result.finish`, which every placer ends
  its run through;
* :mod:`repro.place_kernel.protocol` — the :class:`Placer` protocol the
  optimizer portfolio is built on.

Invariants (no overlap, in-bounds anchors, column-kind compatibility,
hard-block pitch) are enforced across optimizers by
``tests/test_place_kernel.py``.
"""

from repro.place_kernel.kernel import PLACE_PROBES, FastKernel, PlacementKernel
from repro.place_kernel.problem import PlacementProblem
from repro.place_kernel.protocol import Placer
from repro.place_kernel.result import StitchResult, StitchStats
from repro.place_kernel.sites import (
    HARD_KINDS,
    HARD_PITCH,
    SiteTable,
    column_capacities,
    site_table,
)
from repro.place_kernel.uniform import UniformBuffer

__all__ = [
    "HARD_KINDS",
    "HARD_PITCH",
    "PLACE_PROBES",
    "FastKernel",
    "Placer",
    "PlacementKernel",
    "PlacementProblem",
    "SiteTable",
    "StitchResult",
    "StitchStats",
    "UniformBuffer",
    "column_capacities",
    "site_table",
]
