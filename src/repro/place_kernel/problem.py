"""The placement problem instance shared by every optimizer.

``PlacementProblem.from_design`` flattens a
:class:`~repro.flow.blockdesign.BlockDesign` plus per-module footprints
into the index-based arrays the move kernels consume: instance names,
trimmed footprints, integer edge triples and same-module swap groups.
Building it once and handing it to any optimizer guarantees the SA
stitcher and the GA evolver score the *same* problem — same footprint
trimming, same edge order, same swap groups — so their costs are
directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.device.grid import DeviceGrid
from repro.place.shapes import Footprint
from repro.place_kernel.kernel import FastKernel

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a flow cycle
    from repro.flow.blockdesign import BlockDesign

__all__ = ["PlacementProblem"]


@dataclass(frozen=True)
class PlacementProblem:
    """One flattened block-placement instance.

    Attributes
    ----------
    grid:
        Target device.
    names:
        Instance names, in design order (the kernel's index space).
    footprints:
        Trimmed per-instance footprints (``footprints[i]`` goes with
        ``names[i]``; instances of one module share the same object).
    edges:
        ``(src_index, dst_index, width)`` triples in design edge order.
    swappable:
        Same-module instance-index groups of size >= 2 (the swap move's
        candidate pool), in first-instance order.
    """

    grid: DeviceGrid
    names: tuple[str, ...]
    footprints: tuple[Footprint, ...]
    edges: tuple[tuple[int, int, int], ...]
    swappable: tuple[tuple[int, ...], ...]

    @classmethod
    def from_design(
        cls,
        design: "BlockDesign",
        footprints: Mapping[str, Footprint],
        grid: DeviceGrid,
    ) -> "PlacementProblem":
        """Validate and flatten ``design`` against ``footprints``.

        Raises ``KeyError`` when a module of the design has no footprint
        (the pre-implementation step failed or was skipped).
        """
        design.validate()
        modules = {i.module for i in design.instances}
        missing = modules - set(footprints)
        if missing:
            raise KeyError(f"missing footprints for modules: {sorted(missing)}")

        names = [i.name for i in design.instances]
        index = {n: k for k, n in enumerate(names)}
        trimmed = {m: footprints[m].trimmed() for m in modules}
        fps = [trimmed[i.module] for i in design.instances]
        edges = [(index[e.src], index[e.dst], e.width) for e in design.edges]
        groups: dict[str, list[int]] = {}
        for k, inst in enumerate(design.instances):
            groups.setdefault(inst.module, []).append(k)
        swappable = [tuple(g) for g in groups.values() if len(g) > 1]
        return cls(
            grid=grid,
            names=tuple(names),
            footprints=tuple(fps),
            edges=tuple(edges),
            swappable=tuple(swappable),
        )

    @property
    def n(self) -> int:
        """Number of instances."""
        return len(self.names)

    def make_kernel(self, unplaced_weight: float) -> FastKernel:
        """A fresh move kernel over this problem."""
        return FastKernel(
            self.grid,
            list(self.names),
            list(self.footprints),
            list(self.edges),
            unplaced_weight,
        )
