"""The reference move kernel: the spec :class:`FastKernel` must match.

:class:`ReferenceKernel` implements the primitives of
:class:`~repro.place_kernel.kernel.PlacementKernel` the straightforward
way: numpy occupancy slicing, a lift/probe/put-back relocation probe, a
row walk for the legalizer's nearest fit and per-edge Python sums for
the wirelength.
Its batch loop is the generic one, one per-call move per operation:
the shared base class's ``try_move``, or this module's :func:`try_place`
and :func:`try_swap`, functions over the kernel primitives that any
kernel (the fast one included) can run.  The fast kernel's fused loop
inlines all three.  For a fixed seed the fast kernel
must reproduce this one bit for bit: the same placements, costs,
history, counters and stream position.  The
equivalence tests, the ``[reference-*]`` goldens and the fast-versus-
reference benchmark compare against this module; nothing in ``src/``
imports it.

:func:`reference_kernel` runs the unchanged placers (``stitch``,
``evolve``, ``temper``, ``global_place``) on the oracle: for the length
of its body, :meth:`PlacementProblem.make_kernel` builds a
:class:`ReferenceKernel`.  It is a context manager rather than a
fixture so hypothesis ``@given`` tests can enter it per example.  The
patch reaches only this process: run oracle placements serially.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from typing import ContextManager, Iterator
from unittest import mock

import numpy as np

from repro.place_kernel.kernel import PLACE_PROBES, PlacementKernel
from repro.place_kernel.problem import PlacementProblem
from repro.place_kernel.uniform import UniformBuffer

__all__ = [
    "KERNELS",
    "ReferenceKernel",
    "build",
    "kernel",
    "reference_kernel",
    "try_place",
    "try_swap",
]

#: Kernel names the equivalence tests parametrize over.
KERNELS = ("fast", "reference")


def try_place(k: PlacementKernel, i: int, u: UniformBuffer) -> float:
    """Attempt to place the unplaced instance ``i`` (always beneficial).

    Probes :data:`PLACE_PROBES` random sites and takes the first that
    fits; returns the accepted cost delta.  When ``i``'s footprint is
    known to fit nowhere, the attempt skips the probes' draws and counts
    their misses instead of probing: the stream and the counters end as
    the probes would leave them.
    """
    k.place_attempts += 1
    xs = k.anchors_x[i]
    if not xs or k.y_max[i] < 0:
        return 0.0
    if k.fits_nowhere(i):
        u.skip(2 * PLACE_PROBES)
        k.illegal += PLACE_PROBES
        return 0.0
    n_x = len(xs)
    n_y = k.n_y[i]
    step = k.y_step[i]
    for _ in range(PLACE_PROBES):
        x = xs[u.index(n_x)]
        y = u.index(n_y) * step
        if k.fits(i, x, y):
            k.set_pos(i, (x, y))
            k.paint(i, x, y, +1)
            k.place_accepts += 1
            return k.incident_cost(i) - k.unplaced_weight * k.areas[i]
        k.illegal += 1
    k.check_fits_nowhere(i)
    return 0.0


def try_swap(
    k: PlacementKernel, i: int, j: int, temp: float, u: UniformBuffer
) -> float:
    """Swap two placed instances with identical footprints; returns the
    accepted cost delta."""
    k.swap_attempts += 1
    pi, pj = k.pos[i], k.pos[j]
    if pi is None or pj is None or pi == pj:
        return 0.0
    before = k.incident_cost(i) + k.incident_cost(j)
    k.set_pos(i, pj)
    k.set_pos(j, pi)
    after = k.incident_cost(i) + k.incident_cost(j)
    delta = after - before
    if delta <= 0 or u.next() < math.exp(-delta / max(temp, 1e-9)):
        k.swap_accepts += 1
        return delta  # identical footprints: occupancy is unchanged
    k.set_pos(i, pi)
    k.set_pos(j, pj)
    return 0.0


class ReferenceKernel(PlacementKernel):
    """The original straightforward primitives (executable specification).

    It keeps the base class's verdict hooks, which never know that a
    footprint fits nowhere, so it probes every place attempt and scans
    every instance that :class:`~repro.place_kernel.kernel.FastKernel`
    skips.
    """

    def __init__(self, grid, names, footprints, edges, unplaced_weight) -> None:
        super().__init__(grid, names, footprints, edges, unplaced_weight)
        # Incident edges per instance for O(deg) cost deltas.
        self.incident: list[list[int]] = [[] for _ in range(self.n)]
        for ei, (a, b, _w) in enumerate(edges):
            self.incident[a].append(ei)
            self.incident[b].append(ei)
        self.occ = np.zeros((grid.n_cols, grid.height_clbs), dtype=np.int16)
        self.heights = [self.tables[t].heights_arr for t in self.table_of]

    # ------------------------------------------------------------ geometry

    def fits(self, i: int, x: int, y: int) -> bool:
        hs = self.heights[i]
        occ = self.occ
        for c in range(hs.shape[0]):
            h = hs[c]
            if h and occ[x + c, y : y + h].any():
                return False
        return True

    def fits_moved(self, i: int, old: tuple[int, int], x: int, y: int) -> bool:
        """Lift ``i`` off ``old``, probe ``(x, y)``, put it back."""
        self.paint(i, old[0], old[1], -1)
        ok = self.fits(i, x, y)
        self.paint(i, old[0], old[1], +1)
        return ok

    def paint(self, i: int, x: int, y: int, delta: int) -> None:
        hs = self.heights[i]
        for c in range(hs.shape[0]):
            h = hs[c]
            if h:
                self.occ[x + c, y : y + h] += delta

    def lowest_fit_y(self, i: int, x: int, bound: int | None = None) -> int | None:
        for y in range(0, self.y_max[i] + 1, self.y_step[i]):
            if bound is not None and y >= bound:
                return None
            if self.fits(i, x, y):
                return y
        return None

    def nearest_fit_y(self, i: int, x: int, y_target: int) -> int | None:
        """Walk candidate rows outward from the snapped target on the
        footprint's anchor-row grid; distance ties go to the lower row."""
        y_max = self.y_max[i]
        if y_max < 0:
            return None
        step = self.y_step[i]
        t = min(max(y_target, 0), y_max)
        t -= t % step
        below, above = t, t + step
        while below >= 0 or above <= y_max:
            if below >= 0 and (above > y_max or t - below <= above - t):
                if self.fits(i, x, below):
                    return below
                below -= step
            else:
                if self.fits(i, x, above):
                    return above
                above += step
        return None

    def occupancy_array(self) -> np.ndarray:
        return self.occ.copy()

    # ------------------------------------------------------------ cost

    def center(self, i: int) -> tuple[float, float]:
        p = self.pos[i]
        assert p is not None
        fp = self.fps[i]
        return (p[0] + fp.width / 2.0, p[1] + fp.max_height / 2.0)

    def edge_cost(self, ei: int) -> float:
        a, b, w = self.edges[ei]
        if self.pos[a] is None or self.pos[b] is None:
            return 0.0
        ax, ay = self.center(a)
        bx, by = self.center(b)
        return w * (abs(ax - bx) + abs(ay - by))

    def incident_cost(self, i: int) -> float:
        return sum(self.edge_cost(ei) for ei in self.incident[i])

    def wirelength(self) -> float:
        return sum(self.edge_cost(ei) for ei in range(len(self.edges)))

    # ------------------------------------------------------------ batch

    def run_batch(
        self,
        swappable,
        placed_list,
        unplaced_list,
        steps,
        temp,
        p_place,
        p_swap,
        u,
        cost,
        best,
        snapshot=None,
    ):
        """The generic move loop: one ``try_*`` call per operation.

        The spec of :meth:`FastKernel.run_batch`, which inlines the same
        draws and decisions (see
        :meth:`~repro.place_kernel.kernel.PlacementKernel.run_batch` for
        the contract).
        """
        events: list[tuple[int, float]] = []
        p_either = p_place + p_swap
        draw = u.next
        index = u.index
        try_move = self.try_move
        pos = self.pos
        for op in range(1, steps + 1):
            r = draw()
            if unplaced_list and r < p_place:
                k = index(len(unplaced_list))
                i = unplaced_list[k]
                cost += try_place(self, i, u)
                if pos[i] is not None:
                    unplaced_list[k] = unplaced_list[-1]
                    unplaced_list.pop()
                    placed_list.append(i)
            elif swappable and r < p_either:
                g = swappable[index(len(swappable))]
                i = index(len(g))
                j = index(len(g) - 1)
                if j >= i:
                    j += 1
                cost += try_swap(self, g[i], g[j], temp, u)
            else:
                if not placed_list:
                    continue
                cost += try_move(placed_list[index(len(placed_list))], temp, u)
            if cost < best - 1e-9:
                best = cost
                events.append((op, best))
                if snapshot is not None:
                    snapshot[:] = [list(pos)]
        return cost, best, events


@contextmanager
def reference_kernel() -> Iterator[list[ReferenceKernel]]:
    """Every placement problem builds a :class:`ReferenceKernel` inside.

    Yields the kernels built so far, so a test can check that the
    placer it ran really reached the oracle.
    """
    built: list[ReferenceKernel] = []

    def make(problem: PlacementProblem, unplaced_weight: float) -> ReferenceKernel:
        k = ReferenceKernel(
            problem.grid,
            list(problem.names),
            list(problem.footprints),
            list(problem.edges),
            unplaced_weight,
        )
        built.append(k)
        return k

    with mock.patch.object(PlacementProblem, "make_kernel", make):
        yield built


def kernel(name: str) -> ContextManager[list]:
    """Run the body on kernel ``name`` (one of :data:`KERNELS`)."""
    if name not in KERNELS:
        raise ValueError(f"unknown kernel {name!r}; choose from {KERNELS}")
    return reference_kernel() if name == "reference" else nullcontext([])


def build(problem: PlacementProblem, name: str, unplaced_weight: float) -> PlacementKernel:
    """A fresh kernel ``name`` over ``problem``."""
    with kernel(name):
        return problem.make_kernel(unplaced_weight)
