"""Longest-path estimation after intra-PBlock routing.

Delay model (7-series-flavoured constants):

* each LUT level costs a logic delay plus one net hop;
* net hops slow down super-linearly with slice utilization — the packer's
  congestion ceiling rejects unroutable placements, and this model makes
  the *routable but tight* region slower (Table I: CF 1.0 vs 1.5);
* the longest carry chain adds its propagation time;
* high-fanout nets add a distribution penalty;
* PBlocks spanning a clock-region boundary pay skew (paper §IV: compact
  PBlocks avoid clock distribution columns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.netlist.stats import NetlistStats
from repro.place.packer import PackResult
from repro.pblock.pblock import PBlock
from repro.utils.rng import module_noise

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flow.blockdesign import BlockDesign
    from repro.place.shapes import Footprint
    from repro.place_kernel.result import StitchResult

__all__ = [
    "DEFAULT_NODE_DELAY_NS",
    "NET_DELAY_NS",
    "NS_PER_CLB",
    "BlockTimingReport",
    "TimingReport",
    "block_critical_path",
    "dag_longest_paths",
    "longest_path",
]

_T_LUT = 0.124  # ns, LUT6 logic delay
_T_NET = 0.45  # ns, lightly-loaded net hop
_T_CARRY_PER_SLICE = 0.043  # ns per CARRY4 segment
_T_FANOUT = 0.35  # ns scale of the fanout penalty
_T_REGION_CROSS = 0.30  # ns clock-skew penalty
_CONGESTION_GAIN = 1.9  # net-delay inflation at full utilization

#: Distance-proportional inter-block net delay per CLB of Manhattan
#: center distance (ns).
NS_PER_CLB = 0.0625
#: Nominal inter-block net hop (the lightly-loaded hop above).
NET_DELAY_NS = _T_NET
#: Node delay assumed for modules absent from the delay mapping.
DEFAULT_NODE_DELAY_NS = 1.0


@dataclass(frozen=True)
class TimingReport:
    """Longest-path breakdown for one placed module (all values ns)."""

    logic_ns: float
    net_ns: float
    carry_ns: float
    fanout_ns: float
    skew_ns: float

    @property
    def total_ns(self) -> float:
        """The longest path."""
        return self.logic_ns + self.net_ns + self.carry_ns + self.fanout_ns + self.skew_ns


def longest_path(
    stats: NetlistStats, result: PackResult, pblock: PBlock
) -> TimingReport:
    """Estimate the longest path of a feasible placement.

    Raises
    ------
    ValueError
        If ``result`` is infeasible (there is no routed design to time).
    """
    if not result.feasible:
        raise ValueError(f"{stats.name}: cannot time an infeasible placement")

    levels = max(1, stats.logic_depth)
    util = result.utilization
    # Net delay grows quadratically once utilization passes ~50%.
    congestion = 1.0 + _CONGESTION_GAIN * max(0.0, util - 0.5) ** 2
    # Wires also lengthen with the physical extent of the region.
    span = math.sqrt(max(1, pblock.area_clbs))
    spread = 1.0 + 0.012 * span
    jitter = 1.0 + module_noise(stats.name, "timing", -0.03, 0.03)

    net_ns = levels * _T_NET * congestion * spread * jitter
    logic_ns = levels * _T_LUT
    carry_ns = stats.max_chain_slices * _T_CARRY_PER_SLICE
    fanout_ns = _T_FANOUT * math.log10(max(1, stats.max_fanout))
    skew_ns = _T_REGION_CROSS if pblock.crosses_region_boundary() else 0.0
    return TimingReport(
        logic_ns=logic_ns,
        net_ns=net_ns,
        carry_ns=carry_ns,
        fanout_ns=fanout_ns,
        skew_ns=skew_ns,
    )


@dataclass(frozen=True)
class BlockTimingReport:
    """Design-level critical path over the stitched block graph.

    The block graph's node delays are the per-module intra-block longest
    paths (:attr:`TimingReport.total_ns`); each inter-block net adds a
    nominal hop plus a distance-proportional share (:data:`NS_PER_CLB`
    per CLB of Manhattan center distance).  A post-hoc score of a
    finished placement; no placer optimizes it.

    Attributes
    ----------
    critical_path_ns:
        Longest register-to-register path over the placed block graph.
    path:
        Instance names along the critical path, source to sink.
    n_cyclic_edges:
        Design edges on directed cycles, excluded from the longest-path
        analysis.
    n_unplaced_edges:
        Edges with an unplaced endpoint; they contribute the nominal hop
        delay but no distance share.
    """

    critical_path_ns: float
    path: tuple[str, ...]
    n_cyclic_edges: int
    n_unplaced_edges: int


def dag_longest_paths(
    n: int,
    edges: Sequence[tuple[int, int, int]],
    node_delay: Sequence[float],
    edge_delay: Sequence[float],
) -> tuple[list[float], list[int], list[bool]]:
    """Longest arrival path delays over the acyclic part of a graph.

    Returns ``(arrival, pred, cyclic)``:

    * ``arrival[v]`` — the longest path delay *ending* at ``v``
      (inclusive of ``node_delay[v]``);
    * ``pred[v]`` — the in-edge index achieving ``arrival[v]``
      (``-1`` for path sources), for critical-path extraction;
    * ``cyclic[e]`` — ``True`` for self-loops and edges with an endpoint
      on a directed cycle; such edges are excluded from the analysis
      (Kahn's algorithm leaves their endpoints unordered).

    Deterministic: nodes enter the topological order in index order and
    ties in the relaxation break toward the earlier edge.
    """
    outs: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for ei, e in enumerate(edges):
        a, b = e[0], e[1]
        if a == b:
            continue
        outs[a].append(ei)
        indeg[b] += 1
    order = [v for v in range(n) if indeg[v] == 0]
    deg = list(indeg)
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for ei in outs[v]:
            b = edges[ei][1]
            deg[b] -= 1
            if deg[b] == 0:
                order.append(b)
    on_dag = [False] * n
    for v in order:
        on_dag[v] = True
    cyclic = [
        e[0] == e[1] or not on_dag[e[0]] or not on_dag[e[1]] for e in edges
    ]
    arrival = [float(node_delay[v]) for v in range(n)]
    pred = [-1] * n
    for v in order:
        for ei in outs[v]:
            if cyclic[ei]:
                continue
            b = edges[ei][1]
            cand = arrival[v] + edge_delay[ei] + node_delay[b]
            if cand > arrival[b]:
                arrival[b] = cand
                pred[b] = ei
    return arrival, pred, cyclic


def block_critical_path(
    design: "BlockDesign",
    footprints: Mapping[str, "Footprint"],
    stitch: "StitchResult",
    module_delays: Mapping[str, float] | None = None,
) -> BlockTimingReport:
    """Critical path of a stitched design with placement-aware net delays.

    ``module_delays`` maps module names to intra-block delays in ns (the
    flow seeds it from each pre-implemented module's
    :attr:`TimingReport.total_ns`); absent modules fall back to
    :data:`DEFAULT_NODE_DELAY_NS`.
    Instances whose module has no footprint are treated as unplaced.
    """
    delays_of = module_delays or {}
    names = [i.name for i in design.instances]
    index = {n: k for k, n in enumerate(names)}
    node_delay = [
        float(delays_of.get(i.module, DEFAULT_NODE_DELAY_NS))
        for i in design.instances
    ]
    centers: dict[str, tuple[float, float]] = {}
    for inst in design.instances:
        pos = stitch.placements.get(inst.name)
        fp = footprints.get(inst.module)
        if pos is None or fp is None:
            continue
        fp = fp.trimmed()
        centers[inst.name] = (
            pos[0] + fp.width / 2.0,
            pos[1] + fp.max_height / 2.0,
        )

    edges = [(index[e.src], index[e.dst], e.width) for e in design.edges]
    edge_delay = []
    unplaced = 0
    for e in design.edges:
        a = centers.get(e.src)
        b = centers.get(e.dst)
        if a is None or b is None:
            unplaced += 1
            edge_delay.append(NET_DELAY_NS)
        else:
            dist = abs(a[0] - b[0]) + abs(a[1] - b[1])
            edge_delay.append(NET_DELAY_NS + NS_PER_CLB * dist)

    n = len(names)
    if n == 0:
        return BlockTimingReport(0.0, (), 0, 0)
    arrival, pred, cyclic = dag_longest_paths(
        n, edges, node_delay, edge_delay
    )
    sink = max(range(n), key=lambda v: (arrival[v], -v))
    path = [names[sink]]
    v = sink
    while pred[v] != -1:
        v = edges[pred[v]][0]
        path.append(names[v])
    return BlockTimingReport(
        critical_path_ns=float(arrival[sink]),
        path=tuple(reversed(path)),
        n_cyclic_edges=sum(cyclic),
        n_unplaced_edges=unplaced,
    )
