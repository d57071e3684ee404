"""Graph analysis of block designs.

Structural diagnostics a frontend wants before compiling: connectivity,
dataflow layering (pipeline stages), cut size between stages, and the
reuse profile that makes a design a good fit for a pre-implemented-block
flow (the paper's §III argument for partition granularity).

The graph is small (cnvW1A1 has 175 instances), so plain Python serves:
union-find counts the weak components, and Kahn's topological
generations give the DAG check, the pipeline depth and the layers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.flow.blockdesign import BlockDesign

__all__ = ["DesignGraphStats", "analyze_design", "edge_widths"]


def edge_widths(design: BlockDesign) -> dict[tuple[str, str], int]:
    """The instance-connectivity edges: ``(src, dst)`` to the summed width
    of every bus between the two (parallel buses merge)."""
    widths: dict[tuple[str, str], int] = {}
    for e in design.edges:
        widths[(e.src, e.dst)] = widths.get((e.src, e.dst), 0) + e.width
    return widths


def _n_weak_components(nodes: list[str], edges: list[tuple[str, str]]) -> int:
    """Connected components ignoring edge direction (union-find)."""
    parent = {v: v for v in nodes}

    def root(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    n = len(parent)
    for u, v in edges:
        ru, rv = root(u), root(v)
        if ru != rv:
            parent[ru] = rv
            n -= 1
    return n


def _generations(
    nodes: list[str], edges: list[tuple[str, str]]
) -> list[list[str]] | None:
    """Kahn's topological generations, or ``None`` if there is a cycle.

    Generation ``i`` holds the nodes whose longest incoming path has
    ``i`` edges.
    """
    succ: dict[str, list[str]] = {v: [] for v in nodes}
    indegree = dict.fromkeys(nodes, 0)
    for u, v in edges:
        succ[u].append(v)
        indegree[v] += 1
    layer = [v for v in nodes if indegree[v] == 0]
    layers: list[list[str]] = []
    while layer:
        layers.append(layer)
        nxt = []
        for u in layer:
            for v in succ[u]:
                indegree[v] -= 1
                if indegree[v] == 0:
                    nxt.append(v)
        layer = nxt
    if sum(len(g) for g in layers) < len(nodes):
        return None  # the nodes on or behind a cycle never free up
    return layers


@dataclass(frozen=True)
class DesignGraphStats:
    """Structural summary of one block design.

    Attributes
    ----------
    n_components:
        Weakly connected components (a compilable design has 1).
    is_dag:
        Whether the dataflow is acyclic (streaming NN pipelines are).
    depth:
        Longest path length in instances (pipeline depth), or -1 for
        cyclic designs.
    max_fan_out:
        Largest out-degree (broadcast pressure on the stitcher).
    reuse_ratio:
        ``instances / unique modules`` — the quantity RW-style flows
        monetize (cnvW1A1: 175/74 ≈ 2.36).
    max_cut_width:
        Largest total bus width crossing any topological layer boundary
        (an upper bound on the inter-stage routing demand).
    """

    n_components: int
    is_dag: bool
    depth: int
    max_fan_out: int
    reuse_ratio: float
    max_cut_width: int

    def render(self) -> str:
        return (
            f"components={self.n_components} dag={self.is_dag} "
            f"depth={self.depth} max_fanout={self.max_fan_out} "
            f"reuse={self.reuse_ratio:.2f} max_cut={self.max_cut_width}"
        )


def analyze_design(design: BlockDesign) -> DesignGraphStats:
    """Compute structural diagnostics for ``design``."""
    design.validate()
    nodes = [inst.name for inst in design.instances]
    widths = edge_widths(design)
    edges = list(widths)
    layers = _generations(nodes, edges)
    is_dag = layers is not None

    depth = -1
    max_cut = 0
    if layers:
        depth = len(layers) - 1  # hops, not bits
        # Measure the bus width crossing each layer boundary.
        layer_of = {v: i for i, layer in enumerate(layers) for v in layer}
        cuts = [0] * len(layers)
        for (u, v), width in widths.items():
            for boundary in range(layer_of[u], layer_of[v]):
                cuts[boundary] += width
        max_cut = max(cuts)

    fan_out = Counter(u for u, _ in edges)
    reuse = design.n_instances / design.n_unique if design.n_unique else 0.0
    return DesignGraphStats(
        n_components=_n_weak_components(nodes, edges),
        is_dag=is_dag,
        depth=depth,
        max_fan_out=max(fan_out.values(), default=0),
        reuse_ratio=reuse,
        max_cut_width=max_cut,
    )
