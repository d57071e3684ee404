"""Shared fixtures.

Expensive artifacts (device grids, the cnvW1A1 design, a small labeled
dataset) are session-scoped; everything is deterministic, so caching is
safe.

Every test also runs under :func:`span_contract`, which checks each
trace the test records against ``docs/span_contract.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.device.column import ColumnKind
from repro.device.grid import DeviceGrid
from repro.device.parts import xc7z020, xc7z045
from repro.obs.tracer import Tracer

SPAN_CONTRACT_PATH = Path(__file__).resolve().parent.parent / "docs" / "span_contract.json"


class SpanContractCheck:
    """The :class:`Tracer` objects built during one test, and their check.

    The contract maps each parent span to the children it may directly
    contain and lists the spans that may open with no parent.  A
    contract span directly under another contract span must be one of
    its listed children, and a contract span with no parent must be a
    listed root; names outside the contract are not checked.  The root
    of a worker-local tracer (``preimpl.module``, ``dataset.module``)
    is not a root of the run once its tree has been grafted into
    another tracer: the grafted copy is checked where it landed.
    """

    def __init__(self, contract: dict) -> None:
        self.roots = frozenset(contract["roots"])
        self.tree = {
            parent: frozenset(children)
            for parent, children in contract["tree"].items()
        }
        self.known = self.roots.union(self.tree, *self.tree.values())
        self.tracers: list[Tracer] = []
        self.grafted: list[dict] = []

    def violations(self) -> list[str]:
        found = []
        for tracer in self.tracers:
            for root in tracer.roots:
                if (
                    root.name in self.known
                    and root.name not in self.roots
                    and root.to_json_dict() not in self.grafted
                ):
                    found.append(f"`{root.name}` opened with no parent")
                for _depth, span in root.walk():
                    if span.name not in self.known:
                        continue
                    allowed = self.tree.get(span.name, frozenset())
                    for child in span.children:
                        if child.name in self.known and child.name not in allowed:
                            found.append(
                                f"`{child.name}` opened under `{span.name}`"
                            )
        return found


@pytest.fixture(autouse=True)
def span_contract(monkeypatch: pytest.MonkeyPatch):
    """Record every tracer the test builds; fail if a trace breaks the contract.

    An untraced call builds no tracer, so only traced calls are checked.
    """
    check = SpanContractCheck(json.loads(SPAN_CONTRACT_PATH.read_text(encoding="utf-8")))
    init, graft = Tracer.__init__, Tracer.graft

    def recording_init(self: Tracer, *args, **kwargs) -> None:
        init(self, *args, **kwargs)
        check.tracers.append(self)

    def recording_graft(self: Tracer, data: dict | None) -> None:
        if data is not None:
            check.grafted.append(data)
        graft(self, data)

    monkeypatch.setattr(Tracer, "__init__", recording_init)
    monkeypatch.setattr(Tracer, "graft", recording_graft)
    yield check
    violations = check.violations()
    if violations:
        pytest.fail(
            f"trace breaks {SPAN_CONTRACT_PATH.name}: "
            + "; ".join(sorted(set(violations))),
            pytrace=False,
        )


@pytest.fixture(scope="session")
def z020() -> DeviceGrid:
    return xc7z020()


@pytest.fixture(scope="session")
def z045() -> DeviceGrid:
    return xc7z045()


@pytest.fixture(scope="session")
def tiny_grid() -> DeviceGrid:
    """A small single-region device for fast geometric tests."""
    kinds = [
        ColumnKind.CLBLL,
        ColumnKind.CLBLM,
        ColumnKind.CLBLL,
        ColumnKind.BRAM,
        ColumnKind.CLBLM,
        ColumnKind.CLOCK,
        ColumnKind.CLBLL,
        ColumnKind.DSP,
        ColumnKind.CLBLM,
        ColumnKind.CLBLL,
    ]
    return DeviceGrid.from_kinds("tiny", kinds, n_regions=1)


@pytest.fixture(scope="session")
def small_dataset():
    """A small labeled dataset shared by feature/ML/estimator tests."""
    from repro.dataset.generate import generate_dataset

    records, report = generate_dataset(120, seed=11)
    assert report.n_labeled > 60
    return records


@pytest.fixture(scope="session")
def cnv_stats():
    """Per-module stats of the cnvW1A1 design (built once)."""
    from repro.cnv.design import cnv_module_stats

    return cnv_module_stats()


@pytest.fixture(scope="session")
def cnv():
    """The full cnvW1A1 block design."""
    from repro.cnv.design import cnv_design

    return cnv_design()


@pytest.fixture(scope="session")
def cli_placers():
    """Build the five placers ``repro place --placer`` names, keyed by
    name, for a move budget and a seed, the way the CLI builds them."""
    from dataclasses import replace

    from repro.flow.global_place import GPParams
    from repro.flow.placers import default_portfolio
    from repro.flow.stitcher import SAParams

    def build(budget: int, seed: int) -> dict:
        portfolio = default_portfolio(SAParams(max_iters=budget, seed=seed))
        placers = {p.name: p for p in portfolio}
        placers["gp+sa"] = replace(placers["gp+sa"], gp_params=GPParams(seed=seed))
        return placers

    return build
