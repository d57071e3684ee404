"""The runtime span contract.

The autouse ``span_contract`` fixture (``tests/conftest.py``) checks
every trace a test records against ``docs/span_contract.json``.  These
tests pin what that check rejects and what it lets through; a test that
builds a bad trace on purpose drops its tracer afterwards so its own
teardown check passes.
"""

from __future__ import annotations

from repro.obs.tracer import Tracer


def test_contract_child_under_forbidden_contract_parent_fails(span_contract):
    tr = Tracer()
    with tr.span("evolve"), tr.span("stitch.anneal"):
        pass
    assert span_contract.violations() == ["`stitch.anneal` opened under `evolve`"]
    span_contract.tracers.remove(tr)


def test_contract_span_opened_as_unlisted_root_fails(span_contract):
    tr = Tracer()
    with tr.span("stitch.anneal"):
        pass
    assert span_contract.violations() == ["`stitch.anneal` opened with no parent"]
    span_contract.tracers.remove(tr)


def test_allowed_nesting_and_names_outside_the_contract_pass(span_contract):
    tr = Tracer()
    with tr.span("flow"), tr.span("stitch"), tr.span("stitch.anneal"):
        pass
    # Neither a non-contract parent nor a non-contract child is checked.
    with tr.span("bench.outer"), tr.span("stitch.anneal"):
        pass
    with tr.span("stitch"), tr.span("bench.inner"):
        pass
    assert span_contract.violations() == []


def test_grafted_worker_root_is_not_a_root(span_contract):
    worker = Tracer()
    with worker.span("preimpl.module", module="m0"):
        pass
    parent = Tracer()
    with parent.span("preimpl"), parent.span("preimpl.implement"):
        parent.graft(worker.roots[0].to_json_dict())
    assert span_contract.violations() == []
    # The same worker root, never grafted, is an unlisted root.
    orphan = Tracer()
    with orphan.span("preimpl.module", module="m1"):
        pass
    assert span_contract.violations() == ["`preimpl.module` opened with no parent"]
    span_contract.tracers.remove(orphan)
