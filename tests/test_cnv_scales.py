"""Guard tests of the pinned cnvW1A1 and tfcW1A1 block scales.

``repro.cnv.design._SCALES`` and ``repro.cnv.tfc._TFC_SCALES`` pin what
:func:`~repro.cnv.design.calibrate_scale` returns for every unique
module, so building a design runs no synthesis.  The recompute below is
the one place the bisection still runs (about 1.5 s on a 2-vCPU host);
when it fails, paste the dict its message prints over the drifted table.
"""

import hashlib
import json
import subprocess
import sys

import pytest

from repro.cnv import design, tfc
from repro.cnv.design import calibrate_scale, cnv_design
from repro.cnv.partition import block_inventory
from repro.cnv.tfc import tfc_design, tfc_inventory
from repro.flow.design_io import design_to_dict

TABLES = {
    "_SCALES": (block_inventory, design._SCALES),
    "_TFC_SCALES": (tfc_inventory, tfc._TFC_SCALES),
}

#: The bracket of calibrate_scale's bisection.
FLOOR, CEILING = 0.02, 60.0
#: Modules whose builders overshoot their budget even at the floor.
AT_FLOOR = {"thres_b", "dma_out", "tfc_dma_in", "tfc_thres", "tfc_dma_out"}


def _literal(name: str, scales: dict[str, float]) -> str:
    rows = "".join(f'    "{module}": {scale!r},\n' for module, scale in scales.items())
    return f"{name}: dict[str, float] = {{\n{rows}}}\n"


def _digest(d) -> str:
    return hashlib.sha256(json.dumps(design_to_dict(d), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(TABLES))
def test_pinned_scales_match_the_bisection(name):
    inventory, table = TABLES[name]
    fresh = {spec.module: calibrate_scale(spec) for spec in inventory()}
    assert list(table.items()) == list(fresh.items()), (
        f"{name} no longer matches calibrate_scale; paste this in its place:\n"
        + _literal(name, fresh)
    )


def test_no_pinned_scale_at_the_ceiling():
    scales = {**design._SCALES, **tfc._TFC_SCALES}
    # A scale at the ceiling means the builder cannot reach its budget.
    assert [m for m, s in scales.items() if s >= CEILING] == []
    assert {m for m, s in scales.items() if s <= FLOOR} == AT_FLOOR


_NO_SYNTH = """
import hashlib, json, sys
import repro.synth.mapper as mapper

real = mapper.synthesize


def synthesize(*args, **kwargs):
    raise AssertionError("synthesize called while building a design")


for module in list(sys.modules.values()):
    if getattr(module, "synthesize", None) is real:
        module.synthesize = synthesize
assert "repro.cnv" not in sys.modules
from repro.cnv import cnv_design, design, tfc_design
from repro.flow.design_io import design_to_dict

assert design.synthesize is synthesize
print(json.dumps({
    d.name: hashlib.sha256(json.dumps(design_to_dict(d), sort_keys=True).encode()).hexdigest()
    for d in (cnv_design(), tfc_design())
}))
"""


def test_designs_build_without_synthesis():
    out = subprocess.run(
        [sys.executable, "-c", _NO_SYNTH], capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    digests = json.loads(out.stdout.strip().splitlines()[-1])
    assert digests == {d.name: _digest(d) for d in (cnv_design(), tfc_design())}
