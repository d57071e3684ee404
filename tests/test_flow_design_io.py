"""Tests for block-design serialization and graph analysis."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.flow.analysis_graph import analyze_design, edge_widths
from repro.flow.blockdesign import BlockDesign
from repro.flow.design_io import (
    design_from_dict,
    design_to_dict,
    load_design,
    save_design,
)
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import (
    DistributedMemory,
    RandomLogicCloud,
    ShiftRegisterBank,
    SumOfSquares,
)


def _design() -> BlockDesign:
    d = BlockDesign(name="io-test")
    d.add_module(
        RTLModule.make(
            "a",
            [
                RandomLogicCloud(n_luts=60, avg_inputs=4.5),
                SumOfSquares(width=8, n_terms=2, registered=True),
            ],
            family="custom",
            params={"k": 1},
        )
    )
    d.add_module(
        RTLModule.make(
            "b",
            [DistributedMemory(width=16, depth=128),
             ShiftRegisterBank(n_regs=8, depth=4, n_control_sets=2)],
        )
    )
    d.add_instance("a0", "a")
    d.add_instance("a1", "a")
    d.add_instance("b0", "b")
    d.connect("a0", "b0", width=16)
    d.connect("a1", "b0", width=16)
    return d


class TestDesignIO:
    def test_roundtrip_equality(self):
        d = _design()
        clone = design_from_dict(design_to_dict(d))
        assert clone.name == d.name
        assert clone.modules == d.modules
        assert clone.instances == d.instances
        assert clone.edges == d.edges

    def test_file_roundtrip(self, tmp_path):
        d = _design()
        path = tmp_path / "design.json"
        save_design(d, path)
        clone = load_design(path)
        assert clone.modules["a"] == d.modules["a"]

    def test_roundtrip_synthesizes_identically(self, tmp_path):
        from repro.netlist.stats import compute_stats
        from repro.synth.mapper import synthesize

        d = _design()
        path = tmp_path / "design.json"
        save_design(d, path)
        clone = load_design(path)
        for name in d.modules:
            assert compute_stats(synthesize(d.modules[name])) == compute_stats(
                synthesize(clone.modules[name])
            )

    def test_unknown_construct_rejected(self):
        data = design_to_dict(_design())
        data["modules"][0]["constructs"][0]["type"] = "EvilConstruct"
        with pytest.raises(ValueError, match="unknown construct"):
            design_from_dict(data)

    def test_cnv_design_roundtrips(self, cnv, tmp_path):
        path = tmp_path / "cnv.json"
        save_design(cnv, path)
        clone = load_design(path)
        assert clone.n_instances == 175
        assert clone.n_unique == 74
        assert len(clone.edges) == len(cnv.edges)


class TestGraphAnalysis:
    def test_basic_stats(self):
        stats = analyze_design(_design())
        assert stats.n_components == 1
        assert stats.is_dag
        assert stats.depth == 1
        assert stats.reuse_ratio == pytest.approx(3 / 2)
        assert stats.max_cut_width == 32

    def test_cnv_structure(self, cnv):
        stats = analyze_design(cnv)
        assert stats.n_components == 1  # a fully wired pipeline
        assert stats.is_dag
        assert stats.depth > 10  # deep streaming pipeline
        assert stats.reuse_ratio == pytest.approx(175 / 74)

    def test_edge_widths_merge(self):
        d = _design()
        d.connect("a0", "b0", width=8)  # parallel edge merges
        assert edge_widths(d) == {("a0", "b0"): 24, ("a1", "b0"): 16}

    def test_runs_without_networkx(self):
        # A clean install has no networkx: importing repro and analyzing a
        # design must not need it.
        code = (
            "import sys; sys.modules['networkx'] = None\n"
            "import repro\n"
            "from repro.cnv.tfc import tfc_design\n"
            "from repro.flow.analysis_graph import analyze_design\n"
            "print(analyze_design(tfc_design()).render())\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert "components=1 dag=True" in out.stdout

    def test_disconnected_detected(self):
        d = BlockDesign(name="disc")
        d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=4)]))
        d.add_instance("i0", "m")
        d.add_instance("i1", "m")
        stats = analyze_design(d)
        assert stats.n_components == 2

    def test_cycle_reported(self):
        d = BlockDesign(name="cyc")
        d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=4)]))
        d.add_instance("i0", "m")
        d.add_instance("i1", "m")
        d.connect("i0", "i1")
        d.connect("i1", "i0")
        stats = analyze_design(d)
        assert not stats.is_dag
        assert stats.depth == -1
