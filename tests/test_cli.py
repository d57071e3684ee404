"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_device_defaults(self):
        args = build_parser().parse_args(["device"])
        assert args.part == "xc7z020"

    def test_stitch_defaults(self):
        args = build_parser().parse_args(["place", "d.json"])
        assert args.placer == "sa"
        assert args.budget == 20000
        assert args.restarts == 1
        assert args.workers == 0
        assert not args.minimal

    def test_placer_choices_mirror_portfolio(self):
        from repro.cli import PLACERS
        from repro.flow.placers import default_portfolio

        names = tuple(p.name for p in default_portfolio())
        assert PLACERS == names

    # A bad value and a flag ``place`` does not define are both
    # reported with ``place``'s own usage.
    @pytest.mark.parametrize(
        "argv, usage",
        [
            (["--budget", "0"], "usage: repro place"),
            (["--budget", "-5"], "usage: repro place"),
            (["--budget", "many"], "usage: repro place"),
            (["--restarts", "0"], "usage: repro place"),
            (["--restarts", "-3"], "usage: repro place"),
            (["--placer", "tabu"], "usage: repro place"),
            (["--placer", "gp"], "usage: repro place"),
            (["--congestion-weight", "1"], "usage: repro place"),
            (["--timing-weight", "1"], "usage: repro place"),
        ],
        ids=["budget-0", "budget-neg", "budget-word", "restarts-0",
             "restarts-neg", "placer-tabu", "placer-gp", "congestion-weight",
             "timing-weight"],
    )
    def test_place_rejects_bad_counts_and_placers(self, argv, usage, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["place", "d.json", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert usage in err
        assert argv[0] in err

    @pytest.mark.parametrize(
        "argv, usage",
        [
            (["preimpl", "d.json", "--typo"], "usage: repro preimpl"),
            (["trace", "summarize", "t.json", "--typo"],
             "usage: repro trace summarize"),
        ],
        ids=["preimpl", "trace-summarize"],
    )
    def test_unknown_flag_gets_subcommand_usage(self, argv, usage, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert usage in err
        assert "usage: repro [-h]" not in err
        assert "unrecognized arguments: --typo" in err

    def test_stitch_cf_and_minimal_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["place", "d.json", "--cf", "1.2", "--minimal"])

    def test_report_options(self):
        args = build_parser().parse_args(
            ["report", "-n", "100", "--rf-trees", "10", "-o", "out.md"]
        )
        assert args.n_modules == 100
        assert args.output == "out.md"

    def test_report_footer_command_round_trips(self):
        """The command a report's footer names parses back to the
        configuration that made the report."""
        from repro.analysis.context import ExperimentContext
        from repro.analysis.report import report_command
        from repro.flow.stitcher import SAParams

        ctx = ExperimentContext(seed=3, n_modules=2000, rf_trees=300)
        cmd = report_command(ctx, SAParams(max_iters=40000, seed=3))
        assert cmd == (
            "python -m repro report -n 2000 --rf-trees 300 --sa-iters 40000 --seed 3"
        )
        args = build_parser().parse_args(cmd.split()[3:])
        assert (args.n_modules, args.rf_trees, args.sa_iters, args.seed) == (
            2000, 300, 40000, 3
        )

    def test_dataset_defaults(self):
        args = build_parser().parse_args(["dataset"])
        assert args.workers == 0
        assert args.cache_dir is None
        assert args.step == 0.02
        assert not args.adaptive_step
        assert not args.json


class TestCommands:
    def test_device(self, capsys):
        assert main(["device", "xc7z045"]) == 0
        out = capsys.readouterr().out
        assert "xc7z045" in out and "slices" in out

    def test_device_unknown_part(self):
        with pytest.raises(KeyError):
            main(["device", "xc7z999"])

    def test_cnv(self, capsys):
        assert main(["cnv"]) == 0
        out = capsys.readouterr().out
        assert "175 instances" in out and "74 unique" in out

    def test_mincf(self, capsys):
        assert main(["mincf", "lfsr", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "minimal CF" in out

    def test_dataset_train_roundtrip(self, tmp_path, capsys):
        ds = tmp_path / "ds.npz"
        est = tmp_path / "est.json"
        assert main(["dataset", "-n", "60", "-o", str(ds)]) == 0
        assert ds.exists()
        assert (
            main(
                ["train", "-d", str(ds), "--kind", "dt", "-o", str(est)]
            )
            == 0
        )
        assert est.exists()
        out = capsys.readouterr().out
        assert "relative error" in out

        # The saved estimator loads and predicts.
        from repro.estimator.cf_estimator import CFEstimator

        loaded = CFEstimator.load(est)
        assert loaded.kind == "dt"

    def test_dataset_workers_and_cache(self, tmp_path, capsys):
        ds = tmp_path / "ds.npz"
        cache = tmp_path / "dscache"
        argv = [
            "dataset", "-n", "30", "-o", str(ds),
            "--workers", "2", "--cache-dir", str(cache),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "worker(s)" in cold and "tool runs" in cold
        assert any(cache.glob("*.pkl"))

        # Second run hits the disk cache and says so.
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "[cache]" in warm

    def test_dataset_json_and_report(self, tmp_path, capsys):
        import json

        ds = tmp_path / "ds.npz"
        report_path = tmp_path / "report.json"
        assert (
            main(
                [
                    "dataset", "-n", "20", "-o", str(ds),
                    "--adaptive-step", "--json",
                    "--report-out", str(report_path),
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_requested"] == 20
        assert payload["n_runs"] > 0
        assert json.loads(report_path.read_text()) == payload


class TestExportDesign:
    def test_export_and_reload(self, tmp_path, capsys):
        out = tmp_path / "cnv.json"
        assert main(["export-design", "-o", str(out)]) == 0
        from repro.flow.design_io import load_design

        d = load_design(out)
        assert d.n_instances == 175


class TestPreimplCommand:
    @pytest.fixture()
    def design_json(self, tmp_path):
        from repro.flow.blockdesign import BlockDesign
        from repro.flow.design_io import save_design
        from repro.rtlgen.base import RTLModule
        from repro.rtlgen.constructs import RandomLogicCloud

        d = BlockDesign(name="cli-preimpl")
        d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=120)]))
        d.add_module(RTLModule.make("n", [RandomLogicCloud(n_luts=80)]))
        d.add_instance("m0", "m")
        d.add_instance("n0", "n")
        d.connect("m0", "n0")
        path = tmp_path / "design.json"
        save_design(d, path)
        return str(path)

    def test_defaults(self):
        args = build_parser().parse_args(["preimpl", "d.json"])
        assert args.policy == "fixed"
        assert args.cf == 1.5
        assert args.workers == 0
        assert args.cache_dir is None

    def test_cold_then_warm(self, design_json, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["preimpl", design_json, "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "2/2 modules implemented" in out
        assert "2 new tool runs" in out

        assert main(["preimpl", design_json, "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "2 cache hits (100%)" in out
        assert "0 new tool runs" in out

    def test_json_output(self, design_json, capsys):
        import json

        assert main(["preimpl", design_json, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["n_modules"] == 2
        assert stats["n_infeasible"] == 0
        assert {m["module"] for m in stats["modules"]} == {"m", "n"}

    def test_infeasible_exits_nonzero(self, design_json, capsys):
        assert main(["preimpl", design_json, "--cf", "0.35"]) == 1
        out = capsys.readouterr().out
        assert "infeasible" in out

    def test_sweep_policy(self, design_json, capsys):
        assert main(["preimpl", design_json, "--policy", "sweep"]) == 0
        assert "2/2 modules implemented" in capsys.readouterr().out


class TestStitchCommand:
    @pytest.fixture()
    def design_json(self, tmp_path):
        from repro.flow.blockdesign import BlockDesign
        from repro.flow.design_io import save_design
        from repro.rtlgen.base import RTLModule
        from repro.rtlgen.constructs import RandomLogicCloud

        d = BlockDesign(name="cli-stitch")
        d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=120)]))
        for i in range(3):
            d.add_instance(f"i{i}", "m")
        for i in range(2):
            d.connect(f"i{i}", f"i{i + 1}")
        path = tmp_path / "design.json"
        save_design(d, path)
        return str(path)

    def test_stitch_runs(self, design_json, capsys):
        assert main(["place", design_json, "--budget", "800"]) == 0
        out = capsys.readouterr().out
        assert "cli-stitch on xc7z020" in out
        assert "3 placed, 0 unplaced" in out
        assert "placer=sa seed=" in out

    def test_evolve_runs(self, design_json, capsys):
        assert main(["place", design_json, "--placer", "ga",
                     "--budget", "800", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "cli-stitch on xc7z020" in out
        assert "placed" in out
        assert "evolve.generations" in out  # GA phase spans, not SA's
        assert "stitch.anneal" not in out

    def test_evolve_restarts(self, design_json, capsys):
        assert (
            main(
                [
                    "place", design_json,
                    "--placer", "ga",
                    "--budget", "800",
                    "--restarts", "2",
                    "--seed", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "placer=ga seed=" in out

    def test_temper_runs(self, design_json, capsys):
        assert main(["place", design_json, "--placer", "pt",
                     "--budget", "800", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "cli-stitch on xc7z020" in out
        assert "3 placed, 0 unplaced" in out
        assert "tempering.rounds" in out  # PT phase spans, not SA's
        assert "stitch.anneal" not in out

    def test_temper_restarts(self, design_json, capsys):
        assert (
            main(
                [
                    "place", design_json,
                    "--placer", "pt",
                    "--budget", "800",
                    "--restarts", "2",
                    "--seed", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "placer=pt seed=" in out

    def test_stitch_restarts_and_render(self, design_json, capsys):
        assert (
            main(
                [
                    "place", design_json,
                    "--budget", "800",
                    "--restarts", "2",
                    "--render",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "placer=sa seed=" in out
        assert "#" in out  # the occupancy map
        assert "peak=" in out  # the congestion heat map

    def test_route_runs(self, design_json, capsys):
        assert main(["place", design_json, "--budget", "800"]) == 0
        out = capsys.readouterr().out
        assert "cli-stitch on xc7z020" in out
        assert "congestion: peak" in out
        assert "critical path" in out
        assert "3 blocks" not in out or "->" in out


class TestPlaceMatchesFlow:
    """``repro place`` prints the summary line of ``run_rw_flow`` over
    the same placer, for every ``--placer`` choice."""

    @pytest.fixture()
    def design_json(self, tmp_path):
        from repro.flow.blockdesign import BlockDesign
        from repro.flow.design_io import save_design
        from repro.rtlgen.base import RTLModule
        from repro.rtlgen.constructs import RandomLogicCloud

        # Big enough that the five placers, and their seeds, disagree; at
        # seed 2, a gp+sa restart that re-ran GP at its own seed would
        # not match.
        d = BlockDesign(name="cli-place")
        d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=120)]))
        d.add_module(RTLModule.make("n", [RandomLogicCloud(n_luts=300)]))
        for i in range(8):
            d.add_instance(f"i{i}", "m" if i % 2 else "n")
        for i in range(7):
            d.connect(f"i{i}", f"i{i + 1}", width=8)
        path = tmp_path / "design.json"
        save_design(d, path)
        return str(path)

    @pytest.mark.parametrize("restarts", [1, 2])
    @pytest.mark.parametrize("name", ["sa", "ga", "warm-sa", "pt", "gp+sa"])
    def test_first_line_matches_run_rw_flow(self, design_json, capsys,
                                            cli_placers, name, restarts):
        from repro.device import make_part
        from repro.flow.design_io import load_design
        from repro.flow.policy import FixedCF
        from repro.flow.rwflow import run_rw_flow

        res = run_rw_flow(
            load_design(design_json), make_part("xc7z020"), FixedCF(1.5),
            placer=cli_placers(800, 2)[name], n_seeds=restarts,
        ).stitch
        assert main(["place", design_json, "--placer", name, "--budget", "800",
                     "--seed", "2", "--restarts", str(restarts)]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == (
            f"cli-place on xc7z020: {res.n_placed} placed, "
            f"{res.n_unplaced} unplaced, wirelength {res.wirelength:.1f}, "
            f"cost {res.final_cost:.1f}"
        )
