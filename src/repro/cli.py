"""Command-line interface.

Usage::

    python -m repro device [part]              # fabric summary
    python -m repro cnv                        # cnvW1A1 design summary
    python -m repro mincf <family> [opts]      # minimal CF of one module
    python -m repro dataset -n 500 -o ds.npz --workers 4 --cache-dir .dscache
    python -m repro train -d ds.npz -o est.json  # train a CF estimator
    python -m repro preimpl design.json --cache-dir .cache --workers 4  # warm the cache
    python -m repro place design.json --cf 1.5 --restarts 4  # SA placement + report
    python -m repro place design.json --placer ga --budget 20000  # any portfolio placer
    python -m repro place design.json --profile --trace-out trace.json
    python -m repro trace summarize trace.json  # render a saved trace
    python -m repro report [-n 2000] [-o EXPERIMENTS.md]  # all experiments
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

__all__ = ["PLACERS", "build_parser", "main"]

#: ``repro place --placer`` choices: the DSE portfolio's members
#: (:func:`repro.flow.placers.default_portfolio`).  Kept literal so
#: parser construction stays import-light; tests assert the two agree.
PLACERS = ("sa", "ga", "warm-sa", "pt", "gp+sa")


def _positive_int(value: str) -> int:
    """Parse a count flag that must be at least 1."""
    try:
        n = int(value)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value!r}"
        )
    return n


def _add_trace_args(p: argparse.ArgumentParser) -> None:
    """Tracing flags shared by the long-running commands."""
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write the span trace as JSON (or JSONL for *.jsonl)")
    p.add_argument("--profile", action="store_true",
                   help="print the per-stage trace breakdown after the run")


def _make_tracer(args: argparse.Namespace):
    """An enabled tracer when the run should be traced, else None."""
    if not (args.trace_out or args.profile):
        return None
    from repro.obs.tracer import Tracer

    return Tracer()


def _emit_trace(tracer, args: argparse.Namespace) -> None:
    """Honor ``--trace-out`` / ``--profile`` for a finished run."""
    if tracer is None:
        return
    from repro.obs.export import save_trace, summarize_trace

    if args.trace_out:
        save_trace(tracer, args.trace_out)
        print(f"trace written to {args.trace_out}")
    if args.profile:
        print(summarize_trace(tracer))


class _Parser(argparse.ArgumentParser):
    """Reports a flag the chosen subcommand does not define with that
    subcommand's usage, not the top-level list of subcommands."""

    _commands: argparse.Action | None = None

    def add_subparsers(self, **kwargs):
        self._commands = super().add_subparsers(**kwargs)
        return self._commands

    def parse_args(self, args=None, namespace=None):
        ns, extras = self.parse_known_args(args, namespace)
        if extras:
            parser = self
            while parser._commands is not None:
                chosen = getattr(ns, parser._commands.dest)
                parser = parser._commands.choices[chosen]
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        return ns


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema."""
    parser = _Parser(
        prog="repro",
        description="Tailored PBlock sizes for CNN-to-FPGA macro flows "
        "(IPPS 2025 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dev = sub.add_parser("device", help="print a part's fabric summary")
    p_dev.add_argument("part", nargs="?", default="xc7z020")

    sub.add_parser("cnv", help="print the cnvW1A1 block-design summary")

    p_exp = sub.add_parser(
        "export-design", help="save the cnvW1A1 block design as JSON"
    )
    p_exp.add_argument("-o", "--output", default="cnvW1A1.json")

    p_min = sub.add_parser("mincf", help="minimal CF of one generated module")
    p_min.add_argument("family", choices=["shiftreg", "lutram", "carry", "lfsr", "mixed"])
    p_min.add_argument("--seed", type=int, default=0)
    p_min.add_argument("--part", default="xc7z020")

    p_ds = sub.add_parser(
        "dataset",
        help="generate and save a labeled dataset (cached, parallel)",
    )
    p_ds.add_argument("-n", "--n-modules", type=int, default=500)
    p_ds.add_argument("--seed", type=int, default=0)
    p_ds.add_argument("--cap", type=int, default=75, help="balance cap per CF bin")
    p_ds.add_argument("--step", type=float, default=0.02,
                      help="CF sweep resolution (paper: 0.02)")
    p_ds.add_argument("--adaptive-step", action="store_true",
                      help="per-module sweep resolution (§VI-C rule)")
    p_ds.add_argument("--workers", type=int, default=0,
                      help="worker processes for the labeling sweep (0 = serial)")
    p_ds.add_argument("--cache-dir", default=None,
                      help="persistent dataset cache directory")
    p_ds.add_argument("--report-out", default=None,
                      help="write the GenerationReport JSON here")
    p_ds.add_argument("--json", action="store_true",
                      help="emit the GenerationReport as JSON on stdout")
    p_ds.add_argument("-o", "--output", default="cf_dataset.npz")
    _add_trace_args(p_ds)

    p_tr = sub.add_parser("train", help="train a CF estimator on a saved dataset")
    p_tr.add_argument("-d", "--dataset", required=True)
    p_tr.add_argument("--kind", choices=["linreg", "dt", "rf", "nn"], default="rf")
    p_tr.add_argument("--features", default="additional")
    p_tr.add_argument("--rf-trees", type=int, default=200)
    p_tr.add_argument("-o", "--output", default="cf_estimator.json")

    p_pi = sub.add_parser(
        "preimpl",
        help="pre-implement a saved block design (cached, parallel)",
    )
    p_pi.add_argument("design", help="design JSON (see export-design)")
    p_pi.add_argument("--part", default="xc7z020")
    p_pi.add_argument("--policy", choices=["fixed", "sweep", "minimal"],
                      default="fixed", help="CF selection policy")
    p_pi.add_argument("--cf", type=float, default=1.5,
                      help="constant CF for --policy fixed")
    p_pi.add_argument("--cache-dir", default=None,
                      help="persistent module cache directory")
    p_pi.add_argument("--workers", type=int, default=0,
                      help="worker processes for cache misses (0 = serial)")
    p_pi.add_argument("--json", action="store_true",
                      help="emit the FlowStats as JSON on stdout")
    _add_trace_args(p_pi)

    p_pl = sub.add_parser(
        "place",
        help="pre-implement and place a saved block design, then report "
        "channel congestion and the block-level critical path",
    )
    p_pl.add_argument("design", help="design JSON (see export-design)")
    p_pl.add_argument("--part", default="xc7z020")
    p_pl.add_argument("--placer", choices=PLACERS, default="sa",
                      help="placement optimizer (default: sa)")
    cf_group = p_pl.add_mutually_exclusive_group()
    cf_group.add_argument("--cf", type=float, default=1.5,
                          help="constant correction factor")
    cf_group.add_argument("--minimal", action="store_true",
                          help="use the ground-truth minimal CF per module")
    p_pl.add_argument("--budget", type=_positive_int, default=20000,
                      help="kernel-move budget (gp+sa polishes at half of "
                      "it)")
    p_pl.add_argument("--restarts", type=_positive_int, default=1,
                      help="independent placer seeds; the best run wins")
    p_pl.add_argument("--workers", type=int, default=0,
                      help="worker processes for the restarts (0 = serial)")
    p_pl.add_argument("--seed", type=int, default=0)
    p_pl.add_argument("--render", action="store_true",
                      help="print the ASCII occupancy and congestion maps")
    _add_trace_args(p_pl)

    p_trace = sub.add_parser("trace", help="inspect a saved span trace")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_tsum = trace_sub.add_parser(
        "summarize", help="render a trace's per-stage breakdown table"
    )
    p_tsum.add_argument("path", help="trace file (JSON or JSONL)")

    p_rep = sub.add_parser("report", help="run every experiment, emit Markdown")
    p_rep.add_argument("-n", "--n-modules", type=int, default=800)
    p_rep.add_argument("--rf-trees", type=int, default=120)
    p_rep.add_argument("--sa-iters", type=int, default=40000)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("-o", "--output", default=None, help="write to file")
    return parser


def _cmd_device(args: argparse.Namespace) -> int:
    from repro.device import make_part

    grid = make_part(args.part)
    print(grid.summary())
    caps = grid.device_caps()
    print(f"  LUT sites: {caps.luts}, FF sites: {caps.ffs}")
    print(f"  clock spine at x = {grid.clock_column_xs()}")
    return 0


def _cmd_cnv(_args: argparse.Namespace) -> int:
    from repro.cnv import cnv_design
    from repro.cnv.partition import block_inventory
    from repro.flow.analysis_graph import analyze_design

    design = cnv_design()
    print(design.summary())
    counts = design.instance_counts().most_common(5)
    print("  top reuse:", ", ".join(f"{m}x{n}" for m, n in counts))
    largest = max(block_inventory(), key=lambda b: b.target_slices)
    print(f"  largest block: {largest.module} (~{largest.target_slices} slices)")
    print("  graph:", analyze_design(design).render())
    return 0


def _cmd_export_design(args: argparse.Namespace) -> int:
    from repro.cnv import cnv_design
    from repro.flow.design_io import save_design

    save_design(cnv_design(), args.output)
    print(f"cnvW1A1 design written to {args.output}")
    return 0


def _cmd_mincf(args: argparse.Namespace) -> int:
    from repro.device import make_part
    from repro.netlist import compute_stats
    from repro.pblock import minimal_cf
    from repro.rtlgen import all_generators
    from repro.synth import synthesize
    from repro.utils.rng import stream

    gen = all_generators()[args.family]
    module = gen.sample(stream(args.seed, "cli", args.family), args.seed)
    stats = compute_stats(synthesize(module))
    found = minimal_cf(stats, make_part(args.part), search_down=True)
    print(f"module {module.name}: minimal CF = {found.cf:.2f} "
          f"({found.n_runs} tool runs)")
    print(f"  {found.pblock.describe()}")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    import json

    from repro.dataset import (
        balance_dataset,
        generate_dataset,
        save_dataset_arrays,
        save_generation_report,
    )

    tracer = _make_tracer(args)
    records, report = generate_dataset(
        args.n_modules,
        seed=args.seed,
        step=args.step,
        adaptive_step=args.adaptive_step,
        workers=args.workers or None,
        cache_dir=args.cache_dir,
        tracer=tracer,
    )
    balanced = balance_dataset(records, cap_per_bin=args.cap, seed=args.seed)
    save_dataset_arrays(balanced, args.output)
    if args.report_out:
        save_generation_report(report, args.report_out)
    _emit_trace(tracer, args)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
        return 0
    source = "cache" if report.cache_hit else f"{report.n_workers} worker(s)"
    print(
        f"{report.n_labeled} labeled ({report.n_trivial} trivial, "
        f"{report.n_infeasible} infeasible, {report.n_runs} tool runs) "
        f"-> {len(balanced)} balanced -> {args.output} [{source}]"
    )
    if args.cache_dir:
        print(f"  cache: {args.cache_dir}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.dataset.io import load_dataset_arrays
    from repro.estimator.cf_estimator import CFEstimator
    from repro.ml.metrics import mean_relative_error
    from repro.ml.split import train_test_split

    X, y, _names, _fams = load_dataset_arrays(args.dataset, args.features)
    tr, te = train_test_split(len(y), 0.2, seed=0)
    est = CFEstimator(kind=args.kind, feature_set=args.features,
                      rf_trees=args.rf_trees)
    est.model.fit(X[tr], y[tr])
    est._fitted = True
    err = mean_relative_error(y[te], est.model.predict(X[te]))
    est.save(args.output)
    print(
        f"{args.kind}({args.features}): test relative error "
        f"{err * 100:.1f}% on {len(te)} samples -> {args.output}"
    )
    return 0


def _cmd_preimpl(args: argparse.Namespace) -> int:
    import json

    from repro.device import make_part
    from repro.flow.design_io import load_design
    from repro.flow.policy import FixedCF, MinimalCFPolicy, SweepCF
    from repro.flow.preimpl import implement_design

    design = load_design(args.design)
    grid = make_part(args.part)
    policy = {
        "fixed": lambda: FixedCF(args.cf),
        "sweep": SweepCF,
        "minimal": MinimalCFPolicy,
    }[args.policy]()
    tracer = _make_tracer(args)
    result = implement_design(
        design,
        grid,
        policy,
        n_workers=args.workers or None,
        cache_dir=args.cache_dir,
        tracer=tracer,
    )
    st = result.stats
    _emit_trace(tracer, args)
    if args.json:
        print(json.dumps(st.to_json_dict(), indent=2, sort_keys=True))
        return 0 if result.ok else 1
    print(
        f"{design.name} on {grid.name}: {len(result)}/{st.n_modules} modules "
        f"implemented, {st.cache_hits} cache hits ({st.hit_rate * 100:.0f}%), "
        f"{st.new_tool_runs} new tool runs ({st.total_tool_runs} total)"
    )
    if args.cache_dir:
        print(f"  cache: {args.cache_dir}")
    if not result.ok:
        print(result.report.describe())
        return 1
    return 0


def _build_placer(args: argparse.Namespace):
    """The :class:`~repro.place_kernel.protocol.Placer` ``--placer`` names."""
    from dataclasses import replace

    from repro.flow.global_place import GPParams
    from repro.flow.placers import default_portfolio
    from repro.flow.stitcher import SAParams

    portfolio = default_portfolio(SAParams(max_iters=args.budget, seed=args.seed))
    placer = {p.name: p for p in portfolio}[args.placer]
    if args.placer == "gp+sa":
        # Pin the warm start to the base seed: restarts vary the polish.
        placer = replace(placer, gp_params=GPParams(seed=args.seed))
    return placer


def _cmd_place(args: argparse.Namespace) -> int:
    from repro.device import make_part
    from repro.flow.design_io import load_design
    from repro.flow.policy import FixedCF, MinimalCFPolicy
    from repro.flow.rwflow import run_rw_flow
    from repro.route import block_critical_path, congestion_map

    design = load_design(args.design)
    grid = make_part(args.part)
    policy = MinimalCFPolicy() if args.minimal else FixedCF(args.cf)
    tracer = _make_tracer(args)
    res = run_rw_flow(
        design,
        grid,
        policy,
        placer=_build_placer(args),
        n_seeds=args.restarts,
        n_workers=args.workers or None,
        tracer=tracer,
    )
    s = res.stitch
    footprints = {
        name: impl.outcome.result.footprint
        for name, impl in res.implemented.items()
        if impl.outcome.result.footprint is not None
    }
    module_delays = {
        name: impl.timing.total_ns for name, impl in res.implemented.items()
    }
    cmap = congestion_map(design, footprints, s, grid)
    timing = block_critical_path(design, footprints, s, module_delays)
    _emit_trace(tracer, args)
    print(
        f"{design.name} on {grid.name}: {s.n_placed} placed, "
        f"{s.n_unplaced} unplaced, wirelength {s.wirelength:.1f}, "
        f"cost {s.final_cost:.1f}"
    )
    print(
        f"  converged at move {s.converged_at}/{s.iterations}, "
        f"{s.illegal_moves} illegal moves, {res.total_tool_runs} tool runs"
    )
    if s.stats is not None:
        st = s.stats
        print(
            f"  placer={args.placer} seed={st.seed} "
            f"accept rate {st.accept_rate * 100:.1f}%"
        )
    print(
        f"  congestion: peak {cmap.peak_column_demand} "
        f"(mean {cmap.mean_column_demand:.1f}) wires/channel, "
        f"{cmap.overflowed_channels} overflowed channels, "
        f"total overflow {cmap.total_overflow}, "
        f"{cmap.n_routed_edges} routed / {cmap.n_unrouted_edges} unrouted edges"
    )
    print(
        f"  critical path {timing.critical_path_ns:.2f} ns over "
        f"{len(timing.path)} blocks "
        f"({timing.n_cyclic_edges} cyclic, "
        f"{timing.n_unplaced_edges} unplaced edges)"
    )
    if timing.path:
        print("    " + " -> ".join(timing.path))
    if args.render:
        print(s.render())
        print(cmap.render())
    if not res.ok:
        print(res.infeasible.describe())
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import load_trace, summarize_trace

    print(summarize_trace(load_trace(args.path)))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.context import ExperimentContext
    from repro.analysis.report import generate_report
    from repro.flow.stitcher import SAParams

    ctx = ExperimentContext(
        seed=args.seed, n_modules=args.n_modules, rf_trees=args.rf_trees
    )
    text = generate_report(ctx, SAParams(max_iters=args.sa_iters, seed=args.seed))
    if args.output:
        Path(args.output).write_text(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


_COMMANDS = {
    "device": _cmd_device,
    "cnv": _cmd_cnv,
    "export-design": _cmd_export_design,
    "mincf": _cmd_mincf,
    "dataset": _cmd_dataset,
    "train": _cmd_train,
    "preimpl": _cmd_preimpl,
    "place": _cmd_place,
    "trace": _cmd_trace,
    "report": _cmd_report,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
