"""Compilation flows.

* :mod:`repro.flow.blockdesign` — the multi-block design model RapidWright
  expects as input (modules, instances, inter-block connections);
* :mod:`repro.flow.preimpl` — per-module pre-implementation (synthesis →
  quick place → PBlock → detailed place) with caching of unique modules;
* :mod:`repro.flow.cache` — the content-addressed two-layer store of
  implemented modules and labeled datasets;
* :mod:`repro.flow.policy` — correction-factor selection policies
  (fixed, sweep-from-0.9, ground-truth minimal; the learned policy lives
  in :mod:`repro.estimator`);
* :mod:`repro.flow.stitcher` — the simulated-annealing macro placer that
  assembles pre-implemented blocks into a full-device placement (its
  move kernel is shared via :mod:`repro.place_kernel`);
* :mod:`repro.flow.evolve` — the evolutionary (GA) macro placer driving
  the same move kernel and objective as the stitcher;
* :mod:`repro.flow.tempering` — cooperative parallel tempering (replica
  exchange across a ladder of SA chains over the same kernel);
* :mod:`repro.flow.global_place` — the analytic global placer (smooth
  HPWL gradient descent + column-aware legalization) feeding the SA
  stitcher a near-legal warm start at zero kernel-op spend;
* :mod:`repro.flow.placers` — the optimizer portfolio (SA, GA,
  warm-started SA, parallel tempering, analytic-warm-started SA) behind
  the :class:`~repro.place_kernel.protocol.Placer` protocol;
* :mod:`repro.flow.fanout` — the one order-preserving process fan-out
  (pre-implementation, dataset labeling, restarts) and pareto winner
  selection;
* :mod:`repro.flow.restarts` — multi-seed restarts of any placer
  (:func:`~repro.flow.restarts.place_best`);
* :mod:`repro.flow.monolithic` — the flat "AMD EDA"-style whole-device
  flow used as the paper's baseline (Table I, Fig. 5a);
* :mod:`repro.flow.rwflow` — the end-to-end RapidWright-style flow;
* :mod:`repro.flow.prflow` — the fixed-partition PR baseline the paper's
  §II argues against;
* :mod:`repro.flow.design_io` / :mod:`repro.flow.analysis_graph` — design
  persistence and structural diagnostics.
"""

from repro.flow.analysis_graph import DesignGraphStats, analyze_design
from repro.flow.blockdesign import BlockDesign, Edge, Instance
from repro.flow.cache import (
    CacheStats,
    ModuleCache,
    cache_key,
    dataset_key,
    grid_fingerprint,
    module_fingerprint,
    policy_fingerprint,
)
from repro.flow.design_io import load_design, save_design
from repro.flow.evolve import GAParams, evolve
from repro.flow.global_place import GPParams, global_place
from repro.flow.monolithic import MonolithicResult, monolithic_flow
from repro.flow.placers import (
    GAPlacer,
    SAPlacer,
    TemperedSAPlacer,
    WarmStartedSAPlacer,
    default_portfolio,
)
from repro.flow.policy import (
    CFOutcome,
    CFPolicy,
    FixedCF,
    FlowInfeasibleError,
    MinimalCFPolicy,
    SweepCF,
)
from repro.flow.preimpl import (
    FlowInfeasibleReport,
    FlowStats,
    ImplementedModule,
    ModuleFailure,
    ModuleFlowStats,
    PreImplResult,
    implement_design,
    implement_module,
)
from repro.flow.prflow import (
    PRPlan,
    Partition,
    apply_update,
    plan_partitions,
)
from repro.flow.restarts import place_best
from repro.flow.rwflow import RWFlowResult, run_rw_flow
from repro.flow.stitcher import (
    SAParams,
    StitchResult,
    StitchStats,
    stitch,
)
from repro.flow.tempering import PTParams, temper

__all__ = [
    "BlockDesign",
    "CacheStats",
    "DesignGraphStats",
    "CFOutcome",
    "CFPolicy",
    "Edge",
    "FixedCF",
    "FlowInfeasibleError",
    "FlowInfeasibleReport",
    "FlowStats",
    "GAParams",
    "GAPlacer",
    "GPParams",
    "ImplementedModule",
    "Instance",
    "MinimalCFPolicy",
    "ModuleCache",
    "ModuleFailure",
    "ModuleFlowStats",
    "MonolithicResult",
    "PRPlan",
    "PTParams",
    "Partition",
    "PreImplResult",
    "RWFlowResult",
    "SAParams",
    "SAPlacer",
    "StitchResult",
    "StitchStats",
    "SweepCF",
    "TemperedSAPlacer",
    "WarmStartedSAPlacer",
    "analyze_design",
    "apply_update",
    "cache_key",
    "dataset_key",
    "default_portfolio",
    "evolve",
    "global_place",
    "grid_fingerprint",
    "implement_design",
    "implement_module",
    "load_design",
    "module_fingerprint",
    "monolithic_flow",
    "place_best",
    "plan_partitions",
    "policy_fingerprint",
    "run_rw_flow",
    "save_design",
    "stitch",
    "temper",
]
