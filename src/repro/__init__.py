"""repro — reproduction of "Improving mapping of convolutional neural
networks on FPGAs through tailored macro sizes" (IPPS 2025).

The package provides, in pure Python:

* a column-accurate Zynq-7000 fabric model (:mod:`repro.device`);
* a synthesis + placement simulator (:mod:`repro.netlist`,
  :mod:`repro.synth`, :mod:`repro.place`, :mod:`repro.route`);
* RapidWright-style PBlock generation with correction-factor search
  (:mod:`repro.pblock`);
* pre-implemented-block flows with a simulated-annealing stitcher and a
  flat baseline flow (:mod:`repro.flow`);
* the cnvW1A1 workload (:mod:`repro.cnv`);
* RTL generators and the labeled training dataset (:mod:`repro.rtlgen`,
  :mod:`repro.dataset`);
* from-scratch ML estimators of the minimal correction factor
  (:mod:`repro.features`, :mod:`repro.ml`, :mod:`repro.estimator`);
* per-table/figure experiment drivers (:mod:`repro.analysis`);
* span tracing for every flow stage (:mod:`repro.obs`).

Quick start::

    from repro.device import xc7z020
    from repro.rtlgen import ShiftRegGenerator
    from repro.synth import synthesize
    from repro.netlist import compute_stats
    from repro.pblock import minimal_cf

    module = ShiftRegGenerator().build("demo", n_regs=64, depth=8,
                                       n_control_sets=4)
    stats = compute_stats(synthesize(module))
    result = minimal_cf(stats, xc7z020())
    print(result.cf, result.pblock.describe())
"""

from repro.device import DeviceGrid, make_part, xc7z020, xc7z045
from repro.estimator import CFEstimator, EstimatedCF, train_estimator
from repro.flow import (
    BlockDesign,
    FixedCF,
    MinimalCFPolicy,
    SweepCF,
    monolithic_flow,
    run_rw_flow,
    stitch,
)
from repro.netlist import Netlist, NetlistStats, compute_stats
from repro.pblock import PBlock, build_pblock, minimal_cf
from repro.place import pack, quick_place
from repro.synth import synthesize

__version__ = "1.0.0"

__all__ = [
    "BlockDesign",
    "CFEstimator",
    "DeviceGrid",
    "EstimatedCF",
    "FixedCF",
    "MinimalCFPolicy",
    "Netlist",
    "NetlistStats",
    "PBlock",
    "SweepCF",
    "__version__",
    "build_pblock",
    "compute_stats",
    "make_part",
    "minimal_cf",
    "monolithic_flow",
    "pack",
    "quick_place",
    "run_rw_flow",
    "stitch",
    "synthesize",
    "train_estimator",
    "xc7z020",
    "xc7z045",
]
