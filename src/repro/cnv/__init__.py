"""The cnvW1A1 workload (paper §III).

A block design reproducing the published structure of the FINN-partitioned
cnvW1A1 binarized CNN: 9 convolutional / fully-connected layers plus two
max-pool layers, partitioned into sliding-window units (SWU),
matrix-vector-activation units (MVAU), weight storage, threshold and glue
blocks — 175 block instances of 74 unique modules, with the MVAU of layers
1/2 reused 48 times and that of layers 3/4 reused 20 times, filling
essentially the whole xc7z020.

Block contents are synthetic (we have no FINN RTL), but each block type
carries the right resource *signature* — MVAUs are XNOR-popcount LUT logic
with adder-tree carry chains, weight blocks are LUTRAM/BRAM-heavy, SWUs
are SRL line buffers — and each unique block is sized to a per-block
slice budget so the design totals ~99% of the device like the paper's.
The scale that fits each block to its budget is pinned in a table;
:func:`repro.cnv.design.calibrate_scale` recomputes the table in the
tests, so no process runs the bisection.
"""

from repro.cnv.blocks import BLOCK_BUILDERS, build_block
from repro.cnv.design import cnv_design, cnv_module_stats
from repro.cnv.partition import BlockSpec, block_inventory, total_target_slices
from repro.cnv.tfc import tfc_design, tfc_inventory

__all__ = [
    "BLOCK_BUILDERS",
    "BlockSpec",
    "block_inventory",
    "build_block",
    "cnv_design",
    "cnv_module_stats",
    "tfc_design",
    "tfc_inventory",
    "total_target_slices",
]
