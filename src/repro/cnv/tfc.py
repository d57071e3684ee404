"""The tfcW1A1 workload — a second FINN reference network.

The paper argues its concepts "are transferable to other such
convolutional NNs" (§I/§III).  FINN's other standard binarized network,
TFC (three fully-connected layers on MNIST), has a different profile: no
sliding windows, weight-memory-dominated, lower module reuse.  Building
it lets the generalization benchmark check that the minimal-CF story is
not a cnvW1A1 artifact.

Structure: input DMA → 3 x (FC MVAU lanes + weight blocks + threshold)
→ label select → output DMA, with stream FIFOs between layers.
"""

from __future__ import annotations

import functools

from repro.cnv.blocks import build_block
from repro.cnv.partition import BlockSpec
from repro.flow.blockdesign import BlockDesign

__all__ = ["tfc_inventory", "tfc_design"]


def tfc_inventory() -> list[BlockSpec]:
    """Unique modules of the partitioned tfcW1A1.

    3 FC layers x 4 MVAU lanes sharing one configuration per layer pair,
    per-layer weight memories (unique contents), thresholds and glue:
    33 instances of 21 unique modules — much lower reuse than cnvW1A1
    (the paper's §III point about convolutional regularity).
    """
    inv: list[BlockSpec] = [
        BlockSpec("tfc_dma_in", "dma", 40, 1, "in"),
        BlockSpec("tfc_fifo_in", "fifo", 15, 1, "in"),
        # FC0/FC1 share the MVAU configuration (folded identically).
        BlockSpec("tfc_mvau_0", "mvau", 90, 8, "FC0+FC1"),
        BlockSpec("tfc_mvau_2", "mvau", 60, 4, "FC2"),
        BlockSpec("tfc_thres", "thres", 22, 3, "FC0..FC2"),
    ]
    # Weight memories: unique per position, FC0 largest (784-input layer).
    for i, target in enumerate([260, 260, 220, 220, 160, 160, 120, 120]):
        layer = "FC0" if i < 4 else "FC1"
        inv.append(
            BlockSpec(f"tfc_weights_{i}", "weights", target, 1, layer)
        )
    for i in range(8, 12):
        inv.append(BlockSpec(f"tfc_weights_{i}", "weights", 90, 1, "FC2"))
    inv.extend(
        [
            BlockSpec("tfc_fifo_01", "fifo", 15, 1, "FC0"),
            BlockSpec("tfc_fifo_12", "fifo", 15, 1, "FC1"),
            BlockSpec("tfc_label", "misc", 16, 1, "out"),
            BlockSpec("tfc_dma_out", "dma", 40, 1, "out"),
        ]
    )
    return inv


#: The scale of every unique module, in inventory order, pinned like
#: cnvW1A1's: what :func:`repro.cnv.design.calibrate_scale` returns for
#: its spec, recomputed by ``tests/test_cnv_scales.py``.
_TFC_SCALES: dict[str, float] = {
    "tfc_dma_in": 0.02,
    "tfc_fifo_in": 1.1666675923213576,
    "tfc_mvau_0": 1.2499977313351556,
    "tfc_mvau_2": 0.7500004199547325,
    "tfc_thres": 0.02,
    "tfc_weights_0": 4.884611711995649,
    "tfc_weights_1": 4.653847501286003,
    "tfc_weights_2": 3.884618685760891,
    "tfc_weights_3": 4.038464481856882,
    "tfc_weights_4": 2.961538815598078,
    "tfc_weights_5": 2.9230777456767205,
    "tfc_weights_6": 2.263160034092536,
    "tfc_weights_7": 2.11538105702139,
    "tfc_weights_8": 1.576923250384604,
    "tfc_weights_9": 1.576923250384604,
    "tfc_weights_10": 1.6538464780325288,
    "tfc_weights_11": 1.6210530086857833,
    "tfc_fifo_01": 1.3333338114693192,
    "tfc_fifo_12": 1.1666675923213576,
    "tfc_label": 0.763636976378032,
    "tfc_dma_out": 0.02,
}


@functools.lru_cache(maxsize=None)
def tfc_design() -> BlockDesign:
    """The complete tfcW1A1 block design (33 instances / 21 modules)."""
    design = BlockDesign(name="tfcW1A1")
    inventory = tfc_inventory()
    for spec in inventory:
        design.add_module(
            build_block(spec.kind, spec.module, _TFC_SCALES[spec.module], **spec.extra)
        )
    for spec in inventory:
        for inst in spec.instance_names():
            design.add_instance(inst, spec.module)

    mvau01 = [f"tfc_mvau_0__i{k}" for k in range(8)]
    lanes = {"FC0": mvau01[:4], "FC1": mvau01[4:],
             "FC2": [f"tfc_mvau_2__i{k}" for k in range(4)]}
    weights = {
        "FC0": [f"tfc_weights_{i}" for i in range(0, 4)],
        "FC1": [f"tfc_weights_{i}" for i in range(4, 8)],
        "FC2": [f"tfc_weights_{i}" for i in range(8, 12)],
    }
    thres = {f"FC{k}": f"tfc_thres__i{k}" for k in range(3)}

    design.connect("tfc_dma_in", "tfc_fifo_in", width=64)
    entry = {"FC0": "tfc_fifo_in", "FC1": "tfc_fifo_01", "FC2": "tfc_fifo_12"}
    exits = {"FC0": "tfc_fifo_01", "FC1": "tfc_fifo_12", "FC2": "tfc_label"}
    for layer in ("FC0", "FC1", "FC2"):
        for lane, w in zip(lanes[layer], weights[layer]):
            design.connect(entry[layer], lane, width=64)
            design.connect(w, lane, width=32)
            design.connect(lane, thres[layer], width=4)
        design.connect(thres[layer], exits[layer], width=16)
    design.connect("tfc_label", "tfc_dma_out", width=32)

    design.validate()
    return design
