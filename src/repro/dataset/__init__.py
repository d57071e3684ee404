"""Training-dataset pipeline (paper §VI-A, §VII).

``generate_dataset`` sweeps the RTL generators, synthesizes each module,
runs the quick placement and labels it with its minimal feasible CF
(upward sweep from 0.9 at 0.02 resolution, or §VI-C's adaptive per-module
resolution behind ``adaptive_step=True``).  Labeling fans out over
:func:`~repro.flow.fanout.fan_out` (``workers=N``) with results bitwise
identical for any worker count, and the flow's content-addressed
:class:`~repro.flow.cache.ModuleCache` (keyed by
:func:`~repro.flow.cache.dataset_key`) makes one generation durable
across runs and sessions.  ``balance_dataset`` caps
each CF bin at 75 samples, reproducing the paper's 2,000 → ~1,500
filtering (Fig. 8).  ``save_dataset_arrays`` / ``load_dataset_arrays``
persist the labeled feature matrix so estimator experiments don't re-run
the sweep.
"""

from repro.dataset.balance import balance_dataset, cf_histogram
from repro.dataset.generate import GenerationReport, generate_dataset
from repro.dataset.io import (
    load_dataset_arrays,
    load_dataset_steps,
    load_generation_report,
    save_dataset_arrays,
    save_generation_report,
)

__all__ = [
    "GenerationReport",
    "balance_dataset",
    "cf_histogram",
    "generate_dataset",
    "load_dataset_arrays",
    "load_dataset_steps",
    "load_generation_report",
    "save_dataset_arrays",
    "save_generation_report",
]
