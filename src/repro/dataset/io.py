"""Dataset persistence.

Records are saved as the "all"-feature matrix plus labels and metadata;
that is sufficient for every estimator experiment (each feature set is a
column subset of "all") without re-running the CF sweep.  The per-record
sweep resolution rides along so re-binning (balancing, histograms) stays
correct for non-default and adaptive-resolution sweeps, and a
:class:`~repro.dataset.generate.GenerationReport` can be archived as
plain JSON next to the arrays (the CI perf-smoke uploads it).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.dataset.generate import GenerationReport
from repro.features.registry import FeatureExtractor, ModuleRecord, feature_names
from repro.utils.serialization import load_arrays, save_arrays

__all__ = [
    "load_dataset_arrays",
    "load_dataset_steps",
    "load_generation_report",
    "save_dataset_arrays",
    "save_generation_report",
]


def save_dataset_arrays(records: Sequence[ModuleRecord], path: str | Path) -> None:
    """Save labeled records to a compressed ``.npz``."""
    ex = FeatureExtractor("all")
    X = ex.matrix(list(records))
    y = np.array([r.min_cf for r in records])
    names = np.array([r.name for r in records])
    families = np.array([r.family for r in records])
    steps = np.array([r.sweep_step for r in records])
    cols = np.array(ex.names)
    save_arrays(
        path, X=X, y=y, names=names, families=families, columns=cols, steps=steps
    )


def load_dataset_arrays(
    path: str | Path, feature_set: str = "all"
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Load ``(X, y, names, families)`` with ``X`` restricted to a set.

    Raises
    ------
    ValueError
        If the stored column order no longer matches the library's.
    """
    data = load_arrays(path)
    stored_cols = [str(c) for c in data["columns"]]
    want = feature_names(feature_set)
    try:
        sel = [stored_cols.index(c) for c in want]
    except ValueError as exc:
        raise ValueError(
            f"{path}: stored columns {stored_cols} lack features {want}"
        ) from exc
    return data["X"][:, sel], data["y"], data["names"], data["families"]


def load_dataset_steps(path: str | Path) -> np.ndarray:
    """Per-record sweep resolutions of a saved dataset.

    Files written before the resolution-aware format default to the
    paper's uniform 0.02 grid.
    """
    data = load_arrays(path)
    if "steps" in data:
        return np.asarray(data["steps"], dtype=np.float64)
    return np.full(len(data["y"]), 0.02)


def save_generation_report(report: GenerationReport, path: str | Path) -> None:
    """Archive a generation report as plain JSON."""
    Path(path).write_text(
        json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
    )


def load_generation_report(path: str | Path) -> GenerationReport:
    """Rebuild a report saved by :func:`save_generation_report`."""
    data = json.loads(Path(path).read_text())
    return GenerationReport(
        n_requested=int(data["n_requested"]),
        n_labeled=int(data["n_labeled"]),
        n_trivial=int(data["n_trivial"]),
        n_infeasible=int(data["n_infeasible"]),
        infeasible_names=tuple(data.get("infeasible_names", ())),
        n_runs=int(data.get("n_runs", 0)),
        n_workers=int(data.get("n_workers", 1)),
        cache_hit=bool(data.get("cache_hit", False)),
    )
