"""Shared, lazily computed experiment inputs."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.cnv.design import cnv_design, cnv_module_stats
from repro.dataset.balance import balance_dataset
from repro.dataset.generate import GenerationReport, generate_dataset
from repro.device.grid import DeviceGrid
from repro.device.parts import xc7z010, xc7z020, xc7z045
from repro.features.registry import ModuleRecord, make_record
from repro.flow.blockdesign import BlockDesign
from repro.pblock.cf_search import minimal_cf
from repro.place.quick import quick_place

__all__ = ["ExperimentContext", "default_context"]


@dataclass
class ExperimentContext:
    """Caches the expensive shared inputs of the experiment suite.

    Parameters
    ----------
    seed:
        Root seed of every derived computation.
    n_modules:
        RTL sweep size (paper: ~2,000; smaller values run faster with the
        same qualitative results).
    cap_per_bin:
        Balancing cap (paper: 75).
    rf_trees:
        Random-forest size for trained estimators (paper: 1,000; 200
        gives indistinguishable errors at 1/5 the cost — see the
        ``rf_size`` ablation bench).
    dataset_workers:
        Worker processes for the labeling sweep (0 = sequential;
        results are identical either way).
    dataset_cache_dir:
        Optional persistent :class:`~repro.flow.cache.ModuleCache`
        directory for the labeled sweep; a second session warm-starts
        the sweep from disk.
    """

    seed: int = 0
    n_modules: int = 2000
    cap_per_bin: int = 75
    rf_trees: int = 200
    dataset_workers: int = 0
    dataset_cache_dir: str | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------- devices

    @property
    def z010(self) -> DeviceGrid:
        """The smallest family member (transfer study)."""
        return self._memo("z010", xc7z010)

    @property
    def z020(self) -> DeviceGrid:
        """The xc7z020 (module pre-implementation and Fig. 4/5)."""
        return self._memo("z020", xc7z020)

    @property
    def z045(self) -> DeviceGrid:
        """The xc7z045 (§VIII stitching)."""
        return self._memo("z045", xc7z045)

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    # ------------------------------------------------------------- dataset

    def dataset(self) -> tuple[list[ModuleRecord], GenerationReport]:
        """Raw labeled dataset (before balancing)."""
        return self._memo(
            "dataset",
            lambda: generate_dataset(
                self.n_modules,
                seed=self.seed,
                grid=self.z020,
                workers=self.dataset_workers or None,
                cache_dir=self.dataset_cache_dir,
            ),
        )

    def balanced(self) -> list[ModuleRecord]:
        """Balanced dataset (Fig. 8)."""
        return self._memo(
            "balanced",
            lambda: balance_dataset(
                self.dataset()[0], cap_per_bin=self.cap_per_bin, seed=self.seed
            ),
        )

    # ------------------------------------------------------------- cnvW1A1

    def design(self) -> BlockDesign:
        """The cnvW1A1 block design."""
        return self._memo("design", cnv_design)

    def cnv_records(self) -> list[ModuleRecord]:
        """Labeled records of the cnvW1A1 unique modules (minimal CF on
        the xc7z020, searched downward as in Fig. 4)."""

        def _build() -> list[ModuleRecord]:
            records = []
            for _name, stats in cnv_module_stats().items():
                report = quick_place(stats)
                found = minimal_cf(
                    stats, self.z020, search_down=True, report=report
                )
                records.append(
                    make_record(stats, report, min_cf=found.cf, family="cnv")
                )
            return records

        return self._memo("cnv_records", _build)

    def cnv_nontrivial(self) -> list[ModuleRecord]:
        """cnvW1A1 modules excluding one-or-two-tile ones (paper §VIII
        keeps 63 of the 74 for the estimator study)."""
        return [r for r in self.cnv_records() if not r.stats.is_trivial()]


@functools.lru_cache(maxsize=4)
def default_context(
    seed: int = 0, n_modules: int = 2000, rf_trees: int = 200
) -> ExperimentContext:
    """Process-wide shared context (used by benchmarks and examples)."""
    return ExperimentContext(seed=seed, n_modules=n_modules, rf_trees=rf_trees)
