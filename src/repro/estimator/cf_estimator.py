"""Model wrapper: (records, feature set, model kind) -> CF predictions."""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.features.registry import FeatureExtractor, ModuleRecord
from repro.ml.forest import RandomForestRegressor
from repro.ml.linear import LinearRegression
from repro.ml.mlp import MLPRegressor
from repro.ml.tree import DecisionTreeRegressor

__all__ = ["CFEstimator", "train_estimator", "MODEL_KINDS"]


class _Regressor(Protocol):
    def fit(self, X: np.ndarray, y: np.ndarray) -> "_Regressor": ...

    def predict(self, X: np.ndarray) -> np.ndarray: ...


MODEL_KINDS = ("linreg", "dt", "rf", "nn")


def _make_model(kind: str, seed: int, rf_trees: int) -> _Regressor:
    if kind == "linreg":
        return LinearRegression(ridge=1e-6)
    if kind == "dt":
        return DecisionTreeRegressor(max_depth=20, min_samples_leaf=2, seed=seed)
    if kind == "rf":
        return RandomForestRegressor(
            n_estimators=rf_trees, max_depth=20, min_samples_leaf=1, seed=seed
        )
    if kind == "nn":
        return MLPRegressor(hidden=25, epochs=400, batch_size=32, seed=seed)
    raise KeyError(f"unknown model kind {kind!r}; known: {MODEL_KINDS}")


class CFEstimator:
    """A trained CF predictor.

    Parameters
    ----------
    kind:
        ``"linreg"`` / ``"dt"`` / ``"rf"`` / ``"nn"`` (paper §VI-B).
    feature_set:
        Feature set the model consumes (paper's best: ``"additional"``).
    seed:
        Training seed.
    rf_trees:
        Forest size when ``kind == "rf"`` (paper: 1,000).
    """

    def __init__(
        self,
        kind: str = "rf",
        feature_set: str = "additional",
        seed: int = 0,
        rf_trees: int = 200,
    ) -> None:
        self.kind = kind
        self.feature_set = feature_set
        self.extractor = FeatureExtractor(feature_set)
        self.model = _make_model(kind, seed, rf_trees)
        self._fitted = False

    def fit(self, records: Sequence[ModuleRecord]) -> "CFEstimator":
        """Train on labeled records (``min_cf`` must be set)."""
        if not records:
            raise ValueError("no training records")
        X = self.extractor.matrix(list(records))
        y = np.array([r.min_cf for r in records], dtype=np.float64)
        if np.isnan(y).any():
            raise ValueError("training records must all carry min_cf labels")
        self.model.fit(X, y)
        self._fitted = True
        return self

    def predict(self, record: ModuleRecord) -> float:
        """Predicted minimal CF of one module."""
        return float(self.predict_many([record])[0])

    def predict_many(self, records: Sequence[ModuleRecord]) -> np.ndarray:
        """Predicted minimal CFs."""
        if not self._fitted:
            raise RuntimeError("predict before fit")
        return self.model.predict(self.extractor.matrix(list(records)))

    @property
    def feature_importances_(self) -> np.ndarray | None:
        """Impurity importances for tree-based kinds (Figs. 9/12)."""
        return getattr(self.model, "feature_importances_", None)

    # ------------------------------------------------------------ persistence

    def save(self, path) -> None:
        """Persist the trained estimator to a JSON file."""
        from repro.ml.persist import model_to_dict
        from repro.utils.serialization import dump_json

        if not self._fitted:
            raise RuntimeError("save before fit")
        dump_json(
            {
                "kind": self.kind,
                "feature_set": self.feature_set,
                "model": model_to_dict(self.model),
            },
            path,
        )

    @staticmethod
    def load(path) -> "CFEstimator":
        """Load an estimator saved with :meth:`save`."""
        from repro.ml.persist import model_from_dict
        from repro.utils.serialization import load_json

        data = load_json(path)
        est = CFEstimator.__new__(CFEstimator)
        est.kind = data["kind"]
        est.feature_set = data["feature_set"]
        est.extractor = FeatureExtractor(est.feature_set)
        est.model = model_from_dict(data["model"])
        est._fitted = True
        return est


def train_estimator(
    records: Sequence[ModuleRecord],
    kind: str = "rf",
    feature_set: str = "additional",
    seed: int = 0,
    rf_trees: int = 200,
) -> CFEstimator:
    """One-call training helper."""
    return CFEstimator(
        kind=kind, feature_set=feature_set, seed=seed, rf_trees=rf_trees
    ).fit(records)
