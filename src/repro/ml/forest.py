"""Random forest regressor: bagged CART trees with feature subsampling.

The paper's configuration is 1,000 trees of depth 20 trained on MSE
(§VI-B); importances are the average of the trees' impurity importances
(Fig. 12 uses them with cnvW1A1 as the test set).

Fitting is seed-stable: every tree's bootstrap sample is drawn in tree
order from one sequential stream and every tree gets its own derived
seed, so the forest is a pure function of ``(seed, data)``.  Its trees
are bitwise those of the reference grower in ``tests/tree_oracle.py``
(see :mod:`repro.ml.tree`).  Prediction batches all trees through one
stacked node arena (:mod:`repro.ml.ensemble`) and accumulates rows in
tree order, so results stay bitwise identical to the historical
per-tree loop.
"""

from __future__ import annotations

import numpy as np

from repro.ml.ensemble import StackedTrees, stack_trees
from repro.ml.tree import DecisionTreeRegressor
from repro.utils.rng import derive_seed, stream

__all__ = ["RandomForestRegressor"]


class RandomForestRegressor:
    """Bootstrap-aggregated regression trees.

    Parameters
    ----------
    n_estimators:
        Number of trees (paper: 1,000; smaller values give nearly the
        same error at a fraction of the cost — see the ablation bench).
    max_depth:
        Depth of each tree (paper: 20).
    max_features:
        Per-split feature subsampling (default ``"third"``, the classic
        regression-forest choice).
    min_samples_leaf:
        Minimum samples per leaf.
    seed:
        Root seed; trees get independent derived streams.
    """

    def __init__(
        self,
        n_estimators: int = 1000,
        max_depth: int = 20,
        max_features: int | str | None = "third",
        min_samples_leaf: int = 1,
        seed: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.max_features = max_features
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        self.trees_: list[DecisionTreeRegressor] = []
        self.feature_importances_: np.ndarray | None = None
        self._stacked: StackedTrees | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        """Fit all trees on bootstrap resamples."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError(f"bad shapes: X{X.shape}, y{y.shape}")
        n = X.shape[0]
        if n == 0:
            raise ValueError("empty training set")
        self._stacked = None

        # One bootstrap stream, drawn in tree order; the trees' own draws
        # come from their derived seeds and never touch it.
        boot_rng = stream(self.seed, "forest", "bootstrap")
        trees = []
        for t in range(self.n_estimators):
            idx = boot_rng.integers(0, n, size=n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                seed=derive_seed(self.seed, "forest", "tree", t),
            )
            trees.append(tree.fit(X[idx], y[idx]))
        self.trees_ = trees
        importances = np.zeros(X.shape[1])
        for tree in self.trees_:
            importances += tree.feature_importances_
        total = importances.sum()
        self.feature_importances_ = (
            importances / total if total > 0 else importances
        )
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Average of the trees' predictions (batched across trees)."""
        if not self.trees_:
            raise RuntimeError("predict() before fit()")
        X = np.asarray(X, dtype=np.float64)
        if self._stacked is None or self._stacked.n_trees != len(self.trees_):
            self._stacked = stack_trees(self.trees_)
        rows = self._stacked.tree_values(X)
        # Accumulate in tree order: bitwise identical to the historical
        # per-tree loop (np.sum's pairwise reduction would not be).
        acc = np.zeros(X.shape[0])
        for row in rows:
            acc += row
        return acc / len(self.trees_)
