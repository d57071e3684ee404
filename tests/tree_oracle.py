"""The reference tree grower: the spec :mod:`repro.ml.tree` must match.

:class:`ReferenceTree` grows a CART tree the plain way: a recursive
``_grow``, a per-feature split loop vectorized over thresholds,
``y[idx].mean()`` for a node's value and ``np.ptp`` for its
constant-target check.  The library's grower must reproduce it bit for
bit on finite inputs: the same ``rng.choice`` feature draws in the same
depth-first order, and the same splits, thresholds, leaf values and
importances.  The equivalence tests and the forest-fit benchmarks
compare against this module; nothing in ``src/`` imports it.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

import repro.ml.forest as forest_module
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor, _Node
from repro.utils.rng import stream

__all__ = ["ReferenceTree", "fit_reference_forest"]


class ReferenceTree(DecisionTreeRegressor):
    """A :class:`DecisionTreeRegressor` grown by the reference loop.

    Prediction, flattening and ``depth()`` are the library's; only
    growth is the spec's own.
    """

    def _n_candidate_features(self) -> int:
        if self.max_features is None:
            return self._n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self._n_features)))
        if self.max_features == "third":
            return max(1, self._n_features // 3)
        if isinstance(self.max_features, int) and self.max_features >= 1:
            return min(self.max_features, self._n_features)
        raise ValueError(f"bad max_features: {self.max_features!r}")

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ReferenceTree":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError(f"bad shapes: X{X.shape}, y{y.shape}")
        if X.shape[0] == 0:
            raise ValueError("empty training set")
        self._n_features = X.shape[1]
        self._importance = np.zeros(self._n_features)
        self._rng = stream(self.seed, "dtree")
        self._flat = None
        self._root = self._grow(X, y, np.arange(X.shape[0]), depth=0)
        total = self._importance.sum()
        self.feature_importances_ = (
            self._importance / total if total > 0 else self._importance.copy()
        )
        return self

    def _grow(
        self, X: np.ndarray, y: np.ndarray, idx: np.ndarray, depth: int
    ) -> _Node:
        node = _Node()
        node.value = float(y[idx].mean())
        n = idx.size
        if (
            depth >= self.max_depth
            or n < self.min_samples_split
            or np.ptp(y[idx]) == 0.0
        ):
            return node

        k = self._n_candidate_features()
        if k < self._n_features:
            features = self._rng.choice(self._n_features, size=k, replace=False)
        else:
            features = np.arange(self._n_features)

        best = self._best_split(X, y, idx, features)
        if best is None:
            return node
        feat, thr, gain, left_mask = best
        node.feature = int(feat)
        node.threshold = float(thr)
        self._importance[feat] += gain
        node.left = self._grow(X, y, idx[left_mask], depth + 1)
        node.right = self._grow(X, y, idx[~left_mask], depth + 1)
        return node

    def _best_split(
        self,
        X: np.ndarray,
        y: np.ndarray,
        idx: np.ndarray,
        features: np.ndarray,
    ) -> tuple[int, float, float, np.ndarray] | None:
        """Per-feature loop, vectorized over thresholds."""
        yv = y[idx]
        n = idx.size
        sum_all = yv.sum()
        sq_all = float((yv**2).sum())
        node_sse = sq_all - sum_all**2 / n

        best_gain = 1e-12
        best: tuple[int, float, float, np.ndarray] | None = None
        m = self.min_samples_leaf
        for f in features:
            xv = X[idx, f]
            order = np.argsort(xv, kind="stable")
            xs = xv[order]
            ys = yv[order]
            csum = np.cumsum(ys)
            csq = np.cumsum(ys**2)
            # Split after position i (1-based count of left samples).
            counts = np.arange(1, n)
            valid = (xs[:-1] < xs[1:]) & (counts >= m) & (n - counts >= m)
            if not valid.any():
                continue
            left_sse = csq[:-1] - csum[:-1] ** 2 / counts
            right_sum = sum_all - csum[:-1]
            right_sq = sq_all - csq[:-1]
            right_sse = right_sq - right_sum**2 / (n - counts)
            gain = node_sse - (left_sse + right_sse)
            gain[~valid] = -np.inf
            i = int(np.argmax(gain))
            if gain[i] > best_gain:
                thr = (xs[i] + xs[i + 1]) / 2.0
                best_gain = float(gain[i])
                best = (int(f), thr, best_gain, X[idx, f] <= thr)
        return best


def fit_reference_forest(
    X: np.ndarray, y: np.ndarray, **params: object
) -> RandomForestRegressor:
    """A :class:`RandomForestRegressor` fitted with :class:`ReferenceTree`
    members: the forest's own bootstrap and seeds, the spec's growth."""
    with mock.patch.object(forest_module, "DecisionTreeRegressor", ReferenceTree):
        return RandomForestRegressor(**params).fit(X, y)
