"""Batched prediction across an ensemble of CART trees.

The random forest spends its inference time walking many trees one
after another.  Stacking every tree's flattened node arrays
into one arena (child indices offset into the concatenation) lets a
single level-synchronous walk advance *all* (tree, sample) cursors at
once — one numpy pass per tree level instead of one Python-level loop
iteration per tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.ml.tree import DecisionTreeRegressor

__all__ = ["StackedTrees", "stack_trees"]


@dataclass(frozen=True)
class StackedTrees:
    """All trees of an ensemble as one flat node arena.

    Attributes
    ----------
    feats, thrs, lefts, rights, values:
        Concatenated per-node arrays; ``lefts``/``rights`` are global
        indices into the arena (-1 at leaves).
    roots:
        Arena index of each tree's root, in ensemble order.
    """

    feats: np.ndarray
    thrs: np.ndarray
    lefts: np.ndarray
    rights: np.ndarray
    values: np.ndarray
    roots: np.ndarray

    @property
    def n_trees(self) -> int:
        """Trees in the arena."""
        return len(self.roots)

    def tree_values(self, X: np.ndarray) -> np.ndarray:
        """Per-tree leaf values for every sample, shape ``(n_trees, n)``.

        Level-synchronous walk: every (tree, sample) cursor starts at its
        tree's root and descends one level per iteration until all rest
        at leaves.  Row ``t`` equals ``trees[t].predict(X)`` bitwise.
        """
        X = np.asarray(X, dtype=np.float64)
        n = X.shape[0]
        idx = np.broadcast_to(self.roots[:, None], (self.n_trees, n)).copy()
        cols = np.broadcast_to(np.arange(n), (self.n_trees, n))
        active = self.lefts[idx] >= 0
        while active.any():
            cur = idx[active]
            go_left = X[cols[active], self.feats[cur]] <= self.thrs[cur]
            idx[active] = np.where(go_left, self.lefts[cur], self.rights[cur])
            active = self.lefts[idx] >= 0
        return self.values[idx]


def stack_trees(trees: Sequence[DecisionTreeRegressor]) -> StackedTrees:
    """Build the arena from fitted trees (ensemble order preserved)."""
    if not trees:
        raise ValueError("cannot stack an empty ensemble")
    feats, thrs, lefts, rights, values, roots = [], [], [], [], [], []
    at = 0
    for tree in trees:
        f, t, l, r, v = tree._flat_arrays()
        feats.append(f)
        thrs.append(t)
        # Leaves stay -1; internal children shift by the arena offset.
        lefts.append(np.where(l >= 0, l + at, -1).astype(np.int64))
        rights.append(np.where(r >= 0, r + at, -1).astype(np.int64))
        values.append(v)
        roots.append(at)
        at += len(f)
    return StackedTrees(
        feats=np.concatenate(feats),
        thrs=np.concatenate(thrs),
        lefts=np.concatenate(lefts),
        rights=np.concatenate(rights),
        values=np.concatenate(values),
        roots=np.asarray(roots, dtype=np.int64),
    )
