"""CART regression tree (MSE criterion) with impurity feature importances.

The paper's single-DT estimator uses depth 20 (§VI-B); Figs. 9/12 read the
impurity-based importances off this implementation.

One grower builds every tree, depth first from an explicit stack, and a
node costs a few numpy calls whatever its size.  Per-tree work happens
once: the feature-major copy of ``X``, its stable root argsort and the
squared targets.  One 1-D ``np.add.reduce`` of a node's targets gives
both its value and its split's total.  The split search takes one of two
paths, chosen by the node's work (samples x candidate features):

* up to ``_PY_WORK_MAX``, plain Python over the node's ascending sample
  list: a stable ``sorted`` per drawn feature, which equals the stable
  root sort filtered to the node, and running sums, which equal
  ``np.cumsum``;
* above it, one 2-D numpy pass over the node's presorted columns,
  filtered down from the root sort: cumulative-sum variance reduction
  per column and a first-max argmax across the gain matrix.

Both paths make the same IEEE operations in the same order as the
reference grower kept in ``tests/tree_oracle.py`` (a recursive
per-feature loop with ``y[idx].mean()`` and ``np.ptp``), so on finite
inputs a tree is bitwise identical to it: the same ``rng.choice``
feature draws in the same depth-first order, and the same splits,
thresholds, leaf values and importances.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import stream

__all__ = ["DecisionTreeRegressor"]

#: Node work (samples x candidate features) up to which the split search
#: runs in plain Python: below it numpy's per-call cost outweighs the
#: arithmetic.  Both paths grow the same tree; this only trades speed.
_PY_WORK_MAX = 256


#: A pending node's samples, ascending: a list on the Python path, or an
#: array with its ``(n_features, n)`` x-sorted sample ids on the numpy path.
_Samples = tuple["list[int] | np.ndarray", "np.ndarray | None"]


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self) -> None:
        self.feature = -1
        self.threshold = 0.0
        self.left: _Node | None = None
        self.right: _Node | None = None
        self.value = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class DecisionTreeRegressor:
    """Binary regression tree grown greedily on variance reduction.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (paper: 20).
    min_samples_leaf:
        Minimum samples per leaf.
    min_samples_split:
        Minimum samples for a node to be split.
    max_features:
        Features considered per split: ``None`` (all), an int, or
        ``"sqrt"`` / ``"third"`` — the forest uses subsampling for
        de-correlation.
    seed:
        Seed for feature subsampling.
    """

    def __init__(
        self,
        max_depth: int = 20,
        min_samples_leaf: int = 1,
        min_samples_split: int = 2,
        max_features: int | str | None = None,
        seed: int = 0,
    ) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_leaf < 1 or min_samples_split < 2:
            raise ValueError("min_samples_leaf >= 1 and min_samples_split >= 2")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed = seed
        self._root: _Node | None = None
        self._n_features = 0
        self.feature_importances_: np.ndarray | None = None

    # ------------------------------------------------------------------ fit

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

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Grow the tree on ``(n_samples, n_features)`` data."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError(f"bad shapes: X{X.shape}, y{y.shape}")
        if X.shape[0] == 0:
            raise ValueError("empty training set")
        self._n_features = X.shape[1]
        self._flat = None  # invalidate the prediction cache
        grower = _Grower(self, X, y)
        self._root = grower.grow()
        importance = np.array(grower.importance)
        total = importance.sum()
        self.feature_importances_ = (
            importance / total if total > 0 else importance
        )
        return self

    # ------------------------------------------------------------------ predict

    def _flat_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The tree as ``(feats, thrs, lefts, rights, values)`` arrays."""
        if self._root is None:
            raise RuntimeError("tree not fitted")
        if getattr(self, "_flat", None) is None:
            self._flatten()
        return self._flat

    def _flatten(self) -> None:
        """Cache the tree as arrays for vectorized prediction.

        Iterative preorder walk: degenerate trees can be deeper than the
        Python recursion limit.
        """
        feats: list[int] = []
        thrs: list[float] = []
        lefts: list[int] = []
        rights: list[int] = []
        values: list[float] = []

        # Stack of (node, parent_index, is_left_child); preorder so the
        # node indices match the old recursive layout.
        todo: list[tuple[_Node, int, bool]] = [(self._root, -1, False)]
        while todo:
            node, parent, is_left = todo.pop()
            idx = len(feats)
            feats.append(node.feature)
            thrs.append(node.threshold)
            lefts.append(-1)
            rights.append(-1)
            values.append(node.value)
            if parent >= 0:
                if is_left:
                    lefts[parent] = idx
                else:
                    rights[parent] = idx
            if not node.is_leaf:
                # Push right first so the left subtree is emitted first.
                todo.append((node.right, idx, False))
                todo.append((node.left, idx, True))
        self._flat = (
            np.asarray(feats, dtype=np.int32),
            np.asarray(thrs, dtype=np.float64),
            np.asarray(lefts, dtype=np.int32),
            np.asarray(rights, dtype=np.int32),
            np.asarray(values, dtype=np.float64),
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets; requires a prior :meth:`fit`.

        Prediction walks all rows level-by-level over the flattened node
        arrays, so it is vectorized across samples.
        """
        if self._root is None:
            raise RuntimeError("predict() before fit()")
        X = np.asarray(X, dtype=np.float64)
        feats, thrs, lefts, rights, values = self._flat_arrays()
        idx = np.zeros(X.shape[0], dtype=np.int32)
        active = lefts[idx] >= 0
        rows = np.arange(X.shape[0])
        while active.any():
            cur = idx[active]
            go_left = (
                X[rows[active], feats[cur]] <= thrs[cur]
            )
            idx[active] = np.where(go_left, lefts[cur], rights[cur])
            active = lefts[idx] >= 0
        return values[idx]

    def depth(self) -> int:
        """Actual depth of the grown tree.

        Iterative: a degenerate chain (one sample peeled per split) can
        exceed the Python recursion limit long before it exhausts memory.
        """
        if self._root is None:
            raise RuntimeError("depth() before fit()")
        best = 0
        todo: list[tuple[_Node, int]] = [(self._root, 0)]
        while todo:
            node, d = todo.pop()
            if node.is_leaf:
                best = max(best, d)
                continue
            todo.append((node.left, d + 1))
            todo.append((node.right, d + 1))
        return best


class _Grower:
    """One tree's growth: the per-tree arrays and the depth-first loop.

    Children are popped left first, so feature draws and importance sums
    run in the reference's preorder.
    """

    def __init__(
        self, tree: DecisionTreeRegressor, X: np.ndarray, y: np.ndarray
    ) -> None:
        self.max_depth = tree.max_depth
        self.min_leaf = tree.min_samples_leaf
        self.min_split = tree.min_samples_split
        self.n_features = X.shape[1]
        self.k = tree._n_candidate_features()
        self.rng = stream(tree.seed, "dtree")
        self.Xt = np.ascontiguousarray(X.T)
        self.y = y
        self.y2 = y * y  # exact squares, as the reference's ``ys**2``
        self.cols = self.Xt.tolist()
        self.yl = y.tolist()
        self.y2l = self.y2.tolist()
        self.importance = [0.0] * self.n_features

    def grow(self) -> _Node:
        root = _Node()
        n = self.y.size
        if n * self.k <= _PY_WORK_MAX:
            todo = [(root, list(range(n)), None, 0)]
        else:
            # One stable sort at the root; nodes filter it down instead of
            # re-sorting, and a stable order filtered to a subset is that
            # subset's stable sort.
            sort = np.argsort(self.Xt, axis=1, kind="stable")
            todo = [(root, np.arange(n), sort, 0)]
        while todo:
            node, idx, sort, depth = todo.pop()
            if sort is None:
                children = self._split_small(node, idx, depth)
            else:
                children = self._split_large(node, idx, sort, depth)
            if children is None:
                continue
            (left_idx, left_sort), (right_idx, right_sort) = children
            node.left = _Node()
            node.right = _Node()
            todo.append((node.right, right_idx, right_sort, depth + 1))
            todo.append((node.left, left_idx, left_sort, depth + 1))
        return root

    def _draw(self) -> np.ndarray:
        """The node's candidate features, one ``rng.choice`` when subsampling."""
        if self.k < self.n_features:
            return self.rng.choice(self.n_features, size=self.k, replace=False)
        return np.arange(self.n_features)

    def _split_small(
        self, node: _Node, idx: list[int], depth: int
    ) -> tuple[_Samples, _Samples] | None:
        """Value and split of a node on the Python path; ``None`` for a leaf."""
        n = len(idx)
        yl = self.yl
        if n == 1:
            # numpy's sum starts from +0.0, so a -0.0 target averages to 0.0.
            node.value = 0.0 + yl[idx[0]]
            return None
        rows = np.fromiter(idx, np.intp, n)
        total = np.add.reduce(self.y[rows])
        node.value = float(total / n)
        if depth >= self.max_depth or n < self.min_split:
            return None
        ys = [yl[i] for i in idx]
        if max(ys) - min(ys) == 0.0:
            return None
        feats = self._draw().tolist()
        m = self.min_leaf
        last = n - m  # the largest left count a split may take
        if m > last:
            return None
        sq = float(np.add.reduce(self.y2[rows]))
        node_sse = float(sq - total**2 / n)
        s = float(total)
        y2l = self.y2l
        best_gain = 1e-12
        best = None
        for f in feats:
            col = self.cols[f]
            order = sorted(idx, key=col.__getitem__)
            xs = [col[i] for i in order]
            # -0.0 + v == v for every v, so the running sums equal np.cumsum.
            cs = cq = -0.0
            gain = -np.inf
            at = 0
            for c in range(1, last + 1):
                i = order[c - 1]
                cs += yl[i]
                cq += y2l[i]
                if c >= m and xs[c - 1] < xs[c]:
                    r = s - cs
                    g = node_sse - ((cq - cs * cs / c) + ((sq - cq) - r * r / (n - c)))
                    if g > gain:
                        gain = g
                        at = c
            if gain > best_gain:
                best_gain = gain
                best = (f, (xs[at - 1] + xs[at]) / 2.0)
        if best is None:
            return None
        f, thr = best
        node.feature = f
        node.threshold = thr
        self.importance[f] += best_gain
        col = self.cols[f]
        left = [i for i in idx if col[i] <= thr]
        right = [i for i in idx if not col[i] <= thr]
        return (left, None), (right, None)

    def _split_large(
        self, node: _Node, idx: np.ndarray, sort: np.ndarray, depth: int
    ) -> tuple[_Samples, _Samples] | None:
        """Value and split of a node on the numpy path; ``None`` for a leaf.

        Row ``j`` of every intermediate equals the reference's 1-D arrays
        for feature ``feats[j]``, and the first-max argmaxes reproduce its
        tie-breaking (earliest threshold within a feature, earliest
        feature across equal gains).
        """
        n = idx.size
        yv = self.y[idx]
        total = np.add.reduce(yv)
        node.value = float(total / n)
        if (
            depth >= self.max_depth
            or n < self.min_split
            or yv.max() - yv.min() == 0.0
        ):
            return None
        feats = self._draw()
        m = self.min_leaf
        sq = float(np.add.reduce(self.y2[idx]))
        node_sse = sq - total**2 / n

        cols = sort[feats]  # (k, n) sample ids, x-sorted per feature
        xs = np.take_along_axis(self.Xt[feats], cols, axis=1)
        csum = np.cumsum(self.y[cols], axis=1)[:, :-1]
        csq = np.cumsum(self.y2[cols], axis=1)[:, :-1]
        counts = np.arange(1, n, dtype=np.float64)
        valid = (xs[:, :-1] < xs[:, 1:]) & (counts >= m) & (n - counts >= m)
        if not valid.any():
            return None
        left_sse = csq - csum**2 / counts
        right_sum = total - csum
        right_sse = (sq - csq) - right_sum**2 / (n - counts)
        gain = node_sse - (left_sse + right_sse)
        gain[~valid] = -np.inf

        pos = np.argmax(gain, axis=1)  # first max per feature
        per_feature = gain[np.arange(feats.size), pos]
        j = int(np.argmax(per_feature))  # first max across features
        if not per_feature[j] > 1e-12:
            return None
        i = int(pos[j])
        f = int(feats[j])
        thr = float((xs[j, i] + xs[j, i + 1]) / 2.0)
        node.feature = f
        node.threshold = thr
        self.importance[f] += float(per_feature[j])

        go_left = self.Xt[f, idx] <= thr
        left, right = idx[go_left], idx[~go_left]
        in_left = np.zeros(self.y.size, dtype=bool)
        in_left[left] = True
        keep = in_left[sort]  # (n_features, n): which sorted ids go left
        return self._pending(left, sort, keep), self._pending(right, sort, ~keep)

    def _pending(self, idx: np.ndarray, sort: np.ndarray, keep: np.ndarray) -> _Samples:
        """A child of a numpy-path node, on the path its work calls for."""
        if idx.size * self.k <= _PY_WORK_MAX:
            return idx.tolist(), None
        return idx, sort[keep].reshape(self.n_features, idx.size)
