"""Equivalence and regression tests for the two tree split engines.

``engine="fast"`` (vectorized) must grow bitwise identical trees to
``engine="reference"`` (the per-feature oracle) — same splits, same
thresholds, same importances — on any input, including ties, constant
features and duplicated rows.  The forest inherits the guarantee, and
must additionally be invariant to its worker count.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.ensemble import stack_trees
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import SPLIT_ENGINES, DecisionTreeRegressor


def _fit_pair(X, y, **params):
    fast = DecisionTreeRegressor(engine="fast", **params).fit(X, y)
    ref = DecisionTreeRegressor(engine="reference", **params).fit(X, y)
    return fast, ref


def _assert_identical_trees(fast, ref):
    for a, b in zip(fast._flat_arrays(), ref._flat_arrays()):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(
        fast.feature_importances_, ref.feature_importances_
    )
    assert fast.depth() == ref.depth()


class TestEngineEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(5, 60),
        d=st.integers(1, 8),
        data_seed=st.integers(0, 2**31),
        depth=st.integers(1, 12),
        leaf=st.integers(1, 4),
    )
    def test_random_matrices(self, n, d, data_seed, depth, leaf):
        rng = np.random.default_rng(data_seed)
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        fast, ref = _fit_pair(
            X, y, max_depth=depth, min_samples_leaf=leaf
        )
        _assert_identical_trees(fast, ref)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(5, 50),
        d=st.integers(2, 6),
        data_seed=st.integers(0, 2**31),
    )
    def test_tied_values(self, n, d, data_seed):
        # Quantized features + quantized targets: many equal x values
        # (threshold validity) and many equal gains (argmax tie-breaks).
        rng = np.random.default_rng(data_seed)
        X = np.round(rng.normal(size=(n, d)) * 2) / 2
        y = np.round(rng.normal(size=n) * 2) / 2
        fast, ref = _fit_pair(X, y, max_depth=10)
        _assert_identical_trees(fast, ref)

    def test_constant_feature(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 3))
        X[:, 1] = 7.0  # unsplittable column
        y = rng.normal(size=30)
        fast, ref = _fit_pair(X, y, max_depth=8)
        _assert_identical_trees(fast, ref)

    def test_constant_target(self):
        X = np.random.default_rng(1).normal(size=(20, 2))
        fast, ref = _fit_pair(X, np.ones(20), max_depth=5)
        _assert_identical_trees(fast, ref)
        assert fast.depth() == 0

    def test_feature_subsampling(self):
        # Same seed => same per-node feature draws in both engines.
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 9))
        y = X @ rng.normal(size=9)
        fast, ref = _fit_pair(
            X, y, max_depth=10, max_features="third", seed=5
        )
        _assert_identical_trees(fast, ref)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            DecisionTreeRegressor(engine="turbo")
        assert set(SPLIT_ENGINES) == {"fast", "reference"}


class TestForest:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 6))
        return X, X @ rng.normal(size=6) + 0.1 * rng.normal(size=80)

    def test_engines_identical(self, data):
        X, y = data
        fast = RandomForestRegressor(n_estimators=8, seed=4, engine="fast").fit(X, y)
        ref = RandomForestRegressor(
            n_estimators=8, seed=4, engine="reference"
        ).fit(X, y)
        np.testing.assert_array_equal(fast.predict(X), ref.predict(X))
        np.testing.assert_array_equal(
            fast.feature_importances_, ref.feature_importances_
        )

    def test_batched_predict_matches_tree_loop(self, data):
        X, y = data
        model = RandomForestRegressor(n_estimators=6, seed=4).fit(X, y)
        acc = np.zeros(X.shape[0])
        for tree in model.trees_:
            acc += tree.predict(X)
        np.testing.assert_array_equal(model.predict(X), acc / len(model.trees_))

    def test_stacked_arena_matches_trees(self, data):
        X, y = data
        model = RandomForestRegressor(n_estimators=4, seed=4).fit(X, y)
        stacked = stack_trees(model.trees_)
        rows = stacked.tree_values(X)
        assert rows.shape == (4, X.shape[0])
        for row, tree in zip(rows, model.trees_):
            np.testing.assert_array_equal(row, tree.predict(X))


class TestDeepTrees:
    def test_depth_and_predict_survive_low_recursion_limit(self):
        # An exponential target makes every split peel off the largest
        # sample, growing a chain ~n deep — far beyond a lowered Python
        # recursion limit.  depth(), flattening and predict() must all be
        # iterative.
        n = 400
        X = np.arange(n, dtype=np.float64).reshape(-1, 1)
        y = 2.0 ** np.arange(n)
        tree = DecisionTreeRegressor(max_depth=10_000).fit(X, y)
        assert tree.depth() > 150

        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(250)
            assert tree.depth() > 150
            pred = tree.predict(X)
        finally:
            sys.setrecursionlimit(limit)
        np.testing.assert_array_equal(pred, y)
