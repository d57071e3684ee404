"""The tree grower against the reference grower in ``tests/tree_oracle.py``.

:class:`DecisionTreeRegressor` must grow bitwise identical trees to
:class:`~tests.tree_oracle.ReferenceTree`: the same feature draws, splits,
thresholds, leaf values and importances, on any finite input, including
ties, constant features and duplicated rows.  Each case also runs with
the grower's Python/numpy cut-over forced to either extreme, so both
split paths and the hand-over between them are checked.  The forest
inherits the guarantee.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ml.tree as tree_module
from repro.ml.ensemble import stack_trees
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor
from tests.tree_oracle import ReferenceTree, fit_reference_forest

#: Cut-overs each case runs under: the shipped one, all-numpy, all-Python.
CUTS = (tree_module._PY_WORK_MAX, 0, sys.maxsize)


def _assert_identical_trees(tree, ref):
    for a, b in zip(tree._flat_arrays(), ref._flat_arrays()):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    assert tree.feature_importances_.tobytes() == ref.feature_importances_.tobytes()
    assert tree.depth() == ref.depth()


def _assert_matches_oracle(X, y, **params):
    """Fit the oracle once and the grower under every cut-over; returns
    the grower's tree at the shipped cut-over."""
    ref = ReferenceTree(**params).fit(X, y)
    trees = []
    saved = tree_module._PY_WORK_MAX
    try:
        for cut in CUTS:
            tree_module._PY_WORK_MAX = cut
            tree = DecisionTreeRegressor(**params).fit(X, y)
            _assert_identical_trees(tree, ref)
            trees.append(tree)
    finally:
        tree_module._PY_WORK_MAX = saved
    return trees[0]


_max_features = st.one_of(
    st.none(), st.sampled_from(["third", "sqrt"]), st.integers(1, 16)
)


class TestEngineEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 300),
        d=st.integers(1, 16),
        data_seed=st.integers(0, 2**31),
        depth=st.integers(1, 20),
        leaf=st.integers(1, 4),
        max_features=_max_features,
        seed=st.integers(0, 2**16),
    )
    def test_random_matrices(self, n, d, data_seed, depth, leaf, max_features, seed):
        rng = np.random.default_rng(data_seed)
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        _assert_matches_oracle(
            X, y, max_depth=depth, min_samples_leaf=leaf,
            max_features=max_features, seed=seed,
        )

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 300),
        d=st.integers(1, 16),
        data_seed=st.integers(0, 2**31),
        depth=st.integers(1, 20),
        leaf=st.integers(1, 4),
        max_features=_max_features,
        bootstrap=st.booleans(),
    )
    def test_tied_values(self, n, d, data_seed, depth, leaf, max_features, bootstrap):
        # Quantized features + quantized targets: many equal x values
        # (threshold validity), many equal gains (argmax tie-breaks) and
        # -0.0 targets; a bootstrap resample adds duplicated rows.
        rng = np.random.default_rng(data_seed)
        X = np.round(rng.normal(size=(n, d)) * 2) / 2
        y = np.round(rng.normal(size=n) * 2) / 2
        if bootstrap:
            rows = rng.integers(0, n, size=n)
            X, y = X[rows], y[rows]
        _assert_matches_oracle(
            X, y, max_depth=depth, min_samples_leaf=leaf,
            max_features=max_features, seed=data_seed % 1000,
        )

    def test_constant_feature(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 3))
        X[:, 1] = 7.0  # unsplittable column
        y = rng.normal(size=30)
        _assert_matches_oracle(X, y, max_depth=8)

    def test_constant_target(self):
        X = np.random.default_rng(1).normal(size=(20, 2))
        tree = _assert_matches_oracle(X, np.ones(20), max_depth=5)
        assert tree.depth() == 0

    def test_negative_zero_leaf(self):
        # A one-sample leaf averages a -0.0 target to +0.0, as numpy does.
        X = np.arange(4, dtype=np.float64).reshape(-1, 1)
        y = np.array([-0.0, 5.0, -3.0, 8.0])
        tree = _assert_matches_oracle(X, y, max_depth=5)
        assert np.signbit(tree.predict(X[:1])).tolist() == [False]

    def test_feature_subsampling(self):
        # Same seed => same per-node feature draws in both growers.
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 9))
        y = X @ rng.normal(size=9)
        _assert_matches_oracle(X, y, max_depth=10, max_features="third", seed=5)

    def test_deep_chain(self):
        # An exponential target peels one sample per split, so the chain
        # starts on the numpy path (300 samples) and runs on in Python.
        n = 300
        X = np.arange(n, dtype=np.float64).reshape(-1, 1)
        tree = _assert_matches_oracle(X, 2.0 ** np.arange(n), max_depth=n)
        assert tree.depth() > 100


class TestForest:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 6))
        return X, X @ rng.normal(size=6) + 0.1 * rng.normal(size=80)

    def test_engines_identical(self, data):
        X, y = data
        model = RandomForestRegressor(n_estimators=8, seed=4).fit(X, y)
        ref = fit_reference_forest(X, y, n_estimators=8, seed=4)
        np.testing.assert_array_equal(model.predict(X), ref.predict(X))
        np.testing.assert_array_equal(
            model.feature_importances_, ref.feature_importances_
        )

    def test_label_train_shape(self):
        # The benchmark's estimator fit: 154 rows x 7 features, 50 trees,
        # two features drawn per split, CF-like labels on a 0.02 grid.
        rng = np.random.default_rng(7)
        X = rng.normal(size=(154, 7))
        X[:, 3] = np.round(X[:, 3])  # a coarse, heavily tied feature
        y = np.round((1.2 + 0.3 * np.tanh(X @ rng.normal(size=7))) / 0.02) * 0.02
        model = RandomForestRegressor(n_estimators=50, seed=11).fit(X, y)
        ref = fit_reference_forest(X, y, n_estimators=50, seed=11)
        assert len(model.trees_) == len(ref.trees_) == 50
        for tree, spec in zip(model.trees_, ref.trees_):
            _assert_identical_trees(tree, spec)
        assert model.feature_importances_.tobytes() == ref.feature_importances_.tobytes()
        assert model.predict(X).tobytes() == ref.predict(X).tobytes()

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
        # recursion limit.  Growth, depth(), flattening and predict()
        # must all be iterative.
        n = 400
        X = np.arange(n, dtype=np.float64).reshape(-1, 1)
        y = 2.0 ** np.arange(n)
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(250)
            tree = DecisionTreeRegressor(max_depth=10_000).fit(X, y)
            assert tree.depth() > 150
            pred = tree.predict(X)
        finally:
            sys.setrecursionlimit(limit)
        np.testing.assert_array_equal(pred, y)
