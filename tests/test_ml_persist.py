"""Tests for model persistence (JSON round-trips)."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from repro.ml.linear import LinearRegression
from repro.ml.mlp import MLPRegressor
from repro.ml.persist import model_from_dict, model_to_dict
from repro.ml.tree import DecisionTreeRegressor


def _data(n=120, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = X @ np.array([1.0, -2.0, 0.5, 0.0]) + 0.1 * rng.normal(size=n)
    return X, y


_MODELS = [
    LinearRegression(),
    DecisionTreeRegressor(max_depth=6),
    RandomForestRegressor(n_estimators=8, seed=1),
    MLPRegressor(hidden=6, epochs=30, seed=1),
]


class TestRoundtrip:
    @pytest.mark.parametrize("model", _MODELS, ids=lambda m: type(m).__name__)
    def test_predictions_preserved(self, model):
        X, y = _data()
        model.fit(X, y)
        clone = model_from_dict(model_to_dict(model))
        np.testing.assert_allclose(model.predict(X), clone.predict(X), rtol=1e-12)

    def test_importances_preserved(self):
        X, y = _data()
        model = RandomForestRegressor(n_estimators=5).fit(X, y)
        clone = model_from_dict(model_to_dict(model))
        np.testing.assert_allclose(
            model.feature_importances_, clone.feature_importances_
        )

    def test_json_compatible(self):
        import json

        X, y = _data()
        model = DecisionTreeRegressor(max_depth=4).fit(X, y)
        text = json.dumps(model_to_dict(model))
        clone = model_from_dict(json.loads(text))
        np.testing.assert_allclose(model.predict(X), clone.predict(X))


class TestErrors:
    def test_unfitted_rejected(self):
        with pytest.raises(ValueError):
            model_to_dict(LinearRegression())
        with pytest.raises(ValueError):
            model_to_dict(DecisionTreeRegressor())

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            model_to_dict(object())

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            model_from_dict({"format": 99, "kind": "tree", "payload": {}})

    def test_unknown_kind_rejected(self):
        # Boosted trees are no longer a model kind: a saved booster is
        # rejected like any other unknown kind.
        for kind in ("svm", "gbrt"):
            with pytest.raises(ValueError, match=f"unknown model kind '{kind}'"):
                model_from_dict({"format": 1, "kind": kind, "payload": {}})


class TestEstimatorSaveLoad:
    def test_cf_estimator_roundtrip(self, small_dataset, tmp_path):
        from repro.estimator.cf_estimator import CFEstimator

        est = CFEstimator(kind="dt", feature_set="additional").fit(
            small_dataset[:60]
        )
        path = tmp_path / "est.json"
        est.save(path)
        loaded = CFEstimator.load(path)
        assert loaded.kind == "dt"
        assert loaded.feature_set == "additional"
        a = est.predict_many(small_dataset[60:70])
        b = loaded.predict_many(small_dataset[60:70])
        np.testing.assert_allclose(a, b)

    def test_save_unfitted_rejected(self, tmp_path):
        from repro.estimator.cf_estimator import CFEstimator

        with pytest.raises(RuntimeError):
            CFEstimator(kind="dt").save(tmp_path / "x.json")
