"""Model persistence: serialize trained estimators to plain JSON.

All four model types round-trip losslessly (trees store their node
arrays, the MLP its weights, linear models their coefficients), so a CF
estimator trained once on the 2,000-module sweep can be reused across
sessions and shipped alongside a flow — no pickle, no code execution on
load.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.ml.forest import RandomForestRegressor
from repro.ml.linear import LinearRegression
from repro.ml.mlp import MLPRegressor
from repro.ml.tree import DecisionTreeRegressor, _Node

__all__ = ["model_to_dict", "model_from_dict"]

_FORMAT = 1


def _arr(a: np.ndarray | None) -> list | None:
    return None if a is None else np.asarray(a).tolist()


# ----------------------------------------------------------------- trees


def _tree_nodes_to_list(root: _Node) -> list[dict[str, Any]]:
    """Flatten a tree into a list of dicts with child indices."""
    nodes: list[dict[str, Any]] = []

    def visit(node: _Node) -> int:
        idx = len(nodes)
        nodes.append(
            {
                "feature": node.feature,
                "threshold": node.threshold,
                "value": node.value,
                "left": -1,
                "right": -1,
            }
        )
        if not node.is_leaf:
            nodes[idx]["left"] = visit(node.left)
            nodes[idx]["right"] = visit(node.right)
        return idx

    visit(root)
    return nodes


def _tree_nodes_from_list(items: list[dict[str, Any]]) -> _Node:
    built = [None] * len(items)

    def build(idx: int) -> _Node:
        if built[idx] is not None:
            return built[idx]
        spec = items[idx]
        node = _Node()
        node.feature = int(spec["feature"])
        node.threshold = float(spec["threshold"])
        node.value = float(spec["value"])
        if spec["left"] >= 0:
            node.left = build(spec["left"])
            node.right = build(spec["right"])
        built[idx] = node
        return node

    return build(0)


def _dt_to_dict(model: DecisionTreeRegressor) -> dict[str, Any]:
    if model._root is None:
        raise ValueError("cannot serialize an unfitted tree")
    return {
        "params": {
            "max_depth": model.max_depth,
            "min_samples_leaf": model.min_samples_leaf,
            "min_samples_split": model.min_samples_split,
            "max_features": model.max_features,
            "seed": model.seed,
        },
        "n_features": model._n_features,
        "nodes": _tree_nodes_to_list(model._root),
        "importances": _arr(model.feature_importances_),
    }


def _dt_from_dict(data: dict[str, Any]) -> DecisionTreeRegressor:
    model = DecisionTreeRegressor(**data["params"])
    model._flat = None
    model._root = _tree_nodes_from_list(data["nodes"])
    model._n_features = int(data["n_features"])
    model.feature_importances_ = (
        None if data["importances"] is None else np.asarray(data["importances"])
    )
    return model


# ----------------------------------------------------------------- dispatch


def model_to_dict(model: Any) -> dict[str, Any]:
    """Serialize any supported regressor to a JSON-compatible dict."""
    if isinstance(model, LinearRegression):
        if model.coef_ is None:
            raise ValueError("cannot serialize an unfitted model")
        payload = {
            "ridge": model.ridge,
            "coef": _arr(model.coef_),
            "intercept": model.intercept_,
            "mu": _arr(model._mu),
            "sigma": _arr(model._sigma),
        }
        kind = "linear"
    elif isinstance(model, DecisionTreeRegressor):
        payload = _dt_to_dict(model)
        kind = "tree"
    elif isinstance(model, RandomForestRegressor):
        if not model.trees_:
            raise ValueError("cannot serialize an unfitted forest")
        payload = {
            "params": {
                "n_estimators": model.n_estimators,
                "max_depth": model.max_depth,
                "max_features": model.max_features,
                "min_samples_leaf": model.min_samples_leaf,
                "seed": model.seed,
            },
            "trees": [_dt_to_dict(t) for t in model.trees_],
            "importances": _arr(model.feature_importances_),
        }
        kind = "forest"
    elif isinstance(model, MLPRegressor):
        if model._params is None:
            raise ValueError("cannot serialize an unfitted MLP")
        payload = {
            "params": {
                "hidden": model.hidden,
                "epochs": model.epochs,
                "batch_size": model.batch_size,
                "lr": model.lr,
                "seed": model.seed,
            },
            "weights": {k: _arr(v) for k, v in model._params.items()},
            "x_mu": _arr(model._x_mu),
            "x_sd": _arr(model._x_sd),
            "y_mu": model._y_mu,
            "y_sd": model._y_sd,
        }
        kind = "mlp"
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    return {"format": _FORMAT, "kind": kind, "payload": payload}


def model_from_dict(data: dict[str, Any]) -> Any:
    """Rebuild a regressor serialized by :func:`model_to_dict`."""
    if data.get("format") != _FORMAT:
        raise ValueError(f"unsupported model format {data.get('format')!r}")
    kind = data["kind"]
    payload = data["payload"]
    if kind == "linear":
        model = LinearRegression(ridge=payload["ridge"])
        model.coef_ = np.asarray(payload["coef"])
        model.intercept_ = float(payload["intercept"])
        model._mu = np.asarray(payload["mu"])
        model._sigma = np.asarray(payload["sigma"])
        return model
    if kind == "tree":
        return _dt_from_dict(payload)
    if kind == "forest":
        model = RandomForestRegressor(**payload["params"])
        model.trees_ = [_dt_from_dict(t) for t in payload["trees"]]
        model.feature_importances_ = (
            None
            if payload["importances"] is None
            else np.asarray(payload["importances"])
        )
        return model
    if kind == "mlp":
        p = payload["params"]
        model = MLPRegressor(**p)
        model._params = {k: np.asarray(v) for k, v in payload["weights"].items()}
        model._x_mu = np.asarray(payload["x_mu"])
        model._x_sd = np.asarray(payload["x_sd"])
        model._y_mu = float(payload["y_mu"])
        model._y_sd = float(payload["y_sd"])
        return model
    raise ValueError(f"unknown model kind {kind!r}")
