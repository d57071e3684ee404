"""From-scratch NumPy implementations of the paper's four estimators
(§VI-B): linear regression, a CART decision tree, a random forest, and a
one-hidden-layer MLP trained with ADAM — plus the metrics and splits the
evaluation uses (relative error, 80/20 split).

scikit-learn is deliberately not used: the models are small and fully
specified in the paper, and owning the implementation lets the tree/forest
expose the impurity-based feature importances Figs. 9/12 analyze.

One tree grower (:mod:`repro.ml.tree`) builds every tree, bitwise
identical to the reference grower kept in ``tests/tree_oracle.py``; the
forest draws every bootstrap from one seeded stream, fits its trees in
order, and batches prediction across trees (:mod:`repro.ml.ensemble`).
"""

from repro.ml.ensemble import StackedTrees, stack_trees
from repro.ml.forest import RandomForestRegressor
from repro.ml.linear import LinearRegression
from repro.ml.metrics import (
    mean_absolute_error,
    mean_relative_error,
    mean_squared_error,
    median_absolute_relative_error,
    r2_score,
)
from repro.ml.mlp import MLPRegressor
from repro.ml.split import kfold_indices, train_test_split
from repro.ml.tree import DecisionTreeRegressor

__all__ = [
    "DecisionTreeRegressor",
    "LinearRegression",
    "MLPRegressor",
    "RandomForestRegressor",
    "StackedTrees",
    "stack_trees",
    "kfold_indices",
    "mean_absolute_error",
    "mean_relative_error",
    "mean_squared_error",
    "median_absolute_relative_error",
    "r2_score",
    "train_test_split",
]
