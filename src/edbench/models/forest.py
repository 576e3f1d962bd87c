"""Random forest classifier built on the shared binned-tree machinery.

Each tree trains on a bootstrap resample (drawn with replacement, same
size as the training set) and considers ceil(sqrt(d)) randomly chosen
features at every node. Per-tree randomness comes from independent
child seeds spawned from the model seed, so results are reproducible
and independent of evaluation order. The forest predicts the mean of
per-tree leaf class fractions.
"""

from __future__ import annotations

import logging
import math
import warnings

import numpy as np

from ..errors import DataError, DegenerateLabels
from ._trees import bin_features, grow_tree, predict_tree

logger = logging.getLogger(__name__)

DEFAULTS = {
    "n_trees": 100,
    "max_depth": 32,
    "min_leaf": 1,
}


def fit_forest(X: np.ndarray, y: np.ndarray, *, n_trees: int = 100,
               max_depth: int = 32, min_leaf: int = 1, seed: int = 0) -> dict:
    if not np.isfinite(X).all():
        raise DataError("random forest: non-finite feature values")
    y = y.astype(np.float64)
    n, d = X.shape
    pos = float(y.sum())
    if pos == 0.0 or pos == n:
        warnings.warn("training labels are all one class; fitting a constant",
                      DegenerateLabels)
        return {
            "constant": pos / n,
            "n_trees": 0,
            "n_features": d,
            "trees": [],
        }

    binned = bin_features(X)
    features_per_node = int(math.ceil(math.sqrt(d)))
    children = np.random.SeedSequence(seed).spawn(n_trees)
    trees = []
    for child in children:
        rng = np.random.default_rng(child)
        boot = rng.integers(0, n, size=n)
        trees.append(grow_tree(binned, boot, y, max_depth=max_depth,
                               min_leaf=min_leaf,
                               features_per_node=features_per_node, rng=rng))
    logger.info("forest: %d trees on %d rows x %d features", n_trees, n, d)
    return {
        "n_trees": n_trees,
        "n_features": d,
        "trees": trees,
    }


def predict_forest(params: dict, X: np.ndarray) -> np.ndarray:
    if "constant" in params:
        return np.full(X.shape[0], float(params["constant"]))
    acc = np.zeros(X.shape[0])
    for tree in params["trees"]:
        acc += predict_tree(tree, X)
    return acc / len(params["trees"])


def forest_importance(params: dict) -> np.ndarray:
    """Mean impurity-decrease importance across trees, normalized to sum 1.

    Each split contributes its Gini decrease weighted by the fraction of
    the tree's root samples reaching that node. Returns the zero vector
    for a constant (degenerate) model.
    """
    d = int(params["n_features"])
    total = np.zeros(d)
    trees = params["trees"]
    if not trees:
        return total
    for tree in trees:
        root_n = tree["n_samples"][0]
        for feat, n, gain in zip(tree["feature"], tree["n_samples"],
                                 tree["gain"]):
            if feat >= 0:
                total[feat] += n / root_n * gain
    total /= len(trees)
    s = total.sum()
    if s > 0:
        total /= s
    return total
