"""Gradient-boosted trees for binary outcomes.

Stagewise additive logistic boosting: the score starts at the base-rate
log-odds and each stage fits a shallow regression tree to the current
residuals ``y - p``, with leaf values set by a single Newton step
(sum of residuals over sum of ``p (1 - p)``) scaled by the learning
rate. Training records the deviance after every stage; on the training
set the sequence must never increase, which the test suite checks.
"""

from __future__ import annotations

import logging
import warnings

import numpy as np

from ..errors import DataError, DegenerateLabels, NonFiniteLoss
from ._trees import bin_features, grow_tree, predict_tree
from .linear import sigmoid, _softplus

logger = logging.getLogger(__name__)

DEFAULTS = {
    "n_stages": 100,
    "max_depth": 3,
    "learning_rate": 0.1,
    "min_leaf": 1,
}


def _deviance(F: np.ndarray, y: np.ndarray) -> float:
    # mean binomial deviance, computed in the stable softplus form
    return float(np.mean(_softplus(F) - y * F))


def fit_boosting(X: np.ndarray, y: np.ndarray, *, n_stages: int = 100,
                 max_depth: int = 3, learning_rate: float = 0.1,
                 min_leaf: int = 1) -> dict:
    if not np.isfinite(X).all():
        raise DataError("boosting: non-finite feature values")
    y = y.astype(np.float64)
    n = X.shape[0]
    pos = float(y.sum())
    if pos == 0.0 or pos == n:
        warnings.warn("training labels are all one class; fitting a constant",
                      DegenerateLabels)
        return {
            "constant": pos / n,
            "base_score": 0.0,
            "learning_rate": learning_rate,
            "trees": [],
            "train_deviance": [],
        }

    binned = bin_features(X)
    base = float(np.log(pos / (n - pos)))
    F = np.full(n, base)
    idx = np.arange(n, dtype=np.intp)
    trees = []
    deviance = [_deviance(F, y)]
    for stage in range(n_stages):
        p = sigmoid(F)
        resid = y - p
        hess = p * (1.0 - p)
        tree = grow_tree(binned, idx, resid, max_depth=max_depth,
                         min_leaf=min_leaf, leaf_grad=resid, leaf_hess=hess)
        F = F + learning_rate * predict_tree(tree, X)
        dev = _deviance(F, y)
        if not np.isfinite(dev):
            raise NonFiniteLoss(f"boosting: non-finite deviance at stage {stage}")
        deviance.append(dev)
        trees.append(tree)
    logger.info("boosting: %d stages, deviance %.6f -> %.6f",
                n_stages, deviance[0], deviance[-1])
    return {
        "base_score": base,
        "learning_rate": learning_rate,
        "trees": trees,
        "train_deviance": deviance,
    }


def predict_boosting(params: dict, X: np.ndarray) -> np.ndarray:
    if "constant" in params:
        return np.full(X.shape[0], float(params["constant"]))
    F = np.full(X.shape[0], float(params["base_score"]))
    lr = float(params["learning_rate"])
    for tree in params["trees"]:
        F += lr * predict_tree(tree, X)
    return sigmoid(F)
