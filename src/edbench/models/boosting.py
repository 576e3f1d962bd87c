"""Gradient-boosted trees for binary outcomes.

Stagewise additive logistic boosting: the score starts at the base-rate
log-odds and each stage fits a shallow regression tree to the current
residuals ``y - p``, with leaf values set by a single Newton step (sum of
residuals over sum of ``p (1 - p)``) scaled by the learning rate, and
stored so scaled in the leaves' ``threshold_or_value``, as in XGBoost.
Training records the deviance after every stage, a float64 array; on the
training set it must never increase, which the test suite checks. Every
stage's tree grows on all rows, so the fit builds their level-0 histogram
layout once and hands it to each stage. Growth gives the leaf each row
ends at, so training adds a stage's leaves to the scores without calling
``predict_trees``. Prediction walks every stage's tree at once with
``predict_trees`` and adds the leaves in stage order, as training did. A fit on one class stores only that class's rate,
``constant``.
"""

from __future__ import annotations

import logging
import warnings

import numpy as np

from ..errors import DegenerateLabels, NonFiniteLoss
from ._trees import MODEL_FIELDS, bin_features, grow_tree, predict_trees
from .linear import sigmoid, _softplus

logger = logging.getLogger(__name__)


def _deviance(F: np.ndarray, y: np.ndarray) -> float:
    # mean binomial deviance, computed in the stable softplus form
    return float(np.mean(_softplus(F) - y * F))


def fit_boosting(X: np.ndarray, y: np.ndarray, *, n_stages: int = 100,
                 max_depth: int = 3, learning_rate: float = 0.1,
                 min_leaf: int = 1) -> dict:
    """Train on finite X (``train_model`` checks it); return the params."""
    y = y.astype(np.float64)
    n = X.shape[0]
    pos = float(y.sum())
    if pos == 0.0 or pos == n:
        warnings.warn("training labels are all one class; fitting a constant",
                      DegenerateLabels)
        return {"constant": pos / n}

    binned = bin_features(X)
    base = float(np.log(pos / (n - pos)))
    F = np.full(n, base)
    idx = np.arange(n, dtype=np.intp)
    root = binned.root_histogram()
    leaf = np.empty(n, dtype=np.intp)       # each row's node in the stage
    trees = []
    deviance = [_deviance(F, y)]
    for stage in range(n_stages):
        p = sigmoid(F)
        resid = y - p
        hess = p * (1.0 - p)
        tree = grow_tree(binned, idx, resid, max_depth=max_depth, root=root,
                         min_leaf=min_leaf, leaf_grad=resid, leaf_hess=hess,
                         leaf=leaf)
        value = tree["threshold_or_value"]
        value[tree["feature"] < 0] *= learning_rate
        trees.append({name: tree[name] for name in MODEL_FIELDS})
        F = F + value[leaf]
        dev = _deviance(F, y)
        if not np.isfinite(dev):
            raise NonFiniteLoss(f"boosting: non-finite deviance at stage {stage}")
        deviance.append(dev)
    logger.info("boosting: %d stages, deviance %.6f -> %.6f",
                n_stages, deviance[0], deviance[-1])
    return {"base_score": base, "trees": trees,
            "train_deviance": np.array(deviance)}


def predict_boosting(params: dict, X: np.ndarray) -> np.ndarray:
    if "constant" in params:
        return np.full(X.shape[0], float(params["constant"]))
    F = np.full(X.shape[0], float(params["base_score"]))
    for leaf in predict_trees(params["trees"], X):
        F += leaf
    return sigmoid(F)
