"""Random forest classifier built on the shared binned-tree machinery.

Each tree trains on a bootstrap resample (drawn with replacement, same
size as the training set) and considers ceil(sqrt(d)) randomly chosen
features at every node. Per-tree randomness comes from independent
child seeds spawned from the model seed, so results are reproducible
and independent of evaluation order. Each tree's generator first draws
the bootstrap rows, then, in ``grow_trees``, one block of feature draws
per depth level for that tree's open nodes. A tree grows on its
bootstrap's distinct rows and the count of each, which gives the tree
that the repeated rows give (see ``_trees``). Trees grow together in
passes of as many trees as fit PASS_CELLS root cells, in seed order: a
root cell is one bootstrap draw of one of the features per node, so a
pass's distinct rows fill about 63 % of the budget. Since each tree draws
only from its own generator, a tree comes out the same whatever pass it
is grown in. The forest predicts the mean of per-tree leaf class
fractions, summed in tree order from one ``predict_trees`` walk over the
whole ensemble. ``params`` holds ``trees``, each tree's ``feature`` and
``threshold_or_value`` arrays, and ``importance``, computed at fit from the
grown trees' row counts and gains (``_trees``), a float64 array. On
one-class labels no root opens: each tree is one leaf worth that class, 0.0
or 1.0; importances 0.0.
"""

from __future__ import annotations

import logging
import math
import warnings

import numpy as np

from ..errors import DegenerateLabels
from ._trees import MODEL_FIELDS, bin_features, grow_trees, predict_trees

logger = logging.getLogger(__name__)

# root cells (bootstrap draws x features_per_node) of the trees grown in one
# pass; at 2 ** 17, a pass holds 12 trees of 1,200 rows and 72 features, and
# from 7,282 rows at that width, one tree
PASS_CELLS = 2 ** 17


def fit_forest(X: np.ndarray, y: np.ndarray, *, n_trees: int = 100,
               max_depth: int = 32, min_leaf: int = 1, seed: int = 0) -> dict:
    """Train on finite X (``train_model`` checks it); return the params."""
    y = y.astype(np.float64)
    n, d = X.shape
    if y.min() == y.max():
        warnings.warn("training labels are all one class", DegenerateLabels)
    binned = bin_features(X)
    features_per_node = int(math.ceil(math.sqrt(d)))
    children = np.random.SeedSequence(seed).spawn(n_trees)
    per_pass = max(1, PASS_CELLS // (n * features_per_node))
    trees = []
    for first in range(0, n_trees, per_pass):
        rngs = [np.random.default_rng(child)
                for child in children[first:first + per_pass]]
        # each bootstrap as its distinct rows, in order, and their counts
        drawn = [np.bincount(rng.integers(0, n, size=n), minlength=n)
                 for rng in rngs]
        rows = [np.flatnonzero(times) for times in drawn]
        trees += grow_trees(binned, rows, y, max_depth=max_depth,
                            min_leaf=min_leaf,
                            features_per_node=features_per_node, rngs=rngs,
                            counts=[times[r] for times, r in zip(drawn, rows)])
    logger.info("forest: %d trees on %d rows x %d features", n_trees, n, d)
    return {"trees": [{name: tree[name] for name in MODEL_FIELDS}
                      for tree in trees],
            "importance": forest_importance(trees, d)}


def predict_forest(params: dict, X: np.ndarray) -> np.ndarray:
    acc = np.zeros(X.shape[0])
    for leaf in predict_trees(params["trees"], X):
        acc += leaf
    return acc / len(params["trees"])


def forest_importance(trees: list[dict], d: int) -> np.ndarray:
    """Mean impurity-decrease importance of d features across grown
    ``trees`` (with ``n_samples`` and ``gain``), normalized to sum 1.

    Each split contributes its Gini decrease weighted by the fraction of
    the tree's root samples reaching that node.
    """
    total = np.zeros(d)
    for tree in trees:
        split = tree["feature"] >= 0
        # unbuffered, so splits add up in node order
        np.add.at(total, tree["feature"][split],
                  tree["n_samples"][split] / tree["n_samples"][0]
                  * tree["gain"][split])
    total /= len(trees)
    s = total.sum()
    if s > 0:
        total /= s
    return total
