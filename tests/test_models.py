import contextlib
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from edbench.errors import (ConfigError, DataError, DegenerateLabels,
                            ManifestMismatch, WrongKind)
from edbench.models import (MODEL_KINDS, FeatureMatrix, build_feature_matrix,
                            load_manifest, load_model, predict_proba,
                            resolve_hyperparams, rf_variable_importance,
                            save_model, train_model)
from edbench.models import _trees, base, boosting, forest
from edbench.models.base import FORMAT
from edbench.models._trees import (MODEL_FIELDS, TABLE_FIELDS, TREE_FIELDS,
                                   bin_features, grow_tree, grow_trees,
                                   predict_trees, trees_from_json)
from edbench.models.boosting import fit_boosting, predict_boosting
from edbench.models.forest import fit_forest, forest_importance, predict_forest
from edbench.models.linear import (fit_logistic, logistic_objective,
                                  predict_logistic, sigmoid)
from edbench.models.mlp import fit_mlp, mlp_loss_and_grads, predict_mlp

def _rel_err(a, b):
    return abs(a - b) / max(abs(a) + abs(b), 1e-10)


def _toy(n=400, d=6, seed=0, noise=0.5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    logits = 2.0 * X[:, 0] - 1.5 * X[:, 1] + noise * rng.normal(size=n)
    y = (logits > 0).astype(np.float64)
    return X, y


# -- gradient checks ----------------------------------------------------------

def test_logistic_gradient_central_differences():
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(20):
        n = int(rng.integers(5, 40))
        d = int(rng.integers(2, 8))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        w = rng.normal(size=d)
        b = float(rng.normal())
        lam = float(rng.uniform(0.01, 1.0))
        _, gw, gb = logistic_objective(w, b, X, y, lam)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            num = (logistic_objective(w + e, b, X, y, lam)[0]
                   - logistic_objective(w - e, b, X, y, lam)[0]) / (2 * h)
            assert _rel_err(gw[j], num) < 1e-4
        num_b = (logistic_objective(w, b + h, X, y, lam)[0]
                 - logistic_objective(w, b - h, X, y, lam)[0]) / (2 * h)
        assert _rel_err(gb, num_b) < 1e-4


def test_mlp_gradient_central_differences():
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(20):
        n = int(rng.integers(4, 16))
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 6))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        W1 = rng.normal(size=(d, k)) * 0.7
        b1 = rng.normal(size=k) * 0.3
        w2 = rng.normal(size=k) * 0.7
        b2 = float(rng.normal() * 0.3)
        _, dW1, db1, dw2, db2 = mlp_loss_and_grads(W1, b1, w2, b2, X, y)

        def loss_at(W1=W1, b1=b1, w2=w2, b2=b2):
            return mlp_loss_and_grads(W1, b1, w2, b2, X, y)[0]

        for i in range(d):
            for j in range(k):
                E = np.zeros_like(W1)
                E[i, j] = h
                num = (loss_at(W1=W1 + E) - loss_at(W1=W1 - E)) / (2 * h)
                assert _rel_err(dW1[i, j], num) < 1e-3
        for j in range(k):
            e = np.zeros(k)
            e[j] = h
            num = (loss_at(b1=b1 + e) - loss_at(b1=b1 - e)) / (2 * h)
            assert _rel_err(db1[j], num) < 1e-3
            num = (loss_at(w2=w2 + e) - loss_at(w2=w2 - e)) / (2 * h)
            assert _rel_err(dw2[j], num) < 1e-3
        num = (loss_at(b2=b2 + h) - loss_at(b2=b2 - h)) / (2 * h)
        assert _rel_err(db2, num) < 1e-3


# -- trees ---------------------------------------------------------------------

def _brute_best_split(X, y):
    """Exhaustive best (feature, threshold, impurity decrease) by weighted
    Gini, candidate thresholds at midpoints of consecutive unique values."""
    n = len(y)

    def gini_sum(arr):
        if len(arr) == 0:
            return 0.0
        p = arr.mean()
        return (1.0 - p * p - (1 - p) * (1 - p)) * len(arr)

    parent = gini_sum(y)
    best = (None, None, 0.0)
    for j in range(X.shape[1]):
        uniq = np.unique(X[:, j])
        for t in (uniq[:-1] + uniq[1:]) / 2.0:
            mask = X[:, j] <= t
            dec = parent - gini_sum(y[mask]) - gini_sum(y[~mask])
            if dec > best[2] + 1e-12:
                best = (j, t, dec)
    return best


def _left_children(tree):
    """Each node's left child, -1 at a leaf. In level order the k-th split
    (0-based) has its children at 1 + 2k and 2 + 2k."""
    split = np.asarray(tree["feature"]) >= 0
    return np.where(split, 2 * np.cumsum(split) - 1, -1)


def _depth(tree):
    """The number of splits on a tree's longest path from its root."""
    left = _left_children(tree)

    def below(node):
        return 0 if left[node] < 0 else 1 + max(below(left[node]),
                                                below(left[node] + 1))
    return below(0)


def _node_rows(tree, X):
    """The indices of the rows of X that reach each node."""
    reach = [None] * len(tree["feature"])
    reach[0] = np.arange(len(X))
    for i, left in enumerate(_left_children(tree).tolist()):
        if left >= 0:
            rows = reach[i]
            go_left = (X[rows, tree["feature"][i]]
                       <= tree["threshold_or_value"][i])
            reach[left], reach[left + 1] = rows[go_left], rows[~go_left]
    return reach


def test_single_split_matches_exhaustive_search():
    rng = np.random.default_rng(3)
    for trial in range(10):
        X = rng.normal(size=(60, 3))
        y = (X[:, trial % 3] + 0.3 * rng.normal(size=60) > 0).astype(np.float64)
        feat, thr, dec = _brute_best_split(X, y)
        binned = bin_features(X)
        tree = grow_tree(binned, np.arange(60), y, max_depth=1)
        assert tree["feature"][0] == feat
        assert tree["threshold_or_value"][0] == pytest.approx(thr)
        assert tree["gain"][0] == pytest.approx(dec / 60.0, abs=1e-12)

        # a Newton tree's gain at each split is the decrease in residual
        # variance from the parent to its children
        resid = y - rng.uniform(0.2, 0.8, size=60)
        tree = grow_tree(binned, np.arange(60), resid, max_depth=3,
                         leaf_grad=resid, leaf_hess=np.full(60, 0.25))
        reach = _node_rows(tree, X)
        splits = np.flatnonzero(tree["feature"] >= 0)
        assert splits.size >= 3
        for i in splits.tolist():
            left = _left_children(tree)[i]
            parent, kids = resid[reach[i]], (resid[reach[left]],
                                             resid[reach[left + 1]])
            expected = np.var(parent) - sum(
                len(kid) / len(parent) * np.var(kid) for kid in kids)
            assert tree["gain"][i] == pytest.approx(expected, abs=1e-9)


def test_tree_routes_at_threshold_inclusive_left():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    tree = grow_tree(bin_features(X), np.arange(4), y, max_depth=1)
    thr = tree["threshold_or_value"][0]
    preds = predict_trees([tree], np.array([[thr], [np.nextafter(thr, 10)]]))[0]
    assert preds[0] == 0.0 and preds[1] == 1.0


def _leaf_of(tree, X):
    """Node index each row of X ends at."""
    left = _left_children(tree)
    node = np.zeros(len(X), dtype=np.intp)
    while (inner := tree["feature"][node] >= 0).any():
        at = node[inner]
        node[inner] = left[at] + (X[inner, tree["feature"][at]]
                                  > tree["threshold_or_value"][at])
    return node


@contextlib.contextmanager
def _spy(module, grower):
    """Patch ``module.grower`` (``grow_trees`` or ``grow_tree``) to call
    through, and yield the list of every tree it grows, with all of
    TREE_FIELDS, in the order grown: a copy, as the grower returned it,
    before boosting shrinks its leaves in place."""
    real, grown = getattr(module, grower), []

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        grown.extend({name: column.copy() for name, column in tree.items()}
                     for tree in (out if isinstance(out, list) else [out]))
        return out

    with mock.patch.object(module, grower, spy):
        yield grown


def _assert_model_trees(params, grown, learning_rate=None):
    """A fit's ``params`` hold the trees it grew, less ``n_samples`` and
    ``gain``: each the same arrays on MODEL_FIELDS, a boosting fit's leaves
    times its ``learning_rate`` and its thresholds as grown."""
    assert len(params["trees"]) == len(grown)
    for kept, tree in zip(params["trees"], grown):
        assert list(kept) == list(MODEL_FIELDS)
        for name in MODEL_FIELDS:
            expected = tree[name]
            if name == "threshold_or_value" and learning_rate is not None:
                expected = np.where(tree["feature"] < 0,
                                    learning_rate * expected, expected)
            assert kept[name].dtype == expected.dtype, name
            assert np.array_equal(kept[name], expected), name


def _grown_trees(variant, X, y, max_depth, min_leaf):
    """(tree, training rows) pairs, each tree with all of TREE_FIELDS; rows
    is None for the forest, which draws its bootstrap rows itself. A fit's
    trees are those its grower returned, which its params must hold on
    MODEL_FIELDS."""
    rows = np.arange(len(y))
    if variant == "forest":
        with _spy(forest, "grow_trees") as grown:
            params = fit_forest(X, y, n_trees=3, max_depth=max_depth,
                                min_leaf=min_leaf, seed=0)
        _assert_model_trees(params, grown)
        return [(tree, None) for tree in grown]
    if variant == "boosting":
        with _spy(boosting, "grow_tree") as grown:
            params = fit_boosting(X, y, n_stages=3, max_depth=max_depth,
                                  min_leaf=min_leaf)
        _assert_model_trees(params, grown, learning_rate=0.1)
        return [(tree, rows) for tree in grown]
    binned = bin_features(X)
    if variant == "tree":
        return [(grow_tree(binned, rows, y, max_depth=max_depth,
                           min_leaf=min_leaf), rows)]
    resid = y - y.mean()
    hess = np.full(len(y), y.mean() * (1.0 - y.mean()))
    return [(grow_tree(binned, rows, resid, max_depth=max_depth,
                       min_leaf=min_leaf, leaf_grad=resid, leaf_hess=hess),
             rows)]


@st.composite
def _tree_data(draw, max_d=4):
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, max_d))
    # few distinct values, so ties and constant columns are common
    X = draw(arrays(np.float64, (n, d), elements=st.sampled_from(
        [-2.0, -0.5, 0.0, 0.25, 1.0, 3.0])))
    y = draw(arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0])))
    y[:2] = (0.0, 1.0)
    return X, y


@pytest.mark.parametrize("variant", ["forest", "boosting", "tree", "newton_tree"])
@settings(max_examples=50)
@given(data=_tree_data(), max_depth=st.integers(1, 6),
       min_leaf=st.integers(1, 3))
def test_grown_trees_are_well_formed(variant, data, max_depth, min_leaf):
    X, y = data
    for tree, rows in _grown_trees(variant, X, y, max_depth, min_leaf):
        assert sorted(tree) == sorted(TREE_FIELDS)
        size = len(tree["feature"])
        assert all(isinstance(tree[name], np.ndarray) and tree[name].ndim == 1
                   and len(tree[name]) == size for name in TREE_FIELDS)
        children = [0]
        for i, left in enumerate(_left_children(tree).tolist()):
            if left != -1:
                right = left + 1
                assert i < left and right < size
                assert tree["n_samples"][i] == (tree["n_samples"][left]
                                                + tree["n_samples"][right])
                children += [left, right]
        assert sorted(children) == list(range(size))     # one parent each
        assert all(gain >= 0.0 for gain in tree["gain"])
        assert tree["n_samples"][0] == len(y)
        if rows is not None:
            # each training row is counted at the leaf it is routed to
            reached = np.bincount(_leaf_of(tree, X[rows]), minlength=size)
            leaf = tree["feature"] == -1
            assert np.array_equal(reached[leaf], tree["n_samples"][leaf])


def _depth_first_grow_tree(binned, idx, y, *, max_depth, min_leaf=1,
                           leaf_grad=None, leaf_hess=None):
    """Reference builder: grows the tree depth-first, one node at a time,
    with a padded histogram over every feature, and keeps each node's
    threshold and leaf value apart, in the layout of earlier versions.
    ``grow_tree`` must return exactly this tree, less the stored ``right``
    and with one float per node, whenever it does not subsample features
    (see ``_assert_equal_to_oracle``)."""
    classification = leaf_grad is None
    codes = binned.codes
    d = codes.shape[1]
    n_bins = np.array([len(t) + 1 for t in binned.thresholds], dtype=np.int64)
    fields = ("feature", "threshold", "left", "right", "value", "n_samples",
              "gain")
    tree = {name: [] for name in fields}

    def add_leaf(value, n):
        for name, cell in zip(fields, (-1, 0.0, -1, -1, value, n, 0.0)):
            tree[name].append(cell)
        return len(tree["feature"]) - 1

    def leaf_value(rows):
        if leaf_grad is not None:
            g = float(np.cumsum(leaf_grad[rows])[-1])
            h = float(np.cumsum(leaf_hess[rows])[-1])
            return g / max(h, 1e-12)
        return float(y[rows].mean())

    stack = [(idx, 0, add_leaf(leaf_value(idx), len(idx)))]
    while stack:
        rows, depth, slot = stack.pop()
        n = len(rows)
        ysum = float(y[rows].sum())
        if depth >= max_depth or n < 2 * min_leaf:
            continue
        if classification and (ysum == 0.0 or ysum == n):
            continue
        nb = int(n_bins.max())
        sub = codes[rows].astype(np.int64)
        flat = (sub.T + (np.arange(d) * nb)[:, None]).ravel()
        cnt = np.bincount(flat, minlength=d * nb).reshape(d, nb).astype(np.float64)
        wsum = np.bincount(flat, weights=np.tile(y[rows], d),
                           minlength=d * nb).reshape(d, nb)
        cum_n = np.cumsum(cnt, axis=1)
        cum_s = np.cumsum(wsum, axis=1)
        tot_n = cum_n[:, -1:]
        tot_s = cum_s[:, -1:]
        nl = cum_n[:, :-1]
        sl = cum_s[:, :-1]
        nr = tot_n - nl
        sr = tot_s - sl
        valid = (nl >= min_leaf) & (nr >= min_leaf)
        with np.errstate(divide="ignore", invalid="ignore"):
            score = np.where(valid, sl * sl / nl + sr * sr / nr, -np.inf)
        if score.size == 0 or not np.isfinite(score).any():
            continue
        best_flat = int(np.argmax(score))
        base = tot_s[0, 0] * tot_s[0, 0] / tot_n[0, 0]
        if score.ravel()[best_flat] <= base + 1e-12:
            continue
        feat, split_bin = divmod(best_flat, nb - 1)
        if split_bin >= len(binned.thresholds[feat]):
            continue
        go_left = codes[rows, feat] <= split_bin
        rows_l = rows[go_left]
        rows_r = rows[~go_left]
        if len(rows_l) < min_leaf or len(rows_r) < min_leaf:
            continue
        n_l, n_r = len(rows_l), len(rows_r)
        # Gini impurity of 0/1 labels is twice their variance
        dec = (score.ravel()[best_flat] - base) / n * (2 if classification else 1)
        tree["feature"][slot] = feat
        tree["threshold"][slot] = float(binned.thresholds[feat][split_bin])
        tree["gain"][slot] = max(dec, 0.0)
        left_slot = tree["left"][slot] = add_leaf(leaf_value(rows_l), n_l)
        right_slot = tree["right"][slot] = add_leaf(leaf_value(rows_r), n_r)
        stack.append((rows_r, depth + 1, right_slot))
        stack.append((rows_l, depth + 1, left_slot))
    return tree


def _oracle_arrays(tree):
    """The oracle's lists as arrays, renumbered breadth first from the root,
    each split's ``threshold`` and each leaf's ``value`` merged into
    ``threshold_or_value``."""
    arrays = _level_order_oracle(tree)
    threshold, value = arrays.pop("threshold"), arrays.pop("value")
    arrays["threshold_or_value"] = np.where(arrays["feature"] >= 0, threshold,
                                            value)
    return arrays


def _level_order_oracle(tree):
    """The oracle's lists as arrays, renumbered breadth first from the root,
    without ``left`` and ``right``, which must be the children that
    ``_left_children`` derives from ``feature``, and -1 at every leaf."""
    left, right = np.array(tree["left"]), np.array(tree["right"])
    order = [0]                         # old numbers, in breadth-first order
    for node in order:
        if left[node] >= 0:
            order += [left[node], right[node]]
    place = np.empty(len(order), dtype=np.int64)
    place[order] = np.arange(len(order))
    arrays = {name: np.array(tree[name])[order]
              for name in tree if name not in ("left", "right")}
    left, right = left[order], right[order]
    split = arrays["feature"] >= 0
    assert np.array_equal(left >= 0, split) and np.all(right[~split] == -1)
    children = _left_children(arrays)
    assert np.array_equal(place[left[split]], children[split])
    assert np.array_equal(place[right[split]], children[split] + 1)
    return arrays


def _assert_equal_to_oracle(new, old):
    """Same fields, each exactly equal (``np.array_equal``)."""
    old = _oracle_arrays(old)
    assert sorted(new) == sorted(old)
    for name in new:
        assert np.array_equal(new[name], old[name]), name


def _both_builders(X, y, idx, newton, **kwargs):
    binned = bin_features(X)
    if newton:
        resid = y - y.mean()
        hess = np.full(len(y), y.mean() * (1.0 - y.mean()))
        y = resid
        kwargs.update(leaf_grad=resid, leaf_hess=hess)
    return (grow_tree(binned, idx, y, **kwargs),
            _depth_first_grow_tree(binned, idx, y, **kwargs))


@pytest.mark.parametrize("newton", [False, True], ids=["tree", "newton_tree"])
@settings(max_examples=100)
@given(data=_tree_data(), max_depth=st.integers(1, 8),
       min_leaf=st.integers(1, 3), bootstrap=st.booleans())
def test_level_wise_growth_equals_depth_first_oracle(newton, data, max_depth,
                                                     min_leaf, bootstrap):
    X, y = data
    idx = np.arange(len(y))
    if bootstrap:
        idx = np.random.default_rng(len(y)).integers(0, len(y), size=len(y))
    new, old = _both_builders(X, y, idx, newton, max_depth=max_depth,
                              min_leaf=min_leaf)
    _assert_equal_to_oracle(new, old)


def test_deep_trees_on_continuous_data_equal_depth_first_oracle():
    X, y = _toy(n=600, d=5, seed=14, noise=2.0)
    X[:, 4] = np.round(X[:, 4])       # one coarse feature beside 256-bin ones
    boot = np.random.default_rng(5).integers(0, len(y), size=len(y))
    for newton in (False, True):
        new, old = _both_builders(X, y, boot, newton, max_depth=32)
        _assert_equal_to_oracle(new, old)
        assert len(new["feature"]) > 100


def _depth_first_stages(X, oracle_trees):
    """A stand-in for ``boosting.grow_tree`` that grows each stage with the
    depth-first oracle, appends the oracle's tree to ``oracle_trees`` and
    returns it as ``grow_tree`` would, with each row's leaf, which
    ``fit_boosting`` reads in place of ``predict_trees``, found by walking
    the row of X down that tree."""
    def grow(binned, idx, y, *, root=None, leaf=None, **kwargs):
        oracle_trees.append(_depth_first_grow_tree(binned, idx, y, **kwargs))
        tree = _oracle_arrays(oracle_trees[-1])
        leaf[idx] = _leaf_of(tree, X[idx])
        return tree
    return grow


def test_boosting_with_depth_first_oracle_gives_equal_params(monkeypatch):
    X, y = _toy(n=500, seed=15, noise=1.0)
    for max_depth in (3, 6):
        with _spy(boosting, "grow_tree") as grown:
            params = fit_boosting(X, y, n_stages=15, max_depth=max_depth)
        oracle_trees = []
        with monkeypatch.context() as patch:
            patch.setattr(boosting, "grow_tree",
                          _depth_first_stages(X, oracle_trees))
            reference = fit_boosting(X, y, n_stages=15, max_depth=max_depth)
        _assert_model_trees(params, grown, learning_rate=0.1)
        _assert_model_trees(reference, [_oracle_arrays(old)
                                        for old in oracle_trees],
                            learning_rate=0.1)
        params.pop("trees")
        assert reference.pop("trees") and params.keys() == reference.keys()
        for name in params:
            assert np.array_equal(params[name], reference[name]), name
        assert len(grown) == len(oracle_trees) == 15
        for new, old in zip(grown, oracle_trees):
            _assert_equal_to_oracle(new, old)


def _assert_same_trees(new, old, fields=TREE_FIELDS):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert list(a) == list(b) == list(fields)
        for name in fields:
            assert a[name].dtype == b[name].dtype, name
            assert np.array_equal(a[name], b[name]), name


def _forest_in_passes(X, y, per_pass, **kwargs):
    """The trees fit_forest grows with the pass budget set to ``per_pass``
    trees, which its params must hold on MODEL_FIELDS, and the same trees
    grown one at a time with ``grow_tree``, each from its own generator as
    the forest.py docstring says."""
    n, d = X.shape
    features_per_node = math.ceil(math.sqrt(d))
    with (mock.patch.object(forest, "PASS_CELLS",
                            per_pass * n * features_per_node),
          _spy(forest, "grow_trees") as trees):
        _assert_model_trees(fit_forest(X, y, **kwargs), trees)
    binned = bin_features(X)
    alone = []
    for child in np.random.SeedSequence(kwargs["seed"]).spawn(
            kwargs["n_trees"]):
        rng = np.random.default_rng(child)
        boot = rng.integers(0, n, size=n)
        alone.append(grow_tree(binned, boot, y, max_depth=kwargs["max_depth"],
                               min_leaf=kwargs["min_leaf"],
                               features_per_node=features_per_node, rng=rng))
    return trees, alone


@st.composite
def _forest_data(draw):
    """Like _tree_data, with up to 9 features, so that most forests draw a
    feature subset (ceil(sqrt(d)) < d from d = 3 on)."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 9))
    X = draw(arrays(np.float64, (n, d), elements=st.sampled_from(
        [-2.0, -0.5, 0.0, 0.25, 1.0, 3.0])))
    y = draw(arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0])))
    y[:2] = (0.0, 1.0)
    return X, y


# one tree per pass, an uneven last pass (3 + 3 + 1), all trees in one pass
_PASSES = [1, 3, 7]


@pytest.mark.parametrize("per_pass", _PASSES)
@settings(max_examples=40)
@given(data=_forest_data(), max_depth=st.integers(1, 8),
       min_leaf=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
def test_forest_grown_in_passes_equals_trees_grown_alone(per_pass, data,
                                                         max_depth, min_leaf,
                                                         seed):
    X, y = data
    _assert_same_trees(*_forest_in_passes(
        X, y, per_pass, n_trees=7, max_depth=max_depth, min_leaf=min_leaf,
        seed=seed))


def _tree_depth(tree):
    depth = np.zeros(len(tree["feature"]), dtype=int)
    for i, left in enumerate(_left_children(tree).tolist()):
        if left >= 0:
            depth[left] = depth[left + 1] = depth[i] + 1
    return int(depth.max())


@pytest.mark.parametrize("per_pass", _PASSES)
def test_forest_passes_mix_one_leaf_trees_and_depths(per_pass):
    # three positives in twelve rows: some bootstraps miss them all and grow
    # one leaf, the others stop at different depths, some at max_depth
    rng = np.random.default_rng(2)
    X = rng.normal(size=(12, 9))
    y = np.zeros(12)
    y[:3] = 1.0
    for min_leaf in (1, 2, 3):
        trees, alone = _forest_in_passes(X, y, per_pass, n_trees=7,
                                         max_depth=3, min_leaf=min_leaf,
                                         seed=2)
        _assert_same_trees(trees, alone)
        depths = {_tree_depth(tree) for tree in trees}
        assert 0 in depths and len(depths) >= 3, depths
        assert min_leaf == 3 or 3 in depths, depths


@settings(max_examples=60)
@given(data=_tree_data(max_d=6), max_depth=st.integers(1, 8),
       min_leaf=st.integers(1, 3), seed=st.integers(0, 2 ** 16),
       n_trees=st.integers(1, 4))
def test_trees_on_row_counts_equal_trees_on_the_repeated_rows(
        data, max_depth, min_leaf, seed, n_trees):
    # a forest passes each bootstrap as its distinct rows and their counts;
    # from d = 3 on the trees draw feature subsets, below it they take every
    # feature (full_histogram)
    X, y = data
    n, d = X.shape
    rng = np.random.default_rng(seed)
    counts = [rng.integers(0, 4, size=n) for _ in range(n_trees)]
    for times in counts:
        times[rng.integers(n)] += 1             # no tree without rows
    rows = [np.flatnonzero(times) for times in counts]
    # the repeated rows in any order: each count is a multiset's
    repeated = [rng.permutation(np.repeat(r, times[r]))
                for r, times in zip(rows, counts)]
    binned = bin_features(X)

    def grow(idxs, **kwargs):
        rngs = [np.random.default_rng(child)
                for child in np.random.SeedSequence(seed).spawn(n_trees)]
        return grow_trees(binned, idxs, y, max_depth=max_depth,
                          min_leaf=min_leaf, rngs=rngs,
                          features_per_node=math.ceil(math.sqrt(d)), **kwargs)

    on_counts = grow(rows, counts=[times[r] for r, times in zip(rows, counts)])
    _assert_same_trees(on_counts, grow(repeated))
    assert [tree["n_samples"][0] for tree in on_counts] == [
        times.sum() for times in counts]


@pytest.mark.parametrize("newton", [False, True], ids=["tree", "newton_tree"])
@settings(max_examples=50)
@given(data=_tree_data(), max_depth=st.integers(1, 5),
       min_leaf=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
def test_split_search_cache_never_goes_stale(newton, data, max_depth,
                                             min_leaf, seed):
    # one BinnedFeatures across calls, as boosting keeps it across stages:
    # the same rows with new labels, rows in another order, a bootstrap,
    # and rows the caller changed in place after a call
    X, y = data
    n = len(y)
    rng = np.random.default_rng(seed)
    binned = bin_features(X)

    def check(rows, labels):
        kwargs = {"max_depth": max_depth, "min_leaf": min_leaf}
        if newton:
            resid = labels - rng.uniform(0.2, 0.8, size=n)
            kwargs.update(leaf_grad=resid, leaf_hess=np.full(n, 0.25))
            labels = resid
        new = grow_tree(binned, rows, labels, **kwargs)
        _assert_equal_to_oracle(
            new, _depth_first_grow_tree(binned, rows, labels, **kwargs))

    idx = np.arange(n)
    check(idx, y)
    check(idx, 1.0 - y)
    check(idx[::-1], y)
    boot = rng.integers(0, n, size=n)
    check(boot, y)
    boot[:] = np.sort(boot)         # the caller reorders its rows in place
    check(boot, y)


# -- ensemble prediction -----------------------------------------------------------

def _walk(tree, x):
    """Reference: the leaf value one row reaches, one node at a time."""
    left = _left_children(tree)
    node = 0
    while tree["feature"][node] >= 0:
        go_right = x[tree["feature"][node]] > tree["threshold_or_value"][node]
        node = left[node] + int(go_right)
    return tree["threshold_or_value"][node]


def _sequential_forest(params, X):
    acc = np.zeros(len(X))
    for tree in params["trees"]:
        acc += np.array([_walk(tree, x) for x in X])
    return acc / len(params["trees"])


def _sequential_boosting(params, X):
    if "constant" in params:
        return np.full(len(X), float(params["constant"]))
    F = np.full(len(X), float(params["base_score"]))
    for tree in params["trees"]:
        # leaves stored already shrunk by the learning rate
        F += np.array([_walk(tree, x) for x in X])
    return sigmoid(F)


@settings(max_examples=60)
@given(data=_tree_data(), depths=st.lists(st.integers(0, 6), min_size=1,
                                          max_size=6),
       block=st.sampled_from([1, 3, 4096]), constant=st.booleans())
def test_ensemble_prediction_equals_sequential_walk(data, depths, block,
                                                    constant):
    X, y = data
    if constant:
        y[:] = y[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateLabels)
            forest = fit_forest(X, y, n_trees=2, seed=0)
            boost = fit_boosting(X, y, n_stages=2)
    else:
        # one tree per drawn depth, so the ensembles mix depths
        binned, rows = bin_features(X), np.arange(len(y))
        rng = np.random.default_rng(len(y))
        forest = {"trees": [grow_tree(binned, rng.integers(0, len(y), len(y)),
                                      y, max_depth=depth) for depth in depths]}
        resid = y - y.mean()
        hess = np.full(len(y), y.mean() * (1.0 - y.mean()))
        stages = [grow_tree(binned, rows, resid, max_depth=depth,
                            leaf_grad=resid, leaf_hess=hess) for depth in depths]
        # each stage's Newton leaves shrunk by a learning rate of 0.3
        boost = {"base_score": 0.25,
                 "trees": [{**tree, "threshold_or_value": np.where(
                     tree["feature"] < 0, 0.3 * tree["threshold_or_value"],
                     tree["threshold_or_value"])} for tree in stages]}
    with mock.patch.object(_trees, "PREDICT_BLOCK", block):
        assert np.array_equal(predict_forest(forest, X),
                              _sequential_forest(forest, X))
        assert np.array_equal(predict_boosting(boost, X),
                              _sequential_boosting(boost, X))


# -- boosting -------------------------------------------------------------------

def test_boosting_deviance_trace_non_increasing():
    for seed in (0, 1):
        X, y = _toy(n=200, seed=seed)
        params = fit_boosting(X, y, n_stages=40)
        trace = params["train_deviance"]
        assert len(trace) == 41
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def _edge_data(seed, n):
    """n >= 257 rows whose columns put training values on bin edges: a
    column of n distinct values, whose quantile edges fall on values (the
    median, at least, for an odd n), one of
    two adjacent floats, whose midpoint rounds to the lower one, and one of
    a few values; labels from the columns and noise."""
    rng = np.random.default_rng(seed)
    adjacent = np.array([1.0, np.nextafter(1.0, 2.0)])
    X = np.column_stack((rng.permutation(n).astype(np.float64),
                         rng.choice(adjacent, size=n),
                         rng.choice([-1.0, 0.0, 2.5], size=n)))
    y = ((X[:, 0] / n + (X[:, 1] > 1.0) + X[:, 2] / 4
          + rng.normal(0, 0.5, size=n)) > 1.0).astype(np.float64)
    return X, y


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       n=st.integers(128, 350).map(lambda k: 2 * k + 1),
       max_depth=st.integers(1, 6), min_leaf=st.integers(1, 3))
def test_boosting_leaves_from_growth_are_the_leaves_of_predict_trees(
        seed, n, max_depth, min_leaf):
    X, y = _edge_data(seed, n)
    binned = bin_features(X)
    assert len(binned.thresholds[0]) == 255         # quantile edges
    for j in range(2):                              # values on edges
        assert np.isin(X[:, j], binned.thresholds[j]).any()
    real, leaves = boosting.grow_tree, []

    def grow(*args, leaf, **kwargs):
        tree = real(*args, leaf=leaf, **kwargs)
        leaves.append(leaf.copy())
        return tree

    with mock.patch.object(boosting, "grow_tree", grow):
        params = fit_boosting(X, y, n_stages=4, max_depth=max_depth,
                              min_leaf=min_leaf)
    walked = predict_trees(params["trees"], X)
    assert len(leaves) == len(walked) == 4
    for tree, leaf, values in zip(params["trees"], leaves, walked):
        assert np.array_equal(leaf, _leaf_of(tree, X))
        assert np.array_equal(tree["threshold_or_value"][leaf], values)


def test_fit_boosting_does_not_walk_its_trees():
    X, y = _edge_data(3, 301)
    with mock.patch.object(boosting, "predict_trees",
                           wraps=boosting.predict_trees) as walk:
        params = fit_boosting(X, y, n_stages=5)
        assert walk.call_count == 0
        predict_boosting(params, X)
        assert walk.call_count == 1


def test_boosting_base_score_is_log_odds():
    X, y = _toy(n=300, seed=2)
    params = fit_boosting(X, y, n_stages=1)
    p = y.mean()
    assert params["base_score"] == pytest.approx(math.log(p / (1 - p)))


def test_boosting_one_class_degenerates_to_constant():
    X = np.random.default_rng(0).normal(size=(50, 3))
    y = np.ones(50)
    with pytest.warns(DegenerateLabels):
        params = fit_boosting(X, y, n_stages=5)
    assert np.all(predict_boosting(params, X) == 1.0)


def test_boosting_monotone_feature_transform_invariant():
    X, y = _toy(n=250, seed=5)
    params_a = fit_boosting(X, y, n_stages=25)
    params_b = fit_boosting(np.exp(X), y, n_stages=25)
    Xt = np.random.default_rng(9).normal(size=(40, X.shape[1]))
    pa = predict_boosting(params_a, Xt)
    pb = predict_boosting(params_b, np.exp(Xt))
    assert np.array_equal(pa, pb)


def test_boosting_improves_fit():
    X, y = _toy(n=400, seed=6)
    params = fit_boosting(X, y, n_stages=60)
    acc = ((predict_boosting(params, X) > 0.5) == (y > 0.5)).mean()
    assert acc > 0.95


# -- random forest ---------------------------------------------------------------

def test_forest_seed_determinism():
    X, y = _toy(n=200, seed=4)
    a = fit_forest(X, y, n_trees=12, seed=11)
    b = fit_forest(X, y, n_trees=12, seed=11)
    c = fit_forest(X, y, n_trees=12, seed=12)
    Xt = X[:50]
    assert np.array_equal(predict_forest(a, Xt), predict_forest(b, Xt))
    assert not np.array_equal(predict_forest(a, Xt), predict_forest(c, Xt))


def test_forest_predictions_are_leaf_fractions():
    X, y = _toy(n=150, seed=8)
    params = fit_forest(X, y, n_trees=10, seed=0)
    p = predict_forest(params, X)
    assert np.all((p >= 0.0) & (p <= 1.0))
    assert ((p > 0.5) == (y > 0.5)).mean() > 0.9


def test_forest_one_class_degenerates_to_constant():
    X = np.random.default_rng(1).normal(size=(40, 2))
    with pytest.warns(DegenerateLabels):
        params = fit_forest(X, np.zeros(40), n_trees=3, seed=0)
    assert np.all(predict_forest(params, X) == 0.0)


def test_one_class_forest_is_one_leaf_trees(tmp_path):
    matrix = _matrix()
    one_class = dataclasses.replace(matrix, y=np.zeros_like(matrix.y))
    path, again = tmp_path / "rf.json", tmp_path / "again.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = train_model(one_class, "random_forest", n_trees=4)
        save_model(model, path)
        loaded = load_model(path)
        probs = predict_proba(loaded, one_class)
    assert {w.category for w in caught} == {DegenerateLabels}
    assert sorted(model.params) == ["importance", "trees"]
    one_leaf = {"feature": [-1], "threshold_or_value": [0.0]}
    for trees in (model.params["trees"], loaded.params["trees"]):
        assert [{name: tree[name].tolist() for name in MODEL_FIELDS}
                for tree in trees] == [one_leaf] * 4
    assert loaded.params["importance"].tolist() == [0.0, 0.0]
    assert np.all(probs == 0.0)
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_forest_importance_ranks_signal_feature():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(300, 5))
    y = (X[:, 2] > 0).astype(np.float64)
    with _spy(forest, "grow_trees") as grown:
        params = fit_forest(X, y, n_trees=20, seed=3)
    imp = forest_importance(grown, 5)
    assert params["importance"].tobytes() == imp.tobytes()
    assert imp.sum() == pytest.approx(1.0)
    assert np.all(imp >= 0.0)
    assert int(np.argmax(imp)) == 2


def test_forest_monotone_feature_transform_invariant():
    X, y = _toy(n=200, seed=12)
    a = fit_forest(X, y, n_trees=8, seed=21)
    b = fit_forest(np.exp(X), y, n_trees=8, seed=21)
    Xt = np.random.default_rng(2).normal(size=(30, X.shape[1]))
    assert np.array_equal(predict_forest(a, Xt),
                          predict_forest(b, np.exp(Xt)))


# -- logistic regression ----------------------------------------------------------

def test_logistic_fits_separable_data():
    X, y = _toy(n=500, seed=13, noise=0.0)
    params = fit_logistic(X, y)
    p = predict_logistic(params, X)
    assert ((p > 0.5) == (y > 0.5)).mean() > 0.97
    assert params["n_iter"] <= 100
    assert np.isfinite(params["final_loss"])


def test_logistic_feature_scaling_invariance():
    X, y = _toy(n=300, seed=14)
    scale = np.array([1000.0, 0.001, 1.0, 50.0, 1.0, 1.0])
    pa = predict_logistic(fit_logistic(X, y), X)
    pb = predict_logistic(fit_logistic(X * scale, y), X * scale)
    assert np.allclose(pa, pb, atol=1e-8)


def test_logistic_rejects_non_finite():
    # train_model checks every fitter's input, naming the first bad cell
    matrix = _matrix()
    matrix.X[3, 1] = np.nan
    with pytest.raises(DataError, match=re.escape(
            "column 'gender' of stay 103 is empty or not finite")):
        train_model(matrix, "logistic")


# -- mlp ----------------------------------------------------------------------------

def test_mlp_learns_and_is_seeded():
    X, y = _toy(n=300, seed=15)
    kw = dict(hidden=16, epochs=40, batch_size=32, learning_rate=0.01)
    params = fit_mlp(X, y, seed=5, **kw)
    again = fit_mlp(X, y, seed=5, **kw)
    other = fit_mlp(X, y, seed=6, **kw)
    p = predict_mlp(params, X)
    assert params["epoch_loss"][-1] < params["epoch_loss"][0]
    assert ((p > 0.5) == (y > 0.5)).mean() > 0.85
    assert np.array_equal(p, predict_mlp(again, X))
    assert not np.array_equal(p, predict_mlp(other, X))


# -- BLAS thread count ----------------------------------------------------------

# Fits LR and a short MLP on a 12,345 x 72 matrix and prints the sha256 of
# the LR model file and of both models' predictions. With matrix-vector
# products left to BLAS, the LR file and both predictions at this size and
# seed differ between one and two OpenBLAS threads.
_FIT_AND_HASH = """
import hashlib, os, sys, tempfile
import numpy as np
from edbench.models import FeatureMatrix, predict_proba, save_model, train_model
rng = np.random.default_rng(0)
X = rng.standard_normal((12345, 72))
y = (X[:, 0] + rng.standard_normal(len(X)) > 1).astype(np.float64)
m = FeatureMatrix(X=X, y=y, columns=[f"c{j}" for j in range(72)],
                  task="hospitalization", time_point="triage",
                  stay_ids=np.arange(len(X)))
lr = train_model(m, "logistic")
mlp = train_model(m, "mlp", seed=0, epochs=5)
path = os.path.join(sys.argv[1], "lr.json")
save_model(lr, path)
with open(path, "rb") as fh:
    blobs = [fh.read(), predict_proba(lr, m).tobytes(),
             predict_proba(mlp, m).tobytes()]
print(" ".join(hashlib.sha256(blob).hexdigest() for blob in blobs))
"""


def test_lr_and_mlp_bytes_do_not_depend_on_blas_threads(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=pythonpath)
        result = subprocess.run([sys.executable, "-c", _FIT_AND_HASH, str(out)],
                                env=env, capture_output=True, text=True,
                                timeout=300)
        assert result.returncode == 0, result.stderr[-2000:]
        digests.append(result.stdout.split())
    for name, one, two in zip(("LR file", "LR predictions", "MLP predictions"),
                              *digests):
        assert one == two, name


# -- feature assembly -----------------------------------------------------------

def _fake_records(n=20):
    rng = np.random.default_rng(0)
    recs = []
    for i in range(n):
        recs.append({
            "stay_id": 100 + i,
            "age": float(20 + i),
            "gender": "M" if i % 2 else "F",
            "outcome_hospitalization": int(rng.integers(0, 2)),
        })
    return recs


def test_feature_matrix_gender_encoding_and_order():
    mat = build_feature_matrix(_fake_records(), "hospitalization",
                               manifest=["gender", "age"])
    assert mat.columns == ["gender", "age"]
    assert mat.X[0, 0] == 0.0 and mat.X[1, 0] == 1.0     # F=0, M=1
    assert mat.X[3, 1] == 23.0
    assert mat.stay_ids[0] == 100
    assert mat.y.dtype == bool


def test_feature_matrix_missing_column_raises():
    with pytest.raises(DataError):
        build_feature_matrix(_fake_records(), "hospitalization",
                             manifest=["age", "nope"])
    with pytest.raises(ConfigError):
        build_feature_matrix(_fake_records(), "discharge")


def test_manifest_sizes():
    assert len(load_manifest("triage")) == 72
    assert len(load_manifest("disposition")) == 81


# -- shared model wrapper -----------------------------------------------------------

def _matrix():
    recs = _fake_records(60)
    rng = np.random.default_rng(3)
    for rec in recs:
        rec["outcome_hospitalization"] = int(rec["age"] > 45
                                             or rng.uniform() < 0.1)
    return build_feature_matrix(recs, "hospitalization",
                                manifest=["age", "gender"])


# the node fields of the tables of earlier versions: the grown trees', and
# then the model's, with a split's threshold and a leaf's value apart
_EARLIER_TREE_FIELDS = ("feature", "threshold", "value", "n_samples", "gain")
_EARLIER_MODEL_FIELDS = ("feature", "threshold", "value")


def _table(trees, fields=MODEL_FIELDS):
    """The table a model file holds ``trees`` in, as plain lists; with
    other ``fields``, the table of an earlier layout."""
    table = {name: [cell for tree in trees for cell in tree[name].tolist()]
             for name in fields}
    table["n_nodes"] = [len(tree["feature"]) for tree in trees]
    return table


@pytest.mark.parametrize("kind", ["logistic", "random_forest", "boosting",
                                  "mlp"])
def test_train_save_load_round_trip(kind, tmp_path):
    matrix = _matrix()
    overrides = {"random_forest": {"n_trees": 5}, "boosting": {"n_stages": 5},
                 "mlp": {"epochs": 2, "hidden": 4}}.get(kind, {})
    model = train_model(matrix, kind, seed=1, **overrides)
    path = tmp_path / f"{kind}.json"
    save_model(model, path)
    fields = {**vars(model), "format": FORMAT}
    if "trees" in model.params:
        assert TABLE_FIELDS == ("feature", "threshold_or_value", "n_nodes")
        fields["params"] = {**model.params,
                            "trees": _table(model.params["trees"])}
    assert path.read_text() == json.dumps(
        fields, sort_keys=True, separators=(",", ":"),
        default=np.ndarray.tolist) + "\n"
    loaded = load_model(path)
    if "trees" in model.params:
        _assert_same_trees(loaded.params["trees"], model.params["trees"],
                           MODEL_FIELDS)
    assert np.array_equal(predict_proba(loaded, matrix),
                          predict_proba(model, matrix))
    # a second save produces identical bytes
    again = tmp_path / "again.json"
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    payload = json.loads(path.read_text())
    assert "runtime" not in json.dumps(payload).lower()
    assert payload["kind"] == kind and payload["seed"] == 1


_REWRITE = (f"not a model file of format {FORMAT}, the one this version "
            "reads; re-run `edbench train`")


def _unnumbered(payload):
    """``payload`` as the versions before the format number wrote it: no
    ``format``, and the sha256 of the columns as ``fingerprint``."""
    del payload["format"]
    payload["fingerprint"] = hashlib.sha256(
        "\n".join(payload["columns"]).encode()).hexdigest()
    return payload


def test_model_files_of_the_per_tree_format_exit_3(monkeypatch, tmp_path):
    # earlier versions wrote a list of per-tree objects with a stored left
    # child, in level order and, before that, in depth-first order; then one
    # table of the five grown fields, and a forest without its importance.
    # Each of them wrote a boosting model's learning rate and a forest's tree
    # and column counts in its params. All of them, and the table of the
    # three model fields that followed, kept a split's threshold and a
    # leaf's value in two node fields, as the depth-first oracle does. None
    # of them, nor the layout of one float per node before the format
    # number, holds 'format', so each is refused by that alone.
    X, y = _toy(n=300, seed=15, noise=1.0)
    matrix = FeatureMatrix(X=X, y=y > 0, columns=[f"c{j}" for j in range(6)],
                           task="hospitalization", time_point="triage",
                           stay_ids=np.arange(len(y)))
    model = train_model(matrix, "boosting", n_stages=5, max_depth=4)
    rf = train_model(matrix, "random_forest", n_trees=3, max_depth=4)
    oracle = []
    monkeypatch.setattr(boosting, "grow_tree", _depth_first_stages(X, oracle))
    train_model(matrix, "boosting", n_stages=5, max_depth=4)
    grown = [_level_order_oracle(tree) for tree in oracle]
    binned, rng = bin_features(X), np.random.default_rng(0)
    grown_rf = [_level_order_oracle(_depth_first_grow_tree(
        binned, rng.integers(0, len(y), len(y)), y, max_depth=4))
        for _ in range(3)]
    level_order = [{**{name: tree[name].tolist()
                       for name in _EARLIER_TREE_FIELDS},
                    "left": _left_children(tree).tolist()}
                   for tree in grown]
    depth_first_trees = [{name: tree[name]
                          for name in (*_EARLIER_TREE_FIELDS, "left")}
                         for tree in oracle]
    assert depth_first_trees != level_order
    gb_path, rf_path = tmp_path / "gb.json", tmp_path / "rf.json"
    save_model(model, gb_path)
    save_model(rf, rf_path)

    def earlier(saved, trees, **params):
        payload = _unnumbered(json.loads(saved.read_text()))
        payload["params"].update(trees=trees, **params)
        return payload

    five_field_rf = earlier(rf_path, _table(grown_rf, _EARLIER_TREE_FIELDS),
                            n_trees=3, n_features=6)
    del five_field_rf["params"]["importance"]
    files = [earlier(gb_path, level_order, learning_rate=0.1),
             earlier(gb_path, depth_first_trees, learning_rate=0.1),
             earlier(gb_path, _table(grown, _EARLIER_TREE_FIELDS),
                     learning_rate=0.1),
             five_field_rf,
             earlier(gb_path, _table(grown, _EARLIER_MODEL_FIELDS)),
             earlier(rf_path, _table(grown_rf, _EARLIER_MODEL_FIELDS)),
             _unnumbered(json.loads(gb_path.read_text())),
             _unnumbered(json.loads(rf_path.read_text()))]
    path = tmp_path / "model.json"
    for payload in files:
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=re.escape(
                f"{path}: {_REWRITE}")) as exc:
            load_model(path)
        assert exc.value.exit_code == 3


@pytest.mark.parametrize("number", [None, 0, 2, -1, 1.0, True, "1", [1]])
def test_load_model_reads_the_format_number_first(number, tmp_path):
    # any number but FORMAT, or none, is refused before any other key is
    # read: here the columns are malformed too
    path = tmp_path / "model.json"
    save_model(train_model(_matrix(), "logistic"), path)
    payload = json.loads(path.read_text())
    assert payload["format"] == FORMAT
    payload.update(format=number, columns=5)
    if number is None:
        del payload["format"]
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=re.escape(f"{path}: {_REWRITE}")):
        load_model(path)


# The nested key layout of each kind's file, by the format number that names
# it: the top-level keys, the params keys and a tree table's fields. Changing
# what a file holds without bumping base.FORMAT fails
# test_model_file_layout_is_pinned_by_its_format_number.
_TOP = ["columns", "format", "hyperparams", "kind", "params", "seed", "task",
        "time_point"]
_TABLE = ["feature", "n_nodes", "threshold_or_value"]
MODEL_FILE_LAYOUTS = {
    1: {
        "logistic": {"keys": _TOP, "params": ["bias", "final_loss", "mean",
                                              "n_iter", "std", "weights"]},
        "random_forest": {"keys": _TOP, "params": ["importance", "trees"],
                          "trees": _TABLE},
        "boosting": {"keys": _TOP, "params": ["base_score", "train_deviance",
                                              "trees"], "trees": _TABLE},
        "one-class boosting": {"keys": _TOP, "params": ["constant"]},
        "mlp": {"keys": _TOP, "params": ["W1", "b1", "b2", "epoch_loss",
                                         "mean", "std", "w2"]},
    },
}


def test_model_file_layout_is_pinned_by_its_format_number(tmp_path):
    matrix = _matrix()
    one_class = dataclasses.replace(matrix, y=np.zeros_like(matrix.y))
    fits = {kind: (kind, matrix) for kind in MODEL_KINDS}
    fits["one-class boosting"] = ("boosting", one_class)
    layouts = {}
    path = tmp_path / "model.json"
    for name, (kind, data) in fits.items():
        overrides = {"random_forest": {"n_trees": 2}}.get(kind, {})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateLabels)
            save_model(train_model(data, kind, **overrides), path)
        payload = json.loads(path.read_text())
        layouts[name] = {"keys": sorted(payload),
                         "params": sorted(payload["params"])}
        if "trees" in payload["params"]:
            layouts[name]["trees"] = sorted(payload["params"]["trees"])
    assert layouts == MODEL_FILE_LAYOUTS.get(FORMAT), (
        f"model files no longer hold the layout of format {FORMAT}: bump "
        "base.FORMAT and pin the new layout under the new number")


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_params_are_arrays_fitted_and_loaded(kind, tmp_path):
    # every param with a shape is a float64 array with the same bytes after
    # train_model and after load_model; every other, trees aside, is a number
    overrides = {"random_forest": {"n_trees": 2}, "boosting": {"n_stages": 3},
                 "mlp": {"epochs": 2, "hidden": 3}}.get(kind, {})
    model = train_model(_matrix(), kind, seed=5, **overrides)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert model.params.keys() == loaded.params.keys()
    for name, shape in base._PARAMS[kind].items():
        fitted, read = model.params[name], loaded.params[name]
        if shape:
            for value in (fitted, read):
                assert type(value) is np.ndarray, name
                assert value.dtype == np.float64, name
                assert value.ndim == len(shape), name
            assert fitted.shape == read.shape, name
            assert fitted.tobytes() == read.tobytes(), name
        else:
            assert type(fitted) in (int, float), name
            assert type(read) is type(fitted) and read == fitted, name


_SPECIAL = [0.0, -0.0, 0.1, 1e-300, 1e300, np.nan, np.inf, -np.inf, 0.5, -2.75]


@st.composite
def _level_order_tree(draw, d, finite):
    """A random tree in level order: nodes are decided breadth first, each
    split appending its two children, so one-leaf trees are common. Unless
    ``finite``, its floats may be NaN or infinite."""
    feature = []
    while len(feature) < 1 + 2 * sum(f >= 0 for f in feature):
        split = len(feature) < 30 and draw(st.booleans())
        feature.append(draw(st.integers(0, d - 1)) if split else -1)
    size = len(feature)
    special = [v for v in _SPECIAL if np.isfinite(v) or not finite]
    floats = st.lists(st.sampled_from(special)
                      | st.floats(allow_nan=False, allow_infinity=not finite),
                      min_size=size, max_size=size)
    return {"feature": np.array(feature, dtype=np.int64),
            "threshold_or_value": np.array(draw(floats), dtype=np.float64)}


@st.composite
def _ensembles(draw):
    d, finite = draw(st.integers(1, 4)), draw(st.booleans())
    trees = draw(st.lists(_level_order_tree(d, finite), max_size=5))
    return d, trees


@settings(max_examples=100)
@given(ensemble=_ensembles())
def test_trees_json_is_json_dumps_of_the_lists(ensemble):
    # written, the table is json.dumps of its lists; loaded, each array is
    # bit for bit the one written, -0.0 included, and a NaN or an infinity
    # is refused
    d, trees = ensemble
    text = "".join(_trees.trees_json(trees))
    assert text == json.dumps(_table(trees), sort_keys=True,
                              separators=(",", ":"))
    table = json.loads(text)
    if not np.isfinite(table["threshold_or_value"]).all():
        with pytest.raises(ValueError, match="'threshold_or_value' must hold "
                           "finite numbers"):
            trees_from_json(table, d, 64)
        return
    # the deepest tree's depth passes as max_depth, one less does not
    depths = [_depth(tree) for tree in trees]
    if max(depths, default=0) > 0:
        with pytest.raises(ValueError, match=re.escape(
                f"tree {depths.index(max(depths))} is deeper than "
                f"'hyperparams' 'max_depth', {max(depths) - 1}")):
            trees_from_json(table, d, max(depths) - 1)
    loaded = trees_from_json(table, d, max(depths, default=0))
    assert len(loaded) == len(trees)
    for new, old in zip(loaded, trees):
        assert list(new) == list(MODEL_FIELDS)
        for name in MODEL_FIELDS:
            assert new[name].dtype == old[name].dtype, name
            assert np.array_equal(new[name], old[name], equal_nan=True), name
            assert new[name].tobytes() == old[name].tobytes(), name


def _swap_root_of_tree_0_with_its_last_node(column, first):
    # tree 0 keeps its counts, but its first split is no longer its root
    return [-1] + column[1:first - 1] + [column[0]] + column[first:]


@pytest.mark.parametrize("field, change, message", [
    (None, lambda t: t.pop("threshold_or_value"), "tree fields"),
    (None, lambda t: t.update(left=t["feature"]), "tree fields"),
    ("threshold_or_value", lambda c, first: c[:-1], "equal length"),
    ("feature", lambda c, first: [float(v) for v in c], "'feature'"),
    pytest.param("threshold_or_value", lambda c, first: ["x"] * len(c),
                 "'threshold_or_value' must be a list of numbers",
                 id="threshold_or_value-not_numbers"),
    ("threshold_or_value", lambda c, first: c[:-1] + [math.nan], "finite"),
    ("threshold_or_value", lambda c, first: [-math.inf] + c[1:], "finite"),
    ("feature", lambda c, first: [2] + c[1:], "'feature'"),
    ("feature", lambda c, first: [-2] + c[1:], "'feature'"),
    ("n_nodes", lambda c, first: [0] + c, "'n_nodes'"),
    ("n_nodes", lambda c, first: c[:-1] + [c[-1] + 2], "'n_nodes'"),
    ("n_nodes", lambda c, first: [v + 0.5 for v in c], "'n_nodes'"),
    ("feature", lambda c, first: c[:-1] + [0], "2s + 1 nodes"),
    ("feature", _swap_root_of_tree_0_with_its_last_node,
     "before its children"),
])
def test_load_model_rejects_malformed_trees(field, change, message, tmp_path):
    model = train_model(_matrix(), "boosting", n_stages=3)
    path = tmp_path / "model.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    table = payload["params"]["trees"]
    first = table["n_nodes"][0]             # tree 1's root
    assert table["feature"][0] >= 0 and table["feature"][first] >= 0
    if field is None:
        change(table)
    else:
        table[field] = change(table[field], first)
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=re.escape(message)) as exc:
        load_model(path)
    assert str(exc.value).startswith(f"{path}: ")


@pytest.mark.parametrize("kind, key, change", [
    ("logistic", "columns", lambda m: m.update(columns=5)),
    ("logistic", "columns", lambda m: m.update(columns=["age", 1])),
    ("logistic", "kind", lambda m: m.update(kind=["logistic"])),
    # the sha256 of the columns that files before the format number held
    ("logistic", "fingerprint", lambda m: m.update(fingerprint="0" * 64)),
    ("boosting", "base_score", lambda m: m["params"].update(base_score="x")),
    # params a fit does not return
    ("boosting", "learning_rate",
     lambda m: m["params"].update(learning_rate=0.1)),
    ("random_forest", "n_features", lambda m: m["params"].update(n_features=3)),
    ("random_forest", "constant", lambda m: m["params"].update(constant=0.5)),
    ("mlp", "trees", lambda m: m["params"].update(trees=[])),
    # hyperparameters as resolve_hyperparams leaves them, and the seed
    ("logistic", "C", lambda m: m["hyperparams"].update(C=1)),
    ("boosting", "min_leaf", lambda m: m["hyperparams"].pop("min_leaf")),
    ("random_forest", "max_depth",
     lambda m: m["hyperparams"].update(max_depth=True)),
    ("mlp", "hyperparams", lambda m: m["hyperparams"].update(hidden=0)),
    ("mlp", "hyperparams", lambda m: m.update(hyperparams=[])),
    ("logistic", "hyperparams", lambda m: m["hyperparams"].update(C="x")),
    ("boosting", "hyperparams",
     lambda m: m["hyperparams"].update(learning_rate=None)),
    ("logistic", "seed", lambda m: m.update(seed=-1)),
    ("mlp", "seed", lambda m: m.update(seed=1.0)),
    ("random_forest", "importance", lambda m: m["params"].pop("importance")),
    # counts that must agree with the hyperparameters
    ("random_forest", "n_trees", lambda m: m["hyperparams"].update(n_trees=5)),
    ("boosting", "n_stages", lambda m: m["hyperparams"].update(n_stages=7)),
    ("boosting", "train_deviance",
     lambda m: m["params"]["train_deviance"].pop()),
    ("boosting", "train_deviance",
     lambda m: m["params"]["train_deviance"].append(0.5)),
    ("logistic", "task", lambda m: m.update(task="nope")),
    ("logistic", "time_point", lambda m: m.update(time_point="nope")),
])
def test_load_model_rejects_malformed_fields(kind, key, change, tmp_path):
    path = tmp_path / "model.json"
    overrides = {"random_forest": {"n_trees": 2}}.get(kind, {})
    save_model(train_model(_matrix(), kind, **overrides), path)
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=f"'{key}'") as exc:
        load_model(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_load_model_rejects_tree_model_without_trees(tmp_path):
    # a one-class boosting fit holds its constant alone, and loads
    matrix = _matrix()
    one_class = dataclasses.replace(matrix, y=np.zeros_like(matrix.y))
    path = tmp_path / "model.json"
    with pytest.warns(DegenerateLabels):
        save_model(train_model(one_class, "boosting"), path)
    assert json.loads(path.read_text())["params"] == {"constant": 0.0}
    assert np.all(predict_proba(load_model(path), one_class) == 0.0)
    # any other tree model needs a tree
    for kind in ("random_forest", "boosting"):
        save_model(train_model(matrix, kind), path)
        payload = json.loads(path.read_text())
        payload["params"]["trees"] = dict.fromkeys(TABLE_FIELDS, [])
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="'trees' holds 0 trees"):
            load_model(path)


def test_train_model_rejects_unknown_kind_and_hyperparam():
    matrix = _matrix()
    with pytest.raises(ConfigError):
        train_model(matrix, "svm")
    with pytest.raises(ConfigError):
        train_model(matrix, "boosting", depth=3)
    # a fixed constant of its fitter, not a hyperparameter
    with pytest.raises(ConfigError, match="tol"):
        train_model(matrix, "logistic", tol=1e-6)


@pytest.mark.parametrize("kind, key, value", [
    ("random_forest", "n_trees", 0),
    ("random_forest", "min_leaf", 0),
    ("random_forest", "max_depth", 0),
    ("random_forest", "max_depth", -3),
    ("boosting", "max_depth", 0),
    ("boosting", "max_depth", -3),
    ("boosting", "n_stages", 0),
    ("boosting", "min_leaf", 0),
    ("mlp", "epochs", 0),
    ("mlp", "batch_size", 0),
    ("mlp", "hidden", 0),
    ("logistic", "C", 0.0),
    ("logistic", "C", float("nan")),
    # a fixed constant of its fitter is rejected as an unknown name
    ("logistic", "tol", float("nan")),
    ("mlp", "learning_rate", 0.0),
    ("boosting", "learning_rate", -1.0),
    ("boosting", "n_stages", 2.5),
    ("mlp", "epochs", 2.5),
    ("boosting", "learning_rate", float("inf")),
    ("logistic", "C", float("inf")),
])
def test_train_model_rejects_out_of_range_hyperparams(kind, key, value):
    with pytest.raises(ConfigError, match=key):
        train_model(_matrix(), kind, **{key: value})


def test_default_hyperparams_come_from_the_fitters():
    expected = {
        "logistic": {"C": 1.0},
        "random_forest": {"n_trees": 100, "max_depth": 32, "min_leaf": 1},
        "boosting": {"n_stages": 100, "max_depth": 3, "learning_rate": 0.1,
                     "min_leaf": 1},
        "mlp": {"hidden": 64, "epochs": 20, "batch_size": 200,
                "learning_rate": 0.001},
    }
    for kind, defaults in expected.items():
        # repr tells an int default from a float one
        assert repr(resolve_hyperparams(kind, {})) == repr(defaults)
    # an override takes the type of its default
    assert repr(resolve_hyperparams("logistic", {"C": 1})["C"]) == "1.0"


def test_predict_proba_guards_manifest():
    matrix = _matrix()
    model = train_model(matrix, "logistic")
    # the same width in another order is another manifest, and so is a
    # shorter one; each message names the first column that differs
    for manifest, message in (
            (["gender", "age"], "column 0 is 'gender', but the model, "
             "trained on 2 columns, has 'age'"),
            (["age"], "column 1 is None, but the model, trained on 2 "
             "columns, has 'gender'")):
        other = build_feature_matrix(_fake_records(), "hospitalization",
                                     manifest=manifest)
        with pytest.raises(ManifestMismatch, match=re.escape(message)):
            predict_proba(model, other)
    bad = dataclasses.replace(matrix, X=matrix.X.copy())
    bad.X[0, 0] = np.inf
    with pytest.raises(DataError, match=re.escape(
            "column 'age' of stay 100 is empty or not finite")):
        predict_proba(model, bad)


def test_rf_importance_wrapper_and_wrong_kind(tmp_path):
    matrix = _matrix()
    with _spy(forest, "grow_trees") as grown:
        rf = train_model(matrix, "random_forest", seed=0, n_trees=5)
    pairs = rf_variable_importance(rf)
    assert [c for c, _ in pairs][0] == "age"
    assert sum(v for _, v in pairs) == pytest.approx(1.0)
    # stored at fit from the grown trees, and loaded bit for bit
    imp = forest_importance(grown, len(matrix.columns))
    assert rf.params["importance"].tobytes() == imp.tobytes()
    path = tmp_path / "rf.json"
    save_model(rf, path)
    loaded = load_model(path)
    assert loaded.params["importance"].tobytes() == imp.tobytes()
    assert rf_variable_importance(loaded) == pairs
    # a one-class forest stores d zeros, and loads
    one_class = dataclasses.replace(matrix, y=np.zeros_like(matrix.y))
    with pytest.warns(DegenerateLabels):
        save_model(train_model(one_class, "random_forest"), path)
    loaded = load_model(path)
    assert loaded.params["importance"].tolist() == [0.0] * len(matrix.columns)
    assert [v for _, v in rf_variable_importance(loaded)] == [0.0, 0.0]
    lr = train_model(matrix, "logistic")
    with pytest.raises(WrongKind):
        rf_variable_importance(lr)
