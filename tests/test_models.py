import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from edbench.errors import (ConfigError, DataError, DegenerateLabels,
                            ManifestMismatch, WrongKind)
from edbench.models import (build_feature_matrix, load_manifest, load_model,
                            predict_proba, rf_variable_importance, save_model,
                            train_model)
from edbench.models._trees import (TREE_FIELDS, bin_features, grow_tree,
                                   predict_tree)
from edbench.models import boosting
from edbench.models.boosting import fit_boosting, predict_boosting
from edbench.models.forest import fit_forest, forest_importance, predict_forest
from edbench.models.linear import fit_logistic, logistic_objective, predict_logistic
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


def test_single_split_matches_exhaustive_search():
    rng = np.random.default_rng(3)
    for trial in range(10):
        X = rng.normal(size=(60, 3))
        y = (X[:, trial % 3] + 0.3 * rng.normal(size=60) > 0).astype(np.float64)
        feat, thr, dec = _brute_best_split(X, y)
        binned = bin_features(X)
        tree = grow_tree(binned, np.arange(60), y, max_depth=1)
        assert tree["feature"][0] == feat
        assert tree["threshold"][0] == pytest.approx(thr)
        assert tree["gain"][0] == pytest.approx(dec / 60.0, abs=1e-12)


def test_tree_routes_at_threshold_inclusive_left():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    tree = grow_tree(bin_features(X), np.arange(4), y, max_depth=1)
    thr = tree["threshold"][0]
    preds = predict_tree(tree, np.array([[thr], [np.nextafter(thr, 10)]]))
    assert preds[0] == 0.0 and preds[1] == 1.0


def _leaf_of(tree, X):
    """Node index each row of X ends at."""
    nodes = {**tree, "value": list(range(len(tree["feature"])))}
    return predict_tree(nodes, X).astype(np.intp)


def _grown_trees(variant, X, y, max_depth, min_leaf):
    """(tree, training rows) pairs; rows is None for the forest, which
    draws its bootstrap rows itself."""
    rows = np.arange(len(y))
    if variant == "forest":
        params = fit_forest(X, y, n_trees=3, max_depth=max_depth,
                            min_leaf=min_leaf, seed=0)
        return [(tree, None) for tree in params["trees"]]
    if variant == "boosting":
        params = fit_boosting(X, y, n_stages=3, max_depth=max_depth,
                              min_leaf=min_leaf)
        return [(tree, rows) for tree in params["trees"]]
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
def _tree_data(draw):
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
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
        assert all(len(tree[name]) == size for name in TREE_FIELDS)
        children = [0]
        for i, (feat, left, right) in enumerate(
                zip(tree["feature"], tree["left"], tree["right"])):
            assert (feat == -1) == (left == -1) == (right == -1)
            if feat != -1:
                assert left > i and right > i
                assert tree["n_samples"][i] == (tree["n_samples"][left]
                                                + tree["n_samples"][right])
                children += [left, right]
        assert sorted(children) == list(range(size))     # one parent each
        assert all(gain >= 0.0 for gain in tree["gain"])
        assert tree["n_samples"][0] == len(y)
        if rows is not None:
            # each training row is counted at the leaf it is routed to
            reached = np.bincount(_leaf_of(tree, X[rows]), minlength=size)
            leaf = np.asarray(tree["feature"]) == -1
            assert np.array_equal(reached[leaf],
                                  np.asarray(tree["n_samples"])[leaf])


def _depth_first_grow_tree(binned, idx, y, *, max_depth, min_leaf=1,
                           leaf_grad=None, leaf_hess=None):
    """Reference builder: grows the tree depth-first, one node at a time,
    with a padded histogram over every feature. ``grow_tree`` must return
    exactly this dict whenever it does not subsample features."""
    classification = leaf_grad is None
    codes = binned.codes
    d = codes.shape[1]
    n_bins = np.array([len(t) + 1 for t in binned.thresholds], dtype=np.int64)
    tree = {name: [] for name in TREE_FIELDS}

    def add_leaf(value, n):
        for name, cell in zip(TREE_FIELDS, (-1, 0.0, -1, -1, value, n, 0.0)):
            tree[name].append(cell)
        return len(tree["feature"]) - 1

    def leaf_value(rows):
        if leaf_grad is not None:
            g = float(leaf_grad[rows].sum())
            h = float(leaf_hess[rows].sum())
            return g / max(h, 1e-12)
        return float(y[rows].mean())

    def gini(pos, n):
        p = pos / n
        return 1.0 - p * p - (1.0 - p) * (1.0 - p)

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
        base = tot_s[0, 0] ** 2 / tot_n[0, 0]
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
        s_l = float(y[rows_l].sum())
        s_r = ysum - s_l
        if classification:
            dec = gini(ysum, n) - (n_l / n) * gini(s_l, n_l) - (n_r / n) * gini(s_r, n_r)
        else:
            dec = (float(np.var(y[rows])) - (n_l / n) * float(np.var(y[rows_l]))
                   - (n_r / n) * float(np.var(y[rows_r])))
        tree["feature"][slot] = feat
        tree["threshold"][slot] = float(binned.thresholds[feat][split_bin])
        tree["gain"][slot] = max(dec, 0.0)
        left_slot = tree["left"][slot] = add_leaf(leaf_value(rows_l), n_l)
        right_slot = tree["right"][slot] = add_leaf(leaf_value(rows_r), n_r)
        stack.append((rows_r, depth + 1, right_slot))
        stack.append((rows_l, depth + 1, left_slot))
    return tree


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
    assert new == old


def test_deep_trees_on_continuous_data_equal_depth_first_oracle():
    X, y = _toy(n=600, d=5, seed=14, noise=2.0)
    X[:, 4] = np.round(X[:, 4])       # one coarse feature beside 256-bin ones
    boot = np.random.default_rng(5).integers(0, len(y), size=len(y))
    for newton in (False, True):
        new, old = _both_builders(X, y, boot, newton, max_depth=32)
        assert new == old
        assert len(new["feature"]) > 100


def test_boosting_with_depth_first_oracle_gives_equal_params(monkeypatch):
    X, y = _toy(n=500, seed=15, noise=1.0)
    for max_depth in (3, 6):
        params = fit_boosting(X, y, n_stages=15, max_depth=max_depth)
        with monkeypatch.context() as patch:
            patch.setattr(boosting, "grow_tree", _depth_first_grow_tree)
            reference = fit_boosting(X, y, n_stages=15, max_depth=max_depth)
        assert params == reference


# -- boosting -------------------------------------------------------------------

def test_boosting_deviance_trace_non_increasing():
    for seed in (0, 1):
        X, y = _toy(n=200, seed=seed)
        params = fit_boosting(X, y, n_stages=40)
        trace = params["train_deviance"]
        assert len(trace) == 41
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


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


def test_forest_importance_ranks_signal_feature():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(300, 5))
    y = (X[:, 2] > 0).astype(np.float64)
    params = fit_forest(X, y, n_trees=20, seed=3)
    imp = forest_importance(params)
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
    X, y = _toy(n=50)
    X[0, 0] = np.nan
    with pytest.raises(DataError):
        fit_logistic(X, y)


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


@pytest.mark.parametrize("kind", ["logistic", "random_forest", "boosting",
                                  "mlp"])
def test_train_save_load_round_trip(kind, tmp_path):
    matrix = _matrix()
    overrides = {"random_forest": {"n_trees": 5}, "boosting": {"n_stages": 5},
                 "mlp": {"epochs": 2, "hidden": 4}}.get(kind, {})
    model = train_model(matrix, kind, seed=1, **overrides)
    path = tmp_path / f"{kind}.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(predict_proba(loaded, matrix),
                          predict_proba(model, matrix))
    # a second save produces identical bytes
    again = tmp_path / "again.json"
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    payload = json.loads(path.read_text())
    assert "runtime" not in json.dumps(payload).lower()
    assert payload["kind"] == kind and payload["seed"] == 1


def test_train_model_rejects_unknown_kind_and_hyperparam():
    matrix = _matrix()
    with pytest.raises(ConfigError):
        train_model(matrix, "svm")
    with pytest.raises(ConfigError):
        train_model(matrix, "boosting", depth=3)


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
    ("mlp", "learning_rate", 0.0),
    ("boosting", "learning_rate", -1.0),
    ("boosting", "n_stages", 2.5),
    ("mlp", "epochs", 2.5),
])
def test_train_model_rejects_out_of_range_hyperparams(kind, key, value):
    with pytest.raises(ConfigError, match=key):
        train_model(_matrix(), kind, **{key: value})


def test_predict_proba_guards_manifest():
    matrix = _matrix()
    model = train_model(matrix, "logistic")
    with pytest.raises(ManifestMismatch):
        predict_proba(model, np.zeros((4, 3)))
    bad = np.zeros((4, 2))
    bad[0, 0] = np.inf
    with pytest.raises(ManifestMismatch):
        predict_proba(model, bad)
    other = build_feature_matrix(_fake_records(), "hospitalization",
                                 manifest=["gender"])
    with pytest.raises(ManifestMismatch):
        predict_proba(model, other)


def test_rf_importance_wrapper_and_wrong_kind():
    matrix = _matrix()
    rf = train_model(matrix, "random_forest", seed=0, n_trees=5)
    pairs = rf_variable_importance(rf)
    assert [c for c, _ in pairs][0] == "age"
    assert sum(v for _, v in pairs) == pytest.approx(1.0)
    lr = train_model(matrix, "logistic")
    with pytest.raises(WrongKind):
        rf_variable_importance(lr)
