"""Shared decision-tree machinery for the forest and boosting trainers.

Features are discretized once per fit into at most 256 quantile bins;
split search then reduces to prefix sums over bin histograms, which keeps
tree growth fast without changing semantics for low-cardinality features.
Binning is rank-based, so strictly monotone feature transforms leave the
induced partition (and therefore predictions) unchanged.

For 0/1 targets, minimizing the Gini-weighted child impurity and
maximizing sum((sum y_c)^2 / n_c) over children select the same split, so
one criterion serves both classification (Gini) and squared-error
regression on residuals. Gini impurity decrease is still computed
explicitly for the importance accounting.

Trees grow one depth level at a time, in the manner of LightGBM (Ke et
al., 2017) and XGBoost ``hist`` (Chen & Guestrin, 2016). Per level, one
``bincount`` keyed by (open node, feature, bin) builds every open node's
histograms, each chosen feature laid out with its own bin count, back to
back; split scores and the first-maximum search run only over occupied
bins, and one vectorised comparison routes the rows of every split node.
A random forest draws its feature subsets once per level from the tree's
generator: ``rng.random((m, d))`` for the level's m open nodes in level
order, each node taking the first ``features_per_node`` (the forest's
``ceil(sqrt(d))``) columns of its row's argsort, sorted.

Without feature subsampling the result is bit-identical to growing the
same tree depth-first, one node at a time (the reference builder in the
tests), because every float is produced by the same operations in the same
order: per-bin sums accumulate rows in ``idx`` order; counts and 0/1 label
sums are integers, exact in any order, so they take one flat running sum
rebased at each segment start, while Newton residual sums run per
segment in bin order; ties go to the first maximum over (feature in
sorted order, bin); classification leaves are integer sum / count, Newton
leaves sum their gradient per node with numpy's pairwise ``sum``, and
Newton gains take ``np.var`` per split node.

A grown tree is a plain dict of equal-length lists keyed by TREE_FIELDS,
the one place the tree format is declared. Node 0 is the root, children
always come after their parent, and ``feature == -1`` marks a leaf (whose
``left`` and ``right`` are -1). Nodes are numbered in depth-first creation
order: a split appends its left child, then its right child, and the left
subtree is expanded first. The same dict is what model files hold.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

MAX_BINS = 256


@dataclass
class BinnedFeatures:
    codes: np.ndarray        # (n, d) uint16 bin codes
    thresholds: list[np.ndarray]  # per feature, edge values; code<=k iff x<=edges[k]


def bin_features(X: np.ndarray) -> BinnedFeatures:
    n, d = X.shape
    codes = np.empty((n, d), dtype=np.uint16)
    thresholds: list[np.ndarray] = []
    for j in range(d):
        col = X[:, j]
        uniq = np.unique(col)
        if len(uniq) > MAX_BINS:
            qs = np.quantile(col, np.linspace(0.0, 1.0, MAX_BINS + 1)[1:-1])
            edges = np.unique(qs)
        else:
            edges = (uniq[:-1] + uniq[1:]) / 2.0
        codes[:, j] = np.searchsorted(edges, col, side="left")
        thresholds.append(edges)
    return BinnedFeatures(codes=codes, thresholds=thresholds)


TREE_FIELDS = ("feature", "threshold", "left", "right", "value", "n_samples",
               "gain")


def predict_tree(tree: dict, X: np.ndarray) -> np.ndarray:
    """Leaf value reached by each row of ``X``; ``x <= threshold`` goes left."""
    feature, threshold, left, right, value = (
        np.asarray(tree[name])
        for name in ("feature", "threshold", "left", "right", "value"))
    node = np.zeros(X.shape[0], dtype=np.intp)
    while True:
        feat = feature[node]
        rows = np.nonzero(feat >= 0)[0]
        if rows.size == 0:
            return value[node]
        at = node[rows]
        go_left = X[rows, feat[rows]] <= threshold[at]
        node[rows] = np.where(go_left, left[at], right[at])




def grow_tree(
    binned: BinnedFeatures,
    idx: np.ndarray,
    y: np.ndarray,
    *,
    max_depth: int,
    min_leaf: int = 1,
    features_per_node: int | None = None,
    rng: np.random.Generator | None = None,
    leaf_grad: np.ndarray | None = None,
    leaf_hess: np.ndarray | None = None,
) -> dict:
    """Grow one tree on the rows in ``idx``, one depth level at a time.

    Split criterion maximizes sum((sum y_c)^2 / n_c); for 0/1 targets this
    is the Gini split. Leaf values are mean(y) unless Newton statistics
    (leaf_grad / leaf_hess) are supplied, in which case a leaf predicts
    sum(grad) / sum(hess); without them the tree is a 0/1 classifier, whose
    pure nodes stay leaves and whose gains are Gini decreases.
    ``features_per_node`` activates random feature subsampling via ``rng``,
    drawn once per level as the module docstring describes.
    """
    classification = leaf_grad is None
    codes = binned.codes
    d = codes.shape[1]
    n_bins = np.array([len(t) + 1 for t in binned.thresholds], dtype=np.int64)
    edges = np.concatenate(binned.thresholds)
    edge_start = np.cumsum(n_bins - 1) - (n_bins - 1)
    subsample = features_per_node is not None and features_per_node < d

    def leaf_values(rows, node, count, label):
        if classification:
            return label / count            # integer sum / count == mean
        return np.array([
            float(leaf_grad[g].sum()) / max(float(leaf_hess[g].sum()), 1e-12)
            for g in _groups(rows, node, count.size)])

    # the current level: its active rows (in idx order), the level node
    # each row sits in, and per node the row count and label sum
    rows = np.asarray(idx, dtype=np.intp)
    node = np.zeros(rows.size, dtype=np.intp)
    count = np.array([rows.size])
    label = np.array([y[rows].sum()])
    value = leaf_values(rows, node, count, label)
    levels = []
    n_nodes = 0
    for depth in itertools.count():
        m = count.size
        n_nodes += m
        level = {"feature": np.full(m, -1), "threshold": np.zeros(m),
                 "left": np.full(m, -1), "value": value, "n_samples": count,
                 "gain": np.zeros(m)}
        levels.append(level)
        is_open = count >= 2 * min_leaf
        if classification:
            is_open &= (label > 0) & (label < count)
        if depth >= max_depth or not is_open.any():
            break
        ids = np.flatnonzero(is_open)
        keep = is_open[node]
        rows, node = rows[keep], (np.cumsum(is_open) - 1)[node[keep]]
        if subsample:
            draw = rng.random((ids.size, d))
            feats = np.sort(np.argsort(draw, axis=1)[:, :features_per_node],
                            axis=1)
            sub = codes[rows[:, None], feats[node]]
        else:
            feats = np.broadcast_to(np.arange(d), (ids.size, d))
            sub = codes[rows]
        split, feat, cut, n_l, s_l = _best_splits(
            sub, node, feats, n_bins, y[rows], count[ids], min_leaf,
            exact=classification)
        if not split.any():
            break
        ids, feat, cut, n_l, s_l = (a[split] for a in (ids, feat, cut, n_l, s_l))
        n_split = ids.size

        # route the rows of split nodes; rows of nodes that stay leaves drop out
        rank = np.full(split.size, -1)
        rank[split] = np.arange(n_split)
        r = rank[node]
        rows, r = rows[r >= 0], r[r >= 0]
        child = 2 * r + (codes[rows, feat[r]] > cut[r])

        # impurity decrease, Gini for 0/1 targets and variance otherwise
        n, s = count[ids], label[ids]
        n_r, s_r = n - n_l, s - s_l
        if classification:
            dec = (_gini(s, n) - (n_l / n) * _gini(s_l, n_l)
                   - (n_r / n) * _gini(s_r, n_r))
        else:
            parents = _groups(rows, r, n_split)
            kids = _groups(rows, child, 2 * n_split)
            dec = np.array([
                float(np.var(y[p])) - (nl / nn) * float(np.var(y[kl]))
                - (nr / nn) * float(np.var(y[kr]))
                for p, kl, kr, nl, nn, nr in zip(
                    parents, kids[0::2], kids[1::2],
                    n_l.tolist(), n.tolist(), n_r.tolist())])

        level["feature"][ids] = feat
        level["threshold"][ids] = edges[edge_start[feat] + cut]
        level["gain"][ids] = np.where(dec < 0.0, 0.0, dec)   # max(dec, 0.0)
        level["left"][ids] = n_nodes + 2 * np.arange(n_split)
        node = child
        count = np.stack((n_l, n_r), axis=1).ravel()    # left, right per split
        label = np.stack((s_l, s_r), axis=1).ravel()
        value = leaf_values(rows, node, count, label)

    return _depth_first(levels)


def _groups(rows: np.ndarray, node: np.ndarray, m: int) -> list[np.ndarray]:
    """The rows of each of m nodes, keeping their order."""
    order = np.argsort(node, kind="stable")
    return np.split(rows[order], np.cumsum(np.bincount(node, minlength=m))[:-1])


def _gini(pos: np.ndarray, n: np.ndarray) -> np.ndarray:
    p = pos / n
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def _best_splits(sub, node, feats, n_bins, y, count, min_leaf, *, exact):
    """Best split of each open node of one level, from one histogram pass.

    ``sub`` holds the codes of each active row in its node's candidate
    features ``feats`` (m, k); ``node`` is each row's open node and ``count``
    each node's row count. Every (node, feature) pair owns a segment of that
    feature's own bins, back to back. Returns per node whether it splits,
    the feature, the last bin that goes left, and the left child's row count
    and label sum.
    """
    m, k = feats.shape
    size = n_bins[feats].ravel()
    start = np.cumsum(size) - size
    keys = (sub + start.reshape(m, k)[node]).ravel()
    cnt = np.bincount(keys, minlength=int(size.sum()))
    wsum = np.bincount(keys, weights=np.repeat(y, k), minlength=cnt.size)

    # scores only at occupied bins: an empty bin repeats the score of the
    # bin before it, so the first maximum is always an occupied bin
    occ = np.flatnonzero(cnt)
    per_seg = np.add.reduceat(cnt > 0, start, dtype=np.intp)
    seg = np.repeat(np.arange(m * k), per_seg)      # segment of each cell
    tail = np.cumsum(per_seg) - 1                   # its last and first cell
    head = tail - per_seg + 1
    c, w = cnt[occ], wsum[occ]
    n_l = np.cumsum(c)
    n_l -= (n_l - c)[head][seg]
    if exact:
        # integer label sums: one flat running sum, rebased per segment
        s_l = np.cumsum(w)
        s_l -= (s_l - w)[head][seg]
    else:
        # float sums: each segment cumulates on its own, in bin order
        col = np.arange(occ.size) - head[seg]
        pad = np.zeros((m * k, int(col.max()) + 1))
        pad[seg, col] = w
        s_l = np.cumsum(pad, axis=1)[seg, col]
    owner = seg // k
    n_r = count[owner] - n_l
    s_r = s_l[tail][seg] - s_l
    valid = (n_l >= min_leaf) & (n_r >= min_leaf)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = np.where(valid, s_l * s_l / n_l + s_r * s_r / n_r, -np.inf)

    # first maximum per node, over (feature in sorted order, bin)
    best = np.maximum.reduceat(score, head[::k])
    hit = np.flatnonzero(score == best[owner])
    cell = hit[np.searchsorted(owner[hit], np.arange(m))]
    # the parent's own score, from its first feature's total; a Python
    # float's ** is libm pow, which can differ from t * t in the last bit
    parent = np.array([t ** 2 for t in s_l[tail[::k]].tolist()]) / count
    split = best > parent + 1e-12
    return (split, feats.ravel()[seg[cell]], occ[cell] - start[seg[cell]],
            n_l[cell], s_l[cell])


def _depth_first(levels: list[dict]) -> dict:
    """Join the per-level node arrays into one tree, numbered in depth-first
    creation order: a split appends its left child, then its right child,
    and the left subtree is expanded first."""
    flat = {name: np.concatenate([level[name] for level in levels])
            for name in levels[0]}
    left = flat["left"].tolist()
    order, stack = [0], [0]
    while stack:
        first = left[stack.pop()]
        if first >= 0:
            order += (first, first + 1)
            stack += (first + 1, first)
    new_id = np.empty(len(order), dtype=np.intp)
    new_id[order] = np.arange(len(order))
    tree = {name: column[order] for name, column in flat.items()}
    is_split = tree["left"] >= 0
    tree["left"] = np.where(is_split, new_id[tree["left"]], -1)
    tree["right"] = np.where(is_split, tree["left"] + 1, -1)
    return {name: tree[name].tolist() for name in TREE_FIELDS}
