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

A grown tree is a plain dict of equal-length 1-D numpy arrays keyed by
TREE_FIELDS, the one place the tree format is declared, in the manner of
scikit-learn's parallel-array ``Tree`` (Pedregosa et al., 2011). Node 0 is
the root and ``feature == -1`` marks a leaf (whose ``left`` is -1). Nodes
are numbered in depth-first creation order: a split appends its left
child, then its right child, and the left subtree is expanded first; so
the right child is always ``left + 1`` and is not stored, and children
always come after their parent. Model files hold the same fields as JSON
lists: ``trees_json`` writes them, and ``tree_from_json`` turns them back
into arrays and rejects a tree that breaks any of these rules.

``predict_trees`` walks every tree of an ensemble at once, as QuickScorer
does (Lucchese et al., 2015): the trees are concatenated with per-tree
node offsets, and one (tree, row) node index per pair advances a level at
a time until every pair sits at a leaf.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterator
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


TREE_FIELDS = ("feature", "threshold", "left", "value", "n_samples", "gain")
_INT_FIELDS = ("feature", "left", "n_samples")

PREDICT_BLOCK = 2048    # rows per block in predict_trees


def predict_trees(trees: list[dict], X: np.ndarray) -> np.ndarray:
    """Leaf value each tree gives each row of ``X``, as a (trees, rows)
    array; ``x <= threshold`` goes left. Rows are walked in blocks of
    PREDICT_BLOCK, which bounds the size of the per-pair index arrays."""
    sizes = [len(tree["feature"]) for tree in trees]
    offset = np.cumsum(sizes) - sizes
    feature, threshold, value = (
        np.concatenate([tree[name] for tree in trees])
        for name in ("feature", "threshold", "value"))
    left = np.concatenate([tree["left"] + off
                           for tree, off in zip(trees, offset)])
    n, d = X.shape
    out = np.empty((len(trees), n))
    for start in range(0, n, PREDICT_BLOCK):
        b = min(PREDICT_BLOCK, n - start)
        flat = np.ascontiguousarray(X[start:start + b]).ravel()
        node = np.repeat(offset, b)                 # pair (t, r) at t * b + r
        cell = np.tile(np.arange(b) * d, len(trees))  # row r's first cell
        walk = np.arange(node.size)
        while True:
            feat = feature[node[walk]]
            inner = feat >= 0
            walk = walk[inner]
            if walk.size == 0:
                break
            at = node[walk]
            node[walk] = left[at] + (flat[cell[walk] + feat[inner]]
                                     > threshold[at])
        out[:, start:start + b] = value[node].reshape(len(trees), b)
    return out


def trees_json(trees: list[dict]) -> Iterator[str]:
    """The JSON text of a non-empty list of trees, in one piece per tree;
    joined, byte for byte what ``json.dumps`` writes for the list with
    sorted keys, no whitespace and the arrays as lists. Each distinct value
    of a field is formatted once per ensemble: formatting numbers is most
    of the cost of writing a forest, and thresholds, leaf fractions, gains
    and child indices repeat across nodes and trees."""
    ends = np.cumsum([len(tree["feature"]) for tree in trees])[:-1]
    texts = {}
    for name in sorted(TREE_FIELDS):
        distinct, inverse = _distinct(
            np.concatenate([tree[name] for tree in trees]))
        cells = json.dumps(distinct, separators=(",", ":"))
        cells = np.array(cells[1:-1].split(","), dtype=object)[inverse]
        texts[name] = ["[" + ",".join(part.tolist()) + "]"
                       for part in np.split(cells, ends)]
    for t in range(len(trees)):
        yield ("[{" if t == 0 else ",{") + ",".join(
            f'"{name}":{texts[name][t]}' for name in texts) + "}"
    yield "]"


def _distinct(column: np.ndarray) -> tuple[list, np.ndarray]:
    """The distinct values of an int64 or float64 column, and the index
    into them of each cell."""
    if column.dtype.kind == "i":
        low, high = int(column.min()), int(column.max())
        if high - low < column.size:    # a table of the range needs no sort
            return list(range(low, high + 1)), column - low
    # distinct bit patterns, so that -0.0 and 0.0 stay apart
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    return bits.view(column.dtype).tolist(), inverse


def tree_from_json(tree, n_features: int) -> dict:
    """The arrays of one tree read from a model file. Raises ValueError,
    saying what is wrong, unless the fields are exactly TREE_FIELDS, of equal
    length, integers where they must be, each ``feature`` is -1 or below
    ``n_features``, leaves and only leaves have ``left == -1``, and each
    split's children both come after it. That last rule makes every walk
    from the root end at a leaf."""
    if not isinstance(tree, dict) or sorted(tree) != sorted(TREE_FIELDS):
        raise ValueError(f"tree fields must be {', '.join(TREE_FIELDS)}")
    arrays = {}
    for name in TREE_FIELDS:
        integer = name in _INT_FIELDS
        try:
            column = np.asarray(tree[name])
        except ValueError:                  # ragged nesting
            column = np.empty((0, 0))
        if column.ndim != 1 or column.dtype.kind not in ("i" if integer
                                                         else "if"):
            raise ValueError(f"{name!r} must be a list of "
                             + ("integers" if integer else "numbers"))
        arrays[name] = column.astype(np.int64 if integer else np.float64,
                                     copy=False)
    size = len(arrays["feature"])
    if size == 0 or any(len(column) != size for column in arrays.values()):
        raise ValueError("tree fields must be non-empty and of equal length")
    feature, left = arrays["feature"], arrays["left"]
    if ((feature < -1) | (feature >= n_features)).any():
        raise ValueError(f"'feature' must lie in [-1, {n_features})")
    split = feature >= 0
    if ((left == -1) == split).any():
        raise ValueError("'left' must be -1 exactly at leaves")
    where = np.arange(size)
    if ((left[split] <= where[split]) | (left[split] >= size - 1)).any():
        raise ValueError("a split's children must come after it, inside "
                         "the tree")
    return arrays


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
    return {name: tree[name] for name in TREE_FIELDS}
