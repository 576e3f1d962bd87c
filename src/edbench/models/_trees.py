"""Shared decision-tree machinery for the forest and boosting trainers.

Features are discretized once per fit into at most 256 quantile bins;
split search then reduces to prefix sums over bin histograms, which keeps
tree growth fast without changing semantics for low-cardinality features.
Binning is rank-based, so strictly monotone feature transforms leave the
induced partition (and therefore predictions) unchanged.

For 0/1 targets, minimizing the Gini-weighted child impurity and
maximizing sum((sum y_c)^2 / n_c) over children select the same split, so
one criterion serves both classification (Gini) and squared-error
regression on residuals. The same sums give each split's gain, the
importance accounting's impurity decrease (Breiman et al., 1984): the
winning score's margin over the parent's (sum y)^2 / n, divided by n, is
the decrease in label variance, and for 0/1 labels, whose Gini impurity is
twice their variance, twice that is the Gini decrease. A Newton leaf
(Friedman, 2001) needs only its node's sums of gradient and hessian, which
one ``bincount`` per level gives.

Trees grow one depth level at a time, in the manner of LightGBM (Ke et
al., 2017) and XGBoost ``hist`` (Chen & Guestrin, 2016), and several trees
grow together in one pass (``grow_trees``; ``grow_tree`` is the pass of
one). Per level, one ``bincount`` keyed by (open node, feature, bin) builds
the histograms of every open node of every tree in the pass, each chosen
feature laid out with its own bin count, back to back; split scores and the
first-maximum search run only over occupied bins, and one vectorised
comparison routes the rows of every split node. Most of a level's cost is
a fixed count of numpy calls, so a pass of many small trees pays it once
where one tree at a time would pay it per tree. A random forest draws its
feature subsets once per level from each tree's own generator:
``rng.random((m, d))`` for that tree's m open nodes in level order, each
node taking the first ``features_per_node`` (the forest's
``ceil(sqrt(d))``) columns of its row's argsort, sorted. ``fit_forest``
puts as many trees in a pass as fit ``forest.PASS_CELLS`` root cells
(bootstrap rows x ``features_per_node``). The per-level gathers, keys and
weights hold one cell per active row and candidate feature, and rows only
leave as nodes close, so the root level's cells bound a pass's working
set; a training set that fills the budget alone grows one tree per pass.

Boosting grows every stage's tree over every feature on the same rows, so
its histogram layout is kept per fit: ``BinnedFeatures`` holds each
feature's bin start and the buffers every level and stage reuses, and
``fit_boosting`` builds the level-0 ``_Histogram``, which only the residual
weights change from stage to stage, once for every stage's ``grow_tree``.

Without feature subsampling the result is bit-identical, up to the order
of its nodes, to growing the same tree depth-first, one node at a time
(the reference builder in the tests), because every float is produced by
the same operations in the same order: per-bin sums accumulate rows in
``idx`` order; counts and 0/1 label sums are integers, exact in any order,
so they take one flat running sum rebased at each segment start, while
Newton residual sums run per segment in bin order; ties go to the first
maximum over (feature in sorted order, bin); the parent's score squares
its first feature's total as ``t * t``, and a gain is the best score's
margin over it, divided by n and doubled for 0/1 labels; classification
leaves are integer sum / count, and Newton leaves sum their gradient and
hessian over the node's rows in ``idx`` order. For the same reasons a tree
grown in a pass equals the tree grown alone: no float of one tree meets a
value of another, except in the running sums of 0/1 labels, which are
exact.

A grown tree is a plain dict of equal-length 1-D numpy arrays keyed by
TREE_FIELDS, in the manner of scikit-learn's parallel-array ``Tree``
(Pedregosa et al., 2011); a model keeps MODEL_FIELDS, what ``predict_trees``
reads. Node 0 is the root and ``feature == -1`` marks a leaf; a node's one
float, ``threshold_or_value``, is a split's threshold or a leaf's value, as
in XGBoost's ``split_conditions``. Nodes are in level order, as grown: the
root, then each level's nodes, a split's children side by side in the order
of their parents. So a tree of s splits has 2s + 1 nodes, and its k-th
split's (0-based) children, nodes 1 + 2k and 2 + 2k, follow from ``feature``
(``_left_child``) and are not stored. A model file holds an ensemble as one
table (TABLE_FIELDS): each model field concatenated over the trees, and
``n_nodes``, each tree's node count (``trees_json``, ``trees_from_json``).

``predict_trees`` walks every tree of an ensemble at once, as QuickScorer
does (Lucchese et al., 2015): the trees are concatenated with per-tree
node offsets, and one (tree, row) node index per pair advances a level at
a time until every pair sits at a leaf.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

MAX_BINS = 256


@dataclass
class BinnedFeatures:
    """One fit's bin codes, and the split-search state all its trees share:
    bin starts and reused buffers."""

    codes: np.ndarray        # (n, d) uint16 bin codes
    thresholds: list[np.ndarray]  # per feature, edge values; code<=k iff x<=edges[k]

    def __post_init__(self):
        self.n_bins = np.array([len(t) + 1 for t in self.thresholds],
                               dtype=np.int64)
        self.edges = np.concatenate(self.thresholds)   # all features' edges
        self.edge_start = np.cumsum(self.n_bins - 1) - (self.n_bins - 1)
        self.bin_start = np.cumsum(self.n_bins) - self.n_bins
        self.block = int(self.n_bins.sum())
        self.buffers: dict[str, np.ndarray] = {}

    def buffer(self, name: str, size: int, dtype=np.float64) -> np.ndarray:
        """The first ``size`` cells of a buffer kept for the fit. It is
        zeroed when made, and after that holds only earlier contents."""
        buf = self.buffers.get(name)
        if buf is None or buf.size < size:
            buf = self.buffers[name] = np.zeros(size, dtype)
        return buf[:size]

    def weights(self, y_rows: np.ndarray, k: int) -> np.ndarray:
        """``np.repeat(y_rows, k)``, each row's label once per cell, in the
        weights buffer."""
        w = self.buffer("weights", y_rows.size * k)
        w.reshape(y_rows.size, k)[...] = y_rows[:, None]
        return w

    def subset_histogram(self, rows, node, feats) -> _Histogram:
        """The histogram of a level whose open nodes take the candidate
        features ``feats`` (m, k), each segment as long as its feature has
        bins."""
        m, k = feats.shape
        size = self.n_bins[feats].ravel()
        start = np.cumsum(size) - size
        keys = self.buffer("keys", rows.size * k, np.int64)
        grid = keys.reshape(rows.size, k)
        # flat gathers by np.take, which beat fancy indexing on a 2-D array
        np.multiply(rows[:, None], self.codes.shape[1], out=grid)
        grid += np.take(feats, node, axis=0)
        sub = np.take(self.codes.ravel(), grid)
        np.take(start.reshape(m, k), node, axis=0, out=grid)
        grid += sub
        return _Histogram(keys, start, int(size.sum()))

    def full_histogram(self, rows, node, m) -> _Histogram:
        """The histogram of a level whose m open nodes take every feature,
        each node one block of cells laid out as ``bin_start`` says. A
        one-node level owns its keys, so that it outlives the levels after
        it, which reuse the keys buffer."""
        d = self.codes.shape[1]
        start = (np.arange(m)[:, None] * self.block + self.bin_start).ravel()
        keys = (np.empty(rows.size * d, dtype=np.int64) if m == 1
                else self.buffer("keys", rows.size * d, np.int64))
        grid = keys.reshape(rows.size, d)
        np.add(self.codes[rows], self.bin_start, out=grid)
        grid += (node * self.block)[:, None]
        return _Histogram(keys, start, m * self.block)

    def best_splits(self, hist, weights, feats, count, min_leaf, *, exact):
        """Best split of each open node of a level, from one histogram pass.

        ``hist`` lays out the level's cells, ``weights`` is the label of
        each (active row, candidate feature) cell, ``feats`` (m, k) holds
        each open node's candidate features and ``count`` each node's row
        count. Returns per node whether it splits, the feature, the last
        bin that goes left, the left child's row count and label sum, and
        the split's gain: the decrease in Gini impurity (``exact``, 0/1
        labels) or in label variance, from the parent to its children.
        """
        m, k = feats.shape
        seg, head, tail, n_l = hist.seg, hist.head, hist.tail, hist.n_l
        w = np.bincount(hist.keys, weights=weights,
                        minlength=hist.n_cells)[hist.occ]
        if exact:
            # integer label sums: one flat running sum, rebased per segment
            s_l = np.cumsum(w)
            s_l -= (s_l - w)[head][seg]
        else:
            # float sums: each segment cumulates on its own, in bin order,
            # in a padded (segments, width) block; the cumsum of a cell
            # reads only the cells before it, so what a reused block holds
            # past a segment's end is never read
            shape = (m * k, hist.width)
            pad = self.buffer("pad", m * k * hist.width)
            pad[hist.padded] = w
            total = self.buffer("cumsum", pad.size)
            np.cumsum(pad.reshape(shape), axis=1, out=total.reshape(shape))
            s_l = total[hist.padded]
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
        # the parent's own score, from its first feature's total
        sums = s_l[tail[::k]]
        parent = sums * sums / count
        split = best > parent + 1e-12
        # the score's margin over the parent, over n, is the decrease in
        # variance; a 0/1 label's Gini impurity is twice its variance
        gain = (best - parent) / count
        if exact:
            gain *= 2
        return (split, feats.ravel()[seg[cell]],
                hist.occ[cell] - hist.start[seg[cell]], n_l[cell], s_l[cell],
                gain)


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


TREE_FIELDS = ("feature", "threshold_or_value", "n_samples", "gain")
MODEL_FIELDS = ("feature", "threshold_or_value")
TABLE_FIELDS = (*MODEL_FIELDS, "n_nodes")

PREDICT_BLOCK = 2048    # rows per block in predict_trees


def predict_trees(trees: list[dict], X: np.ndarray) -> np.ndarray:
    """Leaf value each tree gives each row of ``X``, as a (trees, rows)
    array; ``x <= threshold_or_value`` goes left. Rows are walked in blocks
    of PREDICT_BLOCK, which bounds the size of the per-pair index arrays."""
    sizes = [len(tree["feature"]) for tree in trees]
    offset = np.cumsum(sizes) - sizes
    feature, number = (np.concatenate([tree[name] for tree in trees])
                       for name in MODEL_FIELDS)
    left = _left_child(feature >= 0, np.repeat(np.arange(len(trees)), sizes))
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
                                     > number[at])
        out[:, start:start + b] = number[node].reshape(len(trees), b)
    return out


def _left_child(split: np.ndarray, tree: np.ndarray) -> np.ndarray:
    """Each split's left child among an ensemble's nodes, from which nodes
    split and each node's tree: the k-th split, in tree t, has 2k + 1 + t."""
    return 2 * np.cumsum(split) - 1 + tree


def trees_json(trees: list[dict]) -> Iterator[str]:
    """The table of ``trees`` in pieces; joined, what ``json.dumps`` writes
    for it with sorted keys, no whitespace and its arrays as lists. Each
    distinct value of a column is formatted once: formatting numbers costs
    most in writing a forest, and thresholds and leaves repeat."""
    # no trees give empty float columns, which _distinct takes
    table = {name: np.concatenate([tree[name] for tree in trees]
                                  or [np.empty(0)]) for name in MODEL_FIELDS}
    table["n_nodes"] = np.array([len(tree["feature"]) for tree in trees])
    for i, name in enumerate(sorted(table)):
        distinct, inverse = _distinct(table[name])
        cells = json.dumps(distinct, separators=(",", ":"))
        cells = np.array(cells[1:-1].split(","), dtype=object)[inverse]
        yield ("," if i else "{") + f'"{name}":['
        yield ",".join(cells.tolist())
        yield "]"
    yield "}"


def _distinct(column: np.ndarray) -> tuple[list, np.ndarray]:
    """The distinct values of an int64 or float64 column, non-empty if
    int64, and the index into them of each cell."""
    if column.dtype.kind == "i":
        low, high = int(column.min()), int(column.max())
        if high - low < column.size:    # a table of the range needs no sort
            return list(range(low, high + 1)), column - low
    # distinct bit patterns, so that -0.0 and 0.0 stay apart
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    return bits.view(column.dtype).tolist(), inverse


def trees_from_json(table, n_features: int, max_depth: int) -> list[dict]:
    """The trees of a model file's table. Raises ValueError, saying what is
    wrong, unless its fields are TABLE_FIELDS, each a list of numbers, of
    integers where they must be, the node fields of equal length, each
    ``threshold_or_value`` finite, each ``feature`` in [-1, n_features), the
    ``n_nodes`` positive and summing to that length, each tree of s splits
    2s + 1 nodes, each split before its children, so that every walk ends at
    a leaf, and no tree deeper than ``max_depth``."""
    if not isinstance(table, dict) or sorted(table) != sorted(TABLE_FIELDS):
        raise ValueError(f"tree fields must be {', '.join(TABLE_FIELDS)}")
    columns = {}
    for name in TABLE_FIELDS:
        integer = name in ("feature", "n_nodes")
        kinds = "i" if integer else "if"
        try:
            column = np.asarray(table[name])
        except ValueError:                  # ragged nesting
            column = np.empty((0, 0))
        if column.ndim != 1 or (column.size and column.dtype.kind not in kinds):
            raise ValueError(f"{name!r} must be a list of "
                             + ("integers" if integer else "numbers"))
        columns[name] = column.astype(np.int64 if integer else np.float64,
                                      copy=False)
    feature, n_nodes = columns["feature"], columns["n_nodes"]
    size = feature.size
    if any(columns[name].size != size for name in MODEL_FIELDS):
        raise ValueError("node fields must be of equal length")
    if not np.isfinite(columns["threshold_or_value"]).all():
        raise ValueError("'threshold_or_value' must hold finite numbers")
    if ((feature < -1) | (feature >= n_features)).any():
        raise ValueError(f"'feature' must lie in [-1, {n_features})")
    if ((n_nodes < 1) | (n_nodes > size)).any() or n_nodes.sum() != size:
        raise ValueError(f"'n_nodes' must be positive and sum to {size}")
    split = feature >= 0
    tree = np.repeat(np.arange(n_nodes.size), n_nodes)
    n_splits = np.bincount(tree[split], minlength=n_nodes.size)
    bad = n_nodes != 2 * n_splits + 1
    if bad.any():
        raise ValueError(f"tree {bad.argmax()} does not have 2s + 1 nodes for "
                         "its s splits")
    left = _left_child(split, tree)
    bad = split & (left <= np.arange(size))
    if bad.any():
        raise ValueError(f"tree {tree[bad.argmax()]}: a split is not before "
                         "its children")
    # the nodes at each depth, one level of every tree a step from the
    # roots; a split at depth max_depth makes its tree too deep
    node = np.cumsum(n_nodes) - n_nodes
    for _ in range(max_depth):
        node = left[node[split[node]]]
        if not node.size:
            break
        node = np.concatenate((node, node + 1))
    deep = tree[node[split[node]]]
    if deep.size:
        raise ValueError(f"tree {deep.min()} is deeper than 'hyperparams' "
                         f"'max_depth', {max_depth}")
    # one part per tree, and an empty one past the last
    parts = [np.split(columns[name], np.cumsum(n_nodes))[:-1]
             for name in MODEL_FIELDS]
    return [dict(zip(MODEL_FIELDS, arrays)) for arrays in zip(*parts)]


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
    root: _Histogram | None = None,
) -> dict:
    """Grow one tree on the rows in ``idx``: ``grow_trees`` for a pass of
    one tree, drawing its features from ``rng``."""
    return grow_trees(binned, [idx], y, max_depth=max_depth,
                      min_leaf=min_leaf, features_per_node=features_per_node,
                      rngs=[rng], leaf_grad=leaf_grad, leaf_hess=leaf_hess,
                      root=root)[0]


def grow_trees(
    binned: BinnedFeatures,
    idxs: list[np.ndarray],
    y: np.ndarray,
    *,
    max_depth: int,
    min_leaf: int = 1,
    features_per_node: int | None = None,
    rngs: list[np.random.Generator | None] | None = None,
    leaf_grad: np.ndarray | None = None,
    leaf_hess: np.ndarray | None = None,
    root: _Histogram | None = None,
) -> list[dict]:
    """Grow one tree per entry of ``idxs``, on the rows it lists, together:
    one depth level at a time, each level one histogram pass and one
    routing step over the open nodes of every tree of the pass.

    Split criterion maximizes sum((sum y_c)^2 / n_c); for 0/1 targets this
    is the Gini split. Leaf values are mean(y) unless Newton statistics
    (leaf_grad / leaf_hess) are supplied, in which case a leaf predicts
    sum(grad) / sum(hess); without them the tree is a 0/1 classifier, whose
    pure nodes stay leaves and whose gains are Gini decreases.
    ``features_per_node`` activates random feature subsampling, tree t
    drawing from ``rngs[t]`` once per level as the module docstring
    describes. ``root``, if given, is a one-tree pass's level-0 histogram,
    as ``full_histogram`` builds it. Each tree comes out as ``grow_tree``
    alone would grow it, its nodes in level order.
    """
    classification = leaf_grad is None
    codes = binned.codes
    d = codes.shape[1]
    subsample = features_per_node is not None and features_per_node < d

    def leaf_values(rows, node, count, label):
        if classification:
            return label / count            # integer sum / count == mean
        # Newton step: each node's gradient over its hessian, summed in
        # row order
        grad = np.bincount(node, leaf_grad[rows], minlength=count.size)
        hess = np.bincount(node, leaf_hess[rows], minlength=count.size)
        return grad / np.maximum(hess, 1e-12)

    # the current level: its active rows (tree by tree, each in idx order),
    # the level node each row sits in, and per node its tree, row count and
    # label sum; nodes are in tree order, so each tree's rows stay together
    sizes = [len(idx) for idx in idxs]
    rows = np.concatenate(idxs).astype(np.intp, copy=False)
    node = np.repeat(np.arange(len(idxs)), sizes)
    tree = np.arange(len(idxs))
    count = np.array(sizes)
    label = np.bincount(node, y[rows], minlength=count.size)
    value = leaf_values(rows, node, count, label)
    levels = []
    for depth in itertools.count():
        m = count.size
        level = {"feature": np.full(m, -1), "threshold_or_value": value,
                 "n_samples": count, "gain": np.zeros(m), "tree": tree}
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
            opened = np.bincount(tree[ids], minlength=len(idxs)).tolist()
            draw = np.concatenate([rngs[t].random((c, d))
                                   for t, c in enumerate(opened) if c])
            feats = np.sort(np.argsort(draw, axis=1)[:, :features_per_node],
                            axis=1)
            hist = binned.subset_histogram(rows, node, feats)
        else:
            feats = np.broadcast_to(np.arange(d), (ids.size, d))
            hist = (root if depth == 0 and root is not None
                    else binned.full_histogram(rows, node, ids.size))
        split, feat, cut, n_l, s_l, gain = binned.best_splits(
            hist, binned.weights(y[rows], feats.shape[1]), feats, count[ids],
            min_leaf, exact=classification)
        if not split.any():
            break
        ids, feat, cut, n_l, s_l, gain = (
            a[split] for a in (ids, feat, cut, n_l, s_l, gain))

        # route the rows of split nodes; rows of nodes that stay leaves drop out
        r = np.where(split, np.cumsum(split) - 1, -1)[node]
        rows, r = rows[r >= 0], r[r >= 0]
        node = 2 * r + (codes[rows, feat[r]] > cut[r])

        level["feature"][ids] = feat
        level["threshold_or_value"][ids] = binned.edges[
            binned.edge_start[feat] + cut]
        level["gain"][ids] = gain
        tree = np.repeat(tree[ids], 2)
        # left, right per split
        count = np.stack((n_l, count[ids] - n_l), axis=1).ravel()
        label = np.stack((s_l, label[ids] - s_l), axis=1).ravel()
        value = leaf_values(rows, node, count, label)

    return _level_order(levels)


class _Histogram:
    """Where the active rows of one level fall among its histogram cells:
    every (open node, candidate feature) pair owns a segment of that
    feature's own bins, back to back. It holds each (row, feature) cell's
    key, and for the occupied cells their segment, each segment's first and
    last occupied cell, and the running row count within the segment:
    everything split search needs that does not depend on the labels."""

    def __init__(self, keys: np.ndarray, start: np.ndarray, n_cells: int):
        self.keys, self.start, self.n_cells = keys, start, n_cells
        cnt = np.bincount(keys, minlength=n_cells)
        # scores only at occupied bins: an empty bin repeats the score of the
        # bin before it, so the first maximum is always an occupied bin
        self.occ = np.flatnonzero(cnt)
        per_seg = np.add.reduceat(cnt > 0, start, dtype=np.intp)
        self.seg = np.repeat(np.arange(start.size), per_seg)
        self.tail = np.cumsum(per_seg) - 1          # last and first cell
        self.head = self.tail - per_seg + 1
        c = cnt[self.occ]
        self.n_l = np.cumsum(c)
        self.n_l -= (self.n_l - c)[self.head][self.seg]
        self.width = int(per_seg.max())             # most cells of a segment

    @functools.cached_property
    def padded(self) -> np.ndarray:
        """Each occupied cell's place in a (segments, width) block."""
        return (self.seg * self.width + np.arange(self.occ.size)
                - self.head[self.seg])


def _level_order(levels: list[dict]) -> list[dict]:
    """Join the per-level node arrays of a pass into its trees, each tree's
    nodes level by level. A level lists its nodes tree by tree, and each
    split's two children side by side in the next level, so a stable sort
    of all nodes by tree keeps both orders."""
    tree = np.concatenate([level["tree"] for level in levels])
    order = np.argsort(tree, kind="stable")
    ends = np.cumsum(np.bincount(tree))[:-1]
    parts = [np.split(np.concatenate([level[name] for level in levels])[order],
                      ends) for name in TREE_FIELDS]
    return [dict(zip(TREE_FIELDS, columns)) for columns in zip(*parts)]
