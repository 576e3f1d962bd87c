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
its histogram layout is kept per fit, on ``BinnedFeatures``: where each
feature's bins start in a node's block of cells, the whole level-0 layout
(keys, occupied bins, segments and running row counts), which only the
residual weights change from stage to stage, and buffers for the keys, the
weights and the padded float ``cumsum`` that every level and stage reuses.
The level-0 layout is served again only for rows equal to those it was
built on.

Without feature subsampling the result is bit-identical, up to the order
of its nodes, to growing the same tree depth-first, one node at a time
(the reference builder in the tests), because every float is produced by
the same operations in the same order: per-bin sums accumulate rows in
``idx`` order; counts and 0/1 label sums are integers, exact in any order,
so they take one flat running sum rebased at each segment start, while
Newton residual sums run per segment in bin order; ties go to the first
maximum over (feature in sorted order, bin); classification leaves are
integer sum / count, Newton leaves sum their gradient per node with
numpy's pairwise ``sum``, and Newton gains take ``np.var`` per split node.
For the same reasons a tree grown in a pass equals the tree grown alone:
no float of one tree meets a value of another, except in the running sums
of 0/1 labels, which are exact.

A grown tree is a plain dict of equal-length 1-D numpy arrays keyed by
TREE_FIELDS, the one place the tree format is declared, in the manner of
scikit-learn's parallel-array ``Tree`` (Pedregosa et al., 2011). Node 0 is
the root and ``feature == -1`` marks a leaf (whose ``left`` is -1). Nodes
are stored in level order, as they are grown: the root, then each level's
nodes, a split's two children side by side in the order of their parents;
so the right child is always ``left + 1`` and is not stored, and children
always come after their parent. Model files hold the same fields as JSON
lists: ``trees_json`` writes them, and ``tree_from_json`` turns them back
into arrays and rejects a tree that breaks any of these rules. Those rules
hold for any order that keeps siblings adjacent and after their parent,
so a file whose trees are in depth-first order, as earlier versions wrote
them, loads and predicts the same.

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
    bin starts, the kept level-0 histogram and reused buffers."""

    codes: np.ndarray        # (n, d) uint16 bin codes
    thresholds: list[np.ndarray]  # per feature, edge values; code<=k iff x<=edges[k]

    def __post_init__(self):
        self.n_bins = np.array([len(t) + 1 for t in self.thresholds],
                               dtype=np.int64)
        self.edges = np.concatenate(self.thresholds)   # all features' edges
        self.edge_start = np.cumsum(self.n_bins - 1) - (self.n_bins - 1)
        self.bin_start = np.cumsum(self.n_bins) - self.n_bins
        self.block = int(self.n_bins.sum())
        self.root_rows: np.ndarray | None = None
        self.root: _Histogram | None = None
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

    def full_histogram(self, rows, node, m, *, root) -> _Histogram:
        """The histogram of a level whose m open nodes take every feature,
        each node one block of cells laid out as ``bin_start`` says. A
        one-node root level is kept and served again for the same rows."""
        keep = root and m == 1
        if keep and self.root_rows is not None \
                and np.array_equal(self.root_rows, rows):
            return self.root
        d = self.codes.shape[1]
        start = (np.arange(m)[:, None] * self.block + self.bin_start).ravel()
        keys = (np.empty(rows.size * d, dtype=np.int64) if keep
                else self.buffer("keys", rows.size * d, np.int64))
        grid = keys.reshape(rows.size, d)
        np.add(self.codes[rows], self.bin_start, out=grid)
        grid += (node * self.block)[:, None]
        hist = _Histogram(keys, start, m * self.block)
        if keep:
            self.root_rows, self.root = rows, hist
        return hist

    def best_splits(self, hist, weights, feats, count, min_leaf, *, exact):
        """Best split of each open node of a level, from one histogram pass.

        ``hist`` lays out the level's cells, ``weights`` is the label of
        each (active row, candidate feature) cell, ``feats`` (m, k) holds
        each open node's candidate features and ``count`` each node's row
        count. Returns per node whether it splits, the feature, the last
        bin that goes left, and the left child's row count and label sum.
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
        if exact:
            # integer sums below 2**26, whose square t * t is exact
            squares = sums * sums
        else:
            # a Python float's ** is libm pow, which can differ from t * t
            # in the last bit
            squares = np.array([t ** 2 for t in sums.tolist()])
        split = best > squares / count + 1e-12
        return (split, feats.ravel()[seg[cell]],
                hist.occ[cell] - hist.start[seg[cell]], n_l[cell], s_l[cell])


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
    """Grow one tree on the rows in ``idx``: ``grow_trees`` for a pass of
    one tree, drawing its features from ``rng``."""
    return grow_trees(binned, [idx], y, max_depth=max_depth,
                      min_leaf=min_leaf, features_per_node=features_per_node,
                      rngs=[rng], leaf_grad=leaf_grad, leaf_hess=leaf_hess)[0]


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
    describes. Each tree comes out as ``grow_tree`` alone would grow it,
    its nodes in level order.
    """
    classification = leaf_grad is None
    codes = binned.codes
    d = codes.shape[1]
    subsample = features_per_node is not None and features_per_node < d

    def leaf_values(groups, count, label):
        if classification:
            return label / count            # integer sum / count == mean
        return np.array([
            float(leaf_grad[g].sum()) / max(float(leaf_hess[g].sum()), 1e-12)
            for g in groups])

    # the current level: its active rows (tree by tree, each in idx order),
    # the level node each row sits in, and per node its tree, row count and
    # label sum; nodes are in tree order, so each tree's rows stay together
    sizes = [len(idx) for idx in idxs]
    rows = np.concatenate(idxs).astype(np.intp, copy=False)
    node = np.repeat(np.arange(len(idxs)), sizes)
    tree = np.arange(len(idxs))
    count = np.array(sizes)
    label = np.array([y[idx].sum() for idx in idxs])
    # Newton statistics need each node's rows, in order
    groups = None if classification else _groups(rows, node, count.size)
    value = leaf_values(groups, count, label)
    levels = []
    for depth in itertools.count():
        m = count.size
        # "left" is the index of a split's left child in the next level
        level = {"feature": np.full(m, -1), "threshold": np.zeros(m),
                 "left": np.full(m, -1), "value": value, "n_samples": count,
                 "gain": np.zeros(m), "tree": tree}
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
            hist = binned.full_histogram(rows, node, ids.size,
                                         root=depth == 0)
        split, feat, cut, n_l, s_l = binned.best_splits(
            hist, binned.weights(y[rows], feats.shape[1]), feats, count[ids],
            min_leaf, exact=classification)
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
            parents = [groups[i] for i in ids.tolist()]
            groups = _groups(rows, child, 2 * n_split)
            dec = np.array([
                float(np.var(y[p])) - (nl / nn) * float(np.var(y[kl]))
                - (nr / nn) * float(np.var(y[kr]))
                for p, kl, kr, nl, nn, nr in zip(
                    parents, groups[0::2], groups[1::2],
                    n_l.tolist(), n.tolist(), n_r.tolist())])

        level["feature"][ids] = feat
        level["threshold"][ids] = binned.edges[binned.edge_start[feat] + cut]
        level["gain"][ids] = np.where(dec < 0.0, 0.0, dec)   # max(dec, 0.0)
        level["left"][ids] = 2 * np.arange(n_split)
        tree = np.repeat(tree[ids], 2)
        node = child
        count = np.stack((n_l, n_r), axis=1).ravel()    # left, right per split
        label = np.stack((s_l, s_r), axis=1).ravel()
        value = leaf_values(groups, count, label)

    return _level_order(levels)


def _groups(rows: np.ndarray, node: np.ndarray, m: int) -> list[np.ndarray]:
    """The rows of each of m nodes, keeping their order."""
    order = np.argsort(node, kind="stable")
    return np.split(rows[order], np.cumsum(np.bincount(node, minlength=m))[:-1])


def _gini(pos: np.ndarray, n: np.ndarray) -> np.ndarray:
    p = pos / n
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


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
    of all nodes by tree keeps both orders, and a split's ``left``, an
    index into the next level, becomes its child's place in the tree."""
    flat = {name: np.concatenate([level[name] for level in levels])
            for name in (*TREE_FIELDS, "tree")}
    sizes = [level["tree"].size for level in levels]
    left = flat["left"]
    split = left >= 0
    left[split] += np.repeat(np.cumsum(sizes), sizes)[split]
    order = np.argsort(flat["tree"], kind="stable")
    tree_size = np.bincount(flat["tree"])
    place = np.empty_like(order)
    place[order] = np.arange(order.size) - np.repeat(
        np.cumsum(tree_size) - tree_size, tree_size)
    left[split] = place[left[split]]
    ends = np.cumsum(tree_size)[:-1]
    parts = [np.split(flat[name][order], ends) for name in TREE_FIELDS]
    return [dict(zip(TREE_FIELDS, columns)) for columns in zip(*parts)]
