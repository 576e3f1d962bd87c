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
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class Tree:
    """Flat array tree; feature == -1 marks a leaf."""

    feature: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    threshold: np.ndarray = field(default_factory=lambda: np.empty(0, np.float64))
    left: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    right: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    value: np.ndarray = field(default_factory=lambda: np.empty(0, np.float64))
    n_samples: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    gain: np.ndarray = field(default_factory=lambda: np.empty(0, np.float64))

    def predict(self, X: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        out_node = np.zeros(n, dtype=np.int32)
        while True:
            feat = self.feature[out_node]
            active = feat >= 0
            if not active.any():
                break
            rows = np.nonzero(active)[0]
            node_ids = out_node[rows]
            x = X[rows, feat[rows]]
            go_left = x <= self.threshold[node_ids]
            out_node[rows] = np.where(go_left, self.left[node_ids], self.right[node_ids])
        return self.value[out_node]

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
            "n_samples": self.n_samples.tolist(),
            "gain": self.gain.tolist(),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Tree":
        return cls(
            feature=np.asarray(obj["feature"], dtype=np.int32),
            threshold=np.asarray(obj["threshold"], dtype=np.float64),
            left=np.asarray(obj["left"], dtype=np.int32),
            right=np.asarray(obj["right"], dtype=np.int32),
            value=np.asarray(obj["value"], dtype=np.float64),
            n_samples=np.asarray(obj["n_samples"], dtype=np.int64),
            gain=np.asarray(obj["gain"], dtype=np.float64),
        )


class _TreeBuilder:
    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.n_samples: list[int] = []
        self.gain: list[float] = []

    def add(self, value: float, n: int) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        self.n_samples.append(n)
        self.gain.append(0.0)
        return len(self.feature) - 1

    def finish(self) -> Tree:
        return Tree(
            feature=np.asarray(self.feature, dtype=np.int32),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int32),
            right=np.asarray(self.right, dtype=np.int32),
            value=np.asarray(self.value, dtype=np.float64),
            n_samples=np.asarray(self.n_samples, dtype=np.int64),
            gain=np.asarray(self.gain, dtype=np.float64),
        )


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
) -> Tree:
    """Grow one tree on the rows in ``idx``.

    Split criterion maximizes sum((sum y_c)^2 / n_c); for 0/1 targets this
    is the Gini split. Leaf values are mean(y) unless Newton statistics
    (leaf_grad / leaf_hess) are supplied, in which case a leaf predicts
    sum(grad) / sum(hess); without them the tree is a 0/1 classifier, whose
    pure nodes stay leaves and whose gains are Gini decreases.
    ``features_per_node`` activates per-node random feature subsampling
    via ``rng``.
    """
    classification = leaf_grad is None
    codes = binned.codes
    d = codes.shape[1]
    n_bins = np.array([len(t) + 1 for t in binned.thresholds], dtype=np.int64)
    builder = _TreeBuilder()

    def leaf_value(rows: np.ndarray) -> float:
        if leaf_grad is not None:
            g = float(leaf_grad[rows].sum())
            h = float(leaf_hess[rows].sum())
            return g / max(h, 1e-12)
        return float(y[rows].mean())

    def gini(pos: float, n: float) -> float:
        p = pos / n
        return 1.0 - p * p - (1.0 - p) * (1.0 - p)

    # recursion via explicit stack: (rows, depth, parent_slot, is_left)
    root_slot = builder.add(leaf_value(idx), len(idx))
    stack = [(idx, 0, root_slot)]
    while stack:
        rows, depth, slot = stack.pop()
        n = len(rows)
        ysum = float(y[rows].sum())
        if depth >= max_depth or n < 2 * min_leaf:
            continue
        if classification and (ysum == 0.0 or ysum == n):
            continue

        if features_per_node is not None and features_per_node < d:
            feats = np.sort(rng.choice(d, size=features_per_node, replace=False))
        else:
            feats = np.arange(d)
        k = len(feats)
        nb = int(n_bins[feats].max())
        # one histogram pass for all candidate features: feature-major
        # flattened codes with a per-feature offset, weights tiled to match
        sub = codes[rows][:, feats].astype(np.int64)
        flat = (sub.T + (np.arange(k) * nb)[:, None]).ravel()
        cnt = np.bincount(flat, minlength=k * nb).reshape(k, nb).astype(np.float64)
        wsum = np.bincount(flat, weights=np.tile(y[rows], k),
                           minlength=k * nb).reshape(k, nb)

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
            continue  # no split improves on the parent
        fi, split_bin = divmod(best_flat, nb - 1)
        feat = int(feats[fi])
        if split_bin >= len(binned.thresholds[feat]):
            continue
        threshold = float(binned.thresholds[feat][split_bin])

        go_left = codes[rows, feat] <= split_bin
        rows_l = rows[go_left]
        rows_r = rows[~go_left]
        if len(rows_l) < min_leaf or len(rows_r) < min_leaf:
            continue

        # impurity decrease, Gini for 0/1 targets and variance otherwise
        n_l, n_r = len(rows_l), len(rows_r)
        s_l = float(y[rows_l].sum())
        s_r = ysum - s_l
        if classification:
            dec = gini(ysum, n) - (n_l / n) * gini(s_l, n_l) - (n_r / n) * gini(s_r, n_r)
        else:
            var_p = float(np.var(y[rows]))
            var_l = float(np.var(y[rows_l]))
            var_r = float(np.var(y[rows_r]))
            dec = var_p - (n_l / n) * var_l - (n_r / n) * var_r

        builder.feature[slot] = feat
        builder.threshold[slot] = threshold
        builder.gain[slot] = max(dec, 0.0)
        left_slot = builder.add(leaf_value(rows_l), n_l)
        right_slot = builder.add(leaf_value(rows_r), n_r)
        builder.left[slot] = left_slot
        builder.right[slot] = right_slot
        stack.append((rows_r, depth + 1, right_slot))
        stack.append((rows_l, depth + 1, left_slot))

    return builder.finish()
