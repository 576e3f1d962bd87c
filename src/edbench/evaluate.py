"""Discrimination metrics, bootstrap intervals, and report rendering.

Each metric has one implementation, a row kernel that scores every row of
an index array: point estimates run it on the identity index, bootstrap
intervals on (B, n) resample blocks. AUROC and AUPRC read the tie-group
counts of the scores. AUROC is the Mann-Whitney statistic (ties credited
0.5), pinned by the tests against a brute-force pairwise count. AUPRC is
average precision with equal scores grouped into a single step, so
constant scores give exactly the prevalence. Specificity is the recall of
the negative calls on the negatives.

Resamples on which a metric is undefined are redrawn, so every interval
rests on B effective samples: AUROC, sensitivity and specificity redraw
one holding one class only, AUPRC one without a positive. Each metric
draws from its own child stream of an integer seed, and whether a draw is
kept depends on the labels alone. So all report rows of a task share one
set of index blocks, a paired bootstrap, and ``build_report`` draws anew
only when a row's labels differ from the previous row's.

Report output mirrors the benchmark table layout: one row per
(task, model) with threshold, AUROC/AUPRC/sensitivity/specificity each
formatted as "point (low-high)" at three decimals, runtime in whole
seconds, and the variable count. Figures are self-contained SVG bar
charts with CI whiskers, rendered directly without a plotting library.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cohort import column_kind
from .errors import NoPositives, OneClassOnly, ResampleExhausted

logger = logging.getLogger(__name__)

DEFAULT_BOOTSTRAP = 100
_METRICS = ("auroc", "auprc", "sensitivity", "specificity")


def _as_arrays(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-d sequences")
    if np.isnan(s).any():
        raise ValueError("scores must not be NaN")
    return s, y


def _require_both_classes(y: np.ndarray, what: str) -> None:
    n_pos = y.sum()
    if n_pos == 0 or n_pos == len(y):
        raise OneClassOnly(f"{what} needs both classes present")


def _identity(n: int) -> np.ndarray:
    return np.arange(n)[None]    # one index row: the whole sample


def _tie_group_counts(s: np.ndarray, y: np.ndarray, idx: np.ndarray):
    """The G distinct values of ``s`` in ascending order, and the negatives
    and positives that each row of ``idx`` draws from each of them: two
    (len(idx), G) arrays."""
    values, group = np.unique(s, return_inverse=True)
    width = 2 * len(values)
    flat = (group + len(values) * (y == 1))[idx]
    flat += width * np.arange(len(idx))[:, None]
    counts = np.bincount(flat.ravel(), minlength=width * len(idx))
    neg, pos = counts.reshape(len(idx), 2, len(values)).transpose(1, 0, 2)
    return values, neg, pos


def _auroc_rows(s: np.ndarray, y: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """AUROC of every row of ``idx``. Average ranks are half-integers, so
    twice the rank sum is counted exactly in integers."""
    _, neg, pos = _tie_group_counts(s, y, idx)
    size = neg + pos
    # twice a group's average rank: 2 * (draws below it) + size + 1
    twice_rank = np.cumsum(size, axis=1)
    twice_rank *= 2
    twice_rank -= size
    twice_rank += 1
    twice_rank *= pos
    rank_sum = twice_rank.sum(axis=1) / 2.0
    n_pos = pos.sum(axis=1).astype(np.float64)
    n_neg = idx.shape[1] - n_pos
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _auprc_rows(s: np.ndarray, y: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """AUPRC of every row of ``idx``: precision times the recall gained,
    summed left to right over the tie groups in descending score order, so
    each row equals a plain prefix-enumeration loop bit for bit. Tie groups
    a row did not draw add 0.0."""
    _, neg, pos = _tie_group_counts(-s, y, idx)    # descending scores
    tp = np.cumsum(pos, axis=1)
    seen = np.cumsum(neg, axis=1)
    seen += tp
    np.maximum(seen, 1, out=seen)    # 0 before the first group drawn
    terms = tp / seen                # precision
    terms *= pos / tp[:, -1:]        # recall gained
    return np.cumsum(terms, axis=1)[:, -1]


def _recall_rows(pred: np.ndarray, pos: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Share of the ``pos`` cases that ``pred`` calls, on every row of
    ``idx``; specificity is the recall of ``~pred`` on ``~pos``."""
    return (pred & pos)[idx].sum(axis=1) / pos[idx].sum(axis=1)


def auroc(scores, labels) -> float:
    s, y = _as_arrays(scores, labels)
    _require_both_classes(y, "auroc")
    return float(_auroc_rows(s, y, _identity(len(s)))[0])


def auprc(scores, labels) -> float:
    s, y = _as_arrays(scores, labels)
    if y.sum() == 0:
        raise NoPositives("auprc needs at least one positive label")
    return float(_auprc_rows(s, y, _identity(len(s)))[0])


@dataclass
class RocCurve:
    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray  # descending; first entry +inf for the (0,0) point

    def points(self) -> list[tuple[float, float, float]]:
        return list(zip(self.fpr.tolist(), self.tpr.tolist(),
                        self.thresholds.tolist()))


def roc_curve(scores, labels) -> RocCurve:
    """One point per distinct threshold; positive iff score >= threshold."""
    s, y = _as_arrays(scores, labels)
    _require_both_classes(y, "roc_curve")
    values, neg, pos = _tie_group_counts(-s, y, _identity(len(s)))
    fp = np.cumsum(neg[0])
    tp = np.cumsum(pos[0])
    return RocCurve(
        fpr=np.r_[0.0, fp / fp[-1]],
        tpr=np.r_[0.0, tp / tp[-1]],
        thresholds=np.r_[np.inf, -values],
    )


def optimal_cutoff(curve: RocCurve) -> float:
    """Threshold nearest the (0,1) corner; ties pick the lower threshold."""
    d = np.sqrt((1.0 - curve.tpr) ** 2 + curve.fpr ** 2)
    best = np.flatnonzero(d == d.min())[-1]  # thresholds descend, so last = lowest
    return float(curve.thresholds[best])


def sens_spec_at(scores, labels, threshold: float) -> tuple[float, float]:
    s, y = _as_arrays(scores, labels)
    _require_both_classes(y, "sens_spec_at")
    pred = s >= threshold
    pos = y == 1
    whole = _identity(len(s))
    return (float(_recall_rows(pred, pos, whole)[0]),
            float(_recall_rows(~pred, ~pos, whole)[0]))


def _draw_resamples(n: int, B: int, seq: np.random.SeedSequence,
                    accept) -> np.ndarray:
    """(B, n) block of resample indices, drawn with replacement.

    ``seq`` spawns B child streams; row k is the first draw of stream k
    that ``accept(idx)`` takes. After 10*B draws in all the attempt is
    abandoned with ResampleExhausted.
    """
    block = np.empty((B, n), dtype=np.int64)
    attempts = 0
    for k, child in enumerate(seq.spawn(B)):
        rng = np.random.default_rng(child)
        while True:
            attempts += 1
            if attempts > 10 * B:
                raise ResampleExhausted(
                    f"no valid resample after {attempts - 1} draws "
                    f"({k} of {B} collected)")
            idx = rng.integers(0, n, size=n)
            if accept(idx):
                break
        block[k] = idx
    return block


def bootstrap_ci(metric, scores, labels, B: int = DEFAULT_BOOTSTRAP,
                 seed=0) -> tuple[float, float]:
    """95% percentile interval from B seeded resamples with replacement.

    ``metric`` is called once per resample; resamples on which it raises
    OneClassOnly/NoPositives are redrawn; after 10*B total draws the
    attempt is abandoned. ``seed`` is an integer or a SeedSequence, such as
    one of the four streams ``_resample_blocks`` spawns.
    """
    s, y = _as_arrays(scores, labels)
    samples = []

    def accept(idx) -> bool:
        try:
            samples.append(float(metric(s[idx], y[idx])))
        except (OneClassOnly, NoPositives):
            return False
        return True

    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    _draw_resamples(len(s), B, seed, accept)
    low, high = np.percentile(samples, [2.5, 97.5])
    return float(low), float(high)


def _resample_blocks(y: np.ndarray, B: int, seed: int) -> tuple[np.ndarray, ...]:
    """Index blocks for the AUROC, AUPRC, sensitivity and specificity
    intervals, from four child streams of ``seed``. Validity depends on the
    labels alone: AUPRC needs a positive, the others both classes."""
    n = len(y)

    def has_positive(idx) -> bool:
        return y[idx].sum() > 0

    def has_both(idx) -> bool:
        return 0 < y[idx].sum() < n

    streams = np.random.SeedSequence(seed).spawn(4)
    return tuple(_draw_resamples(n, B, seq, accept) for seq, accept in
                 zip(streams, (has_both, has_positive, has_both, has_both)))


# resample rows are scored a slice of about this many cells at a time, so
# the per-slice (rows, G) temporaries stay far below one (B, n) index block
_SLICE_CELLS = 2**18


def _by_slices(rows_metric, s: np.ndarray, y: np.ndarray,
               idx: np.ndarray) -> np.ndarray:
    step = max(1, _SLICE_CELLS // idx.shape[1])
    return np.concatenate([rows_metric(s, y, idx[i:i + step])
                           for i in range(0, len(idx), step)])


def _checked(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s, y = _as_arrays(scores, labels)
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("labels must be 0 or 1")
    _require_both_classes(y, "evaluation")
    return s, y


def evaluate_predictions(scores, labels, *, B: int = DEFAULT_BOOTSTRAP,
                         seed: int = 0) -> dict:
    """Point estimates plus bootstrap CIs for one (task, model) pair.

    The cutoff is chosen once on the full data; sensitivity/specificity
    resamples hold that threshold fixed. Scores must not be NaN and
    labels must be 0 or 1, both classes present.
    """
    s, y = _checked(scores, labels)
    return _evaluate_row(s, y, _resample_blocks(y, B, seed))


def _evaluate_row(s: np.ndarray, y: np.ndarray, blocks) -> dict:
    """``evaluate_predictions`` on the index blocks ``_resample_blocks``
    drew for the labels ``y``."""
    threshold = optimal_cutoff(roc_curve(s, y))
    pos = y == 1
    pred = s >= threshold
    idx_auroc, idx_auprc, idx_sens, idx_spec = blocks
    samples = np.stack([
        _by_slices(_auroc_rows, s, y, idx_auroc),
        _by_slices(_auprc_rows, s, y, idx_auprc),
        _recall_rows(pred, pos, idx_sens),
        _recall_rows(~pred, ~pos, idx_spec),
    ])
    low, high = np.percentile(samples, [2.5, 97.5], axis=1).tolist()
    points = (auroc(s, y), auprc(s, y), *sens_spec_at(s, y, threshold))
    row = {"threshold": threshold}
    for name, point, lo, hi in zip(_METRICS, points, low, high):
        row.update({name: point, f"{name}_low": lo, f"{name}_high": hi})
    return row


# ---------------------------------------------------------------------------
# cohort summary


def _fmt_mean_sd(values: np.ndarray) -> str:
    if not values.size:
        return ""
    mean = float(values.mean())
    sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return f"{mean:.1f} ({sd:.1f})"


def _fmt_count_pct(count: int, total: int) -> str:
    pct = 100.0 * count / total if total else 0.0
    return f"{count} ({pct:.1f}%)"


def summarize_cohort(records: list[dict], strata: tuple[str, ...] = ()) -> list[dict]:
    """Per-variable summary rows: continuous mean (SD), binary count (%).

    One column overall plus one per requested outcome stratum (records
    where that outcome is positive). Rows follow ``cohort.column_kind``:
    ids are left out, flags and 0/1 indices give count (%), the rest mean
    (SD), n-1 denominator; gender is a male count, acuity one per level.
    Each column is gathered once, as an object array of its cells (None
    where a record lacks one), and each stratum is a boolean mask.
    """
    if not records:
        return []

    def column(name: str) -> np.ndarray:
        return np.fromiter(map(dict.get, records, itertools.repeat(name)),
                           dtype=object, count=len(records))

    subsets = {"overall": np.ones(len(records), dtype=bool)}
    for name in strata:
        subsets[name] = column(name).astype(bool)
    rows: list[dict] = []

    def add_row(variable: str, fmt) -> None:
        rows.append({"variable": variable,
                     **{col: fmt(mask) for col, mask in subsets.items()}})

    def add_count(variable: str, hit: np.ndarray) -> None:
        add_row(variable, lambda mask: _fmt_count_pct(
            int(np.count_nonzero(hit & mask)), int(np.count_nonzero(mask))))

    add_row("n", lambda mask: str(np.count_nonzero(mask)))
    for name in records[0].keys():
        kind = column_kind(name)
        if kind == "id":
            continue
        cells = column(name)
        present = cells != None  # noqa: E711 (elementwise)
        if kind == "sex":
            add_count("gender_male", cells == "M")
        elif name == "triage_acuity":
            for level in (1, 2, 3, 4, 5):
                add_count(f"triage_acuity={level}", cells == level)
        elif kind == "flag" or (kind == "index" and np.isin(
                cells[present].astype(np.float64), (0, 1)).all()):
            add_count(name, cells.astype(bool))
        else:
            add_row(name, lambda mask, c=cells, p=present: _fmt_mean_sd(
                c[p & mask].astype(np.float64)))
    return rows


def write_cohort_summary(rows: list[dict], path) -> None:
    path = Path(path)
    if not rows:
        path.write_text("variable\n", encoding="utf-8")
        return
    fieldnames = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# report


@dataclass
class ModelResult:
    """Scored predictions for one (task, model) pair, ready to evaluate."""

    task: str
    model: str
    scores: np.ndarray
    labels: np.ndarray
    runtime_seconds: float
    n_variables: int


def build_report(results: list[ModelResult], *, B: int = DEFAULT_BOOTSTRAP,
                 seed: int = 0) -> list[dict]:
    """Evaluate every result into a report row; rows keep input order.

    Each row equals ``evaluate_predictions`` on its own with the same seed.
    Consecutive rows with equal labels share one set of index blocks, which
    are drawn again when the labels change: list a task's rows together.
    """
    rows = []
    labels = blocks = None
    for res in results:
        s, y = _checked(res.scores, res.labels)
        if labels is None or not np.array_equal(y, labels):
            labels, blocks = y, _resample_blocks(y, B, seed)
        row = {"task": res.task, "model": res.model}
        row.update(_evaluate_row(s, y, blocks))
        row["runtime_seconds"] = res.runtime_seconds
        row["n_variables"] = res.n_variables
        rows.append(row)
        logger.info("%s/%s: auroc %.3f auprc %.3f", res.task, res.model,
                    row["auroc"], row["auprc"])
    return rows


def _fmt_ci(point: float, low: float, high: float) -> str:
    return f"{point:.3f} ({low:.3f}-{high:.3f})"


def _fmt_threshold(value: float) -> str:
    if np.isinf(value):
        return "inf"
    if value == int(value):
        return str(int(value))
    return f"{value:.3f}"


REPORT_COLUMNS = ["Task", "Model", "Threshold", "AUROC", "AUPRC",
                  "Sensitivity", "Specificity", "Runtime",
                  "Number of variables"]


def render_report(rows: list[dict], out_dir) -> list[Path]:
    """Write report.csv / report.json / figure_*.svg; returns paths written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for row in rows:
            writer.writerow([
                row["task"],
                row["model"],
                _fmt_threshold(row["threshold"]),
                _fmt_ci(row["auroc"], row["auroc_low"], row["auroc_high"]),
                _fmt_ci(row["auprc"], row["auprc_low"], row["auprc_high"]),
                _fmt_ci(row["sensitivity"], row["sensitivity_low"],
                        row["sensitivity_high"]),
                _fmt_ci(row["specificity"], row["specificity_low"],
                        row["specificity_high"]),
                str(int(round(row["runtime_seconds"]))),
                str(row["n_variables"]),
            ])
    written = [path]
    path = out_dir / "report.json"
    path.write_text(json.dumps(rows, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")
    written.append(path)
    for metric in ("auroc", "auprc"):
        path = out_dir / f"figure_{metric}.svg"
        path.write_text(_render_bars(rows, metric), encoding="utf-8")
        written.append(path)
    return written


# fixed-layout SVG bar chart: tasks along the x axis, one bar per model
# within each task group, CI whiskers on each bar
_PALETTE = ["#4878d0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4",
            "#8c613c", "#dc7ec0", "#797979", "#d5bb67", "#82c6e2"]


def _render_bars(rows: list[dict], metric: str) -> str:
    tasks = list(dict.fromkeys(r["task"] for r in rows))
    models = list(dict.fromkeys(r["model"] for r in rows))
    by_key = {(r["task"], r["model"]): r for r in rows}

    width, height = 900, 420
    ml, mr, mt, mb = 60, 160, 30, 60
    plot_w = width - ml - mr
    plot_h = height - mt - mb
    n_tasks = max(len(tasks), 1)
    group_w = plot_w / n_tasks
    bar_w = group_w * 0.8 / max(len(models), 1)

    def x_of(ti: int, mi: int) -> float:
        return ml + ti * group_w + group_w * 0.1 + mi * bar_w

    def y_of(v: float) -> float:
        return mt + plot_h * (1.0 - v)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml}" y="18" font-size="14" font-weight="bold">'
        f'{metric.upper()} by task and model (95% CI)</text>',
    ]
    # y axis with gridlines every 0.1
    for k in range(11):
        v = k / 10.0
        y = y_of(v)
        parts.append(f'<line x1="{ml}" y1="{y:.1f}" x2="{ml + plot_w}" '
                     f'y2="{y:.1f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{ml - 8}" y="{y + 4:.1f}" '
                     f'text-anchor="end">{v:.1f}</text>')
    for ti, task in enumerate(tasks):
        cx = ml + ti * group_w + group_w / 2
        parts.append(f'<text x="{cx:.1f}" y="{height - mb + 20}" '
                     f'text-anchor="middle">{task}</text>')
        for mi, model in enumerate(models):
            row = by_key.get((task, model))
            if row is None:
                continue
            v = row[metric]
            lo = row[f"{metric}_low"]
            hi = row[f"{metric}_high"]
            x = x_of(ti, mi)
            color = _PALETTE[mi % len(_PALETTE)]
            parts.append(
                f'<rect x="{x:.1f}" y="{y_of(v):.1f}" width="{bar_w * 0.9:.1f}" '
                f'height="{(plot_h * v):.1f}" fill="{color}"/>')
            cx_bar = x + bar_w * 0.45
            parts.append(f'<line x1="{cx_bar:.1f}" y1="{y_of(lo):.1f}" '
                         f'x2="{cx_bar:.1f}" y2="{y_of(hi):.1f}" '
                         f'stroke="black" stroke-width="1.5"/>')
            for v_cap in (lo, hi):
                parts.append(f'<line x1="{cx_bar - 4:.1f}" y1="{y_of(v_cap):.1f}" '
                             f'x2="{cx_bar + 4:.1f}" y2="{y_of(v_cap):.1f}" '
                             f'stroke="black" stroke-width="1.5"/>')
    # legend
    for mi, model in enumerate(models):
        lx = ml + plot_w + 16
        ly = mt + 14 + mi * 20
        color = _PALETTE[mi % len(_PALETTE)]
        parts.append(f'<rect x="{lx}" y="{ly - 10}" width="12" height="12" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{lx + 18}" y="{ly}">{model}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
