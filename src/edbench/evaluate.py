"""Discrimination metrics, bootstrap intervals, and report rendering.

AUROC is the Mann-Whitney statistic (ties credited 0.5), computed from
average ranks in O(n log n); the test suite pins it against a brute-force
pairwise count. AUPRC is average precision with equal scores grouped
into a single step, so constant scores give exactly the prevalence.
Confidence intervals come from seeded bootstrap resampling; resamples on
which the metric is undefined are redrawn so every interval rests on the
full number of effective samples. AUROC, sensitivity and specificity
redraw a resample holding one class only, AUPRC one without a positive.

Each metric draws its resamples from its own child stream of the seed, and
whether a draw is kept depends on the labels alone. So every report row of
a task (same labels, same seed) is scored on one shared set of resamples, a
paired bootstrap: ``build_report`` draws each task's four (B, n) index
blocks once and scores every row against them as array operations, giving
the same bits as calling the metric on each resample.

Report output mirrors the benchmark table layout: one row per
(task, model) with threshold, AUROC/AUPRC/sensitivity/specificity each
formatted as "point (low-high)" at three decimals, runtime in whole
seconds, and the variable count. Figures are self-contained SVG bar
charts with CI whiskers, rendered directly without a plotting library.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cohort import column_kind
from .errors import NoPositives, OneClassOnly, ResampleExhausted

logger = logging.getLogger(__name__)

DEFAULT_BOOTSTRAP = 100


def _as_arrays(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-d sequences")
    return s, y


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the group average."""
    order = np.argsort(values, kind="mergesort")
    v = values[order]
    n = len(v)
    grp = np.cumsum(np.r_[True, v[1:] != v[:-1]]) - 1
    counts = np.bincount(grp)
    ends = np.cumsum(counts).astype(np.float64)
    starts = ends - counts + 1
    avg = (starts + ends) / 2.0
    ranks = np.empty(n)
    ranks[order] = avg[grp]
    return ranks


def auroc(scores, labels) -> float:
    s, y = _as_arrays(scores, labels)
    n_pos = float(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise OneClassOnly("auroc needs both classes present")
    ranks = _average_ranks(s)
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _descending_groups(s: np.ndarray, y: np.ndarray):
    """Cumulative TP/FP after each distinct score, descending."""
    order = np.argsort(-s, kind="mergesort")
    s_sorted = s[order]
    y_sorted = y[order]
    last = np.r_[s_sorted[1:] != s_sorted[:-1], True]  # end of each tie group
    tp = np.cumsum(y_sorted)[last]
    fp = np.cumsum(1.0 - y_sorted)[last]
    return s_sorted[last], tp, fp


def auprc(scores, labels) -> float:
    s, y = _as_arrays(scores, labels)
    n_pos = float(y.sum())
    if n_pos == 0:
        raise NoPositives("auprc needs at least one positive label")
    _, tp, fp = _descending_groups(s, y)
    precision = tp / (tp + fp)
    step = np.diff(np.r_[0.0, tp]) / n_pos  # recall gained in each group
    # sequential accumulation, so the result is bit-identical to a plain
    # prefix-enumeration loop over tie groups
    return float(sum((precision * step).tolist()))


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
    n_pos = float(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise OneClassOnly("roc_curve needs both classes present")
    thr, tp, fp = _descending_groups(s, y)
    return RocCurve(
        fpr=np.r_[0.0, fp / n_neg],
        tpr=np.r_[0.0, tp / n_pos],
        thresholds=np.r_[np.inf, thr],
    )


def optimal_cutoff(curve: RocCurve) -> float:
    """Threshold nearest the (0,1) corner; ties pick the lower threshold."""
    d = np.sqrt((1.0 - curve.tpr) ** 2 + curve.fpr ** 2)
    best = np.flatnonzero(d == d.min())[-1]  # thresholds descend, so last = lowest
    return float(curve.thresholds[best])


def sens_spec_at(scores, labels, threshold: float) -> tuple[float, float]:
    s, y = _as_arrays(scores, labels)
    n_pos = float(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise OneClassOnly("sens_spec_at needs both classes present")
    pred = s >= threshold
    tp = float(np.sum(pred & (y == 1)))
    tn = float(np.sum(~pred & (y == 0)))
    return tp / n_pos, tn / n_neg


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


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
    attempt is abandoned.
    """
    s, y = _as_arrays(scores, labels)
    samples = []

    def accept(idx) -> bool:
        try:
            samples.append(float(metric(s[idx], y[idx])))
        except (OneClassOnly, NoPositives):
            return False
        return True

    _draw_resamples(len(s), B, _seed_sequence(seed), accept)
    low, high = np.percentile(samples, [2.5, 97.5])
    return float(low), float(high)


def _resample_blocks(y: np.ndarray, B: int, streams) -> tuple[np.ndarray, ...]:
    """Index blocks for the AUROC, AUPRC, sensitivity and specificity
    intervals, one stream each. Validity depends on the labels alone: AUPRC
    needs a positive, the others both classes."""
    n = len(y)

    def has_positive(idx) -> bool:
        return y[idx].sum() > 0

    def has_both(idx) -> bool:
        return 0 < y[idx].sum() < n

    return tuple(_draw_resamples(n, B, seq, accept) for seq, accept in
                 zip(streams, (has_both, has_positive, has_both, has_both)))


def _tie_group_counts(s: np.ndarray, y: np.ndarray, idx: np.ndarray):
    """Negatives and positives that each resample row of ``idx`` draws from
    each of the G distinct values of ``s``, in ascending order: two
    (len(idx), G) arrays."""
    values, group = np.unique(s, return_inverse=True)
    width = 2 * len(values)
    flat = (group + len(values) * (y == 1))[idx]
    flat += width * np.arange(len(idx))[:, None]
    counts = np.bincount(flat.ravel(), minlength=width * len(idx))
    return counts.reshape(len(idx), 2, len(values)).transpose(1, 0, 2)


def _auroc_rows(s: np.ndarray, y: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``auroc`` on every resample row of ``idx``, bit for bit: average ranks
    are half-integers, so twice the rank sum is counted exactly in integers."""
    neg, pos = _tie_group_counts(s, y, idx)
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
    """``auprc`` on every resample row of ``idx``, bit for bit: the terms are
    summed left to right along each row, and tie groups a resample did not
    draw add 0.0."""
    neg, pos = _tie_group_counts(-s, y, idx)    # descending scores
    tp = np.cumsum(pos, axis=1)
    seen = np.cumsum(neg, axis=1)
    seen += tp
    np.maximum(seen, 1, out=seen)    # 0 before the first group drawn
    terms = tp / seen                # precision
    terms *= pos / tp[:, -1:]        # recall gained
    return np.cumsum(terms, axis=1)[:, -1]


# resample rows are scored a slice of about this many cells at a time, so
# the per-slice (rows, G) temporaries stay far below one (B, n) index block
_SLICE_CELLS = 2**18


def _by_slices(rows_metric, s: np.ndarray, y: np.ndarray,
               idx: np.ndarray) -> np.ndarray:
    step = max(1, _SLICE_CELLS // idx.shape[1])
    return np.concatenate([rows_metric(s, y, idx[i:i + step])
                           for i in range(0, len(idx), step)])


def evaluate_predictions(scores, labels, *, B: int = DEFAULT_BOOTSTRAP,
                         seed=0) -> dict:
    """Point estimates plus bootstrap CIs for one (task, model) pair.

    The cutoff is chosen once on the full data; sensitivity/specificity
    resamples hold that threshold fixed. Scores must not be NaN and
    labels must be 0 or 1.
    """
    return _evaluate(scores, labels, B, seed, {})


def _evaluate(scores, labels, B: int, seed, draws: dict) -> dict:
    """``evaluate_predictions``, reusing the index blocks in ``draws`` when
    the labels and streams match and otherwise replacing them."""
    s, y = _as_arrays(scores, labels)
    if np.isnan(s).any():
        raise ValueError("scores must not be NaN")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("labels must be 0 or 1")
    curve = roc_curve(s, y)
    threshold = optimal_cutoff(curve)
    sens, spec = sens_spec_at(s, y, threshold)
    streams = _seed_sequence(seed).spawn(4)
    key = (y.tobytes(), B, tuple(
        (tuple(np.atleast_1d(q.entropy).tolist()), q.spawn_key, q.pool_size)
        for q in streams))
    if key not in draws:
        draws.clear()
        draws[key] = _resample_blocks(y, B, streams)
    idx_auroc, idx_auprc, idx_sens, idx_spec = draws[key]
    pos = y == 1
    pred = s >= threshold
    samples = np.stack([
        _by_slices(_auroc_rows, s, y, idx_auroc),
        _by_slices(_auprc_rows, s, y, idx_auprc),
        (pred & pos)[idx_sens].sum(axis=1) / pos[idx_sens].sum(axis=1),
        (~pred & ~pos)[idx_spec].sum(axis=1) / (~pos)[idx_spec].sum(axis=1),
    ])
    low, high = np.percentile(samples, [2.5, 97.5], axis=1).tolist()
    return {
        "threshold": threshold,
        "auroc": float(auroc(s, y)),
        "auroc_low": low[0],
        "auroc_high": high[0],
        "auprc": float(auprc(s, y)),
        "auprc_low": low[1],
        "auprc_high": high[1],
        "sensitivity": sens,
        "sensitivity_low": low[2],
        "sensitivity_high": high[2],
        "specificity": spec,
        "specificity_low": low[3],
        "specificity_high": high[3],
    }


# ---------------------------------------------------------------------------
# cohort summary


def _fmt_mean_sd(values: list[float]) -> str:
    if not values:
        return ""
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
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
    """
    if not records:
        return []
    subsets = {"overall": records}
    for name in strata:
        subsets[name] = [r for r in records if r.get(name)]

    rows: list[dict] = []

    def add_row(variable: str, fmt) -> None:
        row = {"variable": variable}
        for col, subset in subsets.items():
            row[col] = fmt(subset)
        rows.append(row)

    add_row("n", lambda subset: str(len(subset)))

    for name in records[0].keys():
        kind = column_kind(name)
        if kind == "id":
            continue
        if kind == "sex":
            add_row("gender_male", lambda subset: _fmt_count_pct(
                sum(1 for r in subset if r.get("gender") == "M"), len(subset)))
        elif name == "triage_acuity":
            for level in (1, 2, 3, 4, 5):
                add_row(f"triage_acuity={level}", lambda subset, lv=level: _fmt_count_pct(
                    sum(1 for r in subset if r.get("triage_acuity") == lv),
                    len(subset)))
        elif kind == "flag" or (kind == "index" and not _has_nonbinary(records, name)):
            add_row(name, lambda subset, nm=name: _fmt_count_pct(
                sum(1 for r in subset if r.get(nm)), len(subset)))
        else:
            add_row(name, lambda subset, nm=name: _fmt_mean_sd(
                [float(r[nm]) for r in subset if r.get(nm) is not None]))
    return rows


def _has_nonbinary(records: list[dict], name: str) -> bool:
    return any(r.get(name) not in (0, 1, None, True, False) for r in records)


def write_cohort_summary(rows: list[dict], path) -> None:
    path = Path(path)
    if not rows:
        path.write_text("variable\n")
        return
    fieldnames = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
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
                 seed=0) -> list[dict]:
    """Evaluate every result into a report row; rows keep input order.

    Consecutive rows with equal labels and equal resample streams (an
    integer seed gives every row the same streams) share one set of index
    blocks, dropped when either changes: list a task's rows together.
    """
    rows = []
    draws: dict = {}
    for res in results:
        metrics = _evaluate(res.scores, res.labels, B, seed, draws)
        row = {"task": res.task, "model": res.model}
        row.update(metrics)
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
    with open(path, "w", newline="") as fh:
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
    path.write_text(json.dumps(rows, sort_keys=True, indent=2) + "\n")
    written.append(path)
    for metric in ("auroc", "auprc"):
        path = out_dir / f"figure_{metric}.svg"
        path.write_text(_render_bars(rows, metric))
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
