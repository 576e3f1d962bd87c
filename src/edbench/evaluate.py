"""Discrimination metrics, bootstrap intervals, and report rendering.

AUROC is the Mann-Whitney statistic (ties credited 0.5), computed from
average ranks in O(n log n); the test suite pins it against a brute-force
pairwise count. AUPRC is average precision with equal scores grouped
into a single step, so constant scores give exactly the prevalence.
Confidence intervals come from seeded bootstrap resampling; resamples on
which the metric is undefined (one class only) are redrawn so every
interval rests on the full number of effective samples.

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


def bootstrap_ci(metric, scores, labels, B: int = DEFAULT_BOOTSTRAP,
                 seed=0) -> tuple[float, float]:
    """95% percentile interval from B seeded resamples with replacement.

    Resamples on which ``metric`` raises OneClassOnly/NoPositives are
    redrawn; after 10*B total draws the attempt is abandoned.
    """
    s, y = _as_arrays(scores, labels)
    n = len(s)
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    children = root.spawn(B)
    samples = []
    attempts = 0
    for child in children:
        rng = np.random.default_rng(child)
        while True:
            attempts += 1
            if attempts > 10 * B:
                raise ResampleExhausted(
                    f"no valid resample after {attempts - 1} draws "
                    f"({len(samples)} of {B} collected)")
            idx = rng.integers(0, n, size=n)
            try:
                samples.append(float(metric(s[idx], y[idx])))
            except (OneClassOnly, NoPositives):
                continue
            break
    samples.sort()
    low, high = np.percentile(samples, [2.5, 97.5])
    return float(low), float(high)


def evaluate_predictions(scores, labels, *, B: int = DEFAULT_BOOTSTRAP,
                         seed=0) -> dict:
    """Point estimates plus bootstrap CIs for one (task, model) pair.

    The cutoff is chosen once on the full data; sensitivity/specificity
    resamples hold that threshold fixed.
    """
    s, y = _as_arrays(scores, labels)
    curve = roc_curve(s, y)
    threshold = optimal_cutoff(curve)
    sens, spec = sens_spec_at(s, y, threshold)
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    seq_auroc, seq_auprc, seq_sens, seq_spec = root.spawn(4)
    auroc_ci = bootstrap_ci(auroc, s, y, B=B, seed=seq_auroc)
    auprc_ci = bootstrap_ci(auprc, s, y, B=B, seed=seq_auprc)
    sens_ci = bootstrap_ci(lambda a, b: sens_spec_at(a, b, threshold)[0],
                           s, y, B=B, seed=seq_sens)
    spec_ci = bootstrap_ci(lambda a, b: sens_spec_at(a, b, threshold)[1],
                           s, y, B=B, seed=seq_spec)
    return {
        "threshold": threshold,
        "auroc": float(auroc(s, y)),
        "auroc_low": auroc_ci[0],
        "auroc_high": auroc_ci[1],
        "auprc": float(auprc(s, y)),
        "auprc_low": auprc_ci[0],
        "auprc_high": auprc_ci[1],
        "sensitivity": sens,
        "sensitivity_low": sens_ci[0],
        "sensitivity_high": sens_ci[1],
        "specificity": spec,
        "specificity_low": spec_ci[0],
        "specificity_high": spec_ci[1],
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
    """Evaluate every result into a report row; rows keep input order."""
    rows = []
    for res in results:
        metrics = evaluate_predictions(res.scores, res.labels, B=B, seed=seed)
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
