"""Evaluation machinery on a controlled toy problem.

Makes noisy scores with a known signal, walks AUROC / AUPRC / the ROC
curve / Youden threshold selection / seeded bootstrap intervals, then
renders a two-row report into a temporary directory.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np

from edbench.evaluate import (ModelResult, auprc, auroc, bootstrap_ci,
                              build_report, evaluate_predictions,
                              optimal_cutoff, render_report, roc_curve)


def noisy_scores(rng, labels, sd):
    return np.clip(labels * 0.35 + 0.3 + rng.normal(0, sd, labels.size), 0, 1)


def main():
    rng = np.random.default_rng(42)
    n = 4000
    labels = (rng.random(n) < 0.15).astype(np.float64)
    good = noisy_scores(rng, labels, sd=0.18)
    weak = noisy_scores(rng, labels, sd=0.45)

    print(f"{n} cases, prevalence {labels.mean():.3f}")
    print(f"good model: AUROC={auroc(good, labels):.3f} "
          f"AUPRC={auprc(good, labels):.3f}")
    print(f"weak model: AUROC={auroc(weak, labels):.3f} "
          f"AUPRC={auprc(weak, labels):.3f}")

    curve = roc_curve(good, labels)
    thr = optimal_cutoff(curve)
    print(f"\nROC curve has {len(curve.thresholds)} points; "
          f"Youden-optimal threshold = {thr:.3f}")

    lo, hi = bootstrap_ci(auroc, good, labels, B=500, seed=0)
    print(f"bootstrap 95% CI for AUROC (B=500): [{lo:.3f}, {hi:.3f}]")

    metrics = evaluate_predictions(good, labels, B=200, seed=0)
    keep = ("auroc", "auroc_low", "auroc_high", "sensitivity", "specificity")
    print("evaluate_predictions:",
          {k: round(metrics[k], 3) for k in keep})

    results = [
        ModelResult(task="toy", model="good", scores=good, labels=labels,
                    runtime_seconds=1.0, n_variables=1),
        ModelResult(task="toy", model="weak", scores=weak, labels=labels,
                    runtime_seconds=1.0, n_variables=1),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        paths = render_report(build_report(results, B=200, seed=0), out_dir)
        print(f"\nwrote {[p.name for p in paths]} to {out_dir}/")
        with open(out_dir / "report.csv", newline="") as fh:
            for row in csv.reader(fh):
                print("  " + " | ".join(row))


if __name__ == "__main__":
    main()
