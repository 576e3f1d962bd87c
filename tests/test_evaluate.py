import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edbench.errors import NoPositives, OneClassOnly, ResampleExhausted
from edbench.evaluate import (REPORT_COLUMNS, ModelResult, _auprc_rows,
                              _auroc_rows, _resample_blocks, auprc, auroc,
                              bootstrap_ci, build_report,
                              evaluate_predictions, optimal_cutoff,
                              render_report, roc_curve, sens_spec_at,
                              summarize_cohort, write_cohort_summary)


def _pairwise_auroc(s, y):
    """O(n_pos * n_neg) comparison count; ties worth half."""
    pos = s[y == 1]
    neg = s[y == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def _prefix_auprc(s, y):
    """Average precision by walking tie groups in descending score order."""
    order = np.argsort(-s, kind="mergesort")
    s, y = s[order], y[order]
    n_pos = float(y.sum())
    tp = fp = 0.0
    ap = 0.0
    i = 0
    while i < len(s):
        j = i
        while j < len(s) and s[j] == s[i]:
            j += 1
        gained = float(y[i:j].sum())
        tp += gained
        fp += (j - i) - gained
        ap += (tp / (tp + fp)) * (gained / n_pos)
        i = j
    return ap


def _random_fixture(rng):
    n = int(rng.integers(10, 200))
    y = rng.integers(0, 2, size=n).astype(np.float64)
    if y.sum() == 0:
        y[0] = 1.0
    if y.sum() == n:
        y[0] = 0.0
    if rng.uniform() < 0.5:
        s = rng.choice(np.round(rng.uniform(0, 1, size=8), 2), size=n)
    else:
        s = rng.uniform(0, 1, size=n)
    return s, y


def test_auroc_matches_pairwise_count():
    rng = np.random.default_rng(0)
    for _ in range(200):
        s, y = _random_fixture(rng)
        assert abs(auroc(s, y) - _pairwise_auroc(s, y)) <= 1e-12


def test_auprc_matches_prefix_enumeration_exactly():
    rng = np.random.default_rng(1)
    for _ in range(200):
        s, y = _random_fixture(rng)
        assert auprc(s, y) == _prefix_auprc(s, y)


def test_frozen_worked_examples():
    s = np.array([0.1, 0.4, 0.35, 0.8])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    assert auroc(s, y) == 0.75
    assert auprc(s, y) == 0.8333333333333333

    # constant scores: one big tie group
    ties = np.full(6, 0.5)
    labs = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
    assert auroc(ties, labs) == 0.5
    assert auprc(ties, labs) == 0.5    # precision = prevalence


def test_degenerate_label_errors():
    s = np.array([0.2, 0.8])
    with pytest.raises(OneClassOnly):
        auroc(s, np.array([1.0, 1.0]))
    with pytest.raises(OneClassOnly):
        roc_curve(s, np.array([0.0, 0.0]))
    with pytest.raises(NoPositives):
        auprc(s, np.array([0.0, 0.0]))
    # all-positive is fine for auprc
    assert auprc(s, np.array([1.0, 1.0])) == 1.0


def test_nan_scores_are_rejected():
    s = np.array([np.nan, np.nan, 0.1, 0.2])
    y = np.array([1.0, 0.0, 1.0, 0.0])
    for metric in (auroc, auprc, roc_curve,
                   lambda a, b: sens_spec_at(a, b, 0.15)):
        with pytest.raises(ValueError, match="NaN"):
            metric(s, y)


def test_roc_curve_shape_and_direction():
    rng = np.random.default_rng(2)
    s, y = _random_fixture(rng)
    curve = roc_curve(s, y)
    assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
    assert math.isinf(curve.thresholds[0])
    assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
    assert np.all(np.diff(curve.thresholds) < 0)
    assert len(curve.thresholds) == len(np.unique(s)) + 1
    assert np.all(np.diff(curve.fpr) >= 0) and np.all(np.diff(curve.tpr) >= 0)
    # each point reproduces positive-iff-score>=threshold counting
    for fpr, tpr, thr in curve.points()[1:]:
        sens, spec = sens_spec_at(s, y, thr)
        assert tpr == pytest.approx(sens) and fpr == pytest.approx(1 - spec)


def test_optimal_cutoff_prefers_lower_threshold_on_ties():
    s = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    # thresholds 4 and 2 are equidistant from the (0, 1) corner
    assert optimal_cutoff(roc_curve(s, y)) == 2.0
    sens, spec = sens_spec_at(s, y, 2.0)
    assert sens == 1.0 and spec == 0.5


def test_bootstrap_ci_is_seeded():
    rng = np.random.default_rng(3)
    s, y = _random_fixture(rng)
    a = bootstrap_ci(auroc, s, y, B=50, seed=4)
    b = bootstrap_ci(auroc, s, y, B=50, seed=4)
    c = bootstrap_ci(auroc, s, y, B=50, seed=5)
    assert a == b
    assert a != c
    assert a[0] <= auroc(s, y) + 0.3 and a[0] <= a[1]


def test_bootstrap_redraws_on_degenerate_resamples():
    # n=3 with a single positive: many resamples miss both classes
    s = np.array([0.9, 0.2, 0.4])
    y = np.array([1.0, 0.0, 0.0])
    low, high = bootstrap_ci(auroc, s, y, B=30, seed=0)
    assert 0.0 <= low <= high <= 1.0


def test_bootstrap_gives_up_when_no_resample_is_valid():
    s = np.array([0.9, 0.2, 0.4])
    y = np.ones(3)
    with pytest.raises(ResampleExhausted):
        bootstrap_ci(auroc, s, y, B=2, seed=0)


def test_evaluate_predictions_keys_threshold_and_seeding():
    rng = np.random.default_rng(6)
    s = rng.uniform(size=120)
    y = (s + rng.normal(scale=0.4, size=120) > 0.6).astype(float)
    out = evaluate_predictions(s, y, B=25, seed=7)
    expected = {"threshold", "auroc", "auroc_low", "auroc_high",
                "auprc", "auprc_low", "auprc_high",
                "sensitivity", "sensitivity_low", "sensitivity_high",
                "specificity", "specificity_low", "specificity_high"}
    assert set(out) == expected
    assert out["threshold"] == optimal_cutoff(roc_curve(s, y))
    assert out == evaluate_predictions(s, y, B=25, seed=7)
    for name in ("auroc", "auprc", "sensitivity", "specificity"):
        assert out[f"{name}_low"] <= out[f"{name}_high"]


def test_evaluate_predictions_rejects_nan_scores_and_nonbinary_labels():
    s = np.array([0.1, 0.4, 0.35, 0.8])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="NaN"):
        evaluate_predictions(np.r_[s[:3], np.nan], y, B=5)
    with pytest.raises(ValueError, match="0 or 1"):
        evaluate_predictions(s, np.array([0.0, 2.0, 1.0, 1.0]), B=5)


@st.composite
def _tie_heavy_task(draw):
    """Labels with one to three of one class, three score columns that tie a
    lot (an ESI-like 1-5 level, an early-warning-like 0-20 total and a
    constant) and a model-like probability."""
    n = draw(st.integers(4, 60))
    positives = draw(st.lists(st.integers(0, n - 1), min_size=1,
                              max_size=min(3, n - 1), unique=True))
    y = np.zeros(n)
    y[positives] = 1.0
    if draw(st.booleans()):     # few negatives instead
        y = 1.0 - y
    columns = [np.array(draw(st.lists(st.integers(lo, hi), min_size=n,
                                      max_size=n)), dtype=np.float64)
               for lo, hi in ((1, 5), (0, 20))]
    columns.append(np.full(n, float(draw(st.integers(0, 20)))))
    columns.append(np.array(draw(st.lists(st.floats(0, 1), min_size=n,
                                          max_size=n))))
    return y, columns


@settings(max_examples=60)
@given(task=_tie_heavy_task(), B=st.integers(1, 30),
       seed=st.integers(0, 2**32 - 1))
def test_batched_intervals_equal_per_resample_metrics(task, B, seed):
    y, columns = task
    rows = build_report([ModelResult("T", f"m{i}", s, y, 0.0, 1)
                         for i, s in enumerate(columns)], B=B, seed=seed)
    for row, s in zip(rows, columns):
        thr = row["threshold"]
        per_resample = {
            "auroc": auroc,
            "auprc": auprc,
            "sensitivity": lambda a, b: sens_spec_at(a, b, thr)[0],
            "specificity": lambda a, b: sens_spec_at(a, b, thr)[1],
        }
        streams = np.random.SeedSequence(seed).spawn(4)
        for (name, metric), stream in zip(per_resample.items(), streams):
            # bootstrap_ci calls the metric once per resample it draws
            assert (row[f"{name}_low"], row[f"{name}_high"]) == bootstrap_ci(
                metric, s, y, B=B, seed=stream), name
    # each resample's value, not only the two order statistics above
    blocks = _resample_blocks(y, B, seed)
    for s in columns:
        assert _auroc_rows(s, y, blocks[0]).tolist() == [
            auroc(s[idx], y[idx]) for idx in blocks[0]]
        assert _auprc_rows(s, y, blocks[1]).tolist() == [
            auprc(s[idx], y[idx]) for idx in blocks[1]]
    with pytest.raises(ResampleExhausted):
        _resample_blocks(np.ones(len(y)), B, seed)


def test_metrics_invariant_to_row_order():
    rng = np.random.default_rng(8)
    s, y = _random_fixture(rng)
    perm = rng.permutation(len(s))
    assert auprc(s[perm], y[perm]) == auprc(s, y)
    assert abs(auroc(s[perm], y[perm]) - auroc(s, y)) <= 1e-12


@st.composite
def _scored_labels(draw):
    """Labels holding both classes, and scores that are either a few tied
    levels or arbitrary finite floats."""
    n = draw(st.integers(2, 60))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                 dtype=np.float64)
    y[0], y[1] = 0.0, 1.0
    if draw(st.booleans()):
        values = st.integers(0, 4).map(float)
    else:
        values = st.floats(-1e6, 1e6, allow_nan=False)
    s = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    return s, y


@settings(max_examples=200)
@given(task=_scored_labels(), seed=st.integers(0, 2**32 - 1))
def test_metrics_depend_only_on_the_score_order(task, seed):
    s, y = task
    dense = np.unique(s, return_inverse=True)[1].astype(np.float64)
    assert auroc(dense, y) == auroc(s, y)
    assert auprc(dense, y) == auprc(s, y)
    perm = np.random.default_rng(seed).permutation(len(s))
    assert auroc(s[perm], y[perm]) == auroc(s, y)
    assert auprc(s[perm], y[perm]) == auprc(s, y)


@settings(max_examples=200)
@given(task=_scored_labels())
def test_auroc_reverses_with_scores_or_labels(task):
    s, y = task
    flipped = 1.0 - auroc(s, y)
    assert abs(auroc(-s, y) - flipped) <= 1e-12
    assert abs(auroc(s, 1.0 - y) - flipped) <= 1e-12


@settings(max_examples=200)
@given(task=_scored_labels(), level=st.floats(-1e6, 1e6, allow_nan=False))
def test_constant_scores_give_chance_and_prevalence(task, level):
    _, y = task
    s = np.full(len(y), level)
    assert auroc(s, y) == 0.5
    assert auprc(s, y) == y.mean()


def test_interleaved_tasks_match_evaluate_predictions():
    first, second = _two_results()
    rng = np.random.default_rng(10)
    y = rng.integers(0, 2, size=90).astype(float)
    other = ModelResult(task="Critical", model="GB",
                        scores=y + rng.normal(size=90), labels=y,
                        runtime_seconds=0.0, n_variables=72)
    results = [first, other, second]    # tasks A, B, A
    rows = build_report(results, B=20, seed=3)
    for row, res in zip(rows, results):
        expected = evaluate_predictions(res.scores, res.labels, B=20, seed=3)
        assert {key: row[key] for key in expected} == expected


# -- cohort summary ------------------------------------------------------------


def _summary_records():
    recs = []
    ages = [40.0, 50.0, 60.0, 70.0]
    for i, age in enumerate(ages):
        recs.append({
            "stay_id": i,
            "age": age,
            "gender": "M" if i < 1 else "F",
            "triage_acuity": (i % 3) + 1,
            "chiefcom_pain": 1 if i % 2 else 0,
            "cci_mi": 1 if i == 0 else 0,
            "cci_diabetes": 2 if i == 3 else 0,
            "outcome_hospitalization": 1 if i >= 2 else 0,
        })
    return recs


def test_summarize_cohort_rows():
    rows = summarize_cohort(_summary_records(),
                            strata=("outcome_hospitalization",))
    by_var = {r["variable"]: r for r in rows}
    assert list(rows[0]) == ["variable", "overall", "outcome_hospitalization"]
    assert by_var["n"]["overall"] == "4"
    assert by_var["n"]["outcome_hospitalization"] == "2"
    assert "stay_id" not in by_var
    # mean (sample SD): ages 40..70 step 10 -> sd sqrt(500/3) = 12.9
    assert by_var["age"]["overall"] == "55.0 (12.9)"
    assert by_var["age"]["outcome_hospitalization"] == "65.0 (7.1)"
    assert by_var["gender_male"]["overall"] == "1 (25.0%)"
    assert by_var["triage_acuity=1"]["overall"] == "2 (50.0%)"
    assert by_var["triage_acuity=5"]["overall"] == "0 (0.0%)"
    assert by_var["chiefcom_pain"]["overall"] == "2 (50.0%)"
    assert by_var["cci_mi"]["overall"] == "1 (25.0%)"          # binary
    assert by_var["cci_diabetes"]["overall"] == "0.5 (1.0)"    # ordinal
    assert by_var["outcome_hospitalization"]["overall"] == "2 (50.0%)"


def test_write_cohort_summary_round_trip(tmp_path):
    rows = summarize_cohort(_summary_records())
    path = tmp_path / "cohort_summary.csv"
    write_cohort_summary(rows, path)
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert back == [{k: str(v) for k, v in row.items()} for row in rows]


# -- report ---------------------------------------------------------------------


def _two_results():
    rng = np.random.default_rng(9)
    y = rng.integers(0, 2, size=150).astype(float)
    good = y + rng.normal(scale=0.5, size=150)
    out = [
        ModelResult(task="Hospitalization", model="GB", scores=good,
                    labels=y, runtime_seconds=3.6, n_variables=72),
        ModelResult(task="Hospitalization", model="ESI",
                    scores=rng.integers(1, 7, size=150).astype(float),
                    labels=y, runtime_seconds=0.0, n_variables=1),
    ]
    return out


def test_build_report_keeps_order_and_carries_metadata():
    rows = build_report(_two_results(), B=20, seed=1)
    assert [r["model"] for r in rows] == ["GB", "ESI"]
    assert rows[0]["task"] == "Hospitalization"
    assert rows[0]["runtime_seconds"] == 3.6
    assert rows[1]["n_variables"] == 1
    assert "auroc_low" in rows[0]


def test_render_report_formats(tmp_path):
    rows = build_report(_two_results(), B=20, seed=1)
    written = render_report(rows, tmp_path)
    assert [p.name for p in written] == ["report.csv", "report.json",
                                         "figure_auroc.svg",
                                         "figure_auprc.svg"]
    with open(tmp_path / "report.csv", newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == REPORT_COLUMNS
    gb = dict(zip(table[0], table[1]))
    assert gb["Task"] == "Hospitalization" and gb["Model"] == "GB"
    import re
    ci = re.compile(r"^\d\.\d{3} \(-?\d\.\d{3}--?\d\.\d{3}\)$")
    for col in ("AUROC", "AUPRC", "Sensitivity", "Specificity"):
        assert ci.match(gb[col]), gb[col]
    assert gb["Runtime"] == "4"            # int(round(3.6))
    assert gb["Number of variables"] == "72"
    esi = dict(zip(table[0], table[2]))
    assert "." not in esi["Threshold"]     # integer cutoff renders bare

    back = json.loads((tmp_path / "report.json").read_text())
    assert [r["model"] for r in back] == ["GB", "ESI"]
    svg = (tmp_path / "figure_auroc.svg").read_text()
    assert svg.startswith("<svg") and "AUROC" in svg
