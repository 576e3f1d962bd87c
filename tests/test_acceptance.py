"""Acceptance gate: one test per numbered release criterion.

Criteria 1-4 replay the published reference numbers and therefore need
the credentialed source extract; they run only when EDBENCH_MIMIC_DIR
points at a directory holding the nine raw CSVs, and skip otherwise.
Criteria 5-14 are the always-on desk suite: metric oracles, gradient
checks, monotonicity, score golden grids, synthetic round-trips,
learnability, determinism, and leakage guards. The whole desk suite is
budgeted to finish in under five minutes.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom

from edbench import cli
from edbench.clean_split import (apply_cleaning, apply_exclusions,
                                 apply_imputer, fit_imputer,
                                 load_cleaning_config, split_records)
from edbench.cohort import build_master, read_master_csv
from edbench.evaluate import auprc, auroc
from edbench.ingest import link_tables, read_raw_tables
from edbench.models import TASKS, build_feature_matrix, load_manifest
from edbench.models.boosting import fit_boosting, predict_boosting
from edbench.models.forest import fit_forest, predict_forest
from edbench.models.linear import (fit_logistic, logistic_objective,
                                   predict_logistic)
from edbench.models.mlp import mlp_loss_and_grads
from edbench.scores import (SCORE_NAMES, band_points, compute_score, esi_risk,
                            load_score_definition)
from edbench.synthdata import SynthConfig, generate_with_truth

from conftest import write_raw
from test_scores import _GRID, _REFS, _TEMP_GRID
from test_synthdata import TRUTH_TO_COLUMN

MIMIC_DIR = os.environ.get("EDBENCH_MIMIC_DIR")
mimic_only = pytest.mark.skipif(
    not MIMIC_DIR, reason="EDBENCH_MIMIC_DIR not set; reference extract absent")

REF_MASTER_VISITS = 448_972
REF_MASTER_PATIENTS = 216_877
REF_POST_EXCLUSION = 441_437
REF_PREVALENCE = {"outcome_hospitalization": 0.4734,
                  "outcome_critical": 0.0592,
                  "outcome_ed_reattendance_72h": 0.0347}


# ---------------------------------------------------------------------------
# gated reference-extract criteria (1-4)


@pytest.fixture(scope="session")
def mimic_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference_out")
    cfg = cli.PipelineConfig(input_dir=MIMIC_DIR, output_dir=str(out))
    cli.stage_extract_master(cfg)
    records, _ = read_master_csv(str(out / "master_dataset.csv"))
    kept, _ = apply_exclusions([dict(r) for r in records])
    return cfg, records, kept


@mimic_only
def test_c01_master_cardinality(mimic_run):
    _, records, _ = mimic_run
    patients = len({r["subject_id"] for r in records})
    assert len(records) == pytest.approx(REF_MASTER_VISITS, rel=0.01)
    assert patients == pytest.approx(REF_MASTER_PATIENTS, rel=0.01)


@mimic_only
def test_c02_post_exclusion_count(mimic_run):
    _, _, kept = mimic_run
    assert len(kept) == pytest.approx(REF_POST_EXCLUSION, rel=0.01)


@mimic_only
def test_c03_outcome_prevalences(mimic_run):
    _, _, kept = mimic_run
    n = len(kept)
    for column, target in REF_PREVALENCE.items():
        rate = sum(1 for r in kept if r[column]) / n
        assert rate == pytest.approx(target, abs=0.005), column


@mimic_only
def test_c04_reference_model_aurocs(mimic_run):
    cfg, _, _ = mimic_run
    cli.stage_build_benchmark(cfg)
    cli.stage_train(cfg, tasks=("hospitalization", "critical"),
                    kinds=("boosting",))
    test_records, _ = read_master_csv(
        str(Path(cfg.output_dir) / "test.csv"))
    from edbench.models import load_model, predict_proba
    targets = {("critical", "boosting"): 0.881,
               ("hospitalization", "boosting"): 0.820}
    for (task, kind), ref in targets.items():
        matrix = build_feature_matrix(
            test_records, task, manifest=load_manifest("triage"))
        model = load_model(Path(cfg.output_dir) / "models"
                           / f"{task}_triage_{kind}.json")
        got = auroc(predict_proba(model, matrix), matrix.y.astype(float))
        assert got == pytest.approx(ref, abs=0.015), (task, kind)
    hosp = build_feature_matrix(test_records, "hospitalization",
                                manifest=load_manifest("triage"))
    esi = np.array([esi_risk(r["triage_acuity"]) for r in test_records], float)
    assert auroc(esi, hosp.y.astype(float)) == pytest.approx(0.711, abs=0.015)


# ---------------------------------------------------------------------------
# shared synthetic fixtures for the desk suite


@pytest.fixture(scope="session")
def big_cohort():
    """Planted-outcome cohort of about twenty thousand visits."""
    cfg = SynthConfig(n_patients=10_000, mean_visits=2.0, seed=19)
    gen = generate_with_truth(cfg)
    records = build_master(link_tables(gen.tables))
    return cfg, gen, records


@pytest.fixture(scope="session")
def big_pipeline(big_cohort):
    """Exclusion -> cleaning -> split -> imputation over the big cohort."""
    _, _, records = big_cohort
    work = [dict(r) for r in records]    # keep the master records pristine
    kept, _ = apply_exclusions(work)
    apply_cleaning(kept, load_cleaning_config())
    train, test, assignment = split_records(kept, 0.2, seed=0)
    imputer = fit_imputer(train)
    apply_imputer(train, imputer)
    apply_imputer(test, imputer)
    return {"kept": kept, "train": train, "test": test,
            "assignment": assignment, "imputer": imputer}


# ---------------------------------------------------------------------------
# desk suite (5-14)


def _pairwise_auroc(s, y):
    pos = s[y == 1]
    neg = s[y == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def _prefix_auprc(s, y):
    order = np.argsort(-s, kind="mergesort")
    s, y = s[order], y[order]
    n_pos = float(y.sum())
    tp = fp = ap = 0.0
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


def test_c05_metric_oracles_on_1000_fixtures():
    rng = np.random.default_rng(50)
    for _ in range(1000):
        n = int(rng.integers(4, 201))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        if y.sum() == 0:
            y[int(rng.integers(0, n))] = 1.0
        if y.sum() == n:
            y[int(rng.integers(0, n))] = 0.0
        if rng.uniform() < 0.5:  # heavy ties half the time
            levels = np.round(rng.uniform(0, 1, size=6), 2)
            s = rng.choice(levels, size=n)
        else:
            s = rng.uniform(0, 1, size=n)
        assert abs(auroc(s, y) - _pairwise_auroc(s, y)) <= 1e-12
        assert auprc(s, y) == _prefix_auprc(s, y)


def test_c06_gradient_checks():
    rng = np.random.default_rng(60)
    h = 1e-6

    def rel(a, b):
        return abs(a - b) / max(abs(a) + abs(b), 1e-10)

    for _ in range(20):  # logistic objective, all coordinates
        n = int(rng.integers(5, 40))
        d = int(rng.integers(2, 8))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        w, b = rng.normal(size=d), float(rng.normal())
        lam = float(rng.uniform(0.01, 1.0))
        _, gw, gb = logistic_objective(w, b, X, y, lam)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            num = (logistic_objective(w + e, b, X, y, lam)[0]
                   - logistic_objective(w - e, b, X, y, lam)[0]) / (2 * h)
            assert rel(gw[j], num) < 1e-4
        num_b = (logistic_objective(w, b + h, X, y, lam)[0]
                 - logistic_objective(w, b - h, X, y, lam)[0]) / (2 * h)
        assert rel(gb, num_b) < 1e-4

    for _ in range(20):  # mlp loss, every parameter block
        n = int(rng.integers(4, 16))
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 6))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        W1 = rng.normal(size=(d, k)) * 0.7
        b1 = rng.normal(size=k) * 0.3
        w2 = rng.normal(size=k) * 0.7
        b2 = float(rng.normal() * 0.3)
        _, dW1, db1, dw2, db2 = mlp_loss_and_grads(W1, b1, w2, b2, X, y)

        def f(W1=W1, b1=b1, w2=w2, b2=b2):
            return mlp_loss_and_grads(W1, b1, w2, b2, X, y)[0]

        for i in range(d):
            for j in range(k):
                E = np.zeros_like(W1)
                E[i, j] = h
                assert rel(dW1[i, j],
                           (f(W1=W1 + E) - f(W1=W1 - E)) / (2 * h)) < 1e-3
        for j in range(k):
            e = np.zeros(k)
            e[j] = h
            assert rel(db1[j], (f(b1=b1 + e) - f(b1=b1 - e)) / (2 * h)) < 1e-3
            assert rel(dw2[j], (f(w2=w2 + e) - f(w2=w2 - e)) / (2 * h)) < 1e-3
        assert rel(db2, (f(b2=b2 + h) - f(b2=b2 - h)) / (2 * h)) < 1e-3


def test_c07_boosting_deviance_never_increases():
    rng = np.random.default_rng(70)
    for trial in range(5):
        n = int(rng.integers(150, 400))
        d = int(rng.integers(3, 8))
        X = rng.normal(size=(n, d))
        logits = X @ rng.normal(size=d) + 0.5 * rng.normal(size=n)
        y = (logits > 0).astype(np.float64)
        params = fit_boosting(X, y, n_stages=100)
        trace = params["train_deviance"]
        assert len(trace) == 101
        deltas = np.diff(np.asarray(trace))
        assert np.all(deltas <= 1e-12), (trial, float(deltas.max()))


def test_c08_score_grids_reproduce_published_bands():
    total_components = 0
    for name in SCORE_NAMES:
        definition = load_score_definition(name)
        ref = _REFS[name]
        for comp in definition.components:
            grid = _TEMP_GRID if comp.variable == "temperature" else _GRID
            for v in grid:
                assert band_points(float(v), comp) == ref(comp.variable, float(v)), (
                    name, comp.name, float(v))
            total_components += 1
    assert total_components == 23   # 5+5+4+5+4 component tables


def test_c09_planted_outcomes_round_trip(big_cohort):
    cfg, gen, records = big_cohort
    truth = gen.truth
    assert len(records) == len(truth)

    mismatches = 0
    for rec in records:
        flags = truth[rec["stay_id"]]
        for key, col in TRUTH_TO_COLUMN.items():
            if bool(rec[col]) != flags[key]:
                mismatches += 1
    assert mismatches == 0, f"{mismatches} label disagreements"

    n = len(truth)
    targets = {"hospitalization": cfg.prevalence_hospitalization,
               "critical": cfg.prevalence_critical,
               "reattendance_72h": cfg.prevalence_reattendance}
    for key, p in targets.items():
        count = sum(1 for flags in truth.values() if flags[key])
        low = binom.ppf(0.005, n, p)
        high = binom.ppf(0.995, n, p)
        assert low <= count <= high, (key, count, low, high)


def test_c10_models_learn_the_planted_signal(big_pipeline):
    manifest = load_manifest("triage")
    train = build_feature_matrix(big_pipeline["train"], "hospitalization",
                                 manifest=manifest)
    test = build_feature_matrix(big_pipeline["test"], "hospitalization",
                                manifest=manifest)
    labels = test.y.astype(np.float64)

    gb = auroc(predict_boosting(fit_boosting(train.X, train.y.astype(float)),
                                test.X), labels)
    rf = auroc(predict_forest(
        fit_forest(train.X, train.y.astype(float), seed=0), test.X), labels)
    lr = auroc(predict_logistic(
        fit_logistic(train.X, train.y.astype(float)), test.X), labels)
    assert gb > 0.70, gb
    assert rf > 0.70, rf
    assert abs(lr - gb) <= 0.1, (lr, gb)

    esi = np.array([esi_risk(r["triage_acuity"]) for r in big_pipeline["test"]],
                   dtype=np.float64)
    assert auroc(esi, labels) > 0.5
    for name in SCORE_NAMES:
        definition = load_score_definition(name)
        totals = np.array(
            [compute_score(definition, r).total for r in big_pipeline["test"]],
            dtype=np.float64)
        assert auroc(totals, labels) > 0.5, name


def _write_run_ini(root: Path, tag: str) -> Path:
    ini = root / f"{tag}.ini"
    ini.write_text(
        "[pipeline]\n"
        f"input_dir = {root / tag / 'data'}\n"
        f"output_dir = {root / tag / 'out'}\n"
        "seed = 11\n"
        "bootstrap_b = 25\n\n"
        "[synth]\n"
        "n_patients = 1000\n\n"
        "[models.random_forest]\n"
        "n_trees = 25\n\n"
        "[models.boosting]\n"
        "n_stages = 40\n\n"
        "[models.mlp]\n"
        "epochs = 5\n")
    return ini


def _masked_report(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    runtime_col = rows[0].index("Runtime")
    for row in rows[1:]:
        row[runtime_col] = "-"
    return rows


def test_c11_runs_are_byte_deterministic(tmp_path):
    out_a = Path(_write_run_ini(tmp_path, "a").parent) / "a" / "out"
    out_b = Path(_write_run_ini(tmp_path, "b").parent) / "b" / "out"
    assert cli.main(["all", "--config", str(tmp_path / "a.ini")]) == 0
    assert cli.main(["all", "--config", str(tmp_path / "b.ini")]) == 0

    for name in ("master_dataset.csv", "split.csv", "train.csv", "test.csv",
                 "imputer.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    models_a = sorted(p.name for p in (out_a / "models").glob("*.json"))
    models_b = sorted(p.name for p in (out_b / "models").glob("*.json"))
    assert models_a == models_b and len(models_a) == 13  # 12 models + runtimes
    for name in models_a:
        if name == "runtimes.json":   # wall-clock sidecar, varies by design
            continue
        assert ((out_a / "models" / name).read_bytes()
                == (out_b / "models" / name).read_bytes()), name

    # report.csv identical with the wall-clock column masked
    assert _masked_report(out_a / "report.csv") == _masked_report(
        out_b / "report.csv")


# the sha256 of each saved model's predictions on its run's test.csv, one
# "<model file stem> <digest>" a line
_PREDICTION_DIGESTS = """\
import hashlib, pathlib, sys
from edbench.cohort import read_master_csv
from edbench.models import build_feature_matrix, load_model, predict_proba
out = pathlib.Path(sys.argv[1])
records, _ = read_master_csv(str(out / "test.csv"))
for path in sorted((out / "models").glob("*_*_*.json")):
    model = load_model(path)
    matrix = build_feature_matrix(records, model.task,
                                  time_point=model.time_point,
                                  manifest=model.columns)
    probs = predict_proba(model, matrix).tobytes()
    print(path.stem, hashlib.sha256(probs).hexdigest())
"""


def test_c11_two_processes_write_the_same_bytes(tmp_path):
    # test_c11 runs its two pipelines in one process; here each run, and
    # each run's predictions, is its own process, with its own hash seed
    # and BLAS thread count, on one synthetic cohort with default models
    (tmp_path / "synth.ini").write_text(
        f"[pipeline]\nseed = 7\ninput_dir = {tmp_path / 'data'}\n"
        f"output_dir = {tmp_path / 'synth'}\n\n[synth]\nn_patients = 300\n")
    assert cli.main(["synth", "--config", str(tmp_path / "synth.ini")]) == 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    envs = {"a": dict(env, PYTHONHASHSEED="1", OPENBLAS_NUM_THREADS="1"),
            "b": dict(env, PYTHONHASHSEED="2")}
    digests = {}
    for run, run_env in envs.items():
        (tmp_path / f"{run}.ini").write_text(
            f"[pipeline]\nseed = 7\ninput_dir = {tmp_path / 'data'}\n"
            f"output_dir = {tmp_path / run}\n")
        for argv in (["-m", "edbench.cli", "all", "--config",
                      str(tmp_path / f"{run}.ini")],
                     ["-c", _PREDICTION_DIGESTS, str(tmp_path / run)]):
            result = subprocess.run([sys.executable, *argv], cwd=tmp_path,
                                    env=run_env, capture_output=True,
                                    text=True, timeout=600)
            assert result.returncode == 0, result.stderr[-2000:]
        digests[run] = result.stdout.splitlines()
    a, b = tmp_path / "a", tmp_path / "b"
    models = sorted(p.relative_to(a) for p in a.glob("models/*_*_*.json"))
    assert len(models) == len(digests["a"]) == 12
    for name in [*models, "master_dataset.csv", "train.csv", "test.csv",
                 "split.csv", "imputer.json", "cohort_summary.csv"]:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert digests["a"] == digests["b"]
    assert _masked_report(a / "report.csv") == _masked_report(b / "report.csv")


def test_c12_cleaning_and_imputation_invariants(big_pipeline):
    # no missing cells reach a model: every matrix cell is finite
    for task, (_, default_tp) in TASKS.items():
        manifest = load_manifest(default_tp)
        for split_name in ("train", "test"):
            matrix = build_feature_matrix(big_pipeline[split_name], task,
                                          manifest=manifest)
            assert np.isfinite(matrix.X).all(), (task, split_name)

    # clean_value is idempotent and order-preserving on kept values
    rng = np.random.default_rng(12)
    for column, bounds in load_cleaning_config().items():
        span = bounds.outer_high - bounds.outer_low
        values = rng.uniform(bounds.outer_low - 0.5 * span,
                             bounds.outer_high + 0.5 * span, size=100_000)
        once = np.array([_cv(v, bounds) for v in values[:200]])
        cleaned = _clean_many(values, bounds)
        again = _clean_many(cleaned, bounds)
        both = np.isfinite(cleaned) & np.isfinite(again)
        assert np.array_equal(cleaned[both], again[both]), column
        assert np.array_equal(np.isfinite(cleaned), np.isfinite(again)), column

        order = np.argsort(values, kind="mergesort")
        kept = cleaned[order][np.isfinite(cleaned[order])]
        assert np.all(np.diff(kept) >= 0), column
        # spot-check the scalar agrees with the vectorized form
        sample = cleaned[:200]
        same = [(np.isnan(a) and np.isnan(b)) or a == b
                for a, b in zip(once, sample)]
        assert all(same), column


def _cv(v, bounds):
    from edbench.clean_split import clean_value
    out = clean_value(float(v), bounds)
    return np.nan if out is None else out


def _clean_many(values, bounds):
    from edbench.clean_split import clean_array
    return clean_array(values, bounds)


def test_c13_index_admission_codes_never_leak(tmp_path):
    write_raw(tmp_path)
    baseline = build_master(link_tables(read_raw_tables(str(tmp_path))))
    com_cols = [c for c in baseline[0]
                if c.startswith("cci_") or c.startswith("eci_")]

    # plant maximally scary codes on the index admissions of patients with
    # no later visits (502, 503); no visit anywhere may change
    diag = tmp_path / "diagnoses_icd.csv"
    with open(diag, "a", newline="") as fh:
        fh.write("102,502,98,B20,10\n")        # aids
        fh.write("102,502,99,C787,10\n")       # metastatic cancer
        fh.write("103,503,98,B20,10\n")
        fh.write("103,503,99,I500,10\n")       # heart failure
    mutated = build_master(link_tables(read_raw_tables(str(tmp_path))))
    for before, after in zip(baseline, mutated):
        assert before["stay_id"] == after["stay_id"]
        for col in com_cols:
            assert before[col] == after[col], (before["stay_id"], col)

    # codes on an admission seen by later visits may change those later
    # visits but never the admission's own index visit (9001 via 501)
    with open(diag, "a", newline="") as fh:
        fh.write("101,501,98,B20,10\n")
    remutated = build_master(link_tables(read_raw_tables(str(tmp_path))))
    own = {r["stay_id"]: r for r in remutated}[9001]
    base_own = {r["stay_id"]: r for r in baseline}[9001]
    for col in com_cols:
        assert own[col] == base_own[col], col
    later = {r["stay_id"]: r for r in remutated}[9002]
    assert later["eci_aids_hiv"] == 1  # the later visit legitimately sees it


def test_c14_split_integrity(big_pipeline):
    kept = big_pipeline["kept"]
    train, test, assignment = (big_pipeline["train"], big_pipeline["test"],
                               big_pipeline["assignment"])
    n = len(kept)
    expected_test = int(np.floor(0.2 * n + 0.5))
    assert len(test) == expected_test
    assert len(train) == n - expected_test

    # assignment is a function of the visit set, not the row order
    rng = np.random.default_rng(14)
    shuffled = list(kept)
    rng.shuffle(shuffled)
    _, _, assignment2 = split_records(shuffled, 0.2, seed=0)
    assert assignment2 == assignment

    # imputer fit is provably blind to test rows: vandalize every test-side
    # cell in a shared universe, re-split, refit; fills cannot move
    from edbench.clean_split import DEFAULT_IMPUTE_COLUMNS
    base = [dict(r) for r in kept]
    train1, test1, _ = split_records(base, 0.2, seed=0)
    reference = fit_imputer(train1).to_json()
    for rec in test1:                     # same objects as in base
        for col in DEFAULT_IMPUTE_COLUMNS:
            rec[col] = 9_999.0
    train2, test2, _ = split_records(base, 0.2, seed=0)
    assert fit_imputer(train2).to_json() == reference
    # the vandalism is visible on the test side, so the blindness is real
    assert fit_imputer(test2).to_json() != reference
