"""Metamorphic relations of the data layer and the learners: changes to
the raw tables that must leave what extract-master and build-benchmark
write unchanged, or change the master only as they predict, and changes
to feature columns that must leave a learner's predictions unchanged, bit
for bit. Each relation checks many inputs against the program's own
output on the unchanged input, with no stored answer (Xie et al., JSS
2011, apply the method to classifiers)."""

import csv
import hashlib
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from edbench import cli
from edbench.ingest import TABLE_KINDS
from edbench.models.boosting import fit_boosting, predict_boosting
from edbench.models.forest import fit_forest, predict_forest
from edbench.models.linear import fit_logistic, predict_logistic
from edbench.models.mlp import fit_mlp, predict_mlp
from edbench.synthdata import SynthConfig, write_synthetic

ARTIFACTS = ("master_dataset.csv", "train.csv", "test.csv", "split.csv",
             "imputer.json", "cohort_summary.csv")


def _benchmark(data: Path, root: Path) -> dict[str, str]:
    """The sha256 of what extract-master then build-benchmark write from
    the raw tables in ``data``, run with an output dir under ``root``."""
    ini = root / "run.ini"
    ini.write_text(f"[pipeline]\ninput_dir = {data}\n"
                   f"output_dir = {root / 'out'}\nseed = 7\n")
    for command in ("extract-master", "build-benchmark"):
        assert cli.main([command, "--config", str(ini)]) == 0
    return {name: hashlib.sha256((root / "out" / name).read_bytes()).hexdigest()
            for name in ARTIFACTS}


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """The raw tables of the 150-patient cohort, the digests of what the
    data layer writes from them, and the master's rows."""
    root = tmp_path_factory.mktemp("metamorphic")
    write_synthetic(SynthConfig(n_patients=150, seed=7), root / "data")
    digests = _benchmark(root / "data", root)
    return root / "data", digests, _rows(root / "out" / "master_dataset.csv")


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _rewrite(raw: Path, data: Path, change) -> None:
    """Write each raw table of ``raw`` into ``data`` as ``change(kind,
    rows)`` returns its rows, the header first."""
    data.mkdir()
    for kind in TABLE_KINDS:
        with open(data / f"{kind}.csv", "w", newline="",
                  encoding="utf-8") as fh:
            csv.writer(fh).writerows(change(kind, _rows(raw / f"{kind}.csv")))


# a seed, not st.randoms(): a shuffle of thousands of rows drawn choice by
# choice is too large an example for hypothesis, and a seed has nothing to
# shrink
@settings(max_examples=8, phases=[Phase.explicit, Phase.generate])
@given(seed=st.integers(0, 2**32 - 1))
def test_raw_row_order_does_not_change_the_benchmark(cohort, seed):
    raw, expected, _ = cohort
    rng = random.Random(seed)

    def shuffle(kind, rows):
        header, *rows = rows
        rng.shuffle(rows)
        return [header, *rows]

    with tempfile.TemporaryDirectory() as tmp:
        _rewrite(raw, Path(tmp) / "data", shuffle)
        assert _benchmark(Path(tmp) / "data", Path(tmp)) == expected


@settings(max_examples=5, phases=[Phase.explicit, Phase.generate])
@given(seed=st.integers(0, 2**32 - 1))
def test_raw_column_order_and_unknown_columns_do_not_change_the_benchmark(
        cohort, seed):
    # tables are read by header name, and a column no table declares is
    # ignored, whatever its cells hold; so is a patient without an ED stay
    raw, expected, _ = cohort
    rng = random.Random(seed)

    def permute(kind, rows):
        if kind == "patients":
            subject = rows[0].index("subject_id")
            extra = list(rows[-1])
            extra[subject] = str(max(int(row[subject]) for row in rows[1:]) + 1)
            rows.append(extra)
        if rng.random() < 0.5:
            at = rng.randrange(len(rows[0]) + 1)
            for i, row in enumerate(rows):
                row.insert(at, "unknown_column" if i == 0
                           else rng.choice(["", "x", "1", "2020-01-01"]))
        order = rng.sample(range(len(rows[0])), len(rows[0]))
        return [[row[j] for j in order] for row in rows]

    with tempfile.TemporaryDirectory() as tmp:
        _rewrite(raw, Path(tmp) / "data", permute)
        assert _benchmark(Path(tmp) / "data", Path(tmp)) == expected


@settings(max_examples=5, phases=[Phase.explicit, Phase.generate])
@given(seed=st.integers(0, 2**32 - 1))
def test_dropping_subjects_drops_only_their_master_rows(cohort, seed):
    # a stay's master row reads only its own subject's rows
    raw, _, master = cohort
    rng = random.Random(seed)
    header, *patients = _rows(raw / "patients.csv")
    subjects = sorted({row[header.index("subject_id")] for row in patients})
    dropped = set(rng.sample(subjects, rng.randint(1, len(subjects) // 3)))

    def drop(kind, rows):
        subject = rows[0].index("subject_id")
        return [row for row in rows if row[subject] not in dropped]

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _rewrite(raw, root / "data", drop)
        (root / "run.ini").write_text(
            f"[pipeline]\ninput_dir = {root / 'data'}\n"
            f"output_dir = {root / 'out'}\nseed = 7\n")
        assert cli.main(["extract-master", "--config",
                         str(root / "run.ini")]) == 0
        subject = master[0].index("subject_id")
        assert _rows(root / "out" / "master_dataset.csv") == [
            row for row in master if row[subject] not in dropped]


# -- learners ------------------------------------------------------------------

# each learner as (fit, predict), small enough that a relation's examples
# fit in a second or two
LEARNERS = {
    "logistic": (fit_logistic, predict_logistic),
    "random_forest": (lambda X, y: fit_forest(X, y, n_trees=10, seed=3),
                      predict_forest),
    "boosting": (lambda X, y: fit_boosting(X, y, n_stages=15),
                 predict_boosting),
    "mlp": (lambda X, y: fit_mlp(X, y, hidden=8, epochs=3, batch_size=64,
                                 seed=3), predict_mlp),
}
D = 8


@st.composite
def _learner_data(draw):
    """(X, y, X_test, columns): 150-300 training rows of positive features,
    as vitals and labs are, some of them whole numbers so that values tie,
    with a label that leans on the first two; 50 test rows; and a few
    distinct columns to change. Past 256 rows a continuous column's bin
    edges are quantiles, below it midpoints."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(150, 300))
    X = rng.lognormal(size=(n + 50, D))
    X[:, ::3] = np.round(8 * X[:, ::3])
    y = X[:n, 0] + X[:n, 1] + rng.normal(size=n) > np.median(X[:n, 0]
                                                             + X[:n, 1])
    columns = draw(st.lists(st.integers(0, D - 1), min_size=1, max_size=4,
                            unique=True))
    return X[:n], y, X[n:], columns


@settings(max_examples=20, phases=[Phase.explicit, Phase.generate])
@given(data=_learner_data(), powers=st.lists(st.integers(-6, 6), min_size=4,
                                             max_size=4))
def test_power_of_two_column_scales_leave_predictions_unchanged(data, powers):
    # standardizing by a mean and SD scales exactly, and so do tree edges,
    # which are midpoints or quantile interpolations of the values
    X, y, X_test, columns = data
    scale = np.ones(D)
    for column, power in zip(columns, powers):
        scale[column] = 2.0 ** power
    for kind, (fit, predict) in LEARNERS.items():
        expected = predict(fit(X, y), X_test)
        got = predict(fit(X * scale, y), X_test * scale)
        assert got.tobytes() == expected.tobytes(), kind


@settings(max_examples=20, phases=[Phase.explicit, Phase.generate])
@given(data=_learner_data())
def test_increasing_column_maps_leave_tree_fits_unchanged(data):
    # binning is rank-based, so a strictly increasing map of a column gives
    # the same partition of the training rows, and the same leaves
    X, y, _, columns = data
    mapped = X.copy()
    mapped[:, columns] = mapped[:, columns] ** 3 + mapped[:, columns]
    for kind in ("random_forest", "boosting"):
        fit, predict = LEARNERS[kind]
        expected = predict(fit(X, y), X)
        got = predict(fit(mapped, y), mapped)
        assert got.tobytes() == expected.tobytes(), kind
