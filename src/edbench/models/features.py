"""Feature manifests and numeric matrix assembly.

A manifest is an ordered list of master-dataset columns, shipped as an
editable text file per time point: the triage manifest holds everything
known on arrival, the disposition manifest adds end-of-visit vitals, ED
length of stay, and medication counts. A FeatureMatrix carries its
manifest as ``columns``, and every trained model the manifest it was fitted
on, so a model can refuse a matrix whose columns differ from its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import read_data_file
from ..cohort import column_kind
from ..errors import ConfigError, DataError

TIME_POINTS = ("triage", "disposition")

# task name -> (label column, default time point)
TASKS = {
    "hospitalization": ("outcome_hospitalization", "triage"),
    "critical": ("outcome_critical", "triage"),
    "reattendance": ("outcome_ed_reattendance_72h", "disposition"),
}


def load_manifest(which: str) -> list[str]:
    """Load a manifest by time point name or explicit file path."""
    text = read_data_file(f"manifest_{which}.txt",
                          None if which in TIME_POINTS else which)
    columns = [line.strip() for line in text.splitlines()
               if line.strip() and not line.lstrip().startswith("#")]
    if len(set(columns)) != len(columns):
        raise ConfigError(f"manifest {which!r} has duplicate columns")
    if not columns:
        raise ConfigError(f"manifest {which!r} is empty")
    return columns


@dataclass
class FeatureMatrix:
    """Numeric design matrix plus one task's labels and provenance."""

    X: np.ndarray
    y: np.ndarray
    columns: list[str]
    task: str
    time_point: str
    stay_ids: np.ndarray


# sex is stored as F/M; encoded male=1, any other value missing
_SEX_CODES = {"M": 1.0, "F": 0.0}


def build_feature_matrix(
    records: list[dict],
    task: str,
    time_point: str | None = None,
    manifest: list[str] | None = None,
) -> FeatureMatrix:
    """Assemble X and y for one task from benchmark records.

    Each manifest column is converted on its own: missing cells become
    NaN and flags 0/1, and a ``sex`` column (``cohort.column_kind``) is
    encoded M=1, F=0. After the pipeline's imputation nothing is missing;
    ``train_model`` and ``predict_proba`` refuse a missing cell, naming it.
    """
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; expected one of {sorted(TASKS)}")
    label_col, default_tp = TASKS[task]
    time_point = time_point or default_tp
    if manifest is None:
        if time_point not in TIME_POINTS:
            raise ConfigError(f"unknown time point {time_point!r}")
        manifest = load_manifest(time_point)

    X = np.empty((len(records), len(manifest)), dtype=np.float64)
    for j, col in enumerate(manifest):
        try:
            values = [rec[col] for rec in records]
        except KeyError:
            raise DataError(f"record lacks manifest column {col!r}") from None
        if column_kind(col) == "sex":
            values = [_SEX_CODES.get(v, np.nan) for v in values]
        X[:, j] = np.asarray(values, dtype=np.float64)
    labels = [rec.get(label_col) for rec in records]
    if any(label is None for label in labels):
        raise DataError(f"record lacks label column {label_col!r}")
    y = np.array([bool(label) for label in labels], dtype=bool)
    ids = np.array([rec["stay_id"] for rec in records], dtype=np.int64)
    return FeatureMatrix(X=X, y=y, columns=list(manifest), task=task,
                         time_point=time_point, stay_ids=ids)
