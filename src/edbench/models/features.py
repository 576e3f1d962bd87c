"""Feature manifests and numeric matrix assembly.

A manifest is an ordered list of master-dataset columns, shipped as an
editable text file per time point: the triage manifest holds everything
known on arrival, the disposition manifest adds end-of-visit vitals, ED
length of stay, and medication counts. A fingerprint of the manifest is
baked into every trained model so a model can refuse a matrix whose
columns differ from what it was trained on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .._util import read_data_file
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


def manifest_fingerprint(columns: list[str]) -> str:
    """Stable identity of an ordered column list."""
    joined = "\n".join(columns).encode("utf-8")
    return hashlib.sha256(joined).hexdigest()


@dataclass
class FeatureMatrix:
    """Numeric design matrix plus one task's labels and provenance."""

    X: np.ndarray
    y: np.ndarray
    columns: list[str]
    task: str
    time_point: str
    split: str
    stay_ids: np.ndarray

    @property
    def fingerprint(self) -> str:
        return manifest_fingerprint(self.columns)


def _numeric(value, column: str) -> float:
    if value is None:
        return np.nan
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if column == "gender":
        # gender is stored as F/M; encoded male=1
        if value in ("M", "F"):
            return 1.0 if value == "M" else 0.0
        return np.nan
    return float(value)


def build_feature_matrix(
    records: list[dict],
    task: str,
    time_point: str | None = None,
    manifest: list[str] | None = None,
    split: str = "train",
) -> FeatureMatrix:
    """Assemble X and y for one task from benchmark records.

    Missing cells become NaN; after the pipeline's imputation there are
    none, and the trainers reject non-finite input outright.
    """
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; expected one of {sorted(TASKS)}")
    label_col, default_tp = TASKS[task]
    time_point = time_point or default_tp
    if manifest is None:
        if time_point not in TIME_POINTS:
            raise ConfigError(f"unknown time point {time_point!r}")
        manifest = load_manifest(time_point)

    n, d = len(records), len(manifest)
    X = np.empty((n, d), dtype=np.float64)
    y = np.empty(n, dtype=bool)
    ids = np.empty(n, dtype=np.int64)
    for i, rec in enumerate(records):
        for j, col in enumerate(manifest):
            if col not in rec:
                raise DataError(f"record lacks manifest column {col!r}")
            X[i, j] = _numeric(rec[col], col)
        label = rec.get(label_col)
        if label is None:
            raise DataError(f"record lacks label column {label_col!r}")
        y[i] = bool(label)
        ids[i] = rec["stay_id"]
    return FeatureMatrix(X=X, y=y, columns=list(manifest), task=task,
                         time_point=time_point, split=split, stay_ids=ids)
