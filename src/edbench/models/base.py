"""Unified train/predict/save/load surface over the four model kinds.

A trained model carries the feature manifest it was fitted against and a
fingerprint of that manifest; prediction refuses inputs whose manifest
fingerprint (or column count) disagrees, which catches the classic
mistake of scoring disposition-time features with a triage-time model.

Model files are JSON with sorted keys and hold no wall-clock data, so
repeated runs with the same seed produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from ..errors import ConfigError, DataError, ManifestMismatch, WrongKind
from . import boosting, forest, linear, mlp
from .features import FeatureMatrix, manifest_fingerprint

# kind -> (fitter, predictor, default hyperparameters, fitter takes the seed)
_KINDS = {
    "logistic": (linear.fit_logistic, linear.predict_logistic,
                 linear.DEFAULTS, False),
    "random_forest": (forest.fit_forest, forest.predict_forest,
                      forest.DEFAULTS, True),
    "boosting": (boosting.fit_boosting, boosting.predict_boosting,
                 boosting.DEFAULTS, False),
    "mlp": (mlp.fit_mlp, mlp.predict_mlp, mlp.DEFAULTS, True),
}

MODEL_KINDS = tuple(_KINDS)

# hyperparameters (of any kind) outside these ranges break the fitters
_COUNTS = ("n_trees", "min_leaf", "hidden", "epochs", "batch_size")
_POSITIVE = ("C", "learning_rate")

DISPLAY_NAMES = {
    "logistic": "LR",
    "random_forest": "RF",
    "boosting": "GB",
    "mlp": "MLP",
}


@dataclass
class TrainedModel:
    kind: str
    task: str
    time_point: str
    columns: list[str]
    hyperparams: dict
    params: dict
    seed: int
    fingerprint: str = field(default="")

    def __post_init__(self):
        if not self.fingerprint:
            self.fingerprint = manifest_fingerprint(self.columns)

    @property
    def n_variables(self) -> int:
        return len(self.columns)


def train_model(matrix: FeatureMatrix, kind: str, *, seed: int = 0,
                **overrides) -> TrainedModel:
    if kind not in _KINDS:
        raise ConfigError(f"unknown model kind: {kind!r}")
    fitter, _, defaults, takes_seed = _KINDS[kind]
    hyper = dict(defaults)
    for key, value in overrides.items():
        if key not in hyper:
            raise ConfigError(f"{kind}: unknown hyperparameter {key!r}")
        if isinstance(hyper[key], int) and not isinstance(value, int):
            raise ConfigError(f"{kind}: {key} must be an integer, got {value!r}")
        if key in _COUNTS and not value >= 1:
            raise ConfigError(f"{kind}: {key} must be >= 1, got {value!r}")
        if key in _POSITIVE and not value > 0:
            raise ConfigError(f"{kind}: {key} must be > 0, got {value!r}")
        hyper[key] = value
    kwargs = dict(hyper)
    if takes_seed:
        kwargs["seed"] = seed
    params = fitter(matrix.X, matrix.y, **kwargs)
    return TrainedModel(
        kind=kind,
        task=matrix.task,
        time_point=matrix.time_point,
        columns=list(matrix.columns),
        hyperparams=hyper,
        params=params,
        seed=seed,
    )


def predict_proba(model: TrainedModel, data) -> np.ndarray:
    """Probabilities for a FeatureMatrix or a raw (n, d) array."""
    if isinstance(data, FeatureMatrix):
        if data.fingerprint != model.fingerprint:
            raise ManifestMismatch(
                f"feature manifest mismatch: model was trained on "
                f"{model.n_variables} columns ({model.fingerprint[:12]}), "
                f"got {len(data.columns)} ({data.fingerprint[:12]})")
        X = data.X
    else:
        X = np.asarray(data, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != model.n_variables:
            raise ManifestMismatch(
                f"expected {model.n_variables} feature columns, "
                f"got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ManifestMismatch("prediction inputs contain non-finite values")
    return _KINDS[model.kind][1](model.params, X)


def rf_variable_importance(model: TrainedModel) -> list[tuple[str, float]]:
    """(column, importance) pairs, descending; ties keep manifest order."""
    if model.kind != "random_forest":
        raise WrongKind(
            f"variable importance is defined for random_forest models, "
            f"not {model.kind!r}")
    imp = forest.forest_importance(model.params)
    order = sorted(range(len(imp)), key=lambda j: (-imp[j], j))
    return [(model.columns[j], float(imp[j])) for j in order]


def save_model(model: TrainedModel, path) -> None:
    Path(path).write_text(
        json.dumps(vars(model), sort_keys=True, indent=2) + "\n")


def load_model(path) -> TrainedModel:
    """Read a file written by save_model; a file that is not one raises
    DataError, naming the key that is missing or unknown."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DataError(f"{path}: not a model JSON file: {exc}") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path}: a model file holds one JSON object")
    names = [f.name for f in fields(TrainedModel)]
    for key in names:
        if key not in obj:
            raise DataError(f"{path}: model file lacks key {key!r}")
    for key in obj:
        if key not in names:
            raise DataError(f"{path}: model file has unknown key {key!r}")
    if obj["kind"] not in _KINDS:
        raise ConfigError(f"unknown model kind in file: {obj['kind']!r}")
    return TrainedModel(**obj)
