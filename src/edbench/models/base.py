"""Unified train/predict/save/load surface over the four model kinds.

A trained model carries the feature manifest it was fitted against and a
fingerprint of that manifest; prediction refuses inputs whose manifest
fingerprint (or column count) disagrees, which catches the classic
mistake of scoring disposition-time features with a triage-time model.

Model files are compact JSON (sorted keys, no whitespace) and hold no
wall-clock data, so repeated runs with the same seed produce byte-identical
files. Tree models keep their nodes as numpy arrays in memory and as JSON
lists on disk; ``load_model`` turns them back into arrays and checks each
tree (``_trees.tree_from_json``), so a tampered file is a DataError rather
than a crash or an endless walk.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from ..errors import ConfigError, DataError, ManifestMismatch, WrongKind
from . import boosting, forest, linear, mlp
from ._trees import tree_from_json, trees_json
from .features import FeatureMatrix, manifest_fingerprint


def _kind(fitter, predictor) -> tuple:
    """(fitter, predictor, default hyperparameters, fitter takes the seed):
    the hyperparameters and their defaults are the fitter's keyword-only
    parameters other than ``seed``."""
    params = inspect.signature(fitter).parameters
    defaults = {name: p.default for name, p in params.items()
                if p.kind is p.KEYWORD_ONLY and name != "seed"}
    return fitter, predictor, defaults, "seed" in params


_KINDS = {
    "logistic": _kind(linear.fit_logistic, linear.predict_logistic),
    "random_forest": _kind(forest.fit_forest, forest.predict_forest),
    "boosting": _kind(boosting.fit_boosting, boosting.predict_boosting),
    "mlp": _kind(mlp.fit_mlp, mlp.predict_mlp),
}

MODEL_KINDS = tuple(_KINDS)

# hyperparameters (of any kind) outside these ranges break the fitters or
# leave a constant model
_COUNTS = ("n_trees", "n_stages", "max_depth", "min_leaf", "hidden", "epochs",
           "batch_size")
_POSITIVE = ("C", "learning_rate")

# the arrays of the logistic and MLP params, by shape: "d" is the number of
# feature columns, "h" the MLP's hidden width (the columns of W1); the
# scalars are the bias terms
_DENSE_PARAMS = {
    "logistic": ({"weights": ("d",), "mean": ("d",), "std": ("d",)},
                 ("bias",)),
    "mlp": ({"W1": ("d", "h"), "b1": ("h",), "w2": ("h",), "mean": ("d",),
             "std": ("d",)}, ("b2",)),
}

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


def resolve_hyperparams(kind: str, overrides: dict) -> dict:
    """The defaults of ``kind`` updated by ``overrides``, each given the
    type of its default, so that ``C=1`` is ``C=1.0``. An unknown kind, an
    unknown name, a non-integer for an integer default or an out-of-range
    value (a non-finite float among them) raises ConfigError."""
    if kind not in _KINDS:
        raise ConfigError(f"unknown model kind: {kind!r}")
    hyper = dict(_KINDS[kind][2])
    for key, value in overrides.items():
        if key not in hyper:
            raise ConfigError(f"{kind}: unknown hyperparameter {key!r}")
        if isinstance(hyper[key], int) and not isinstance(value, int):
            raise ConfigError(f"{kind}: {key} must be an integer, got {value!r}")
        value = type(hyper[key])(value)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{kind}: {key} must be finite, got {value!r}")
        if key in _COUNTS and not value >= 1:
            raise ConfigError(f"{kind}: {key} must be >= 1, got {value!r}")
        if key in _POSITIVE and not value > 0:
            raise ConfigError(f"{kind}: {key} must be > 0, got {value!r}")
        hyper[key] = value
    return hyper


def train_model(matrix: FeatureMatrix, kind: str, *, seed: int = 0,
                **overrides) -> TrainedModel:
    hyper = resolve_hyperparams(kind, overrides)
    fitter, _, _, takes_seed = _KINDS[kind]
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
    """Write ``model`` as compact JSON with sorted keys. A tree model's
    trees are streamed from ``_trees.trees_json`` into the place where
    ``json.dumps`` wrote an empty list; the key ``"trees"`` occurs once, as
    any quote inside a string value is escaped. The file is byte for byte
    ``json.dumps`` of the whole model with its arrays as lists."""
    fields = vars(model)
    trees = fields["params"].get("trees")
    if trees:
        fields = {**fields, "params": {**fields["params"], "trees": []}}
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        if trees:
            head, _, text = text.partition('"trees":[]')
            fh.write(head + '"trees":')
            fh.writelines(trees_json(trees))
        fh.write(text + "\n")


def load_model(path) -> TrainedModel:
    """Read a file written by save_model; a file that is not one raises
    DataError, naming the key that is missing or unknown, the tree that is
    malformed, or the logistic or MLP parameter of the wrong shape."""
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
    if obj["kind"] in ("random_forest", "boosting"):
        params = obj["params"]
        trees = params.get("trees") if isinstance(params, dict) else None
        if not isinstance(trees, list) or not (trees or "constant" in params):
            raise DataError(f"{path}: model file holds no trees")
        for i, tree in enumerate(trees):
            try:
                trees[i] = tree_from_json(tree, len(obj["columns"]))
            except ValueError as exc:
                raise DataError(f"{path}: tree {i}: {exc}") from None
    else:
        try:
            _check_dense_params(obj["kind"], obj["params"], len(obj["columns"]))
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from None
    return TrainedModel(**obj)


def _check_dense_params(kind: str, params, n_columns: int) -> None:
    """Raise ValueError, naming the parameter, unless the logistic or MLP
    ``params`` hold numeric arrays of the shapes ``n_columns`` inputs need
    (``_DENSE_PARAMS``) and a finite number for each bias term."""
    arrays, scalars = _DENSE_PARAMS[kind]
    if not isinstance(params, dict):
        raise ValueError("'params' must be an object")
    sizes = {"d": n_columns}
    for name, shape in arrays.items():
        try:
            value = np.asarray(params.get(name))
        except ValueError:                  # ragged nesting
            value = np.empty(0, dtype=object)
        if value.dtype.kind not in "if" or value.ndim != len(shape):
            raise ValueError(f"param {name!r} must be a "
                             f"{len(shape)}-D array of numbers")
        for axis, size in zip(shape, value.shape):
            sizes.setdefault(axis, size)
        expected = tuple(sizes[axis] for axis in shape)
        if value.shape != expected:
            raise ValueError(f"param {name!r} has shape {value.shape}, "
                             f"expected {expected}")
    for name in scalars:
        value = params.get(name)
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise ValueError(f"param {name!r} must be a finite number")
