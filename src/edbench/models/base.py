"""Unified train/predict/save/load surface over the four model kinds, and
the learners' one edge: only this module checks their input, and reads and
writes their params.

A trained model carries the feature manifest it was fitted against, its
``columns``; prediction takes a FeatureMatrix and refuses one whose columns
differ from the model's, in name or order, which catches the classic
mistake of scoring disposition-time features with a triage-time model.
``train_model`` and ``predict_proba`` refuse a NaN or infinite cell, a
DataError naming its column and stay.

In memory a param with a shape in ``_PARAMS`` is a float64 array, any other
a Python number. Model files are compact JSON (sorted keys, no whitespace)
and hold no wall-clock data, so repeated runs with the same seed produce
byte-identical files. Each file holds ``format``, FORMAT, the number of its
layout, which any change to the layout bumps. ``load_model`` reads it
first: a file with another number, or with none (every layout before the
number), is one DataError saying to re-run ``edbench train``, whatever else
it holds. Tree models keep the node arrays prediction reads, a feature and
one float per node, per tree in memory and as one table per ensemble on
disk (``_trees``); a forest adds the importance computed at fit.
``load_model`` checks that a file holds what ``save_model`` writes, finite
and in the counts and depth its hyperparameters give, so a tampered file is
a DataError rather than a crash, an endless walk or NaN probabilities.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ..errors import ConfigError, DataError, ManifestMismatch, WrongKind
from . import boosting, forest, linear, mlp
from ._trees import trees_from_json, trees_json
from .features import TASKS, TIME_POINTS, FeatureMatrix

# the layout of a model file; bump it with any change to that layout
FORMAT = 1


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

# every param of each kind's fit besides a tree model's trees, by shape: ()
# for a number, ("d",) for one per feature column; "h" is the MLP's hidden
# width, the columns of W1, boosting's deviance trace holds n_stages + 1
# entries, and the others' length is free
_PARAMS = {
    "logistic": {"weights": ("d",), "bias": (), "mean": ("d",), "std": ("d",),
                 "final_loss": (), "n_iter": ()},
    "random_forest": {"importance": ("d",)},
    "boosting": {"base_score": (), "train_deviance": ("n_stages + 1",)},
    "mlp": {"W1": ("d", "h"), "b1": ("h",), "w2": ("h",), "b2": (),
            "mean": ("d",), "std": ("d",), "epoch_loss": ("epochs",)},
}
# the hyperparameter a tree model's tree count must equal
_TREE_COUNT = {"random_forest": "n_trees", "boosting": "n_stages"}

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


def _check_finite(matrix: FeatureMatrix) -> None:
    """Raise DataError naming the first NaN or infinite cell of ``matrix``."""
    finite = np.isfinite(matrix.X)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise DataError(f"column {matrix.columns[col]!r} of stay "
                        f"{matrix.stay_ids[row]} is empty or not finite")


def train_model(matrix: FeatureMatrix, kind: str, *, seed: int = 0,
                **overrides) -> TrainedModel:
    hyper = resolve_hyperparams(kind, overrides)
    _check_finite(matrix)
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


def predict_proba(model: TrainedModel, matrix: FeatureMatrix) -> np.ndarray:
    """Probabilities for the rows of ``matrix``, whose columns must be the
    model's, in the model's order, and whose cells must be finite."""
    if list(matrix.columns) != list(model.columns):
        j, want, got = next(
            (j, want, got) for j, (want, got) in enumerate(
                itertools.zip_longest(model.columns, matrix.columns))
            if want != got)
        raise ManifestMismatch(
            f"feature manifest mismatch: column {j} is {got!r}, but the "
            f"model, trained on {model.n_variables} columns, has {want!r}")
    _check_finite(matrix)
    return _KINDS[model.kind][1](model.params, matrix.X)


def rf_variable_importance(model: TrainedModel) -> list[tuple[str, float]]:
    """(column, importance) pairs, descending; ties keep manifest order."""
    if model.kind != "random_forest":
        raise WrongKind(
            f"variable importance is defined for random_forest models, "
            f"not {model.kind!r}")
    imp = model.params["importance"]
    order = np.argsort(-imp, kind="stable")
    return [(model.columns[j], float(imp[j])) for j in order]


def save_model(model: TrainedModel, path) -> None:
    """Write ``model`` as ``json.dumps`` of it with sorted keys, no
    whitespace and its arrays as lists, and a tree model's trees as the
    table ``_trees.trees_json`` streams, put where ``json.dumps`` wrote an
    empty list: the key ``"trees"`` occurs once, as any quote inside a
    string is escaped. The file's ``format`` key is FORMAT."""
    trees = model.params.get("trees")
    fields = {**vars(model), "format": FORMAT}
    if trees is not None:
        fields["params"] = {**model.params, "trees": []}
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"),
                      default=np.ndarray.tolist)
    with open(path, "w", encoding="utf-8") as fh:
        if trees is not None:
            head, _, text = text.partition('"trees":[]')
            fh.write(head + '"trees":')
            fh.writelines(trees_json(trees))
        fh.write(text + "\n")


def load_model(path) -> TrainedModel:
    """Read a file written by save_model. A file whose ``format`` is not
    FORMAT raises DataError saying to re-run ``edbench train``; any other
    file that is not one raises DataError naming the key that is missing,
    unknown or malformed."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DataError(f"{path}: not a model JSON file: {exc}") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path}: a model file holds one JSON object")
    number = obj.pop("format", None)
    if type(number) is not int or number != FORMAT:
        raise DataError(f"{path}: not a model file of format {FORMAT}, the "
                        "one this version reads; re-run `edbench train`")
    names = [f.name for f in fields(TrainedModel)]
    for key in names:
        if key not in obj:
            raise DataError(f"{path}: model file lacks key {key!r}")
    for key in obj:
        if key not in names:
            raise DataError(f"{path}: model file has unknown key {key!r}")
    kind, columns = obj["kind"], obj["columns"]
    if not isinstance(kind, str):
        raise DataError(f"{path}: 'kind' must be a string")
    if kind not in _KINDS:
        raise ConfigError(f"unknown model kind in file: {kind!r}")
    if not (isinstance(columns, list)
            and all(isinstance(c, str) for c in columns)):
        raise DataError(f"{path}: 'columns' must be a list of strings")
    for key, known in (("task", list(TASKS)), ("time_point", TIME_POINTS)):
        if obj[key] not in known:
            raise DataError(f"{path}: unknown {key!r}: {obj[key]!r}")
    seed, hyper = obj["seed"], obj["hyperparams"]
    if not (isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0):
        raise DataError(f"{path}: 'seed' must be an integer >= 0, got {seed!r}")
    if not isinstance(hyper, dict):
        raise DataError(f"{path}: 'hyperparams' must be an object")
    try:
        resolved = resolve_hyperparams(kind, hyper)
    except (ConfigError, TypeError, ValueError) as exc:  # float() of a str
        raise DataError(f"{path}: 'hyperparams': {exc}") from None
    for key, value in resolved.items():     # as train_model resolved them
        if type(hyper.get(key)) is not type(value):
            raise DataError(f"{path}: 'hyperparams' must hold {key!r} as "
                            f"{type(value).__name__}")
    try:
        _check_params(kind, obj["params"], resolved, len(columns))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    return TrainedModel(**obj)


def _check_params(kind: str, params, hyper: dict, n_columns: int) -> None:
    """Raise ValueError, naming the param, unless ``params`` hold a tree
    model's valid table of as many trees, none deeper, as ``hyper`` says
    and exactly what ``_PARAMS`` asks for ``n_columns`` inputs, or a
    one-class boosting fit's ``constant`` in [0, 1] alone. Makes its trees
    and arrays in place, as ``train_model`` gives them."""
    if not isinstance(params, dict):
        raise ValueError("'params' must be an object")
    one_class = kind == "boosting" and "constant" in params
    shapes = {"constant": ()} if one_class else _PARAMS[kind]
    trees = kind in _TREE_COUNT and not one_class
    if trees:
        params["trees"] = trees_from_json(params.get("trees"), n_columns,
                                          hyper["max_depth"])
        count = _TREE_COUNT[kind]
        if len(params["trees"]) != hyper[count]:
            raise ValueError(f"'trees' holds {len(params['trees'])} trees, "
                             f"but 'hyperparams' {count!r} is {hyper[count]}")
    sizes = {"d": n_columns, "n_stages + 1": hyper.get("n_stages", 0) + 1}
    for name, shape in shapes.items():
        try:
            value = np.asarray(params.get(name))
        except ValueError:                  # ragged nesting
            value = np.empty(0, dtype=object)
        if (value.dtype.kind not in "if" or value.ndim != len(shape)
                or not np.isfinite(value).all()):
            raise ValueError(f"param {name!r} must be a " + (
                f"{len(shape)}-D array of finite numbers" if shape
                else "finite number"))
        expected = tuple(sizes.setdefault(axis, size)
                         for axis, size in zip(shape, value.shape))
        if value.shape != expected:
            raise ValueError(f"param {name!r} has shape {value.shape}, "
                             f"expected {expected}")
        if shape:
            params[name] = value.astype(np.float64, copy=False)
    if one_class and not 0 <= params["constant"] <= 1:
        raise ValueError("param 'constant' must be a number in [0, 1]")
    unknown = params.keys() - {*shapes, *(["trees"] if trees else [])}
    if unknown:
        raise ValueError(f"a {'one-class boosting' if one_class else kind} "
                         f"model holds no param {min(unknown)!r}")
