"""Prediction models trained on the benchmark feature matrices."""

from .base import (
    DISPLAY_NAMES,
    MODEL_KINDS,
    TrainedModel,
    load_model,
    predict_proba,
    resolve_hyperparams,
    rf_variable_importance,
    save_model,
    train_model,
)
from .features import (
    TASKS,
    TIME_POINTS,
    FeatureMatrix,
    build_feature_matrix,
    load_manifest,
)

__all__ = [
    "DISPLAY_NAMES",
    "MODEL_KINDS",
    "TASKS",
    "TIME_POINTS",
    "FeatureMatrix",
    "TrainedModel",
    "build_feature_matrix",
    "load_manifest",
    "load_model",
    "predict_proba",
    "resolve_hyperparams",
    "rf_variable_importance",
    "save_model",
    "train_model",
]
