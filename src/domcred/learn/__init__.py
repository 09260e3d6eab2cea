"""Seven classifiers behind one train/predict/classify contract."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import FeatureMatrix
from . import boosting, forest, linear, naive_bayes, neural, tree
from .base import ConstantModel, ModelSpec, TrainingSummary, decode_labels, encode_labels

_FITTERS = {
    "naive_bayes": naive_bayes.fit,
    # logistic regression is the binomial elastic net at lambda = 0
    "logistic": lambda x, y, hyper, seed: linear.fit_elastic_net(
        x, y, {**hyper, "family": "binomial", "lambda": 0.0}, seed
    ),
    "glm_elastic_net": linear.fit_elastic_net,
    "decision_tree": tree.fit,
    "random_forest": forest.fit,
    "gradient_boosted_trees": boosting.fit,
    "neural_net": neural.fit,
}

_WARN_ON_CONSTANT = ("logistic", "glm_elastic_net", "neural_net")


@dataclass(frozen=True)
class TrainedModel:
    """A fitted classifier: spec, parameters, and a training summary."""

    spec: ModelSpec
    params: object
    summary: TrainingSummary
    n_features: int

    def predict_proba(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {x.shape[1]}")
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite feature values")
        return np.clip(self.params.predict_proba(x), 0.0, 1.0)

    def classify(self, x) -> list[str]:
        return decode_labels(self.predict_proba(x))


def train_xy(spec: ModelSpec, x: np.ndarray, y: np.ndarray) -> TrainedModel:
    """Fit on a bare (features, 0/1 labels) pair.

    Single-class data short-circuits to a constant model; for the solvers
    that cannot represent it natively (linear, neural) the summary carries a
    warning.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or len(x) != len(y):
        raise ValueError("x must be 2-D with one row per label")
    if len(y) < 2:
        raise ValueError("need at least 2 rows to train")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite feature values")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("labels must encode to 0/1")

    if np.all(y == y[0]):
        warnings = ()
        if spec.algorithm in _WARN_ON_CONSTANT:
            warnings = ("single-class training data: constant model substituted",)
        return TrainedModel(
            spec=spec,
            params=ConstantModel(probability=float(y[0])),
            summary=TrainingSummary(iterations=0, converged=True, warnings=warnings),
            n_features=x.shape[1],
        )

    params, summary = _FITTERS[spec.algorithm](x, y, spec.hyperparameters, spec.seed)
    return TrainedModel(spec=spec, params=params, summary=summary, n_features=x.shape[1])


def train(spec: ModelSpec, matrix: FeatureMatrix) -> TrainedModel:
    """Fit on a labeled feature matrix."""
    if matrix.labels is None:
        raise ValueError("matrix has no labels; training is supervised")
    return train_xy(spec, matrix.x, encode_labels(matrix.labels))
