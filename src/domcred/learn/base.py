"""Shared model contract: specs, training summaries, helpers, label codec.

Each algorithm module provides ``fit(x, y, hyper, seed) -> (params, summary)``,
where the parameter class has ``predict_proba(x) -> probs``.  The top-level
train() in __init__ wraps them in a TrainedModel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ..corpus.archive import json_value
from ..corpus.types import INFLUENCER, NON_INFLUENCER

ALGORITHMS = (
    "naive_bayes",
    "logistic",
    "glm_elastic_net",
    "decision_tree",
    "random_forest",
    "gradient_boosted_trees",
    "neural_net",
)

DEFAULT_HYPERPARAMETERS: dict[str, dict] = {
    "naive_bayes": {"laplace": True},
    "logistic": {"max_iter": 100, "tol": 1e-8},
    "glm_elastic_net": {
        "family": "binomial",
        "lambda": 0.0,
        "alpha": 0.5,
        "max_iter": 100,
        "tol": 1e-8,
    },
    "decision_tree": {
        "max_depth": 20,
        "confidence": 0.1,
        "minimal_gain": 0.05,
    },
    "random_forest": {
        "n_trees": 100,
        "max_depth": 10,
        "minimal_gain": 0.05,
        "bootstrap": True,
        "feature_subsample": "sqrt",
    },
    "gradient_boosted_trees": {
        "n_trees": 20,
        "max_depth": 10,
        "learning_rate": 0.1,
    },
    "neural_net": {
        "hidden": (50, 50),
        "activation": "rectifier",
        "epochs": 50,
        "l1": 1e-5,
        "l2": 0.0,
        "adaptive_rate": True,
        "rho": 0.99,
        "epsilon": 1e-8,
        "learning_rate": 0.003772,
        "batch_size": 32,
    },
}


def _validate_hyper(algorithm: str, hyper: dict) -> None:
    defaults = DEFAULT_HYPERPARAMETERS[algorithm]
    positive = {
        "max_iter", "tol", "max_depth", "n_trees",
        "learning_rate", "epsilon", "batch_size",
    }
    # epochs = 0 is legal: it leaves the seeded initial weights untouched
    non_negative = {"lambda", "l1", "l2", "minimal_gain", "epochs"}
    for key, value in hyper.items():
        # a bool, int or float setting takes the JSON values of its default's
        # kind; confidence also takes None, and the string and tuple
        # settings have their own rules below
        if type(defaults[key]) in (bool, int, float) and key != "confidence":
            json_value(value, type(defaults[key]), f"{algorithm}.{key}")
        if key in positive and not value > 0:
            raise ValueError(f"{algorithm}.{key} must be > 0, got {value!r}")
        if key in non_negative and not value >= 0:
            raise ValueError(f"{algorithm}.{key} must be >= 0, got {value!r}")
    # ADADELTA's decay weighs old average against new term: 1 freezes, above 1 diverges
    if "rho" in hyper and not 0.0 < hyper["rho"] < 1.0:
        raise ValueError(f"{algorithm}.rho must be in (0, 1), got {hyper['rho']!r}")
    if "alpha" in hyper and not 0.0 <= hyper["alpha"] <= 1.0:
        raise ValueError(f"{algorithm}.alpha must be in [0, 1]")
    if "family" in hyper and hyper["family"] not in ("binomial", "gaussian"):
        raise ValueError(f"{algorithm}: unknown family {hyper['family']!r}")
    if "activation" in hyper and hyper["activation"] not in ("rectifier", "tanh", "maxout"):
        raise ValueError(f"{algorithm}: unknown activation {hyper['activation']!r}")
    if "confidence" in hyper and hyper["confidence"] is not None:
        c = hyper["confidence"]
        if not (type(c) in (int, float) and 0.0 < c < 0.5):
            raise ValueError(f"{algorithm}.confidence must be in (0, 0.5) or None, got {c!r}")
    if "feature_subsample" in hyper:
        fs = hyper["feature_subsample"]
        if not (fs is None or fs == "sqrt" or (type(fs) is int and fs >= 1)):
            raise ValueError(
                f"{algorithm}.feature_subsample must be 'sqrt', int >= 1, or None, got {fs!r}"
            )
    if "hidden" in hyper:
        hidden = hyper["hidden"]
        if not isinstance(hidden, tuple) or not hidden or any(
            type(h) is not int or h < 1 for h in hidden
        ):
            raise ValueError(
                f"{algorithm}.hidden must be a nonempty tuple of ints >= 1, got {hidden!r}"
            )


@dataclass(frozen=True)
class ModelSpec:
    """Algorithm choice plus hyperparameters and a seed."""

    algorithm: str
    hyperparameters: Mapping = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        defaults = DEFAULT_HYPERPARAMETERS[self.algorithm]
        unknown = sorted(set(self.hyperparameters) - set(defaults))
        if unknown:
            raise ValueError(f"{self.algorithm}: unknown hyperparameters {unknown}")
        merged = {**defaults, **dict(self.hyperparameters)}
        if isinstance(merged.get("hidden"), list):
            merged["hidden"] = tuple(merged["hidden"])
        _validate_hyper(self.algorithm, merged)
        object.__setattr__(self, "hyperparameters", MappingProxyType(merged))


@dataclass(frozen=True)
class TrainingSummary:
    iterations: int = 0
    converged: bool = True
    final_loss: float | None = None
    warnings: tuple[str, ...] = ()


def sigmoid(eta: np.ndarray) -> np.ndarray:
    """The logistic function, written with tanh so no exp overflows."""
    return 0.5 * (1.0 + np.tanh(0.5 * eta))


def binomial_nll(eta: np.ndarray, y: np.ndarray) -> float:
    """Mean binomial negative log-likelihood of 0/1 labels y at log-odds eta:
    the mean of log(1 + exp(eta)) - y * eta, computed stably."""
    return float(np.mean(np.logaddexp(0.0, eta) - y * eta))


def _halving_step(
    b: np.ndarray, delta: np.ndarray, loss: float, objective, cap: float = np.inf
) -> tuple[np.ndarray, float]:
    """First of the steps 1, 1/2, ... (30 tries) along delta not raising the loss.

    Each candidate is clipped to [-cap, cap]; when every try raises the
    objective by more than 1e-12, the point stays at b.  The linear Newton
    loop steps a coefficient vector, the boosting line search a scalar.
    """
    step = 1.0
    for _ in range(30):
        candidate = np.clip(b + step * delta, -cap, cap)
        new_loss = objective(candidate)
        if new_loss <= loss + 1e-12:
            return candidate, new_loss
        step /= 2.0
    return b, loss


def encode_labels(labels) -> np.ndarray:
    """Influencer -> 1.0, NonInfluencer -> 0.0."""
    out = np.empty(len(labels))
    for i, label in enumerate(labels):
        if label == INFLUENCER:
            out[i] = 1.0
        elif label == NON_INFLUENCER:
            out[i] = 0.0
        else:
            raise ValueError(f"unknown label {label!r}")
    return out


def decode_labels(probabilities: np.ndarray) -> list[str]:
    """Threshold at 0.5; an exact tie classifies as Influencer."""
    return [INFLUENCER if p >= 0.5 else NON_INFLUENCER for p in probabilities]


@dataclass(frozen=True)
class Standardizer:
    """Column-wise (x - mean) / std; constant columns pass through as zeros."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        std = np.where(std > 0, std, 1.0)
        return cls(mean=mean, std=std)

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std


def independent_columns(x: np.ndarray, tol: float = 1e-8) -> list[int]:
    """Greedy left-to-right selection of linearly independent columns.

    Gram-Schmidt against the kept set; a column whose residual norm falls
    below tol times its own norm is dependent and dropped.
    """
    kept: list[int] = []
    basis: list[np.ndarray] = []
    for j in range(x.shape[1]):
        col = x[:, j].astype(float)
        norm = np.linalg.norm(col)
        if norm <= tol:
            continue
        residual = col.copy()
        for q in basis:
            residual -= (q @ residual) * q
        if np.linalg.norm(residual) > tol * norm:
            kept.append(j)
            basis.append(residual / np.linalg.norm(residual))
    return kept


class ConstantModel:
    """Degenerate model for single-class training data."""

    algorithm = "constant"

    def __init__(self, probability: float):
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.probability = probability

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return np.full(x.shape[0], self.probability)
