"""Gaussian naive Bayes with optional smoothing, evaluated in log space."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import TrainingSummary

VARIANCE_FLOOR = 1e-9


@dataclass(frozen=True)
class NaiveBayesModel:
    """Class priors plus per-class Gaussian conditionals per feature."""

    log_prior: np.ndarray  # shape (2,), classes ordered (negative, positive)
    mean: np.ndarray  # shape (2, n_features)
    var: np.ndarray  # shape (2, n_features)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        log_post = self.log_joint(x)
        shifted = log_post - log_post.max(axis=1, keepdims=True)
        weights = np.exp(shifted)
        return weights[:, 1] / weights.sum(axis=1)

    def log_joint(self, x: np.ndarray) -> np.ndarray:
        """log P(c) + sum_i log N(x_i; mean, var) for both classes."""
        out = np.empty((x.shape[0], 2))
        for c in range(2):
            z = (x - self.mean[c]) ** 2 / self.var[c]
            log_pdf = -0.5 * (np.log(2.0 * np.pi * self.var[c]) + z)
            out[:, c] = self.log_prior[c] + log_pdf.sum(axis=1)
        return out


def fit(x: np.ndarray, y: np.ndarray, hyper, seed: int) -> tuple[NaiveBayesModel, TrainingSummary]:
    """Class priors, means and floored variances from the training rows.

    With ``laplace`` on, class counts get add-one smoothing and variances are
    floored at 1e-9 so a zero-variance feature cannot blow up the posterior.
    Without it priors are raw frequencies and variances are floored only at
    the smallest positive float, keeping the delta-function limit finite.
    """
    laplace = bool(hyper["laplace"])
    n = len(y)
    counts = np.array([np.sum(y == 0), np.sum(y == 1)], dtype=float)
    if laplace:
        prior = (counts + 1.0) / (n + 2.0)
    else:
        prior = counts / n

    mean = np.empty((2, x.shape[1]))
    var = np.empty((2, x.shape[1]))
    floor = VARIANCE_FLOOR if laplace else float(np.finfo(float).tiny)
    for c in range(2):
        rows = x[y == c]
        mean[c] = rows.mean(axis=0)
        var[c] = np.maximum(rows.var(axis=0), floor)

    model = NaiveBayesModel(log_prior=np.log(prior), mean=mean, var=var)
    eps = 1e-12
    probs = np.clip(model.predict_proba(x), eps, 1.0 - eps)
    nll = -float(np.mean(y * np.log(probs) + (1 - y) * np.log(1.0 - probs)))
    return model, TrainingSummary(iterations=1, converged=True, final_loss=nll)
