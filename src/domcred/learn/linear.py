"""Linear classifiers: the elastic-net GLM, and logistic regression as its
binomial fit at lambda = 0.

The one front end standardizes features internally and reports
coefficients on the raw feature scale (the two parameterizations give
identical predictions).  The elastic-net penalty is
lambda * ((1 - alpha)/2 * ||b||_2^2 + alpha * ||b||_1) on the mean loss,
never applied to the intercept.

Every fit, of either family at any lambda, runs one Newton loop with step
halving.  Its step is one linear solve at lambda = 0 and covariance-update
coordinate descent at lambda > 0, so the unpenalized fit is the lambda = 0
case of the proximal Newton loop (Friedman, Hastie & Tibshirani,
"Regularization Paths for Generalized Linear Models via Coordinate
Descent", JSS 33(1), 2010).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import (
    Standardizer,
    TrainingSummary,
    _halving_step,
    binomial_nll,
    independent_columns,
    sigmoid,
)

COEFFICIENT_CAP = 30.0  # on the standardized scale; hit on separable data
_WEIGHT_FLOOR = 1e-10


@dataclass(frozen=True)
class LinearCoefficients:
    """Intercept and one weight per feature column, on the raw input scale."""

    family: str
    intercept: float
    weights: np.ndarray

    def __post_init__(self):
        if self.family not in ("binomial", "gaussian"):
            raise ValueError(f"unknown family {self.family!r}")
        if not np.isfinite(self.intercept) or not np.all(np.isfinite(self.weights)):
            raise ValueError("non-finite coefficients")

    def linear_predictor(self, x: np.ndarray) -> np.ndarray:
        return self.intercept + x @ self.weights

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        eta = self.linear_predictor(x)
        if self.family == "binomial":
            return sigmoid(eta)
        return np.clip(eta, 0.0, 1.0)


def _raw_scale(
    b0: float, beta: np.ndarray, kept: list[int], scaler: Standardizer, n_cols: int
) -> tuple[float, np.ndarray]:
    """Map standardized-scale coefficients back to the raw feature scale."""
    weights = np.zeros(n_cols)
    intercept = b0
    for coef, j in zip(beta, kept):
        weights[j] = coef / scaler.std[j]
        intercept -= coef * scaler.mean[j] / scaler.std[j]
    return intercept, weights


def _solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(matrix + 1e-12 * np.eye(len(rhs)), rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(matrix, rhs, rcond=None)[0]


def _soft_threshold(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def _penalty(beta: np.ndarray, lam: float, alpha: float) -> float:
    return lam * ((1.0 - alpha) / 2.0 * float(beta @ beta) + alpha * float(np.abs(beta).sum()))


def _covariance_cd(
    gram: np.ndarray,
    grad: np.ndarray,
    b: np.ndarray,
    lam: float,
    alpha: float,
    sweeps: int = 1000,
    inner_tol: float = 1e-10,
) -> np.ndarray:
    """Coordinate descent for the penalized Newton step from b.

    Minimizes 0.5 d'Gd - grad'd + penalty((b + d)[1:]) over the step d and
    returns it.  ``gram`` is the weighted [1|Z]'W[1|Z]/n and ``grad`` the
    loss gradient's negative [1|Z]'(y - mu)/n at b.  The quadratic's
    gradient G d - grad starts at -grad and is kept current with one Gram
    column per coordinate change, so a sweep costs O(k^2) and never touches
    the rows.  Coordinate 0 is the unpenalized intercept.
    """
    l1 = lam * alpha
    l2 = lam * (1.0 - alpha)
    diag = np.diag(gram).tolist()
    coef = b.copy()
    running = -grad
    for _ in range(sweeps):
        biggest = 0.0
        for j, g_jj in enumerate(diag):
            old = float(coef[j])
            if j == 0:
                new = old - float(running[0]) / g_jj
            else:
                denom = g_jj + l2
                rho = g_jj * old - float(running[j])
                new = _soft_threshold(rho, l1) / denom if denom > 0 else 0.0
            if new != old:
                running += gram[:, j] * (new - old)
                coef[j] = new
                biggest = max(biggest, abs(new - old))
        if biggest < inner_tol:
            break
    return coef - b


def _newton(
    design: np.ndarray,
    y: np.ndarray,
    family: str,
    lam: float,
    alpha: float,
    max_iter: int,
    tol: float,
) -> tuple[np.ndarray, TrainingSummary]:
    """Newton with step halving on the mean loss plus the penalty.

    Each iteration forms the gradient [1|Z]'(y - mu)/n and the Gram matrix
    [1|Z]'W[1|Z]/n at the current fit (binomial: mu = p, W = p(1 - p)
    floored; gaussian: mu = eta, W = 1), steps by one linear solve at
    lambda = 0 or by coordinate descent at lambda > 0, and stops once a step
    moves no coefficient by ``tol``.  Only the unpenalized binomial fit can
    diverge, so only it clips every coefficient, the intercept included, to
    COEFFICIENT_CAP and reports separation.
    """
    n = len(y)
    binomial = family == "binomial"
    unbounded = binomial and lam == 0.0
    cap = COEFFICIENT_CAP if unbounded else np.inf

    def objective(b: np.ndarray) -> float:
        eta = design @ b
        loss = binomial_nll(eta, y) if binomial else 0.5 * float(np.mean((y - eta) ** 2))
        return loss + _penalty(b[1:], lam, alpha) if lam > 0.0 else loss

    b = np.zeros(design.shape[1])
    loss = objective(b)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        eta = design @ b
        if binomial:
            p = sigmoid(eta)
            w = np.maximum(p * (1.0 - p), _WEIGHT_FLOOR)
            resid = y - p
        else:
            w, resid = 1.0, y - eta
        grad = design.T @ resid / n
        gram = (design.T * w) @ design / n
        if lam > 0.0:
            step = _covariance_cd(gram, grad, b, lam, alpha)
        else:
            step = _solve(gram, grad)
        trial, new_loss = _halving_step(b, step, loss, objective, cap)
        shift = float(np.max(np.abs(trial - b)))
        b, loss = trial, new_loss
        if shift < tol:
            converged = True
            break

    capped = unbounded and bool(np.any(np.abs(b) >= COEFFICIENT_CAP - 1e-12))
    if capped:
        warnings = ("separation suspected: coefficients capped",)
    elif converged:
        warnings = ()
    elif unbounded and np.all(np.sign(design @ b) == 2.0 * y - 1.0):
        # every row strictly on its label's side (Albert & Anderson 1984)
        warnings = (f"separation suspected: max_iter={max_iter} reached on separable data",)
    else:
        warnings = (f"iteration cap reached: max_iter={max_iter} without convergence",)
    return b, TrainingSummary(
        iterations=iterations,
        converged=converged and not capped,
        final_loss=loss,
        warnings=warnings,
    )


def fit_elastic_net(
    x: np.ndarray, y: np.ndarray, hyper, seed: int
) -> tuple[LinearCoefficients, TrainingSummary]:
    """Elastic-net GLM, fit by ``_newton`` for every (family, lambda).

    With lambda = 0 this is unpenalized regression, so exactly-collinear
    columns are dropped first (the penalized problem handles them on its
    own and keeping them is the point of the penalty).  The binomial fit at
    lambda = 0 is how ``logistic`` is fit.
    """
    family = hyper["family"]
    lam = float(hyper["lambda"])
    alpha = float(hyper["alpha"]) if lam > 0.0 else 0.0

    scaler = Standardizer.fit(x)
    z_full = scaler.transform(x)
    if lam == 0.0:
        kept = independent_columns(z_full)
    else:
        kept = [j for j in range(z_full.shape[1]) if np.linalg.norm(z_full[:, j]) > 1e-12]
    design = np.hstack([np.ones((len(y), 1)), z_full[:, kept]])
    b, summary = _newton(
        design, y, family, lam, alpha, int(hyper["max_iter"]), float(hyper["tol"])
    )

    intercept, weights = _raw_scale(b[0], b[1:], kept, scaler, x.shape[1])
    return LinearCoefficients(family=family, intercept=intercept, weights=weights), summary
