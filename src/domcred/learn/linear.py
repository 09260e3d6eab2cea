"""Linear classifiers: IRLS logistic regression and elastic-net GLM.

Both standardize features internally and report coefficients on the raw
feature scale (the two parameterizations give identical predictions).  The
elastic-net penalty is lambda * ((1 - alpha)/2 * ||b||_2^2 + alpha * ||b||_1)
on the mean loss, never applied to the intercept.

Each problem goes through exactly one solver.  Unpenalized binomial fits
(``logistic``, and ``glm_elastic_net`` at lambda = 0) share one Newton /
IRLS loop; the unpenalized gaussian fit is a single linear solve; penalized
fits of either family run covariance-update coordinate descent inside a
proximal Newton loop (Friedman, Hastie & Tibshirani, "Regularization Paths
for Generalized Linear Models via Coordinate Descent", JSS 33(1), 2010).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .base import Standardizer, TrainingSummary, independent_columns

COEFFICIENT_CAP = 30.0  # on the standardized scale; hit on separable data
_WEIGHT_FLOOR = 1e-10


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * eta))


def _binomial_nll(eta: np.ndarray, y: np.ndarray) -> float:
    # mean of log(1 + exp(eta)) - y*eta, computed stably
    return float(np.mean(np.logaddexp(0.0, eta) - y * eta))


@dataclass(frozen=True)
class LinearCoefficients:
    """Intercept and one weight per feature column, on the raw input scale."""

    family: str
    intercept: float
    weights: np.ndarray
    lambda_: float = 0.0
    alpha: float = 0.0
    p_values: tuple[float, ...] | None = None

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
            return _sigmoid(eta)
        return np.clip(eta, 0.0, 1.0)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "intercept": self.intercept,
            "weights": self.weights.tolist(),
            "lambda": self.lambda_,
            "alpha": self.alpha,
            "p_values": list(self.p_values) if self.p_values is not None else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LinearCoefficients":
        return cls(
            family=d["family"],
            intercept=d["intercept"],
            weights=np.array(d["weights"]),
            lambda_=d["lambda"],
            alpha=d["alpha"],
            p_values=tuple(d["p_values"]) if d["p_values"] is not None else None,
        )


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


def _halving_step(
    b: np.ndarray, delta: np.ndarray, loss: float, objective, cap: float = np.inf
) -> tuple[np.ndarray, float]:
    """First of the steps 1, 1/2, ... (30 tries) along delta not raising the loss.

    Each candidate is clipped to [-cap, cap]; when every try raises the
    objective, the point stays at b.
    """
    step = 1.0
    for _ in range(30):
        candidate = np.clip(b + step * delta, -cap, cap)
        new_loss = objective(candidate)
        if new_loss <= loss + 1e-12:
            return candidate, new_loss
        step /= 2.0
    return b, loss


def _summary(
    iterations: int, converged: bool, loss: float, capped: bool, max_iter: int
) -> TrainingSummary:
    """Training summary that says why a solver stopped short."""
    if capped:
        warnings = ("separation suspected: coefficients capped",)
    elif not converged:
        warnings = (f"iteration cap reached: max_iter={max_iter} without convergence",)
    else:
        warnings = ()
    return TrainingSummary(
        iterations=iterations,
        converged=converged and not capped,
        final_loss=loss,
        warnings=warnings,
    )


def _irls(
    design: np.ndarray, y: np.ndarray, max_iter: int, tol: float, cap: float
) -> tuple[np.ndarray, np.ndarray, TrainingSummary]:
    """Newton / IRLS with step halving on the mean binomial loss.

    Every coefficient, the intercept column included, is clipped to
    [-cap, cap]; perfectly separable data drives them there, and the fit is
    then flagged non-converged with a warning instead of diverging.  The
    loop stops once a step moves no coefficient by ``tol`` or more.
    Returns the coefficients, the last Hessian and the summary.
    """
    n, k = design.shape
    b = np.zeros(k)
    nll = _binomial_nll(design @ b, y)
    converged = False
    iterations = 0
    hessian = np.eye(k)

    for iterations in range(1, max_iter + 1):
        eta = design @ b
        p = _sigmoid(eta)
        w = np.maximum(p * (1.0 - p), _WEIGHT_FLOOR)
        grad = design.T @ (y - p) / n
        hessian = (design.T * w) @ design / n
        candidate, new_nll = _halving_step(
            b, _solve(hessian, grad), nll, lambda c: _binomial_nll(design @ c, y), cap
        )
        shift = float(np.max(np.abs(candidate - b), initial=0.0))
        b, nll = candidate, new_nll
        if shift < tol:
            converged = True
            break

    capped = bool(np.any(np.abs(b) >= cap - 1e-12))
    return b, hessian, _summary(iterations, converged, nll, capped, max_iter)


def fit_logistic(
    x: np.ndarray, y: np.ndarray, hyper, seed: int
) -> tuple[LinearCoefficients, TrainingSummary]:
    """Unpenalized logistic regression by the shared IRLS loop, with p-values."""
    max_iter = int(hyper["max_iter"])
    tol = float(hyper["tol"])
    cap = float(hyper["coefficient_cap"])
    use_intercept = bool(hyper["intercept"])

    scaler = Standardizer.fit(x)
    z = scaler.transform(x)
    if hyper["remove_collinear"]:
        kept = independent_columns(z)
    else:
        kept = [j for j in range(z.shape[1]) if np.linalg.norm(z[:, j]) > 1e-12]

    n = len(y)
    design_parts = []
    if use_intercept:
        design_parts.append(np.ones((n, 1)))
    design_parts.append(z[:, kept])
    design = np.hstack(design_parts)

    b, hessian, summary = _irls(design, y, max_iter, tol, cap)

    p_values = None
    if hyper["compute_p_values"]:
        p_values = [float("nan")] * x.shape[1]
        try:
            cov = np.linalg.inv(hessian * n)
            se = np.sqrt(np.maximum(np.diag(cov), 0.0))
            offset = 1 if use_intercept else 0
            normal = NormalDist()
            for idx, j in enumerate(kept):
                s = se[offset + idx]
                if s > 0:
                    zscore = b[offset + idx] / s
                    p_values[j] = 2.0 * (1.0 - normal.cdf(abs(zscore)))
        except np.linalg.LinAlgError:
            pass

    b0 = b[0] if use_intercept else 0.0
    beta = b[1:] if use_intercept else b
    intercept, weights = _raw_scale(b0, beta, kept, scaler, x.shape[1])

    model = LinearCoefficients(
        family="binomial",
        intercept=intercept,
        weights=weights,
        p_values=tuple(p_values) if p_values is not None else None,
    )
    return model, summary


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
    score: np.ndarray,
    b: np.ndarray,
    lam: float,
    alpha: float,
    sweeps: int = 1000,
    inner_tol: float = 1e-10,
) -> np.ndarray:
    """Coordinate descent on 0.5 b'Gb - score'b + penalty(b[1:]), in place.

    ``gram`` and ``score`` are the weighted [1|Z]'W[1|Z]/n and
    [1|Z]'W target/n.  The gradient G b - score is kept current with one
    Gram column per coordinate change, so a sweep costs O(k^2) and never
    touches the rows.  Coordinate 0 is the unpenalized intercept.
    """
    l1 = lam * alpha
    l2 = lam * (1.0 - alpha)
    diag = np.diag(gram).tolist()
    grad = gram @ b - score
    for _ in range(sweeps):
        biggest = 0.0
        for j, g_jj in enumerate(diag):
            old = float(b[j])
            if j == 0:
                new = old - float(grad[0]) / g_jj
            else:
                denom = g_jj + l2
                rho = g_jj * old - float(grad[j])
                new = _soft_threshold(rho, l1) / denom if denom > 0 else 0.0
            if new != old:
                grad += gram[:, j] * (new - old)
                b[j] = new
                biggest = max(biggest, abs(new - old))
        if biggest < inner_tol:
            break
    return b


def _penalized(
    design: np.ndarray,
    y: np.ndarray,
    family: str,
    lam: float,
    alpha: float,
    max_iter: int,
    tol: float,
) -> tuple[np.ndarray, TrainingSummary]:
    """Proximal Newton around covariance-update coordinate descent.

    Each outer iteration forms the working weights and response at the
    current fit (weight 1 and the label itself for gaussian), builds the
    weighted Gram matrix once, solves the penalized quadratic by coordinate
    descent warm-started at the current coefficients, and halves the step
    until the penalized objective does not increase.  It stops once an
    outer step moves no coefficient by ``tol`` or more.
    """
    n = len(y)

    def objective(b: np.ndarray) -> float:
        eta = design @ b
        if family == "binomial":
            loss = _binomial_nll(eta, y)
        else:
            loss = 0.5 * float(np.mean((y - eta) ** 2))
        return loss + _penalty(b[1:], lam, alpha)

    b = np.zeros(design.shape[1])
    loss = objective(b)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if family == "binomial":
            eta = design @ b
            p = _sigmoid(eta)
            w = np.maximum(p * (1.0 - p), _WEIGHT_FLOOR)
            target = eta + (y - p) / w
        else:
            w, target = np.ones(n), y
        weighted = design.T * w
        solution = _covariance_cd(
            weighted @ design / n, weighted @ target / n, b.copy(), lam, alpha
        )
        trial, new_loss = _halving_step(b, solution - b, loss, objective)
        shift = float(np.max(np.abs(trial - b)))
        b, loss = trial, new_loss
        if shift < tol:
            converged = True
            break
    return b, _summary(iterations, converged, loss, False, max_iter)


def fit_elastic_net(
    x: np.ndarray, y: np.ndarray, hyper, seed: int
) -> tuple[LinearCoefficients, TrainingSummary]:
    """Elastic-net GLM; one solver per (family, lambda).

    With lambda = 0 this is unpenalized regression, so exactly-collinear
    columns are dropped first (the penalized problem handles them on its
    own and keeping them is the point of the penalty).  Binomial then runs
    the IRLS loop of ``fit_logistic`` and gaussian is one linear solve of
    the normal equations; lambda > 0 runs ``_penalized``.
    """
    family = hyper["family"]
    lam = float(hyper["lambda"])
    alpha = float(hyper["alpha"])
    max_iter = int(hyper["max_iter"])
    tol = float(hyper["tol"])

    scaler = Standardizer.fit(x)
    z_full = scaler.transform(x)
    if lam == 0.0:
        kept = independent_columns(z_full)
    else:
        kept = [j for j in range(z_full.shape[1]) if np.linalg.norm(z_full[:, j]) > 1e-12]
    n = len(y)
    design = np.hstack([np.ones((n, 1)), z_full[:, kept]])

    if lam > 0.0:
        b, summary = _penalized(design, y, family, lam, alpha, max_iter, tol)
    elif family == "binomial":
        b, _, summary = _irls(design, y, max_iter, tol, COEFFICIENT_CAP)
    else:
        b = _solve(design.T @ design / n, design.T @ y / n)
        loss = 0.5 * float(np.mean((y - design @ b) ** 2))
        summary = TrainingSummary(iterations=1, converged=True, final_loss=loss)

    intercept, weights = _raw_scale(b[0], b[1:], kept, scaler, x.shape[1])
    model = LinearCoefficients(
        family=family, intercept=intercept, weights=weights, lambda_=lam, alpha=alpha
    )
    return model, summary
