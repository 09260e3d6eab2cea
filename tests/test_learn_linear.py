"""Logistic regression and the elastic-net solver."""

import math

import numpy as np
import pytest

from domcred.learn import ModelSpec, train_xy
from domcred.learn.base import Standardizer
from helpers import blob_data


def sigmoid(eta):
    return 1.0 / (1.0 + np.exp(-eta))


class TestLogistic:
    def test_uninformative_features_give_base_rate(self):
        # constant columns are dropped, leaving only the intercept, which
        # must land on the log-odds of the training base rate
        x = np.zeros((10, 3))
        y = np.array([1.0] * 7 + [0.0] * 3)
        model = train_xy(ModelSpec("logistic"), x, y)
        assert model.params.intercept == pytest.approx(math.log(0.7 / 0.3), abs=1e-6)
        np.testing.assert_allclose(model.predict_proba(x), 0.7, atol=1e-6)
        assert model.summary.converged

    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4000, 2))
        eta = -0.5 + 1.2 * x[:, 0] - 0.7 * x[:, 1]
        y = (rng.uniform(size=4000) < sigmoid(eta)).astype(float)
        model = train_xy(ModelSpec("logistic"), x, y)
        assert model.params.intercept == pytest.approx(-0.5, abs=0.15)
        assert model.params.weights[0] == pytest.approx(1.2, abs=0.15)
        assert model.params.weights[1] == pytest.approx(-0.7, abs=0.15)

    def test_separable_data_capped_with_warning(self):
        # points hugging the boundary keep the Hessian alive, so Newton
        # pushes the coefficient all the way to the cap
        x = np.concatenate([np.linspace(-1, -0.01, 10), np.linspace(0.01, 1, 10)])
        y = np.concatenate([np.zeros(10), np.ones(10)])
        model = train_xy(ModelSpec("logistic"), x.reshape(-1, 1), y)
        assert not model.summary.converged
        assert any("separation" in w for w in model.summary.warnings)
        # capped, not diverged: predictions stay finite and perfect
        probs = model.predict_proba(x.reshape(-1, 1))
        assert np.all(np.isfinite(probs))
        assert np.array_equal(probs >= 0.5, y == 1.0)

    def test_wide_margin_separable_stays_finite(self):
        x, y = blob_data(seed=2, n_per=20, gap=8.0)
        model = train_xy(ModelSpec("logistic"), x, y)
        assert not model.summary.converged
        probs = model.predict_proba(x)
        assert np.all(np.isfinite(probs))
        assert np.array_equal(probs >= 0.5, y == 1.0)

    def test_loss_beats_null_model(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(200, 3))
        y = (x[:, 0] + 0.5 * rng.normal(size=200) > 0).astype(float)
        model = train_xy(ModelSpec("logistic"), x, y)
        null_loss = -np.mean(
            y * np.log(y.mean()) + (1 - y) * np.log(1 - y.mean())
        )
        assert model.summary.final_loss < null_loss

    def test_collinear_column_dropped(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=100)
        b = rng.normal(size=100)
        x = np.column_stack([a, b, a + b])
        y = (a > 0).astype(float) * (rng.uniform(size=100) < 0.9)
        model = train_xy(ModelSpec("logistic"), x, y)
        assert model.params.weights[2] == 0.0
        assert model.params.weights[0] != 0.0

    def test_iteration_cap_respected(self):
        x, y = blob_data(seed=2, n_per=20, gap=8.0)
        model = train_xy(
            ModelSpec("logistic", hyperparameters={"max_iter": 3}), x, y
        )
        assert model.summary.iterations <= 3


@pytest.mark.parametrize(
    "algorithm, hyper",
    [
        ("logistic", {"max_iter": 3}),
        ("glm_elastic_net", {"max_iter": 3}),
        ("glm_elastic_net", {"max_iter": 3, "lambda": 0.01}),
        # the gaussian quadratic is solved within one outer iteration, and
        # the second confirms it, so only a cap of 1 stops it short
        ("glm_elastic_net", {"max_iter": 1, "lambda": 0.01, "family": "gaussian"}),
    ],
)
def test_iteration_cap_says_why(algorithm, hyper):
    x, y = blob_data()
    model = train_xy(ModelSpec(algorithm, hyperparameters=hyper), x, y)
    assert model.summary.iterations == hyper["max_iter"]
    assert not model.summary.converged
    assert model.summary.warnings == (
        f"iteration cap reached: max_iter={hyper['max_iter']} without convergence",
    )


def _kkt_residuals(model, x, y, lam, alpha):
    """Stationarity residuals of the penalized mean loss, standardized scale.

    Returns the intercept's gradient, the residual of every nonzero
    coefficient, and the gradient of every zero coefficient minus the
    subgradient bound lambda * alpha (<= 0 when the conditions hold).
    """
    scaler = Standardizer.fit(x)
    z = scaler.transform(x)
    beta = model.params.weights * scaler.std
    eta = model.params.linear_predictor(x)
    mu = sigmoid(eta) if model.params.family == "binomial" else eta
    grad = z.T @ (mu - y) / len(y)
    nonzero = beta != 0.0
    stationarity = (
        grad[nonzero]
        + lam * (1.0 - alpha) * beta[nonzero]
        + lam * alpha * np.sign(beta[nonzero])
    )
    slack = np.abs(grad[~nonzero]) - lam * alpha
    return float(np.mean(mu - y)), stationarity, slack


class TestElasticNetSolver:
    def test_unpenalized_binomial_is_the_logistic_fit(self):
        # lambda = 0 runs the same IRLS loop as logistic: identical bits
        rng = np.random.default_rng(21)
        x = rng.normal(size=(300, 4))
        eta = 0.2 + x @ np.array([0.9, -0.6, 0.0, 0.3])
        y = (rng.uniform(size=300) < sigmoid(eta)).astype(float)
        irls = train_xy(ModelSpec("logistic"), x, y)
        net = train_xy(ModelSpec("glm_elastic_net"), x, y)
        assert net.params.intercept == irls.params.intercept
        assert np.array_equal(net.params.weights, irls.params.weights)
        assert net.summary == irls.summary

    @pytest.mark.parametrize("family", ["binomial", "gaussian"])
    # lambda = 0 checks the unpenalized fits against their score equations
    @pytest.mark.parametrize("lam, alpha", [(0.03, 1.0), (0.05, 0.5), (0.1, 0.0), (0.0, 0.5)])
    def test_penalized_fit_meets_kkt_conditions(self, family, lam, alpha):
        rng = np.random.default_rng(22)
        n = 300
        signal = rng.normal(size=(n, 2))
        noise = rng.normal(size=(n, 3))
        x = np.column_stack([signal, noise]) * np.array([1.0, 4.0, 0.5, 2.0, 1.0]) + 3.0
        y = (signal @ np.array([1.5, -0.8]) + 0.5 * rng.normal(size=n) > 0).astype(float)
        model = train_xy(
            ModelSpec(
                "glm_elastic_net",
                hyperparameters={"family": family, "lambda": lam, "alpha": alpha},
            ),
            x,
            y,
        )
        assert model.summary.converged
        intercept_grad, stationarity, slack = _kkt_residuals(model, x, y, lam, alpha)
        assert abs(intercept_grad) < 1e-6
        assert np.all(np.abs(stationarity) < 1e-6)
        assert np.all(slack <= 1e-6)
        # the signal columns survive every penalty tried here
        assert np.all(model.params.weights[:2] != 0.0)
        if alpha == 1.0:
            # a pure lasso at this strength zeroes some noise column
            assert len(slack) > 0


class TestElasticNetBinomial:
    def test_unpenalized_matches_logistic(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(300, 4))
        eta = 0.3 + x[:, 0] - 0.8 * x[:, 2]
        y = (rng.uniform(size=300) < sigmoid(eta)).astype(float)
        irls = train_xy(ModelSpec("logistic"), x, y)
        net = train_xy(
            ModelSpec(
                "glm_elastic_net",
                hyperparameters={"lambda": 0.0, "max_iter": 200},
            ),
            x,
            y,
        )
        np.testing.assert_allclose(
            net.predict_proba(x), irls.predict_proba(x), atol=1e-4
        )

    def test_ridge_splits_duplicated_column(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=200)
        y = (a + 0.3 * rng.normal(size=200) > 0).astype(float)
        x = np.column_stack([a, a])
        model = train_xy(
            ModelSpec(
                "glm_elastic_net",
                hyperparameters={"lambda": 0.1, "alpha": 0.0},
            ),
            x,
            y,
        )
        w = model.params.weights
        assert w[0] != 0.0
        assert w[0] == pytest.approx(w[1], rel=1e-4)

    def test_lasso_zeroes_one_duplicate(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=200)
        y = (a + 0.3 * rng.normal(size=200) > 0).astype(float)
        x = np.column_stack([a, a])
        model = train_xy(
            ModelSpec(
                "glm_elastic_net",
                hyperparameters={"lambda": 0.05, "alpha": 1.0},
            ),
            x,
            y,
        )
        w = model.params.weights
        # one duplicate absorbs the whole effect, the other collapses to
        # numerical dust under the soft threshold
        assert min(np.abs(w)) < 1e-10 * max(np.abs(w))
        assert max(np.abs(w)) > 0.1

    def test_heavy_penalty_flattens_weights(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(100, 3))
        y = (x[:, 0] > 0).astype(float)
        model = train_xy(
            ModelSpec("glm_elastic_net", hyperparameters={"lambda": 100.0}), x, y
        )
        np.testing.assert_allclose(model.params.weights, 0.0, atol=1e-8)
        np.testing.assert_allclose(
            model.predict_proba(x), y.mean(), atol=1e-6
        )

    def test_light_lasso_keeps_signal_drops_noise(self):
        rng = np.random.default_rng(12)
        n = 400
        signal = rng.normal(size=n)
        noise = rng.normal(size=(n, 3))
        y = (signal + 0.2 * rng.normal(size=n) > 0).astype(float)
        x = np.column_stack([signal, noise])
        model = train_xy(
            ModelSpec(
                "glm_elastic_net",
                hyperparameters={"lambda": 0.02, "alpha": 1.0},
            ),
            x,
            y,
        )
        w = model.params.weights
        assert abs(w[0]) > 0.1
        assert np.all(np.abs(w[1:]) < abs(w[0]) / 3)


class TestElasticNetGaussian:
    def test_recovers_linear_relationship(self):
        x = np.linspace(0, 1, 50).reshape(-1, 1)
        y = 0.2 + 0.6 * x[:, 0]
        model = train_xy(
            ModelSpec(
                "glm_elastic_net",
                hyperparameters={"family": "gaussian", "lambda": 0.0},
            ),
            x,
            (y >= 0.5).astype(float),
        )
        # supervised on 0/1 targets, but the fit is least squares
        probs = model.predict_proba(x)
        assert np.all((probs >= 0.0) & (probs <= 1.0))

    def test_predictions_clipped_to_unit_interval(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(60, 1)) * 3
        y = (x[:, 0] > 0).astype(float)
        model = train_xy(
            ModelSpec(
                "glm_elastic_net",
                hyperparameters={"family": "gaussian", "lambda": 0.0},
            ),
            x,
            y,
        )
        extreme = np.array([[50.0], [-50.0]])
        probs = model.predict_proba(extreme)
        assert probs[0] == 1.0
        assert probs[1] == 0.0
        # the raw linear predictor is far outside before clipping
        eta = model.params.linear_predictor(extreme)
        assert eta[0] > 1.0 and eta[1] < 0.0

    def test_gaussian_least_squares_solution(self):
        # with lambda = 0 the fit is exactly ordinary least squares
        rng = np.random.default_rng(14)
        x = rng.normal(size=(80, 2))
        y = np.clip(0.4 + 0.1 * x[:, 0] - 0.05 * x[:, 1] + 0.01 * rng.normal(size=80), 0, 1)
        model = train_xy(
            ModelSpec(
                "glm_elastic_net",
                hyperparameters={"family": "gaussian", "lambda": 0.0},
            ),
            x,
            (y >= y.mean()).astype(float),
        )
        target = (y >= y.mean()).astype(float)
        design = np.column_stack([np.ones(80), x])
        beta, *_ = np.linalg.lstsq(design, target, rcond=None)
        assert model.params.intercept == pytest.approx(beta[0], abs=1e-6)
        np.testing.assert_allclose(model.params.weights, beta[1:], atol=1e-6)
