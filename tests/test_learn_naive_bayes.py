"""Gaussian naive Bayes against a direct-density oracle."""

import math

import numpy as np
import pytest

from domcred.learn import ModelSpec, train_xy
from domcred.learn.naive_bayes import VARIANCE_FLOOR
from helpers import blob_data


def brute_posterior(x, y, query, laplace):
    """Posterior P(class 1 | row) from raw products of Gaussian densities."""
    n = len(y)
    counts = [float(np.sum(y == 0)), float(np.sum(y == 1))]
    if laplace:
        priors = [(c + 1.0) / (n + 2.0) for c in counts]
        floor = VARIANCE_FLOOR
    else:
        priors = [c / n for c in counts]
        floor = float(np.finfo(float).tiny)

    out = []
    for row in query:
        joint = []
        for c in (0, 1):
            rows = x[y == c]
            density = priors[c]
            for j in range(x.shape[1]):
                mu = rows[:, j].mean()
                var = max(rows[:, j].var(), floor)
                density *= math.exp(-((row[j] - mu) ** 2) / (2 * var)) / math.sqrt(
                    2 * math.pi * var
                )
            joint.append(density)
        out.append(joint[1] / (joint[0] + joint[1]))
    return np.array(out)


class TestAgainstOracle:
    @pytest.mark.parametrize("laplace", [True, False])
    def test_posteriors_match_direct_products(self, laplace):
        x, y = blob_data(seed=7, n_per=20, n_features=3, gap=2.0)
        model = train_xy(
            ModelSpec("naive_bayes", hyperparameters={"laplace": laplace}), x, y
        )
        query = x[:10]
        expected = brute_posterior(x, y, query, laplace)
        np.testing.assert_allclose(model.predict_proba(query), expected, atol=1e-10)

    def test_log_space_survives_density_underflow(self):
        # wide features make every raw density product underflow to 0.0,
        # which breaks the direct-product oracle but not the log-space model
        rng = np.random.default_rng(4)
        x = np.vstack(
            [rng.normal(0, 100, (15, 150)), rng.normal(5, 100, (15, 150))]
        )
        y = np.concatenate([np.zeros(15), np.ones(15)])
        model = train_xy(ModelSpec("naive_bayes"), x, y)

        # the plain-product posterior would be 0/0 here
        raw_joint = np.exp(model.params.log_joint(x))
        assert np.all(raw_joint == 0.0)

        probs = model.predict_proba(x)
        assert np.all(np.isfinite(probs))
        assert np.all((probs >= 0) & (probs <= 1))
        assert np.array_equal(probs >= 0.5, y == 1.0)


class TestPriors:
    def test_laplace_smooths_counts(self):
        x, y = blob_data(seed=0, n_per=10, n_features=2)
        model = train_xy(ModelSpec("naive_bayes"), x, y)
        np.testing.assert_allclose(
            np.exp(model.params.log_prior), [11 / 22, 11 / 22]
        )

    def test_raw_priors_are_frequencies(self):
        x = np.random.default_rng(1).normal(size=(10, 2))
        y = np.array([1.0] * 7 + [0.0] * 3)
        model = train_xy(
            ModelSpec("naive_bayes", hyperparameters={"laplace": False}), x, y
        )
        np.testing.assert_allclose(np.exp(model.params.log_prior), [0.3, 0.7])

    def test_unbalanced_laplace(self):
        x = np.random.default_rng(2).normal(size=(8, 2))
        y = np.array([1.0] * 6 + [0.0] * 2)
        model = train_xy(ModelSpec("naive_bayes"), x, y)
        np.testing.assert_allclose(np.exp(model.params.log_prior), [3 / 10, 7 / 10])


class TestVarianceFloor:
    def test_constant_feature_floored(self):
        x = np.column_stack([np.full(10, 5.0), np.arange(10.0)])
        y = np.array([0.0] * 5 + [1.0] * 5)
        model = train_xy(ModelSpec("naive_bayes"), x, y)
        assert model.params.var[0, 0] == VARIANCE_FLOOR
        assert model.params.var[1, 0] == VARIANCE_FLOOR
        # the informative feature keeps its sample variance
        assert model.params.var[0, 1] == pytest.approx(np.arange(5.0).var())

    def test_floor_keeps_predictions_finite(self):
        x = np.column_stack([np.full(10, 5.0), np.arange(10.0)])
        y = np.array([0.0] * 5 + [1.0] * 5)
        for laplace in (True, False):
            model = train_xy(
                ModelSpec("naive_bayes", hyperparameters={"laplace": laplace}), x, y
            )
            assert np.all(np.isfinite(model.predict_proba(x)))


class TestSanity:
    def test_separable_blobs_classified(self):
        x, y = blob_data(seed=3, n_per=30, gap=4.0)
        model = train_xy(ModelSpec("naive_bayes"), x, y)
        assert np.mean((model.predict_proba(x) >= 0.5) == (y == 1.0)) == 1.0
        assert model.summary.converged
        assert math.isfinite(model.summary.final_loss)

    def test_cross_entropy_never_negative_on_separable_data(self):
        # the blobs sit far enough apart that every training posterior is
        # exactly 0.0 or 1.0 in float64
        x, y = blob_data(seed=3, n_per=30, gap=40.0)
        model = train_xy(ModelSpec("naive_bayes"), x, y)
        assert set(model.predict_proba(x)) == {0.0, 1.0}
        assert model.summary.final_loss >= 0.0
