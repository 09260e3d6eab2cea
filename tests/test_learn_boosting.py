"""Gradient boosting: stagewise losses, weight normalization, degeneracy."""

import math

import numpy as np
import pytest

from domcred.learn import ModelSpec, train_xy
from helpers import blob_data


class TestStagewiseTraining:
    def test_stage_losses_never_increase(self):
        x, y = blob_data(seed=41, n_per=40, gap=1.0)
        model = train_xy(
            ModelSpec("gradient_boosted_trees", hyperparameters={"n_trees": 15}),
            x,
            y,
        )
        losses = np.array(model.params.stage_losses)
        assert len(losses) == 16  # base score plus one per stage
        assert np.all(np.diff(losses) <= 1e-12)
        assert model.summary.final_loss == losses[-1]

    def test_base_score_is_log_odds_of_base_rate(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(40, 3))
        y = np.array([1.0] * 30 + [0.0] * 10)
        model = train_xy(
            ModelSpec("gradient_boosted_trees", hyperparameters={"n_trees": 3}), x, y
        )
        assert model.params.base_score == pytest.approx(math.log(0.75 / 0.25))

    def test_weights_sum_to_one(self):
        x, y = blob_data(seed=43, n_per=30, gap=2.0)
        model = train_xy(
            ModelSpec("gradient_boosted_trees", hyperparameters={"n_trees": 12}),
            x,
            y,
        )
        assert abs(model.params.weights.sum() - 1.0) <= 1e-9
        assert np.all(model.params.weights >= 0.0)

    def test_scores_decompose_into_weighted_members(self):
        x, y = blob_data(seed=44, n_per=25, gap=1.5)
        model = train_xy(
            ModelSpec("gradient_boosted_trees", hyperparameters={"n_trees": 8}), x, y
        )
        params = model.params
        rebuilt = np.full(len(x), params.base_score)
        for w, member in zip(params.weights, params.members):
            rebuilt += w * member.predict(x)
        np.testing.assert_allclose(params.decision_scores(x), rebuilt, atol=1e-12)

    def test_single_stage_model(self):
        x, y = blob_data(seed=45, n_per=25, gap=2.0)
        model = train_xy(
            ModelSpec("gradient_boosted_trees", hyperparameters={"n_trees": 1}), x, y
        )
        assert len(model.params.members) == 1
        assert model.params.weights.tolist() == [1.0]
        # one tree on well-separated blobs already classifies the data
        assert np.array_equal(model.predict_proba(x) >= 0.5, y == 1.0)


class TestSanity:
    def test_separable_blobs_classified(self):
        x, y = blob_data(seed=46, n_per=40, gap=3.0)
        model = train_xy(ModelSpec("gradient_boosted_trees"), x, y)
        assert np.array_equal(model.predict_proba(x) >= 0.5, y == 1.0)

    def test_deterministic(self):
        x, y = blob_data(seed=47, n_per=30, gap=1.0)
        spec = ModelSpec("gradient_boosted_trees", hyperparameters={"n_trees": 6})
        a = train_xy(spec, x, y)
        b = train_xy(spec, x, y)
        assert a.params.base_score == b.params.base_score
        assert a.params.members == b.params.members
        assert np.array_equal(a.params.weights, b.params.weights)
        assert a.params.stage_losses == b.params.stage_losses

    def test_probabilities_in_unit_interval(self):
        x, y = blob_data(seed=48, n_per=30, gap=1.0)
        model = train_xy(
            ModelSpec("gradient_boosted_trees", hyperparameters={"n_trees": 10}), x, y
        )
        probs = model.predict_proba(x)
        assert np.all((probs >= 0.0) & (probs <= 1.0))


class TestDegenerateData:
    def test_constant_features_fall_back_to_base_rate(self):
        # no split candidates anywhere: every stage fits a zero tree and
        # the model must keep predicting the base rate
        x = np.ones((12, 3))
        y = np.array([1.0] * 8 + [0.0] * 4)
        model = train_xy(
            ModelSpec("gradient_boosted_trees", hyperparameters={"n_trees": 5}), x, y
        )
        np.testing.assert_allclose(model.predict_proba(x), 8 / 12, atol=1e-9)
        losses = np.array(model.params.stage_losses)
        np.testing.assert_allclose(losses, losses[0], atol=1e-12)
        assert abs(model.params.weights.sum() - 1.0) <= 1e-9
