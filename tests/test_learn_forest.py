"""Random forest bagging, seeding, and single-member reduction."""

import numpy as np
import pytest

from domcred.learn import ModelSpec, train_xy
from helpers import blob_data


class TestSingleMemberReduction:
    def test_one_tree_no_bagging_equals_unpruned_tree(self):
        # with bagging and feature subsampling off, a one-member forest is
        # a plain unpruned tree, so the classifications must match exactly
        x, y = blob_data(seed=31, n_per=25, n_features=5, gap=1.5)
        x_new, _ = blob_data(seed=77, n_per=40, n_features=5, gap=1.5)
        shared = {"max_depth": 6, "minimal_gain": 0.05}
        forest = train_xy(
            ModelSpec(
                "random_forest",
                hyperparameters={
                    "n_trees": 1,
                    "bootstrap": False,
                    "feature_subsample": None,
                    **shared,
                },
            ),
            x,
            y,
        )
        tree = train_xy(
            ModelSpec(
                "decision_tree", hyperparameters={"confidence": None, **shared}
            ),
            x,
            y,
        )
        assert forest.classify(x_new) == tree.classify(x_new)
        assert forest.params.members[0] == tree.params


class TestDeterminism:
    def test_same_seed_same_forest(self):
        x, y = blob_data(seed=32, n_per=30, gap=1.0)
        spec = ModelSpec("random_forest", hyperparameters={"n_trees": 15}, seed=9)
        a = train_xy(spec, x, y)
        b = train_xy(spec, x, y)
        assert a.params == b.params
        np.testing.assert_array_equal(a.predict_proba(x), b.predict_proba(x))

    def test_different_seed_different_members(self):
        x, y = blob_data(seed=32, n_per=30, gap=1.0)
        hyper = {"n_trees": 15}
        a = train_xy(ModelSpec("random_forest", hyperparameters=hyper, seed=1), x, y)
        b = train_xy(ModelSpec("random_forest", hyperparameters=hyper, seed=2), x, y)
        assert a.params != b.params

    def test_members_differ_within_forest(self):
        # bootstrap resamples differ per member even on identical data
        x, y = blob_data(seed=33, n_per=30, gap=1.0)
        model = train_xy(
            ModelSpec("random_forest", hyperparameters={"n_trees": 10}), x, y
        )
        members = model.params.members
        assert any(m != members[0] for m in members[1:])


class TestVotes:
    def test_probability_is_vote_fraction(self):
        x, y = blob_data(seed=34, n_per=25, gap=1.0)
        n_trees = 13
        model = train_xy(
            ModelSpec("random_forest", hyperparameters={"n_trees": n_trees}), x, y
        )
        probs = model.predict_proba(x)
        counts = probs * n_trees
        np.testing.assert_allclose(counts, np.round(counts), atol=1e-9)
        assert np.all((probs >= 0.0) & (probs <= 1.0))

    def test_separable_blobs_classified(self):
        x, y = blob_data(seed=35, n_per=30, gap=4.0)
        model = train_xy(
            ModelSpec("random_forest", hyperparameters={"n_trees": 20}), x, y
        )
        assert np.array_equal(model.predict_proba(x) >= 0.5, y == 1.0)
        assert model.summary.iterations == 20

    def test_feature_subsample_int_setting(self):
        x, y = blob_data(seed=36, n_per=20, n_features=6, gap=3.0)
        model = train_xy(
            ModelSpec(
                "random_forest",
                hyperparameters={"n_trees": 8, "feature_subsample": 2},
            ),
            x,
            y,
        )
        accuracy = np.mean((model.predict_proba(x) >= 0.5) == (y == 1.0))
        assert accuracy > 0.9
