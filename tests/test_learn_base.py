"""Model specs, shared helpers, and the train contract."""

import numpy as np
import pytest

from domcred.learn import ConstantModel, ModelSpec, decode_labels, encode_labels, train, train_xy
from domcred.learn.base import Standardizer, _halving_step, independent_columns
from domcred.corpus.types import INFLUENCER, NON_INFLUENCER
from domcred.features import FeatureMatrix
from helpers import blob_data


class TestModelSpec:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            ModelSpec(algorithm="svm")

    def test_unknown_hyperparameter(self):
        with pytest.raises(ValueError, match="unknown hyperparameters"):
            ModelSpec(algorithm="naive_bayes", hyperparameters={"bandwidth": 2})
        # the split criterion is fixed to gain ratio, not a setting
        with pytest.raises(ValueError, match="unknown hyperparameters"):
            ModelSpec(algorithm="decision_tree", hyperparameters={"criterion": "gain_ratio"})
        # logistic is the binomial elastic net at lambda = 0: it always fits an
        # intercept, drops dependent columns and caps its coefficients
        fixed = {"remove_collinear": False, "intercept": False, "coefficient_cap": 5.0}
        for key, value in fixed.items():
            with pytest.raises(ValueError, match="unknown hyperparameters"):
                ModelSpec(algorithm="logistic", hyperparameters={key: value})

    def test_defaults_merged_and_overrides_stick(self):
        spec = ModelSpec(algorithm="random_forest", hyperparameters={"n_trees": 7})
        assert spec.hyperparameters["n_trees"] == 7
        assert spec.hyperparameters["max_depth"] == 10
        assert spec.hyperparameters["bootstrap"] is True

    def test_hyperparameters_read_only(self):
        spec = ModelSpec(algorithm="naive_bayes")
        with pytest.raises(TypeError):
            spec.hyperparameters["laplace"] = False

    def test_zero_epochs_legal(self):
        spec = ModelSpec(algorithm="neural_net", hyperparameters={"epochs": 0})
        assert spec.hyperparameters["epochs"] == 0

    def test_positive_constraints(self):
        with pytest.raises(ValueError, match="n_trees"):
            ModelSpec(algorithm="random_forest", hyperparameters={"n_trees": 0})
        with pytest.raises(ValueError, match="lambda"):
            ModelSpec(algorithm="glm_elastic_net", hyperparameters={"lambda": -1.0})

    def test_alpha_and_family(self):
        with pytest.raises(ValueError, match="alpha"):
            ModelSpec(algorithm="glm_elastic_net", hyperparameters={"alpha": 1.5})
        with pytest.raises(ValueError, match="family"):
            ModelSpec(algorithm="glm_elastic_net", hyperparameters={"family": "poisson"})

    def test_confidence_range(self):
        with pytest.raises(ValueError, match="confidence"):
            ModelSpec(algorithm="decision_tree", hyperparameters={"confidence": 0.7})
        spec = ModelSpec(algorithm="decision_tree", hyperparameters={"confidence": None})
        assert spec.hyperparameters["confidence"] is None

    def test_hidden_validation(self):
        with pytest.raises(ValueError, match="hidden"):
            ModelSpec(algorithm="neural_net", hyperparameters={"hidden": ()})
        with pytest.raises(ValueError, match="hidden"):
            ModelSpec(algorithm="neural_net", hyperparameters={"hidden": (8, 0)})
        spec = ModelSpec(algorithm="neural_net", hyperparameters={"hidden": [4, 4]})
        assert spec.hyperparameters["hidden"] == (4, 4)

    @pytest.mark.parametrize("rho", [0, 0.0, 1, 1.0, 1.5, -0.2])
    def test_rho_range(self, rho):
        with pytest.raises(ValueError, match=r"neural_net\.rho must be in \(0, 1\)"):
            ModelSpec(algorithm="neural_net", hyperparameters={"rho": rho})

    def test_activation_validation(self):
        with pytest.raises(ValueError, match="activation"):
            ModelSpec(algorithm="neural_net", hyperparameters={"activation": "gelu"})

    def test_feature_subsample_validation(self):
        with pytest.raises(ValueError, match="feature_subsample"):
            ModelSpec(
                algorithm="random_forest", hyperparameters={"feature_subsample": 0}
            )
        for ok in ("sqrt", None, 3):
            ModelSpec(algorithm="random_forest", hyperparameters={"feature_subsample": ok})


class TestStandardizer:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-5, 20, size=(40, 3))
        z = Standardizer.fit(x).transform(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_becomes_zero(self):
        x = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        z = Standardizer.fit(x).transform(x)
        np.testing.assert_array_equal(z[:, 0], 0.0)


class TestLabelCodec:
    def test_round_trip(self):
        labels = [INFLUENCER, NON_INFLUENCER, INFLUENCER]
        encoded = encode_labels(labels)
        np.testing.assert_array_equal(encoded, [1.0, 0.0, 1.0])
        assert decode_labels(encoded) == labels

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown label"):
            encode_labels(["Maybe"])

    def test_tie_classifies_positive(self):
        assert decode_labels(np.array([0.5, 0.4999])) == [INFLUENCER, NON_INFLUENCER]


class TestIndependentColumns:
    def test_duplicate_dropped(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=20)
        b = rng.normal(size=20)
        x = np.column_stack([a, b, a])
        assert independent_columns(x) == [0, 1]

    def test_scaled_copy_dropped(self):
        a = np.arange(10.0)
        x = np.column_stack([a, 3.0 * a])
        assert independent_columns(x) == [0]

    def test_linear_combination_dropped(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=15)
        b = rng.normal(size=15)
        x = np.column_stack([a, b, 2 * a - b])
        assert independent_columns(x) == [0, 1]

    def test_zero_column_dropped(self):
        x = np.column_stack([np.zeros(10), np.arange(10.0)])
        assert independent_columns(x) == [1]


class TestHalvingStep:
    def test_takes_the_first_step_that_does_not_raise_the_loss(self):
        tried = []

        def objective(c):
            tried.append(c.tolist())
            return abs(c[0] - 1.0)

        point, loss = _halving_step(np.zeros(1), np.array([8.0]), 1.0, objective)
        # steps 1 and 1/2 overshoot; 1/4 ties the starting loss and is taken
        assert tried == [[8.0], [4.0], [2.0]]
        assert point.tolist() == [2.0] and loss == 1.0

    def test_a_rise_up_to_1e_12_is_accepted(self):
        point, loss = _halving_step(0.0, 3.0, 1.0, lambda c: 1.0 + 5e-13)
        assert point == 3.0 and loss == 1.0 + 5e-13

    def test_candidates_are_clipped_to_the_cap(self):
        tried = []

        def objective(c):
            tried.append(c.tolist())
            return 0.0

        point, loss = _halving_step(
            np.array([1.0, -1.0, 2.0]), np.array([50.0, -50.0, 1.0]), 0.0, objective, cap=30.0
        )
        assert tried == [[30.0, -30.0, 3.0]]
        assert point.tolist() == [30.0, -30.0, 3.0] and loss == 0.0

    def test_keeps_the_point_after_30_failed_tries(self):
        tried = []

        def objective(c):
            tried.append(float(c[0]))
            return 1.0 + 2e-12

        b = np.array([0.5])
        point, loss = _halving_step(b, np.array([1.0]), 1.0, objective)
        assert tried == [0.5 + 0.5**k for k in range(30)]
        assert point is b and loss == 1.0


class TestConstantModel:
    def test_predicts_constant(self):
        model = ConstantModel(probability=0.3)
        np.testing.assert_array_equal(model.predict_proba(np.zeros((4, 2))), 0.3)

    def test_bounds(self):
        with pytest.raises(ValueError):
            ConstantModel(probability=1.5)


class TestTrainValidation:
    def test_requires_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            train_xy(ModelSpec("naive_bayes"), np.zeros(4), np.zeros(4))

    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            train_xy(ModelSpec("naive_bayes"), np.zeros((4, 2)), np.zeros(3))

    def test_requires_two_rows(self):
        with pytest.raises(ValueError, match="at least 2"):
            train_xy(ModelSpec("naive_bayes"), np.zeros((1, 2)), np.ones(1))

    def test_rejects_non_finite(self):
        x = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            train_xy(ModelSpec("naive_bayes"), x, np.array([0.0, 1.0]))

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError, match="0/1"):
            train_xy(ModelSpec("naive_bayes"), np.zeros((2, 2)), np.array([0.0, 2.0]))

    def test_matrix_training_needs_labels(self):
        matrix = FeatureMatrix(
            domain="d", period=0, user_ids=("a", "b"), rows=((0.0,) * 12,) * 2
        )
        with pytest.raises(ValueError, match="no labels"):
            train(ModelSpec("naive_bayes"), matrix)


class TestSingleClassData:
    def test_constant_substituted(self):
        x = np.random.default_rng(0).normal(size=(6, 3))
        model = train_xy(ModelSpec("decision_tree"), x, np.ones(6))
        assert isinstance(model.params, ConstantModel)
        np.testing.assert_array_equal(model.predict_proba(x), 1.0)
        assert model.summary.warnings == ()

    def test_solvers_warn(self):
        x = np.random.default_rng(0).normal(size=(6, 3))
        for algorithm in ("logistic", "glm_elastic_net", "neural_net"):
            model = train_xy(ModelSpec(algorithm), x, np.zeros(6))
            assert any("single-class" in w for w in model.summary.warnings)
            np.testing.assert_array_equal(model.predict_proba(x), 0.0)


class TestTrainedModel:
    def test_feature_width_checked(self):
        x, y = blob_data(n_features=3)
        model = train_xy(ModelSpec("naive_bayes"), x, y)
        with pytest.raises(ValueError, match="expected 3 features"):
            model.predict_proba(np.zeros((2, 5)))

    def test_one_dimensional_row_accepted(self):
        x, y = blob_data(n_features=3)
        model = train_xy(ModelSpec("naive_bayes"), x, y)
        assert model.predict_proba(x[0]).shape == (1,)

    def test_rejects_non_finite_inputs(self):
        x, y = blob_data(n_features=2)
        model = train_xy(ModelSpec("naive_bayes"), x, y)
        with pytest.raises(ValueError, match="non-finite"):
            model.predict_proba(np.array([[np.inf, 0.0]]))

    def test_classify_names_classes(self):
        x, y = blob_data()
        model = train_xy(ModelSpec("decision_tree"), x, y)
        got = model.classify(x)
        assert set(got) == {INFLUENCER, NON_INFLUENCER}
        assert got == [INFLUENCER if v else NON_INFLUENCER for v in y]

