"""Neural net: analytic gradients, seeding, training, and failure modes."""

import numpy as np
import pytest

from domcred.learn import ModelSpec, train_xy
from helpers import blob_data, brute_neural_fit


def fit_net(x, y, **overrides):
    hyper = {"hidden": (5, 4), "epochs": 0, "l1": 0.0, "l2": 0.0}
    hyper.update(overrides)
    return train_xy(ModelSpec("neural_net", hyperparameters=hyper, seed=3), x, y)


def numeric_gradients(net, x, y, h=1e-5):
    """Central finite differences over every parameter entry."""
    grads = []
    for p in net.parameters:
        g = np.zeros_like(p)
        flat, gflat = p.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = net.loss_and_gradients(x, y)[0]
            flat[i] = orig - h
            down = net.loss_and_gradients(x, y)[0]
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


class TestGradients:
    @pytest.mark.parametrize("activation", ["rectifier", "tanh", "maxout"])
    def test_analytic_matches_finite_differences(self, activation):
        rng = np.random.default_rng(61)
        x = rng.normal(size=(12, 3))
        y = (rng.uniform(size=12) < 0.5).astype(float)
        model = fit_net(x, y, activation=activation)
        net = model.params

        _, analytic = net.loss_and_gradients(x, y)
        numeric = numeric_gradients(net, x, y)
        for a, n in zip(analytic, numeric):
            scale = np.maximum(1.0, np.abs(a) + np.abs(n))
            assert np.max(np.abs(a - n) / scale) < 1e-4

    def test_l1_penalty_enters_loss_exactly(self):
        rng = np.random.default_rng(62)
        x = rng.normal(size=(10, 3))
        y = (rng.uniform(size=10) < 0.5).astype(float)
        plain = fit_net(x, y).params
        penalized = fit_net(x, y, l1=1e-3).params
        # same seed and zero epochs, so the weights are identical
        for a, b in zip(plain.weights, penalized.weights):
            np.testing.assert_array_equal(a, b)
        weight_mass = sum(float(np.abs(w).sum()) for w in plain.weights)
        loss_plain = plain.loss_and_gradients(x, y)[0]
        loss_pen = penalized.loss_and_gradients(x, y)[0]
        assert loss_pen - loss_plain == pytest.approx(1e-3 * weight_mass, abs=1e-12)


class TestSeeding:
    def test_zero_epochs_reproducible(self):
        x, y = blob_data(seed=63, n_per=10)
        a = fit_net(x, y).params
        b = fit_net(x, y).params
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        assert fit_net(x, y).summary.iterations == 0

    def test_training_reproducible(self):
        x, y = blob_data(seed=64, n_per=15)
        spec = ModelSpec(
            "neural_net", hyperparameters={"hidden": (6,), "epochs": 4}, seed=8
        )
        a = train_xy(spec, x, y)
        b = train_xy(spec, x, y)
        np.testing.assert_array_equal(a.predict_proba(x), b.predict_proba(x))
        assert a.summary.final_loss == b.summary.final_loss

    def test_different_seeds_differ(self):
        x, y = blob_data(seed=64, n_per=15)
        hyper = {"hidden": (6,), "epochs": 0}
        a = train_xy(ModelSpec("neural_net", hyperparameters=hyper, seed=1), x, y)
        b = train_xy(ModelSpec("neural_net", hyperparameters=hyper, seed=2), x, y)
        assert not np.array_equal(
            a.params.weights[0], b.params.weights[0]
        )


class TestTraining:
    def test_separable_blobs_learned(self):
        x, y = blob_data(seed=65, n_per=30, gap=3.0)
        model = train_xy(
            ModelSpec(
                "neural_net",
                hyperparameters={"hidden": (8,), "epochs": 100},
                seed=0,
            ),
            x,
            y,
        )
        accuracy = np.mean((model.predict_proba(x) >= 0.5) == (y == 1.0))
        assert accuracy >= 0.99

    def test_adaptive_reduces_loss(self):
        x, y = blob_data(seed=66, n_per=25, gap=2.0)
        start = fit_net(x, y, hidden=(8,)).summary.final_loss
        trained = fit_net(x, y, hidden=(8,), epochs=20).summary.final_loss
        assert trained < start

    def test_fixed_rate_runs(self):
        x, y = blob_data(seed=67, n_per=20, gap=2.0)
        model = train_xy(
            ModelSpec(
                "neural_net",
                hyperparameters={
                    "hidden": (6,),
                    "epochs": 10,
                    "adaptive_rate": False,
                },
                seed=5,
            ),
            x,
            y,
        )
        assert np.isfinite(model.summary.final_loss)
        probs = model.predict_proba(x)
        assert np.all((probs >= 0.0) & (probs <= 1.0))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_raises_runtime_error(self):
        x, y = blob_data(seed=68, n_per=10)
        with pytest.raises(RuntimeError, match="non-finite training loss.*lower the learning rate"):
            train_xy(
                ModelSpec(
                    "neural_net",
                    hyperparameters={
                        "hidden": (6,),
                        "epochs": 60,
                        "adaptive_rate": False,
                        "learning_rate": 1e10,
                        "l2": 10.0,
                    },
                    seed=5,
                ),
                x,
                y,
            )

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_adaptive_divergence_names_rho_and_epsilon(self):
        x, y = blob_data(seed=68, n_per=10)
        # epsilon dwarfs both running averages, so each step is the raw gradient
        hyper = {"hidden": (6,), "epochs": 60, "epsilon": 1e300, "l2": 1e10}
        with pytest.raises(RuntimeError, match="non-finite training loss") as err:
            train_xy(ModelSpec("neural_net", hyperparameters=hyper, seed=5), x, y)
        assert "check rho and epsilon" in str(err.value)
        assert "learning rate" not in str(err.value)

    @pytest.mark.parametrize("activation", ["rectifier", "tanh", "maxout"])
    def test_all_activations_train(self, activation):
        x, y = blob_data(seed=69, n_per=20, gap=3.0)
        model = train_xy(
            ModelSpec(
                "neural_net",
                hyperparameters={
                    "hidden": (6,),
                    "epochs": 100,
                    "activation": activation,
                },
                seed=2,
            ),
            x,
            y,
        )
        accuracy = np.mean((model.predict_proba(x) >= 0.5) == (y == 1.0))
        assert accuracy >= 0.9


class TestMatchesPerArrayLoop:
    """Training over one flat parameter vector does, element for element,
    the float operations of stepping each weight and bias array alone."""

    @pytest.mark.parametrize("activation", ["rectifier", "tanh", "maxout"])
    @pytest.mark.parametrize("adaptive", [True, False])
    @pytest.mark.parametrize("l1, l2", [(0.0, 0.0), (1e-3, 0.0), (0.0, 1e-3), (1e-3, 1e-3)])
    # 37 rows: 8 leaves a short last batch, 64 is one batch larger than n
    @pytest.mark.parametrize("batch_size", [8, 64])
    def test_bit_identical(self, activation, adaptive, l1, l2, batch_size):
        x, y = blob_data(seed=70, n_per=20, gap=1.5)
        x, y = x[:37], y[:37]
        spec = ModelSpec(
            "neural_net",
            hyperparameters={
                "hidden": (5, 4), "activation": activation, "epochs": 3,
                "adaptive_rate": adaptive, "learning_rate": 0.05,
                "l1": l1, "l2": l2, "batch_size": batch_size,
            },
            seed=11,
        )
        model = train_xy(spec, x, y)
        weights, biases, loss, predict_proba = brute_neural_fit(x, y, spec.hyperparameters, spec.seed)
        net = model.params
        for got, want in zip(net.weights + net.biases, weights + biases):
            assert np.array_equal(got, want)
        assert model.summary.final_loss == loss
        assert np.array_equal(model.predict_proba(x), predict_proba(x))
