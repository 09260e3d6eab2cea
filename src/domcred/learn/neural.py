"""Feed-forward neural net trained by minibatch SGD with back-propagation.

Sigmoid output unit, quadratic loss, optional L1/L2 on the weights (never
biases), and either ADADELTA per-parameter adaptive steps or a fixed
learning rate.  Inputs are standardized internally.  All randomness (weight
init, epoch shuffles) flows from the seed, so training is reproducible.
"""

from __future__ import annotations

import numpy as np

from .base import Standardizer, TrainingSummary, sigmoid

ACTIVATIONS = ("rectifier", "tanh", "maxout")


class NeuralNet:
    """Fitted network: standardizer, hidden stack, linear-sigmoid output.

    ``parameters`` exposes the weight and bias arrays in a fixed order
    (per layer: weights then bias, output last) and ``loss_and_gradients``
    returns matching analytic gradients, which makes finite-difference
    checking straightforward.
    """

    def __init__(
        self,
        scaler: Standardizer,
        activation: str,
        hidden: tuple[int, ...],
        weights: list[np.ndarray],
        biases: list[np.ndarray],
        l1: float = 0.0,
        l2: float = 0.0,
    ):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.scaler = scaler
        self.activation = activation
        self.hidden = tuple(hidden)
        self.weights = weights
        self.biases = biases
        self.l1 = l1
        self.l2 = l2

    @property
    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def _forward(self, z: np.ndarray):
        a = z
        caches = []
        for i in range(len(self.hidden)):
            w, b = self.weights[i], self.biases[i]
            if self.activation == "maxout":
                z1 = a @ w[0].T + b[0]
                z2 = a @ w[1].T + b[1]
                winner = z1 >= z2
                h = np.where(winner, z1, z2)
                caches.append((a, winner))
            elif self.activation == "rectifier":
                pre = a @ w.T + b
                h = np.maximum(pre, 0.0)
                caches.append((a, pre))
            else:
                pre = a @ w.T + b
                h = np.tanh(pre)
                caches.append((a, h))
            a = h
        out = (a @ self.weights[-1].T + self.biases[-1]).ravel()
        caches.append(a)
        return sigmoid(out), caches

    def _penalty(self) -> float:
        total = 0.0
        for w in self.weights:
            total += self.l1 * float(np.abs(w).sum()) + 0.5 * self.l2 * float((w * w).sum())
        return total

    def _loss_grads_standardized(self, z: np.ndarray, y: np.ndarray):
        p, caches = self._forward(z)
        batch = len(y)
        loss = float(np.sum((p - y) ** 2)) / (2.0 * batch) + self._penalty()

        grads_w = [np.zeros_like(w) for w in self.weights]
        grads_b = [np.zeros_like(b) for b in self.biases]

        # d loss / d output-preactivation, through the sigmoid
        dout = (p - y) * p * (1.0 - p) / batch
        a_last = caches[-1]
        grads_w[-1] = dout[None, :] @ a_last
        grads_b[-1] = np.array([dout.sum()])
        delta = dout[:, None] @ self.weights[-1]

        for i in range(len(self.hidden) - 1, -1, -1):
            if self.activation == "maxout":
                a_prev, winner = caches[i]
                dz1 = delta * winner
                dz2 = delta * ~winner
                grads_w[i] = np.stack([dz1.T @ a_prev, dz2.T @ a_prev])
                grads_b[i] = np.stack([dz1.sum(axis=0), dz2.sum(axis=0)])
                delta = dz1 @ self.weights[i][0] + dz2 @ self.weights[i][1]
            elif self.activation == "rectifier":
                a_prev, pre = caches[i]
                dpre = delta * (pre > 0)
                grads_w[i] = dpre.T @ a_prev
                grads_b[i] = dpre.sum(axis=0)
                delta = dpre @ self.weights[i]
            else:
                a_prev, h = caches[i]
                dpre = delta * (1.0 - h * h)
                grads_w[i] = dpre.T @ a_prev
                grads_b[i] = dpre.sum(axis=0)
                delta = dpre @ self.weights[i]

        for i, w in enumerate(self.weights):
            grads_w[i] = grads_w[i] + self.l1 * np.sign(w) + self.l2 * w

        grads = []
        for gw, gb in zip(grads_w, grads_b):
            grads.append(gw)
            grads.append(gb)
        return loss, grads

    def loss_and_gradients(self, x: np.ndarray, y: np.ndarray):
        """Penalized quadratic loss and analytic gradients for one batch."""
        return self._loss_grads_standardized(self.scaler.transform(x), y)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        p, _ = self._forward(self.scaler.transform(x))
        return p


def _init_layers(rng, n_inputs: int, hidden: tuple[int, ...], activation: str):
    weights, biases = [], []
    fan_in = n_inputs
    for units in hidden:
        limit = np.sqrt(6.0 / (fan_in + units))
        if activation == "maxout":
            weights.append(rng.uniform(-limit, limit, size=(2, units, fan_in)))
            biases.append(np.zeros((2, units)))
        else:
            weights.append(rng.uniform(-limit, limit, size=(units, fan_in)))
            biases.append(np.zeros(units))
        fan_in = units
    limit = np.sqrt(6.0 / (fan_in + 1))
    weights.append(rng.uniform(-limit, limit, size=(1, fan_in)))
    biases.append(np.zeros(1))
    return weights, biases


def fit(x: np.ndarray, y: np.ndarray, hyper, seed: int) -> tuple[NeuralNet, TrainingSummary]:
    hidden = tuple(hyper["hidden"])
    activation = hyper["activation"]
    epochs = int(hyper["epochs"])
    l1 = float(hyper["l1"])
    l2 = float(hyper["l2"])
    batch_size = int(hyper["batch_size"])
    adaptive = bool(hyper["adaptive_rate"])
    rho = float(hyper["rho"])
    eps = float(hyper["epsilon"])
    rate = float(hyper["learning_rate"])

    scaler = Standardizer.fit(x)
    z = scaler.transform(x)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    weights, biases = _init_layers(rng, x.shape[1], hidden, activation)
    net = NeuralNet(
        scaler=scaler, activation=activation, hidden=hidden,
        weights=weights, biases=biases, l1=l1, l2=l2,
    )

    params = net.parameters
    acc_grad = [np.zeros_like(p) for p in params]
    acc_step = [np.zeros_like(p) for p in params]

    loss = net._loss_grads_standardized(z, y)[0]
    for epoch in range(epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), batch_size):
            idx = order[start : start + batch_size]
            _, grads = net._loss_grads_standardized(z[idx], y[idx])
            for i, (p, g) in enumerate(zip(params, grads)):
                if adaptive:
                    acc_grad[i] = rho * acc_grad[i] + (1.0 - rho) * g * g
                    step = -np.sqrt(acc_step[i] + eps) / np.sqrt(acc_grad[i] + eps) * g
                    acc_step[i] = rho * acc_step[i] + (1.0 - rho) * step * step
                    p += step
                else:
                    p -= rate * g
        loss = net._loss_grads_standardized(z, y)[0]
        if not np.isfinite(loss):
            raise RuntimeError(
                f"non-finite training loss at epoch {epoch + 1}: {loss!r}; "
                "lower the learning rate or check the input scale"
            )

    summary = TrainingSummary(iterations=epochs, converged=True, final_loss=loss)
    return net, summary
