"""Feed-forward neural net trained by minibatch SGD with back-propagation.

Sigmoid output unit, quadratic loss, optional L1/L2 on the weights (never
biases), and either ADADELTA per-parameter adaptive steps or a fixed
learning rate.  Inputs are standardized internally.  All randomness (weight
init, epoch shuffles) flows from the seed, so training is reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from .base import Standardizer, TrainingSummary, sigmoid

ACTIVATIONS = ("rectifier", "tanh", "maxout")


class NeuralNet:
    """Fitted network: standardizer, hidden stack, linear-sigmoid output.

    Every weight array and then every bias array lies in one flat vector,
    ``theta``; ``weights`` and ``biases`` are views of it, so training steps
    the whole vector at once.  ``parameters`` exposes the same views in a
    fixed order (per layer: weights then bias, output last) and
    ``loss_and_gradients`` returns matching analytic gradients, which makes
    finite-difference checking straightforward.
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
        self._shapes = [w.shape for w in weights] + [b.shape for b in biases]
        self.theta = np.concatenate([a.ravel() for a in weights + biases])
        self.weights, self.biases = self._split(self.theta)
        # the penalized weights are the first _n_weights entries of theta
        self._n_weights = sum(w.size for w in weights)
        self.l1 = l1
        self.l2 = l2

    def _split(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Views of a vector laid out like theta: (weight arrays, bias arrays)."""
        arrays, start = [], 0
        for shape in self._shapes:
            size = math.prod(shape)
            arrays.append(flat[start : start + size].reshape(shape))
            start += size
        n_layers = len(self._shapes) // 2
        return arrays[:n_layers], arrays[n_layers:]

    @property
    def parameters(self) -> list[np.ndarray]:
        return _interleave(self.weights, self.biases)

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

    def _loss(self, z: np.ndarray, y: np.ndarray) -> float:
        """Quadratic loss plus the L1/L2 penalty on the weights."""
        p, _ = self._forward(z)
        penalty = 0.0
        for w in self.weights:
            penalty += self.l1 * float(np.abs(w).sum()) + 0.5 * self.l2 * float((w * w).sum())
        return float(np.sum((p - y) ** 2)) / (2.0 * len(y)) + penalty

    def _gradients(self, z: np.ndarray, y: np.ndarray, grad: np.ndarray) -> None:
        """Fill grad, laid out like theta, with the penalized loss's gradient
        on one batch."""
        p, caches = self._forward(z)
        grads_w, grads_b = self._split(grad)

        # d loss / d output-preactivation, through the sigmoid
        dout = (p - y) * p * (1.0 - p) / len(y)
        np.matmul(dout[None, :], caches[-1], out=grads_w[-1])
        grads_b[-1][0] = dout.sum()
        delta = dout[:, None] @ self.weights[-1]

        for i in range(len(self.hidden) - 1, -1, -1):
            if self.activation == "maxout":
                a_prev, winner = caches[i]
                dz1 = delta * winner
                dz2 = delta * ~winner
                np.matmul(dz1.T, a_prev, out=grads_w[i][0])
                np.matmul(dz2.T, a_prev, out=grads_w[i][1])
                dz1.sum(axis=0, out=grads_b[i][0])
                dz2.sum(axis=0, out=grads_b[i][1])
                delta = dz1 @ self.weights[i][0] + dz2 @ self.weights[i][1]
            else:
                a_prev, cache = caches[i]
                if self.activation == "rectifier":
                    dpre = delta * (cache > 0)
                else:
                    dpre = delta * (1.0 - cache * cache)
                np.matmul(dpre.T, a_prev, out=grads_w[i])
                dpre.sum(axis=0, out=grads_b[i])
                delta = dpre @ self.weights[i]

        w = self.theta[: self._n_weights]
        gw = grad[: self._n_weights]
        # two adds, not one of their sum: (g + l1 sign w) + l2 w, rounded as ever
        gw += self.l1 * np.sign(w)
        gw += self.l2 * w

    def loss_and_gradients(self, x: np.ndarray, y: np.ndarray):
        """Penalized quadratic loss and analytic gradients for one batch."""
        z = self.scaler.transform(x)
        grad = np.empty_like(self.theta)
        self._gradients(z, y, grad)
        return self._loss(z, y), _interleave(*self._split(grad))

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        p, _ = self._forward(self.scaler.transform(x))
        return p


def _interleave(weights: list[np.ndarray], biases: list[np.ndarray]) -> list[np.ndarray]:
    """Per layer its weights then its bias, output layer last."""
    return [a for pair in zip(weights, biases) for a in pair]


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

    theta = net.theta
    grad = np.empty_like(theta)
    acc_grad = np.zeros_like(theta)
    acc_step = np.zeros_like(theta)
    # ADADELTA takes no learning rate: its step size comes from rho and epsilon
    advice = "check rho and epsilon" if adaptive else "lower the learning rate"

    loss = net._loss(z, y)
    for epoch in range(epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), batch_size):
            idx = order[start : start + batch_size]
            net._gradients(z[idx], y[idx], grad)
            if adaptive:
                acc_grad = rho * acc_grad + (1.0 - rho) * grad * grad
                step = -np.sqrt(acc_step + eps) / np.sqrt(acc_grad + eps) * grad
                acc_step = rho * acc_step + (1.0 - rho) * step * step
                theta += step
            else:
                theta -= rate * grad
        loss = net._loss(z, y)
        if not np.isfinite(loss):
            raise RuntimeError(
                f"non-finite training loss at epoch {epoch + 1}: {loss!r}; "
                f"{advice} or check the input scale"
            )

    summary = TrainingSummary(iterations=epochs, converged=True, final_loss=loss)
    return net, summary
