"""Gradient-boosted trees on the logistic loss.

Each stage fits a regression tree to the negative gradient (the residual
y - p), takes a Newton line search along the tree's output direction, and
updates the score by learning_rate times the searched step.  The stored
ensemble keeps normalized stage weights summing to 1, with the combined
multiplier folded into the leaf values, so the weighted member sum plus the
base score reproduces the training-time scores exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import TrainingSummary, _halving_step, binomial_nll, sigmoid
from .tree import Node, Tree, _best_regression_split, _mean_leaf, grow

_MAX_STEP = 1000.0


def _line_search(scores: np.ndarray, h: np.ndarray, y: np.ndarray) -> float:
    """Newton iterations on the 1-D convex problem min_rho loss(scores + rho*h)."""
    rho = 1.0
    for _ in range(12):
        p = sigmoid(scores + rho * h)
        grad = float(np.mean(h * (p - y)))
        curv = float(np.mean(h * h * p * (1.0 - p)))
        if curv <= 1e-12:
            break
        step = grad / curv
        rho -= step
        rho = min(max(rho, 0.0), _MAX_STEP)
        if abs(step) < 1e-10:
            break
    # never accept a step that worsens the loss
    rho, _ = _halving_step(
        0.0, rho, binomial_nll(scores, y), lambda r: binomial_nll(scores + r * h, y)
    )
    return float(rho)


def _scale_leaves(node: Node, factor: float) -> None:
    if node.is_leaf:
        node.value *= factor
    else:
        _scale_leaves(node.left, factor)
        _scale_leaves(node.right, factor)


@dataclass
class GradientBoosting:
    """Base log-odds plus weighted regression trees; weights sum to 1."""

    base_score: float
    members: list[Tree]
    weights: np.ndarray
    stage_losses: tuple[float, ...] = field(default=())

    def decision_scores(self, x: np.ndarray) -> np.ndarray:
        scores = np.full(x.shape[0], self.base_score)
        for w, member in zip(self.weights, self.members):
            scores += w * member.predict(x)
        return scores

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return sigmoid(self.decision_scores(x))


def fit(x: np.ndarray, y: np.ndarray, hyper, seed: int) -> tuple[GradientBoosting, TrainingSummary]:
    n_trees = int(hyper["n_trees"])
    max_depth = int(hyper["max_depth"])
    learning_rate = float(hyper["learning_rate"])

    mean = float(np.clip(y.mean(), 1e-6, 1.0 - 1e-6))
    base_score = float(np.log(mean / (1.0 - mean)))
    scores = np.full(len(y), base_score)

    trees: list[Tree] = []
    multipliers: list[float] = []
    losses = [binomial_nll(scores, y)]

    for _ in range(n_trees):
        residual = y - sigmoid(scores)
        tree = Tree(grow(x, residual, max_depth, _best_regression_split, _mean_leaf))
        h = tree.predict(x)
        rho = _line_search(scores, h, y)
        multiplier = learning_rate * rho
        scores = scores + multiplier * h
        trees.append(tree)
        multipliers.append(multiplier)
        losses.append(binomial_nll(scores, y))

    total = sum(multipliers)
    if total > 0:
        weights = np.array(multipliers) / total
    else:
        # every stage degenerated; keep the base score and uniform weights
        weights = np.full(n_trees, 1.0 / n_trees) if n_trees else np.array([])
        total = 0.0
    for tree in trees:
        _scale_leaves(tree.root, total)

    model = GradientBoosting(
        base_score=base_score,
        members=trees,
        weights=weights,
        stage_losses=tuple(losses),
    )
    summary = TrainingSummary(iterations=n_trees, converged=True, final_loss=losses[-1])
    return model, summary
