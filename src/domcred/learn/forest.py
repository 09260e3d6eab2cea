"""Random forest: bagged gain-ratio trees with per-split feature subsampling.

Member seeds are spawned from the master seed, so the forest is reproducible
independent of training parallelism.  The ensemble probability is the
fraction of member votes for the positive class; member weights are uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import TrainingSummary
from .tree import Tree, _best_classification_split, _class_leaf, grow


@dataclass
class RandomForest:
    members: list[Tree]

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        votes = np.zeros(x.shape[0])
        for member in self.members:
            votes += member.predict(x) >= 0.5  # a tied leaf votes positive
        return votes / len(self.members)


def _subsample_size(setting, n_features: int) -> int | None:
    if setting is None:
        return None
    if setting == "sqrt":
        return math.ceil(math.sqrt(n_features))
    return min(int(setting), n_features)


def fit(x: np.ndarray, y: np.ndarray, hyper, seed: int) -> tuple[RandomForest, TrainingSummary]:
    n_trees = int(hyper["n_trees"])
    max_depth = int(hyper["max_depth"])
    minimal_gain = float(hyper["minimal_gain"])
    bootstrap = bool(hyper["bootstrap"])
    k = _subsample_size(hyper["feature_subsample"], x.shape[1])

    members = []
    for child_seed in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child_seed)
        if bootstrap:
            idx = rng.integers(0, len(y), size=len(y))
            bx, by = x[idx], y[idx]
        else:
            bx, by = x, y
        root = grow(
            bx, by, max_depth, _best_classification_split, _class_leaf,
            minimal_gain=minimal_gain, rng=rng, n_feature_subsample=k,
        )
        members.append(Tree(root))

    forest = RandomForest(members=members)
    train_error = float(np.mean((forest.predict_proba(x) >= 0.5) != (y == 1.0)))
    summary = TrainingSummary(iterations=n_trees, converged=True, final_loss=train_error)
    return forest, summary
