"""Random forest: bagged gain-ratio trees with per-split feature subsampling.

Member seeds are spawned from the master seed.  Each member's generator
first draws its bootstrap sample (Breiman, Machine Learning 45, 2001), kept
as a count per training row, then its candidate features at every node it
tries to split, in its own preorder.  All members grow together from one
presort of the training columns (see tree.grow), and each grows the tree it
would grow alone.  The ensemble probability is the fraction of member votes
for the positive class; member weights are uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import TrainingSummary
from .tree import GainRatio, Tree, grow, presort


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

    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_trees)]
    if bootstrap:
        # each member's sample as a count per row, drawn first from its generator
        draws = [rng.integers(0, len(y), size=len(y)) for rng in rngs]
        weights = np.array([np.bincount(draw, minlength=len(y)) for draw in draws])
    else:
        weights = np.ones((n_trees, len(y)), dtype=np.int64)
    roots = grow(
        presort(x), GainRatio(y, weights), max_depth,
        minimal_gain=minimal_gain, rngs=rngs, n_feature_subsample=k,
    )
    members = [Tree(root) for root in roots]

    forest = RandomForest(members=members)
    train_error = float(np.mean((forest.predict_proba(x) >= 0.5) != (y == 1.0)))
    summary = TrainingSummary(iterations=n_trees, converged=True, final_loss=train_error)
    return forest, summary
