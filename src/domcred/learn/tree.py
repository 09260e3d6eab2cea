"""Binary decision trees: gain-ratio classification with pessimistic pruning,
plus variance-reduction regression trees for the boosting stages.

Split search is the sorted-prefix method of C4.5 and CART: each candidate
feature column is sorted once, and one cumulative sum gives the left and
right class counts (or target sums) at all n - 1 cuts, scored with
whole-array arithmetic, so a node costs O(p * n log n) for p candidate
features and n rows.  The candidates are the midpoints between neighbouring
distinct values.  Selection is deterministic: features in the given order,
thresholds ascending, the strictly greatest score wins, so ties keep the
earliest candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .base import TrainingSummary

_EPS_GAIN = 1e-12


@dataclass
class Node:
    """Internal node (feature, threshold, children) or leaf (value, counts)."""

    n: int
    value: float  # classification: positive fraction; regression: mean target
    counts: tuple[int, int] | None = None  # classification only: (neg, pos)
    feature: int | None = None
    threshold: float = 0.0
    left: "Node | None" = None
    right: "Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def leaf_for(self, row: np.ndarray) -> "Node":
        node = self
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node

    def to_dict(self) -> dict:
        d = {"n": self.n, "value": self.value}
        if self.counts is not None:
            d["counts"] = list(self.counts)
        if not self.is_leaf:
            d["feature"] = self.feature
            d["threshold"] = self.threshold
            d["left"] = self.left.to_dict()
            d["right"] = self.right.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Node":
        node = cls(
            n=d["n"],
            value=d["value"],
            counts=tuple(d["counts"]) if "counts" in d else None,
        )
        if "feature" in d:
            node.feature = d["feature"]
            node.threshold = d["threshold"]
            node.left = cls.from_dict(d["left"])
            node.right = cls.from_dict(d["right"])
        return node


def _plogp(count, total):
    """count/total * log2(count/total) elementwise, 0.0 where count is 0."""
    p = np.divide(count, total)
    return p * np.log2(p, out=np.zeros_like(p), where=count > 0)


def _entropy(neg, pos):
    """Binary entropy in bits of (neg, pos) counts, elementwise."""
    total = neg + pos
    return -(_plogp(neg, total) + _plogp(pos, total))


def _sorted_columns(x: np.ndarray, features):
    """Sort each candidate feature column once.

    Returns the row order and the sorted values, one feature per row, and the
    mask of the n - 1 cuts whose neighbours differ; cut i sends sorted rows
    0..i left.
    """
    cols = x[:, features].T
    order = np.argsort(cols, axis=1, kind="stable")
    xv = np.take_along_axis(cols, order, axis=1)
    return order, xv, xv[:, :-1] != xv[:, 1:]


def _first_best(score: np.ndarray, xv: np.ndarray, features):
    """(score, feature, midpoint threshold) of the first maximum in
    (feature, threshold) order; rejected cuts hold -inf."""
    k, i = divmod(int(np.argmax(score)), score.shape[1])
    if score[k, i] == -np.inf:
        return None
    return score[k, i], features[k], (xv[k, i] + xv[k, i + 1]) / 2.0


def _best_classification_split(
    x: np.ndarray, y: np.ndarray, features
) -> tuple[float, int, float] | None:
    """Highest gain-ratio (feature, threshold) over midpoint candidates."""
    n = len(y)
    if n < 2 or len(features) == 0:
        return None
    n_pos = float(np.sum(y == 1))
    n_neg = float(np.sum(y == 0))
    parent_entropy = float(_entropy(n_neg, n_pos))

    order, xv, distinct = _sorted_columns(x, features)
    left_pos = np.cumsum(y[order], axis=1)[:, :-1]  # positives in sorted rows 0..i
    nl = np.arange(1, n, dtype=float)
    left_neg = nl - left_pos
    pl, pr = nl / n, (n - nl) / n
    gain = (
        parent_entropy
        - pl * _entropy(left_neg, left_pos)
        - pr * _entropy(n_neg - left_neg, n_pos - left_pos)
    )
    split_info = -(pl * np.log2(pl) + pr * np.log2(pr))
    ratio = np.where(distinct & (gain > _EPS_GAIN), gain / split_info, -np.inf)
    return _first_best(ratio, xv, features)


def _class_leaf(y: np.ndarray) -> Node:
    neg = int(np.sum(y == 0))
    pos = int(np.sum(y == 1))
    total = neg + pos
    return Node(n=total, value=pos / total if total else 0.5, counts=(neg, pos))


def grow_classification(
    x: np.ndarray,
    y: np.ndarray,
    max_depth: int,
    minimal_gain: float,
    rng: np.random.Generator | None = None,
    n_feature_subsample: int | None = None,
) -> Node:
    """Recursive gain-ratio splitting; the forest passes an rng to subsample
    candidate features independently at every split."""
    if len(y) < 2 or max_depth == 0 or np.all(y == y[0]):
        return _class_leaf(y)

    if rng is not None and n_feature_subsample is not None:
        features = np.sort(
            rng.choice(x.shape[1], size=min(n_feature_subsample, x.shape[1]), replace=False)
        )
    else:
        features = range(x.shape[1])

    best = _best_classification_split(x, y, features)
    if best is None or best[0] < minimal_gain:
        return _class_leaf(y)

    _, feature, threshold = best
    mask = x[:, feature] <= threshold
    node = _class_leaf(y)
    node.feature = int(feature)
    node.threshold = float(threshold)
    node.left = grow_classification(
        x[mask], y[mask], max_depth - 1, minimal_gain, rng, n_feature_subsample
    )
    node.right = grow_classification(
        x[~mask], y[~mask], max_depth - 1, minimal_gain, rng, n_feature_subsample
    )
    return node


def _pessimistic_errors(n: int, errors: int, z: float) -> float:
    """Upper confidence bound on the error count of a leaf."""
    if n == 0:
        return 0.0
    f = errors / n
    z2 = z * z
    ucb = (f + z2 / (2 * n) + z * np.sqrt(f * (1 - f) / n + z2 / (4 * n * n))) / (1 + z2 / n)
    return n * float(ucb)


def prune_pessimistic(node: Node, confidence: float) -> Node:
    """Bottom-up subtree replacement when the collapsed leaf's pessimistic
    error estimate does not exceed the subtree's."""
    z = NormalDist().inv_cdf(1.0 - confidence)

    def walk(nd: Node) -> float:
        neg, pos = nd.counts
        leaf_errors = _pessimistic_errors(nd.n, min(neg, pos), z)
        if nd.is_leaf:
            return leaf_errors
        subtree_errors = walk(nd.left) + walk(nd.right)
        if leaf_errors <= subtree_errors + 1e-12:
            nd.feature = None
            nd.left = nd.right = None
            return leaf_errors
        return subtree_errors

    walk(node)
    return node


@dataclass
class DecisionTree:
    """A fitted classification tree; probability is the leaf's positive share."""

    root: Node
    max_depth: int

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return np.array([self.root.leaf_for(row).value for row in x])

    def votes(self, x: np.ndarray) -> np.ndarray:
        """Majority class per row; a tied leaf votes positive."""
        return (self.predict_proba(x) >= 0.5).astype(float)

    def n_leaves(self) -> int:
        def count(nd: Node) -> int:
            return 1 if nd.is_leaf else count(nd.left) + count(nd.right)

        return count(self.root)

    def to_dict(self) -> dict:
        return {"root": self.root.to_dict(), "max_depth": self.max_depth}

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionTree":
        return cls(root=Node.from_dict(d["root"]), max_depth=d["max_depth"])


def fit(x: np.ndarray, y: np.ndarray, hyper, seed: int) -> tuple[DecisionTree, TrainingSummary]:
    root = grow_classification(
        x, y, max_depth=int(hyper["max_depth"]), minimal_gain=float(hyper["minimal_gain"])
    )
    if hyper["confidence"] is not None:
        root = prune_pessimistic(root, float(hyper["confidence"]))
    tree = DecisionTree(root=root, max_depth=int(hyper["max_depth"]))
    train_error = float(np.mean(tree.votes(x) != y))
    return tree, TrainingSummary(iterations=1, converged=True, final_loss=train_error)


def _best_regression_split(x: np.ndarray, y: np.ndarray) -> tuple[float, int, float] | None:
    """Highest sum-of-squares reduction over midpoint candidates."""
    n = len(y)
    features = range(x.shape[1])
    if n < 2 or len(features) == 0:
        return None
    total_sum = float(y.sum())
    total_sq = float((y * y).sum())
    parent_sse = total_sq - total_sum * total_sum / n

    order, xv, distinct = _sorted_columns(x, features)
    yo = y[order]
    ys = np.cumsum(yo, axis=1)[:, :-1]
    y2s = np.cumsum(yo * yo, axis=1)[:, :-1]
    nl = np.arange(1, n, dtype=float)
    nr = n - nl
    # float_power is libm pow, as Python's float ** 2 is; np.square rounds
    # differently in the last bit for about one value in a thousand
    left_sse = y2s - np.float_power(ys, 2.0) / nl
    right_sse = (total_sq - y2s) - np.float_power(total_sum - ys, 2.0) / nr
    reduction = parent_sse - left_sse - right_sse
    reduction = np.where(distinct & (reduction > _EPS_GAIN), reduction, -np.inf)
    return _first_best(reduction, xv, features)


def grow_regression(x: np.ndarray, y: np.ndarray, max_depth: int) -> Node:
    if len(y) < 2 or max_depth == 0 or np.all(y == y[0]):
        return Node(n=len(y), value=float(y.mean()) if len(y) else 0.0)
    best = _best_regression_split(x, y)
    if best is None:
        return Node(n=len(y), value=float(y.mean()))
    _, feature, threshold = best
    mask = x[:, feature] <= threshold
    node = Node(n=len(y), value=float(y.mean()), feature=int(feature), threshold=float(threshold))
    node.left = grow_regression(x[mask], y[mask], max_depth - 1)
    node.right = grow_regression(x[~mask], y[~mask], max_depth - 1)
    return node


class RegressionTree:
    """A fitted regression tree used as one boosting stage."""

    def __init__(self, root: Node):
        self.root = root

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.array([self.root.leaf_for(row).value for row in x])

    def scale_leaves(self, factor: float) -> None:
        def walk(nd: Node) -> None:
            if nd.is_leaf:
                nd.value *= factor
            else:
                walk(nd.left)
                walk(nd.right)

        walk(self.root)

    def to_dict(self) -> dict:
        return {"root": self.root.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "RegressionTree":
        return cls(root=Node.from_dict(d["root"]))
