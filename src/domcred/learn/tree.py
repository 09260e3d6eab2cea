"""Binary decision trees: gain-ratio classification with pessimistic pruning,
plus variance-reduction regression trees for the boosting stages.

One grower builds every tree; the caller passes the split criterion.  One
fitted-tree class predicts for both kinds: every row descends together, one
mask per node, and a row equal to a threshold goes left.

Growth presorts once, as SLIQ does (Mehta, Agrawal & Rissanen, EDBT 1996):
every training column is argsorted once per fit.  Each tree (a member) keeps
its rows in a few lists: training-row order, then each column's order.  A
node owns one segment of every list, and a split partitions each segment
stably, left rows first, so both children stay sorted without a new sort.
A member's rows carry integer weights: a bootstrap sample is a count per
training row, and rows drawn 0 times are left out.

Split search is the sorted-prefix method of C4.5 and CART: along each
candidate column, running sums give the left class counts (or target sums)
at every cut between neighbouring distinct values, scored with whole-array
arithmetic.  Class counts are integers, so their sums are exact; target
sums run in the order the node's rows have in that column, and a node's own
sums in training-row order, as a grower that copies every node's rows would
add them.  The threshold is the midpoint of the two neighbours, or a value
in [lower, upper) when the midpoint overflows or rounds up.  Selection is
deterministic: features in the given order, thresholds ascending, the
strictly greatest score wins, so ties keep the earliest candidate.

All members grow together in steps.  A member that draws candidate
features takes its next node in preorder (left subtree first), from its own
generator, so its tree is the one it would grow alone; a member that draws
nothing takes all its pending nodes, since their order cannot change its
tree.  The nodes of a step are laid side by side and scored, split and
partitioned with one batch of array operations; a step holding more than
``_BATCH_ENTRIES`` list entries runs as several batches of whole nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .base import TrainingSummary

_EPS_GAIN = 1e-12
# list entries (rows of its nodes times lists per member) that one batch of a
# growth step holds; a batch holds whole nodes, at least one
_BATCH_ENTRIES = 1 << 17


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

    def preorder(self) -> list["Node"]:
        """This node and all below it, each parent before its children."""
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            out.append(node)
            if not node.is_leaf:
                stack += (node.right, node.left)
        return out

    def depth(self) -> int:
        depth, stack = 0, [(self, 0)]
        while stack:
            node, d = stack.pop()
            if node.is_leaf:
                depth = max(depth, d)
            else:
                stack += ((node.left, d + 1), (node.right, d + 1))
        return depth


def _plogp(count, total):
    """count/total * log2(count/total) elementwise, 0.0 where count is 0."""
    p = np.divide(count, total)
    return p * np.log2(p, out=np.zeros_like(p), where=count > 0)


def _entropy(neg, pos):
    """Binary entropy in bits of (neg, pos) counts, elementwise."""
    total = neg + pos
    return -(_plogp(neg, total) + _plogp(pos, total))


def _threshold(a: float, b: float) -> float:
    """A cut t with a <= t < b: the midpoint where it lies there, else
    a/2 + b/2 (the sum overflowed), else a (the midpoint rounded to b)."""
    t = (a + b) / 2.0
    if not a <= t < b:
        t = a / 2.0 + b / 2.0
        if not a <= t < b:
            t = a
    return t


@dataclass(frozen=True)
class Presort:
    """The training columns, sorted once for every tree grown on them."""

    xt: np.ndarray  # (features, rows): the training matrix transposed
    lists: np.ndarray  # (1 + features, rows): row order, then each column's order


def presort(x: np.ndarray) -> Presort:
    """Sort every column once; ties keep row order."""
    order = np.argsort(x, axis=0, kind="stable").T
    lists = np.vstack([np.arange(len(x)), order]).astype(np.int32)
    return Presort(np.ascontiguousarray(x.T), lists)


@dataclass
class _Batch:
    """The nodes of one growth step side by side: node b owns the columns
    ``starts[b]`` to ``starts[b] + lengths[b] - 1`` of ``rows``, whose row j
    holds the node's rows in the order of its j-th candidate feature.  Cut
    (j, c), a column followed by a larger value of that feature in the same
    node, sends the node's columns up to c left."""

    offsets: np.ndarray  # member of each column, times the training rows
    nodes: np.ndarray  # node of each column
    starts: np.ndarray
    lengths: np.ndarray
    rows: np.ndarray  # (k, columns)
    is_cut: np.ndarray  # (k, columns - 1)


class GainRatio:
    """Gain ratio of the class counts; ``weights`` holds one integer weight
    per member and training row."""

    def __init__(self, y: np.ndarray, weights: np.ndarray):
        self.weights = weights
        self._n = len(y)
        # a row's weight in the low 32 bits and its positive weight in the
        # high ones, so that one integer sum counts both: a member's weights
        # add up to at most the number of rows
        self._counts = (weights + ((weights * (y == 1)) << 32)).ravel()

    @staticmethod
    def _unpack(counts):
        return counts & 0xFFFFFFFF, counts >> 32

    def leaves(self, members, lengths, rows):
        """Each node as a leaf, whether it is pure (under 2 rows or one
        class), and its rows and positives by weight, packed."""
        counts = self._counts[np.repeat(members * self._n, lengths) + rows]
        stats = np.add.reduceat(counts, np.cumsum(lengths) - lengths)
        nodes, pure = [], []
        for total, positive in zip(*(part.tolist() for part in self._unpack(stats))):
            nodes.append(Node(n=total, value=positive / total, counts=(total - positive, positive)))
            pure.append(total < 2 or positive == 0 or positive == total)
        return nodes, pure, stats

    def scores(self, batch: _Batch, stats: np.ndarray) -> np.ndarray:
        """The gain ratio of every cut, -inf elsewhere."""
        feature, column = np.nonzero(batch.is_cut)
        node = batch.nodes[column]
        counts = self._counts[batch.offsets + batch.rows]
        # running sums across the nodes, less the sum before each node: exact,
        # as the counts are integers
        sums = np.cumsum(counts, axis=1)
        before = sums[:, batch.starts] - counts[:, batch.starts]
        nl, left_pos = self._unpack(sums[feature, column] - before[feature, node])
        nl, left_pos = nl.astype(float), left_pos.astype(float)

        total, positive = (part.astype(float) for part in self._unpack(stats))
        negative = total - positive
        parent_entropy = _entropy(negative, positive)[node]
        total, positive, negative = total[node], positive[node], negative[node]
        left_neg = nl - left_pos
        pl, pr = nl / total, (total - nl) / total
        gain = (
            parent_entropy
            - pl * _entropy(left_neg, left_pos)
            - pr * _entropy(negative - left_neg, positive - left_pos)
        )
        split_info = -(pl * np.log2(pl) + pr * np.log2(pr))
        score = np.full(batch.is_cut.shape, -np.inf)
        score[feature, column] = np.where(gain > _EPS_GAIN, gain / split_info, -np.inf)
        return score


class SquaredError:
    """Sum-of-squares reduction of a real target; one member, unit weights.

    A node's sums run over its rows in training-row order and its running
    sums in each column's order, as in a grower that copies every node's
    rows out of the training set, so that each sum keeps its rounding.
    """

    def __init__(self, y: np.ndarray):
        self.weights = np.ones((1, len(y)), dtype=np.int64)
        self._y = y

    def leaves(self, members, lengths, rows):
        """Each node as a leaf (its mean target), whether its targets are
        all equal or it has under 2 rows, and its (sum, sum of squares)."""
        y = self._y[rows]
        y2 = y * y
        starts = np.cumsum(lengths) - lengths
        pure = (lengths < 2) | (np.minimum.reduceat(y, starts) == np.maximum.reduceat(y, starts))
        # pairwise summation depends on the length, so each node sums alone;
        # a pure node is never scored and needs no sum of squares
        stats = [
            (float(y[a : a + n].sum()), 0.0 if p else float(y2[a : a + n].sum()))
            for a, n, p in zip(starts.tolist(), lengths.tolist(), pure.tolist())
        ]
        nodes = [Node(n=n, value=total / n) for n, (total, _) in zip(lengths.tolist(), stats)]
        return nodes, pure.tolist(), np.array(stats)

    def scores(self, batch: _Batch, stats: np.ndarray) -> np.ndarray:
        """The reduction of every cut, -inf elsewhere."""
        yo = self._y[batch.rows]
        y2 = yo * yo
        # running sums restart in every node
        ys, y2s = np.empty_like(yo), np.empty_like(y2)
        for a, n in zip(batch.starts.tolist(), batch.lengths.tolist()):
            np.cumsum(yo[:, a : a + n], axis=1, out=ys[:, a : a + n])
            np.cumsum(y2[:, a : a + n], axis=1, out=y2s[:, a : a + n])
        ys, y2s = ys[:, :-1], y2s[:, :-1]

        node = batch.nodes[:-1]
        total_sum, total_sq = stats[node].T
        n = batch.lengths[node].astype(float)
        nl = np.arange(1.0, len(node) + 1) - batch.starts[node]
        # a node's last column is no cut; 1 there only avoids dividing by 0
        nr = np.maximum(n - nl, 1.0)
        parent_sse = total_sq - total_sum * total_sum / n
        # float_power is libm pow, as Python's float ** 2 is; np.square
        # rounds differently in the last bit for about one value in a thousand
        left_sse = y2s - np.float_power(ys, 2.0) / nl
        right_sse = (total_sq - y2s) - np.float_power(total_sum - ys, 2.0) / nr
        reduction = parent_sse - left_sse - right_sse
        return np.where(batch.is_cut & (reduction > _EPS_GAIN), reduction, -np.inf)


def grow(
    data: Presort,
    criterion,
    max_depth: int,
    minimal_gain: float = 0.0,
    rngs=None,
    n_feature_subsample: int | None = None,
) -> list[Node]:
    """One tree per row of ``criterion.weights``, all grown together.

    A node with fewer than 2 rows (by weight), a pure node and a node at
    depth ``max_depth`` are leaves; so is a node whose best split scores
    below ``minimal_gain`` or that has no split.
    With ``rngs`` and ``n_feature_subsample`` set, each member draws its
    candidate features from its own generator at every node it tries to
    split.  A member that draws nothing takes all its pending nodes in one
    step, since the order of growth cannot change its tree.
    """
    growth = _Growth(data, criterion, minimal_gain, rngs, n_feature_subsample)
    in_bag = criterion.weights > 0
    roots = growth.make_nodes(
        np.arange(len(in_bag)),
        np.zeros(len(in_bag), dtype=int),
        in_bag.sum(axis=1),
        np.full(len(in_bag), max_depth),
        np.nonzero(in_bag)[1],  # each member's rows in training-row order
    )
    stacks = growth.stacks
    while any(stacks):
        step = []
        for stack in stacks:
            if growth.rngs is None:
                step += stack
                stack.clear()
            elif stack:
                step.append(stack.pop())
        batch, columns = [], 0
        for item in step:
            if batch and columns + item[2] > growth.batch_columns:
                growth.split(batch)
                batch, columns = [], 0
            batch.append(item)
            columns += item[2]
        growth.split(batch)
    return roots


class _Growth:
    """Every member's rows in each of its lists (training-row order, then
    each column's order), one node per segment, the pending nodes of every
    member, and the batch step that splits nodes."""

    def __init__(self, data, criterion, minimal_gain, rngs, n_feature_subsample):
        n_features, n_rows = data.xt.shape
        self.criterion = criterion
        self.minimal_gain = minimal_gain
        subsample = rngs is not None and n_feature_subsample is not None
        self.rngs = rngs if subsample else None
        self.k = min(n_feature_subsample, n_features) if subsample else n_features
        self.n_lists = n_features + 1
        self.batch_columns = _BATCH_ENTRIES // self.n_lists
        self.xt = data.xt.ravel()  # feature f of row r at f * n_rows + r
        self.every_feature = np.arange(n_features)[:, None]

        in_bag = criterion.weights > 0
        sizes = in_bag.sum(axis=1)
        stride = sizes.max()
        rows = np.empty((len(in_bag), self.n_lists, stride), dtype=np.int32)
        lists = data.lists
        for m, size in enumerate(sizes.tolist()):
            kept = lists if size == n_rows else lists[in_bag[m][lists]].reshape(-1, size)
            rows[m, :, :size] = kept
        self.flat = rows.reshape(-1)
        self.member_size = self.n_lists * stride
        self.list_starts = np.arange(self.n_lists)[:, None] * stride
        self.n_rows = n_rows
        self.goes_left = np.empty(len(in_bag) * n_rows, dtype=bool)  # by member and row
        # a pending node: (member, first position, rows, depth left, node, stats)
        self.stacks = [[] for _ in in_bag]

    def make_nodes(self, members, begins, lengths, depths, by_row) -> list[Node]:
        """The leaf of each segment, given its rows in training-row order.  A
        segment that may split goes on its member's stack, a member's later
        segments first, so that its first segment is taken first."""
        nodes, pure, stats = self.criterion.leaves(members, lengths, by_row)
        items = zip(members.tolist(), begins.tolist(), lengths.tolist(), depths.tolist(),
                    nodes, pure, stats.tolist())
        for m, begin, length, depth, node, p, stat in reversed(list(items)):
            if depth > 0 and not p:
                self.stacks[m].append((m, begin, length, depth, node, stat))
        return nodes

    def split(self, batch) -> None:
        """Split every node of the batch that has a split worth taking."""
        k = self.k
        members, begins, lengths, depths = np.array([item[:4] for item in batch]).T
        stats = np.array([item[5] for item in batch])
        if self.rngs is None:
            features = np.broadcast_to(np.arange(k), (len(batch), k))
        else:
            draws = [
                self.rngs[m].choice(self.n_lists - 1, size=k, replace=False)
                for m in members.tolist()
            ]
            features = np.sort(draws, axis=1)

        # every list of every node, the nodes side by side
        ends = np.cumsum(lengths)
        starts = ends - lengths
        node_of = np.repeat(np.arange(len(batch)), lengths)
        column = np.arange(ends[-1])
        positions = self.list_starts + (
            np.repeat(members * self.member_size + begins - starts, lengths) + column
        )
        rows = self.flat[positions]
        in_member = members[node_of] * self.n_rows  # offset of each column's member
        if self.rngs is None:
            cand, feature_of = rows[1:], self.every_feature
        else:
            feature_of = features[node_of].T  # (k, columns)
            cand = rows[feature_of + 1, column]
        values = self.xt[feature_of * self.n_rows + cand]
        is_cut = values[:, :-1] != values[:, 1:]
        is_cut[:, ends[:-1] - 1] = False
        score = self.criterion.scores(
            _Batch(in_member, node_of, starts, lengths, cand, is_cut), stats
        )

        # the first best cut of each node, in (feature, threshold) order
        best_of = np.maximum.reduceat(score, starts, axis=1)
        best = best_of.max(axis=0)
        chosen = best >= self.minimal_gain  # never a node without a cut
        if not chosen.any():
            return
        j = (best_of == best).argmax(axis=0)
        hit = np.flatnonzero(score[j[node_of[:-1]], column[:-1]] == best[node_of[:-1]])
        cut = hit[np.searchsorted(hit, starts)]
        feature = np.where(chosen, features[np.arange(len(batch)), j], 0)
        threshold = np.full(len(batch), np.inf)
        lows, highs = values[j, cut].tolist(), values[j, cut + 1].tolist()
        segments = []  # (member, first position, rows, depth left) of each child
        for b in np.flatnonzero(chosen).tolist():
            m, begin, length, depth, node, _ = batch[b]
            node.feature = int(feature[b])
            node.threshold = threshold[b] = _threshold(lows[b], highs[b])
            n_left = int(cut[b] - starts[b]) + 1
            segments.append((m, begin, n_left, depth - 1))
            segments.append((m, begin + n_left, length - n_left, depth - 1))

        # every list's segment of each node: left rows, then right rows, each
        # in the order they had; a node that does not split keeps its order
        at = feature[node_of] * self.n_rows + rows[0]
        self.goes_left[in_member + rows[0]] = self.xt[at] <= threshold[node_of]
        # one stable sort by (list, node, goes right); the keys are small
        # integers, which numpy sorts by radix
        n_keys = 2 * len(batch) * self.n_lists
        key = np.arange(0, n_keys, 2, dtype=np.uint16 if n_keys < 1 << 16 else np.uint32)
        key = key.reshape(self.n_lists, -1)[:, node_of] + ~self.goes_left[in_member + rows]
        moved = rows.ravel()[np.argsort(key.ravel(), kind="stable")].reshape(rows.shape)
        self.flat[positions] = moved

        children = self.make_nodes(*np.array(segments).T, moved[0, chosen[node_of]])
        for i, b in enumerate(np.flatnonzero(chosen).tolist()):
            batch[b][4].left, batch[b][4].right = children[2 * i], children[2 * i + 1]


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
    estimate = {}  # id(node) -> pessimistic errors of the node as pruned
    for nd in reversed(node.preorder()):  # children before parents
        neg, pos = nd.counts
        leaf_errors = _pessimistic_errors(nd.n, min(neg, pos), z)
        if nd.is_leaf:
            estimate[id(nd)] = leaf_errors
            continue
        subtree_errors = estimate[id(nd.left)] + estimate[id(nd.right)]
        if leaf_errors <= subtree_errors + 1e-12:
            nd.feature = None
            nd.left = nd.right = None
            estimate[id(nd)] = leaf_errors
        else:
            estimate[id(nd)] = subtree_errors
    return node


@dataclass
class Tree:
    """A fitted tree.  A leaf's value is the positive share of its training
    rows (classification) or their mean target (regression)."""

    root: Node

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The value of the leaf each row reaches."""
        out = np.empty(x.shape[0])
        stack = [(self.root, np.arange(x.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                out[rows] = node.value
            elif len(rows):
                go_left = x[rows, node.feature] <= node.threshold
                stack.append((node.right, rows[~go_left]))
                stack.append((node.left, rows[go_left]))
        return out

    predict_proba = predict

    def n_leaves(self) -> int:
        return sum(node.is_leaf for node in self.root.preorder())


def fit(x: np.ndarray, y: np.ndarray, hyper, seed: int) -> tuple[Tree, TrainingSummary]:
    (root,) = grow(
        presort(x), GainRatio(y, np.ones((1, len(y)), dtype=np.int64)),
        int(hyper["max_depth"]), minimal_gain=float(hyper["minimal_gain"]),
    )
    if hyper["confidence"] is not None:
        root = prune_pessimistic(root, float(hyper["confidence"]))
    tree = Tree(root)
    train_error = float(np.mean((tree.predict(x) >= 0.5) != y))
    return tree, TrainingSummary(iterations=1, converged=True, final_loss=train_error)
