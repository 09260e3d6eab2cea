"""Decision tree growth, gain-ratio selection, and pessimistic pruning."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from domcred.learn import ModelSpec, train_xy
from domcred.learn.tree import (
    Node,
    _best_classification_split,
    _best_regression_split,
    grow_regression,
    prune_pessimistic,
)

from helpers import brute_classification_split, brute_regression_split

# asymmetric corner counts give the root split positive gain, unlike the
# perfectly symmetric version whose every axis split has gain zero
XOR_X = np.array(
    [[0, 0], [0, 0], [0, 0], [0, 1], [1, 0], [1, 0], [1, 0], [1, 1]],
    dtype=float,
)
XOR_Y = np.array([0, 0, 0, 1, 1, 1, 1, 0], dtype=float)


class TestClassificationGrowth:
    def test_xor_needs_depth_two(self):
        model = train_xy(ModelSpec("decision_tree"), XOR_X, XOR_Y)
        assert model.params.root.depth() == 2
        assert model.params.n_leaves() == 4
        assert np.array_equal(model.predict_proba(XOR_X) >= 0.5, XOR_Y == 1.0)
        assert model.summary.final_loss == 0.0

    def test_stump_caps_xor_accuracy_at_75_percent(self):
        model = train_xy(
            ModelSpec("decision_tree", hyperparameters={"max_depth": 1}),
            XOR_X,
            XOR_Y,
        )
        accuracy = np.mean((model.predict_proba(XOR_X) >= 0.5) == (XOR_Y == 1.0))
        assert accuracy == 0.75

    def test_single_class_is_a_leaf(self):
        from domcred.learn import tree as tree_mod

        spec = ModelSpec("decision_tree")
        x = np.arange(6.0).reshape(-1, 1)
        fitted, _ = tree_mod.fit(x, np.ones(6), spec.hyper, seed=0)
        assert fitted.root.is_leaf
        assert fitted.root.value == 1.0

    def test_threshold_is_midpoint(self):
        x = np.array([[1.0], [2.0], [3.0], [5.0], [6.0], [7.0]])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        model = train_xy(ModelSpec("decision_tree"), x, y)
        root = model.params.root
        assert root.feature == 0
        assert root.threshold == 4.0

    def test_boundary_value_goes_left(self):
        x = np.array([[1.0], [3.0]])
        y = np.array([0.0, 1.0])
        spec = ModelSpec("decision_tree", hyperparameters={"confidence": None})
        from domcred.learn import tree as tree_mod

        fitted, _ = tree_mod.fit(x, y, spec.hyper, seed=0)
        assert fitted.root.threshold == 2.0
        assert fitted.predict_proba(np.array([[2.0]]))[0] == 0.0

    def test_minimal_gain_stops_weak_splits(self):
        model = train_xy(
            ModelSpec("decision_tree", hyperparameters={"minimal_gain": 0.5}),
            XOR_X,
            XOR_Y,
        )
        # the root split's gain ratio is ~0.19, below the floor
        assert model.params.root.is_leaf

    def test_deterministic(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(60, 4))
        y = (x[:, 0] + 0.5 * rng.normal(size=60) > 0).astype(float)
        a = train_xy(ModelSpec("decision_tree"), x, y)
        b = train_xy(ModelSpec("decision_tree"), x, y)
        assert a.params.to_dict() == b.params.to_dict()

    def test_max_depth_respected(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(100, 3))
        y = (rng.uniform(size=100) < 0.5).astype(float)
        model = train_xy(
            ModelSpec(
                "decision_tree",
                hyperparameters={
                    "max_depth": 2,
                    "minimal_gain": 0.0,
                    "confidence": None,
                },
            ),
            x,
            y,
        )
        assert model.params.root.depth() <= 2


class TestGainRatioSelection:
    def test_prefers_lower_split_info_over_raw_gain(self):
        # column 0 carves off one positive row: gain 0.138, ratio 0.254.
        # column 1 splits evenly: gain 0.189, ratio 0.189.  Information
        # gain alone would choose column 1; gain ratio must choose 0.
        x = np.column_stack(
            [
                [0, 1, 1, 1, 1, 1, 1, 1],
                [0, 0, 0, 0, 1, 1, 1, 1],
            ]
        ).astype(float)
        y = np.array([1, 1, 1, 0, 1, 0, 0, 0], dtype=float)

        best = _best_classification_split(x, y, range(2))
        ratio, feature, threshold = best
        assert feature == 0
        assert threshold == 0.5
        assert ratio == pytest.approx(0.25375, abs=1e-4)

    def test_stump_follows_the_ratio(self):
        x = np.column_stack(
            [
                [0, 1, 1, 1, 1, 1, 1, 1],
                [0, 0, 0, 0, 1, 1, 1, 1],
            ]
        ).astype(float)
        y = np.array([1, 1, 1, 0, 1, 0, 0, 0], dtype=float)
        model = train_xy(
            ModelSpec(
                "decision_tree",
                hyperparameters={"max_depth": 1, "confidence": None},
            ),
            x,
            y,
        )
        assert model.params.root.feature == 0


class TestPessimisticPruning:
    def split_node(self, counts, left, right):
        node = Node(
            n=sum(counts),
            value=counts[1] / sum(counts),
            counts=counts,
            feature=0,
            threshold=0.5,
            left=Node(n=sum(left), value=left[1] / sum(left), counts=left),
            right=Node(n=sum(right), value=right[1] / sum(right), counts=right),
        )
        return node

    def test_noise_split_collapses(self):
        # children stay nearly as impure as the parent, so the upper
        # confidence bounds favor the single leaf
        node = self.split_node((5, 4), (3, 2), (2, 2))
        pruned = prune_pessimistic(node, confidence=0.25)
        assert pruned.is_leaf
        assert pruned.counts == (5, 4)

    def test_clean_split_survives(self):
        node = self.split_node((8, 1), (8, 0), (0, 1))
        pruned = prune_pessimistic(node, confidence=0.25)
        assert not pruned.is_leaf

    def test_pruning_is_bottom_up(self):
        # the grandchildren collapse into a leaf, and that collapse makes
        # the root collapse too
        inner = self.split_node((5, 4), (3, 2), (2, 2))
        root = Node(
            n=13,
            value=6 / 13,
            counts=(7, 6),
            feature=1,
            threshold=0.5,
            left=inner,
            right=Node(n=4, value=0.5, counts=(2, 2)),
        )
        pruned = prune_pessimistic(root, confidence=0.25)
        assert pruned.is_leaf

    def test_none_confidence_disables_pruning(self):
        # two distinct x values force exactly the noisy split from
        # test_noise_split_collapses, so only the confidence setting differs
        x = np.array([[0.0]] * 5 + [[1.0]] * 4)
        y = np.array([0, 0, 0, 1, 1, 0, 0, 1, 1], dtype=float)
        kwargs = {"max_depth": 6, "minimal_gain": 0.0}
        grown = train_xy(
            ModelSpec(
                "decision_tree", hyperparameters={**kwargs, "confidence": None}
            ),
            x,
            y,
        )
        pruned = train_xy(
            ModelSpec(
                "decision_tree", hyperparameters={**kwargs, "confidence": 0.25}
            ),
            x,
            y,
        )
        assert not grown.params.root.is_leaf
        assert grown.params.n_leaves() == 2
        assert pruned.params.root.is_leaf


class TestRegressionTree:
    def test_step_function_recovered(self):
        x = np.arange(1.0, 9.0).reshape(-1, 1)
        y = np.array([1.0, 1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 5.0])
        root = grow_regression(x, y, max_depth=4)
        assert root.feature == 0
        assert root.threshold == 4.5
        assert root.left.is_leaf and root.left.value == 1.0
        assert root.right.is_leaf and root.right.value == 5.0

    def test_constant_target_is_leaf(self):
        x = np.arange(5.0).reshape(-1, 1)
        root = grow_regression(x, np.full(5, 2.5), max_depth=3)
        assert root.is_leaf
        assert root.value == 2.5

    def test_depth_zero_returns_mean_leaf(self):
        x = np.arange(4.0).reshape(-1, 1)
        y = np.array([0.0, 1.0, 2.0, 3.0])
        root = grow_regression(x, y, max_depth=0)
        assert root.is_leaf
        assert root.value == 1.5

    def test_splits_reduce_squared_error(self):
        rng = np.random.default_rng(24)
        x = rng.uniform(size=(50, 2))
        y = np.where(x[:, 0] > 0.5, 2.0, -1.0) + 0.1 * rng.normal(size=50)
        root = grow_regression(x, y, max_depth=3)
        from domcred.learn.tree import RegressionTree

        fitted = RegressionTree(root)
        sse_tree = float(np.sum((fitted.predict(x) - y) ** 2))
        sse_mean = float(np.sum((y - y.mean()) ** 2))
        assert sse_tree < 0.2 * sse_mean


# few distinct values give duplicate and constant columns; the wide floats
# give distinct ones
_CELLS = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
)


@st.composite
def split_problems(draw):
    n = draw(st.integers(2, 12))
    p = draw(st.integers(1, 4))
    x = draw(arrays(np.float64, (n, p), elements=_CELLS))
    # sampled_from shrinks towards all-negative labels, so single-class and
    # one-off label vectors come up often
    y = draw(arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0])))
    chosen = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=p, unique=True))
    features = draw(st.sampled_from([range(p), np.array(sorted(chosen))]))
    return x, y, features


# a constant column first, then two columns whose best cuts tie exactly: the
# first feature's last cut must win over the second feature's first cut
_TIE_X = np.array([[1.0, 3.0, 0.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0], [1.0, 0.0, 3.0]])
_TIE_Y = np.array([0.0, 1.0, 1.0, 1.0])


class TestSplitSearchOracle:
    """The vectorised split search equals the one-cut-at-a-time loops exactly."""

    @given(split_problems())
    @example((_TIE_X, _TIE_Y, range(3)))
    @settings(max_examples=200, deadline=None)
    def test_classification_split_matches_loop(self, problem):
        x, y, features = problem
        assert _best_classification_split(x, y, features) == brute_classification_split(
            x, y, features
        )

    @given(
        split_problems(),
        arrays(np.float64, 12, elements=st.floats(-1e3, 1e3, allow_nan=False)),
    )
    # Python's float ** 2 (libm pow) and x * x differ in the last bit here
    @example((np.array([[0.0], [1.0]]), np.zeros(2), range(1)),
             np.array([-1180.4827732401302, 0.0] + [0.0] * 10))
    @settings(max_examples=200, deadline=None)
    def test_regression_split_matches_loop(self, problem, targets):
        x, _, _ = problem
        y = targets[: len(x)]
        assert _best_regression_split(x, y) == brute_regression_split(x, y)

    def test_tie_keeps_the_earliest_feature(self):
        ratio, feature, threshold = _best_classification_split(_TIE_X, _TIE_Y, range(3))
        assert (feature, threshold) == (1, 2.5)
