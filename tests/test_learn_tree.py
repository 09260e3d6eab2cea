"""Decision tree growth, gain-ratio selection, pruning, and prediction."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from domcred.learn import ModelSpec, TrainedModel, TrainingSummary, train_xy
from domcred.learn.tree import (
    GainRatio,
    Node,
    SquaredError,
    Tree,
    grow,
    presort,
    prune_pessimistic,
)

from helpers import (
    blob_data,
    brute_classification_split,
    brute_regression_split,
    reference_class_leaf,
    reference_classification_split,
    reference_forest_roots,
    reference_grow,
    reference_mean_leaf,
    reference_prune,
    reference_regression_split,
    walk_tree,
)


def grow_one(x, y, max_depth, regression=False, minimal_gain=0.0):
    """One unweighted tree from the presorted grower."""
    if regression:
        criterion = SquaredError(y)
    else:
        criterion = GainRatio(y, np.ones((1, len(y)), dtype=np.int64))
    (root,) = grow(presort(x), criterion, max_depth, minimal_gain=minimal_gain)
    return root


def assert_stump_split(x, y, expected, features=None, regression=False):
    """The root split of a stump is ``expected`` = (score, feature,
    threshold), or the stump is a leaf when ``expected`` is None.

    The grower does not report scores, so the score is pinned through
    minimal_gain: the stump must split at minimal_gain = score and be a leaf
    at the next float above it.
    """
    features = list(range(x.shape[1]) if features is None else features)
    sub = x[:, features]
    if expected is None:
        assert grow_one(sub, y, 1, regression).is_leaf
        return
    score, feature, threshold = expected
    root = grow_one(sub, y, 1, regression, minimal_gain=score)
    assert (features[root.feature], root.threshold) == (feature, threshold)
    assert grow_one(sub, y, 1, regression, minimal_gain=np.nextafter(score, np.inf)).is_leaf


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
        fitted, _ = tree_mod.fit(x, np.ones(6), spec.hyperparameters, seed=0)
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

        fitted, _ = tree_mod.fit(x, y, spec.hyperparameters, seed=0)
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
        assert a.params == b.params

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

        expected = brute_classification_split(x, y, range(2))
        assert expected[1:] == (0, 0.5)
        assert expected[0] == pytest.approx(0.25375, abs=1e-4)
        assert_stump_split(x, y, expected)

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
        root = grow_one(x, y, 4, regression=True)
        assert root.feature == 0
        assert root.threshold == 4.5
        assert root.left.is_leaf and root.left.value == 1.0
        assert root.right.is_leaf and root.right.value == 5.0

    def test_constant_target_is_leaf(self):
        x = np.arange(5.0).reshape(-1, 1)
        root = grow_one(x, np.full(5, 2.5), 3, regression=True)
        assert root.is_leaf
        assert root.value == 2.5

    def test_depth_zero_returns_mean_leaf(self):
        x = np.arange(4.0).reshape(-1, 1)
        y = np.array([0.0, 1.0, 2.0, 3.0])
        root = grow_one(x, y, 0, regression=True)
        assert root.is_leaf
        assert root.value == 1.5

    def test_splits_reduce_squared_error(self):
        rng = np.random.default_rng(24)
        x = rng.uniform(size=(50, 2))
        y = np.where(x[:, 0] > 0.5, 2.0, -1.0) + 0.1 * rng.normal(size=50)
        root = grow_one(x, y, 3, regression=True)
        fitted = Tree(root)
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
        assert_stump_split(x, y, brute_classification_split(x, y, features), features)

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
        # equal targets make a leaf before any search; the loop would report
        # a rounding residue of their sum of squares as a reduction
        expected = None if np.all(y == y[0]) else brute_regression_split(x, y)
        assert_stump_split(x, y, expected, regression=True)

    def test_tie_keeps_the_earliest_feature(self):
        root = grow_one(_TIE_X, _TIE_Y, 1)
        assert (root.feature, root.threshold) == (1, 2.5)


def _thresholds(node: Node) -> list[tuple[int, float]]:
    if node.is_leaf:
        return []
    return [(node.feature, node.threshold), *_thresholds(node.left), *_thresholds(node.right)]


def _query_rows(x: np.ndarray, root: Node) -> np.ndarray:
    """The training rows, then copies of them with one column set exactly to
    each node's threshold."""
    rows = [x]
    for feature, threshold in _thresholds(root):
        on = x.copy()
        on[:, feature] = threshold
        rows.append(on)
    return np.vstack(rows)


class TestVectorisedPredict:
    """Tree.predict routes every row down at once; the per-row walk is the oracle."""

    @given(
        split_problems(),
        arrays(np.float64, 12, elements=st.floats(-1e3, 1e3, allow_nan=False)),
        st.integers(0, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_row_walk(self, problem, targets, max_depth):
        x, y, _ = problem
        roots = [
            grow_one(x, y, max_depth),
            grow_one(x, targets[: len(x)], max_depth, regression=True),
        ]
        for root in roots:
            for rows in (_query_rows(x, root), x[:0]):
                got = Tree(root).predict(rows)
                want = walk_tree(root, rows)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_single_leaf_root(self):
        tree = Tree(Node(n=3, value=0.25))
        x = np.arange(6.0).reshape(3, 2)
        assert tree.predict(x).tolist() == [0.25, 0.25, 0.25]
        assert tree.predict(x[:0]).shape == (0,)


def _split(n, value, counts, feature, threshold, left, right):
    return Node(n=n, value=value, counts=counts, feature=feature, threshold=threshold,
                left=left, right=right)


# a hand-written depth-2 decision tree; PREDICTED is what it has always
# returned for QUERY, rows on a threshold ((0.35, 0.5) and kin) included
PINNED_TREE = Tree(
    _split(
        10, 0.5, (5, 5), 0, 0.35,
        _split(
            5, 0.2, (4, 1), 1, 0.5,
            Node(n=3, value=0.0, counts=(3, 0)),
            Node(n=2, value=0.5, counts=(1, 1)),
        ),
        _split(
            5, 0.8, (1, 4), 1, 0.5,
            Node(n=3, value=1.0, counts=(0, 3)),
            Node(n=2, value=0.5, counts=(1, 1)),
        ),
    )
)
QUERY = [[0, 0], [1, 1], [0.5, 0.5], [0.25, 2.5], [9, -9], [0.35, 0.5], [0.35, 0.6], [0.36, 0.5]]
PREDICTED = [0.0, 0.5, 1.0, 0.5, 1.0, 0.0, 0.5, 1.0]


class TestPinnedTree:
    def test_hand_built_tree_predicts_as_before(self):
        model = TrainedModel(
            spec=ModelSpec("decision_tree", hyperparameters={"max_depth": 2, "confidence": None}),
            params=PINNED_TREE,
            summary=TrainingSummary(iterations=1, converged=True, final_loss=0.2),
            n_features=2,
        )
        assert model.predict_proba(QUERY).tolist() == PREDICTED
        assert model.classify(QUERY)[:2] == ["NonInfluencer", "Influencer"]


# ties, duplicate rows and constant columns from the small cells; n = 2 and
# one-class samples from the short label vectors
@st.composite
def learning_problems(draw):
    n = draw(st.integers(2, 24))
    p = draw(st.integers(1, 5))
    x = draw(arrays(np.float64, (n, p), elements=_CELLS))
    y = draw(arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0])))
    return x, y


def _forest_roots(x, y, hyper, seed):
    from domcred.learn import forest

    spec = ModelSpec("random_forest", hyperparameters=hyper)
    fitted, _ = forest.fit(x, y, spec.hyperparameters, seed)
    return [member.root for member in fitted.members]


def _boosting_stages(x, y, hyper):
    """Each stage's residual and its tree as grown, before the leaves are scaled."""
    import copy
    from unittest import mock

    from domcred.learn import boosting

    stages = []

    def recording_grow(data, criterion, max_depth, **kwargs):
        roots = grow(data, criterion, max_depth, **kwargs)
        stages.append((criterion._y.copy(), copy.deepcopy(roots[0])))
        return roots

    with mock.patch.object(boosting, "grow", recording_grow):
        spec = ModelSpec("gradient_boosted_trees", hyperparameters=hyper)
        boosting.fit(x, y, spec.hyperparameters, 0)
    return stages


class TestGrowerOracle:
    """The presorted lockstep grower builds the trees of the recursive one
    (tests/helpers.py), node for node and bit for bit."""

    @given(
        learning_problems(),
        st.integers(1, 4),
        st.booleans(),
        st.sampled_from([None, "sqrt", 1, 2, 7]),
        st.integers(1, 5),
        st.sampled_from([0.0, 0.05]),
        st.integers(0, 2**32 - 1),
    )
    # n = 2 with bootstrap: some members draw one row twice, a one-class sample
    @example((np.array([[0.0], [1.0]]), np.array([0.0, 1.0])), 4, True, "sqrt", 3, 0.0, 0)
    # a constant column beside tied ones
    @example((_TIE_X, _TIE_Y), 3, True, 2, 5, 0.05, 1)
    @settings(max_examples=150, deadline=None)
    def test_random_forest(self, problem, n_trees, bootstrap, subsample, max_depth, gain, seed):
        x, y = problem
        hyper = {
            "n_trees": n_trees, "bootstrap": bootstrap, "feature_subsample": subsample,
            "max_depth": max_depth, "minimal_gain": gain,
        }
        spec = ModelSpec("random_forest", hyperparameters=hyper)
        want = reference_forest_roots(x, y, spec.hyperparameters, seed)
        assert _forest_roots(x, y, hyper, seed) == want

    @given(
        learning_problems(),
        st.integers(1, 6),
        st.sampled_from([None, 0.1, 0.25]),
        st.sampled_from([0.0, 0.05]),
    )
    @settings(max_examples=150, deadline=None)
    def test_decision_tree(self, problem, max_depth, confidence, gain):
        x, y = problem
        hyper = {"max_depth": max_depth, "confidence": confidence, "minimal_gain": gain}
        want = reference_grow(
            x, y, max_depth, reference_classification_split, reference_class_leaf,
            minimal_gain=gain,
        )
        if confidence is not None:
            want = reference_prune(want, confidence)
        from domcred.learn import tree as tree_module

        spec = ModelSpec("decision_tree", hyperparameters=hyper)
        assert tree_module.fit(x, y, spec.hyperparameters, 0)[0].root == want

    @given(learning_problems(), st.integers(1, 3), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_every_boosting_stage(self, problem, n_trees, max_depth):
        x, y = problem
        stages = _boosting_stages(x, y, {"n_trees": n_trees, "max_depth": max_depth})
        assert len(stages) == n_trees
        for residual, root in stages:
            want = reference_grow(
                x, residual, max_depth, reference_regression_split, reference_mean_leaf
            )
            assert root == want

    def test_a_step_across_several_batches(self, monkeypatch):
        from domcred.learn import tree as tree_module

        x, y = blob_data(seed=38, n_per=30, n_features=5, gap=0.7)
        hyper = {"n_trees": 12, "feature_subsample": 2, "max_depth": 6, "minimal_gain": 0.0}
        spec_hyper = ModelSpec("random_forest", hyperparameters=hyper).hyperparameters
        want = reference_forest_roots(x, y, spec_hyper, 5)
        batches = []
        split = tree_module._Growth.split

        def counting_split(self, batch):
            batches.append(len(batch))
            return split(self, batch)

        # 6 lists of at most 60 rows: 40 columns hold one or two nodes
        monkeypatch.setattr(tree_module, "_BATCH_ENTRIES", 6 * 40)
        monkeypatch.setattr(tree_module._Growth, "split", counting_split)
        assert _forest_roots(x, y, hyper, 5) == want
        assert max(batches) > 1 and min(batches) == 1
        assert len(batches) > 2 * max(root.depth() for root in want)
        tree = train_xy(ModelSpec("decision_tree", hyperparameters={"max_depth": 6}), x, y)
        wide = reference_prune(
            reference_grow(x, y, 6, reference_classification_split, reference_class_leaf, 0.05),
            0.1,
        )
        assert tree.params.root == wide


# neighbouring values whose midpoint leaves [a, b): the sum overflows, or the
# midpoint rounds up to b
_HUGE = np.linspace(1.6e308, 1.79e308, 20)
_NEXT = np.array([1 + 2.0**-52] * 6 + [np.nextafter(1 + 2.0**-52, 2.0)] * 6)


class TestThresholdSeparatesNeighbours:
    @pytest.mark.parametrize("column", [_HUGE, _NEXT], ids=["overflow", "rounding"])
    @pytest.mark.parametrize(
        "algorithm", ["decision_tree", "random_forest", "gradient_boosted_trees"]
    )
    def test_separable_rows_are_learned(self, algorithm, column):
        import warnings

        x = column.reshape(-1, 1)
        y = (np.arange(len(column)) >= len(column) // 2).astype(float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train_xy(ModelSpec(algorithm), x, y)
            predicted = model.predict_proba(x) >= 0.5
        assert np.array_equal(predicted, y == 1.0)
        # every threshold lies between two training values, below the larger
        for member in getattr(model.params, "members", [model.params]):
            for node in member.root.preorder():
                assert node.is_leaf or column[0] <= node.threshold < column[-1]

    def test_threshold_rule(self):
        from domcred.learn.tree import _threshold

        a = 1 + 2.0**-52
        assert _threshold(a, np.nextafter(a, 2.0)) == a
        assert _threshold(1.7e308, 1.79e308) == 1.7e308 / 2 + 1.79e308 / 2
        assert _threshold(1.0, 3.0) == 2.0
        assert _threshold(-1.0, 0.0) == -0.5


class TestDeepTrees:
    """2400 alternating labels at max_depth 5000: growth, pruning, depth,
    leaf count and prediction run without recursion."""

    X = np.arange(2400.0).reshape(-1, 1)
    Y = (np.arange(2400) % 2).astype(float)

    def test_decision_tree(self):
        import sys

        grown = train_xy(
            ModelSpec("decision_tree", hyperparameters={"max_depth": 5000, "confidence": None}),
            self.X, self.Y,
        )
        assert grown.params.root.depth() > sys.getrecursionlimit()
        assert grown.params.n_leaves() == len(self.Y)
        assert np.array_equal(grown.predict_proba(self.X), self.Y)
        pruned = train_xy(
            ModelSpec("decision_tree", hyperparameters={"max_depth": 5000}), self.X, self.Y
        )
        assert pruned.params.n_leaves() < grown.params.n_leaves()

    def test_random_forest(self):
        import sys

        model = train_xy(
            ModelSpec(
                "random_forest",
                hyperparameters={"max_depth": 5000, "n_trees": 3, "bootstrap": False},
            ),
            self.X, self.Y,
        )
        assert max(m.root.depth() for m in model.params.members) > sys.getrecursionlimit()
        assert np.array_equal(model.predict_proba(self.X) >= 0.5, self.Y == 1.0)
