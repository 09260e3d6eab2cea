"""Tests for splitting, confusion metrics, ROC sweeps, and the benchmark."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from domcred.corpus.types import INFLUENCER, NON_INFLUENCER
from domcred.evaluate import (
    BenchmarkReport,
    ConfusionTable,
    SplitSpec,
    benchmark,
    confusion,
    default_specs,
    format_percent,
    matrix_fingerprint,
    metrics,
    render_table,
    roc,
    split,
    split_indices,
)
from domcred.features import FEATURE_COLUMNS, FeatureMatrix
from domcred.learn import ModelSpec
from domcred.learn.base import ALGORITHMS

from helpers import brute_wilcoxon_auc

I = INFLUENCER
N = NON_INFLUENCER


def labeled_matrix(seed=0, n_pos=20, n_neg=40, shift=4.0):
    """Random labeled matrix with positives shifted up on every column."""
    rng = np.random.default_rng(seed)
    pos = rng.normal(1.0 + shift, 1.0, size=(n_pos, len(FEATURE_COLUMNS)))
    neg = rng.normal(1.0, 1.0, size=(n_neg, len(FEATURE_COLUMNS)))
    x = np.vstack([pos, neg])
    labels = (I,) * n_pos + (N,) * n_neg
    order = rng.permutation(n_pos + n_neg)
    return FeatureMatrix(
        domain="Technology and Computing",
        period=0,
        user_ids=tuple(f"u{i:03d}" for i in range(n_pos + n_neg)),
        rows=tuple(map(tuple, x[order].tolist())),
        labels=tuple(labels[i] for i in order),
    )


def fast_specs(seed=0):
    hyper = {
        "naive_bayes": {},
        "logistic": {"max_iter": 50},
        "glm_elastic_net": {"lambda": 0.01, "max_iter": 50},
        "decision_tree": {"max_depth": 5},
        "random_forest": {"n_trees": 10, "max_depth": 5},
        "gradient_boosted_trees": {"n_trees": 5, "max_depth": 3},
        # the adaptive-rate accumulators need a warm-up, so epochs stay high
        "neural_net": {"hidden": (8,), "epochs": 120},
    }
    return tuple(
        ModelSpec(algorithm=a, hyperparameters=hyper[a], seed=seed + i)
        for i, a in enumerate(ALGORITHMS)
    )


class TestSplitIndices:
    def test_ten_rows_give_six_train_four_test(self):
        labels = [I] * 6 + [N] * 4
        train, test = split_indices(labels, SplitSpec(train_fraction=0.6, seed=0))
        assert len(train) == 6
        assert len(test) == 4
        assert sorted(np.concatenate([train, test]).tolist()) == list(range(10))

    def test_fraction_arithmetic_is_not_truncated_by_float_dust(self):
        # int(100 * 0.29) == 28 in raw float arithmetic; the split must take 29
        labels = [I] * 50 + [N] * 50
        train, test = split_indices(
            labels, SplitSpec(train_fraction=0.29, seed=1, stratified=False)
        )
        assert len(train) == 29
        assert len(test) == 71

    def test_stratified_counts_within_one_row_per_class(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n_pos = int(rng.integers(3, 20))
            n_neg = int(rng.integers(3, 20))
            fraction = float(rng.uniform(0.3, 0.8))
            labels = [I] * n_pos + [N] * n_neg
            rng.shuffle(labels)
            train, test = split_indices(labels, SplitSpec(train_fraction=fraction, seed=7))
            assert sorted(np.concatenate([train, test]).tolist()) == list(range(len(labels)))
            for cls, total in ((I, n_pos), (N, n_neg)):
                got = sum(1 for i in train if labels[i] == cls)
                assert abs(got - total * fraction) < 1.0 + 1e-9
                assert 1 <= got <= total - 1

    def test_deterministic_per_seed(self):
        labels = [I] * 10 + [N] * 15
        spec = SplitSpec(train_fraction=0.6, seed=11)
        first = split_indices(labels, spec)
        second = split_indices(labels, spec)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])
        other = split_indices(labels, SplitSpec(train_fraction=0.6, seed=12))
        assert not np.array_equal(first[0], other[0])

    def test_indices_are_sorted_and_disjoint(self):
        labels = [I] * 8 + [N] * 12
        train, test = split_indices(labels, SplitSpec(seed=3))
        assert np.all(np.diff(train) > 0)
        assert np.all(np.diff(test) > 0)
        assert not set(train.tolist()) & set(test.tolist())

    def test_single_row_class_rejected(self):
        with pytest.raises(ValueError, match="too few rows per class"):
            split_indices([I] * 9 + [N], SplitSpec(seed=0))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            split_indices([I] * 10, SplitSpec(seed=0))

    def test_too_small_to_split(self):
        with pytest.raises(ValueError, match="cannot split"):
            split_indices([I], SplitSpec(train_fraction=0.6, stratified=False))

    def test_fraction_bounds_validated(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=0.0)
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=1.0)

    def test_unstratified_ignores_labels(self):
        labels = [I] * 2 + [N] * 8
        train, test = split_indices(
            labels, SplitSpec(train_fraction=0.5, seed=2, stratified=False)
        )
        assert len(train) == 5
        assert len(test) == 5


class TestSplitMatrix:
    def test_partition_preserves_rows(self):
        matrix = labeled_matrix(seed=1)
        train, test = split(matrix, SplitSpec(seed=5))
        assert train.n_rows + test.n_rows == matrix.n_rows
        assert train.domain == matrix.domain
        assert test.period == matrix.period
        assert not set(train.user_ids) & set(test.user_ids)

        lookup = {u: i for i, u in enumerate(matrix.user_ids)}
        for part in (train, test):
            for i, user in enumerate(part.user_ids):
                j = lookup[user]
                np.testing.assert_array_equal(part.x[i], matrix.x[j])
                assert part.labels[i] == matrix.labels[j]

    def test_unlabeled_matrix_rejected(self):
        matrix = labeled_matrix(seed=2)
        bare = FeatureMatrix(
            domain=matrix.domain,
            period=matrix.period,
            user_ids=matrix.user_ids,
            rows=matrix.rows,
        )
        with pytest.raises(ValueError, match="no labels"):
            split(bare, SplitSpec())


class TestConfusionTable:
    def test_counts_from_prediction_pairs(self):
        preds = [I, I, N, N, I]
        labels = [I, N, I, N, N]
        ct = confusion(preds, labels)
        assert (ct.tp, ct.fp, ct.fn, ct.tn) == (1, 2, 1, 1)
        assert ct.total == 5

    def test_all_correct(self):
        ct = confusion([I, N, N], [I, N, N])
        assert (ct.tp, ct.fp, ct.fn, ct.tn) == (1, 0, 0, 2)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ConfusionTable(tp=-1, fp=0, fn=0, tn=0)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown class"):
            confusion(["Maybe"], [I])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            confusion([I, N], [I])


class TestMetrics:
    def test_hand_worked_table(self):
        report = metrics(ConfusionTable(tp=4, fp=1, fn=2, tn=3))
        assert report.accuracy == pytest.approx(0.7)
        assert report.classification_error == pytest.approx(0.3)
        assert report.precision == pytest.approx(4 / 5)
        assert report.recall == pytest.approx(4 / 6)
        assert report.f_score == pytest.approx(8 / 11)
        assert report.warnings == ()

    def test_error_and_accuracy_sum_exactly_to_one(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            tp, fp, fn, tn = (int(v) for v in rng.integers(0, 50, size=4))
            if tp + fp + fn + tn == 0:
                continue
            report = metrics(ConfusionTable(tp=tp, fp=fp, fn=fn, tn=tn))
            assert report.classification_error + report.accuracy == 1.0

    def test_published_style_percentages(self):
        # large skewed table: all five rates land on known 3-decimal percents
        report = metrics(ConfusionTable(tp=1114, fp=9, fn=0, tn=75))
        assert format_percent(report.accuracy) == "99.249%"
        assert format_percent(report.classification_error) == "0.751%"
        assert format_percent(report.precision) == "99.199%"
        assert format_percent(report.recall) == "100.000%"
        assert format_percent(report.f_score) == "99.598%"

    def test_no_positive_predictions_warns(self):
        report = metrics(ConfusionTable(tp=0, fp=0, fn=3, tn=7))
        assert report.precision == 0.0
        assert report.f_score == 0.0
        assert any("no positive predictions" in w for w in report.warnings)

    def test_no_positive_labels_warns(self):
        report = metrics(ConfusionTable(tp=0, fp=2, fn=0, tn=8))
        assert report.recall == 0.0
        assert any("no positive labels" in w for w in report.warnings)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            metrics(ConfusionTable(tp=0, fp=0, fn=0, tn=0))

    def test_asdict_serializes_warnings_as_a_list(self):
        report = metrics(ConfusionTable(tp=0, fp=0, fn=1, tn=1))
        d = json.loads(json.dumps(asdict(report)))
        assert set(d) == {
            "classification_error",
            "accuracy",
            "precision",
            "recall",
            "f_score",
            "warnings",
        }
        assert d["warnings"] == list(report.warnings) != []


class TestRoc:
    def test_four_point_sweep(self):
        curve = roc([0.9, 0.8, 0.7, 0.6], [I, I, N, I])
        expected = ((0.0, 0.0), (0.0, 1 / 3), (0.0, 2 / 3), (1.0, 2 / 3), (1.0, 1.0))
        assert len(curve.points) == len(expected)
        for got, want in zip(curve.points, expected):
            assert got == pytest.approx(want)
        assert curve.auc == pytest.approx(2 / 3, abs=1e-12)

    def test_perfect_ranking(self):
        curve = roc([0.9, 0.8, 0.2, 0.1], [I, I, N, N])
        assert curve.auc == 1.0

    def test_inverted_ranking(self):
        curve = roc([0.1, 0.2, 0.8, 0.9], [I, I, N, N])
        assert curve.auc == 0.0

    def test_constant_scores_give_diagonal(self):
        curve = roc([0.5, 0.5, 0.5, 0.5], [I, N, I, N])
        assert curve.points == ((0.0, 0.0), (1.0, 1.0))
        assert curve.auc == 0.5

    def test_tied_scores_move_together(self):
        curve = roc([0.9, 0.5, 0.5, 0.1], [I, I, N, N])
        assert curve.points == ((0.0, 0.0), (0.0, 0.5), (0.5, 1.0), (1.0, 1.0))
        assert curve.auc == pytest.approx(0.875, abs=1e-12)

    def test_order_of_ties_is_irrelevant(self):
        scores = [0.3, 0.3, 0.3, 0.8, 0.8, 0.1]
        labels = [I, N, N, I, N, N]
        baseline = roc(scores, labels)
        flipped = roc(scores[::-1], labels[::-1])
        assert baseline.points == flipped.points
        assert baseline.auc == flipped.auc

    def test_trapezoid_matches_pairwise_auc(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            scores = rng.choice([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0], size=n)
            labels = [I if v else N for v in rng.integers(0, 2, size=n)]
            if I not in labels or N not in labels:
                continue
            curve = roc(scores, labels)
            assert abs(curve.auc - brute_wilcoxon_auc(scores, labels)) < 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="positive and one negative"):
            roc([0.5, 0.4], [I, I])

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            roc([0.5, float("nan")], [I, N])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            roc([0.5], [I, N])

    def test_curve_endpoints_validated(self):
        from domcred.evaluate import RocCurve

        with pytest.raises(ValueError, match=r"\(0,0\) to \(1,1\)"):
            RocCurve(points=((0.1, 0.0), (1.0, 1.0)), auc=0.5)
        with pytest.raises(ValueError, match="non-decreasing"):
            RocCurve(points=((0.0, 0.0), (0.5, 0.8), (0.4, 1.0), (1.0, 1.0)), auc=0.5)
        with pytest.raises(ValueError, match="auc out of range"):
            RocCurve(points=((0.0, 0.0), (1.0, 1.0)), auc=1.5)


class TestBenchmark:
    def test_all_seven_models_trained(self):
        matrix = labeled_matrix(seed=30, n_pos=20, n_neg=40)
        report = benchmark(matrix, SplitSpec(seed=1), specs=fast_specs())
        assert tuple(e.algorithm for e in report.entries) == ALGORITHMS
        assert report.n_train == 36
        assert report.n_test == 24
        for entry in report.entries:
            assert entry.status == "trained"
            assert entry.metrics.accuracy >= 0.8
            assert entry.confusion.total == 24
            assert 0.0 <= entry.roc.auc <= 1.0
            assert entry.summary is not None

    def test_rerun_serializes_identically(self):
        matrix = labeled_matrix(seed=31)
        first = benchmark(matrix, SplitSpec(seed=2), specs=fast_specs())
        second = benchmark(matrix, SplitSpec(seed=2), specs=fast_specs())
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_model_failure_becomes_skipped_entry(self):
        matrix = labeled_matrix(seed=33)
        specs = list(fast_specs())
        idx = ALGORITHMS.index("neural_net")
        specs[idx] = ModelSpec(
            algorithm="neural_net",
            hyperparameters={
                "hidden": (8,),
                "epochs": 30,
                "learning_rate": 1e10,
                "adaptive_rate": False,
                "l2": 10.0,
            },
            seed=0,
        )
        report = benchmark(matrix, SplitSpec(seed=4), specs=tuple(specs))
        entry = report.entry("neural_net")
        assert entry.status == "skipped"
        assert "non-finite training loss" in entry.reason
        assert entry.metrics is None
        trained = [e for e in report.entries if e.status == "trained"]
        assert len(trained) == 6
        # a skipped member must not poison serialization
        json.dumps(report.to_dict())

    def test_wall_times_stay_out_of_the_report_dict(self):
        matrix = labeled_matrix(seed=34)
        report = benchmark(matrix, SplitSpec(seed=5), specs=fast_specs())
        assert "wall" not in json.dumps(report.to_dict())
        timings = report.timings()
        assert set(timings) == set(ALGORITHMS)
        assert all(t >= 0.0 for t in timings.values())

    def test_spec_set_must_cover_algorithms_exactly(self):
        matrix = labeled_matrix(seed=35)
        with pytest.raises(ValueError, match="one spec per algorithm"):
            benchmark(matrix, SplitSpec(), specs=fast_specs()[:3])
        doubled = fast_specs()[:6] + (fast_specs()[0],)
        with pytest.raises(ValueError, match="one spec per algorithm"):
            benchmark(matrix, SplitSpec(), specs=doubled)

    def test_unlabeled_matrix_rejected(self):
        matrix = labeled_matrix(seed=36)
        bare = FeatureMatrix(
            domain=matrix.domain, period=0, user_ids=matrix.user_ids, rows=matrix.rows
        )
        with pytest.raises(ValueError, match="labeled"):
            benchmark(bare, SplitSpec())

    def test_entry_order_is_enforced(self):
        matrix = labeled_matrix(seed=37)
        report = benchmark(matrix, SplitSpec(seed=6), specs=fast_specs())
        with pytest.raises(ValueError, match="fixed order"):
            BenchmarkReport(
                entries=tuple(reversed(report.entries)),
                split_spec=report.split_spec,
                fingerprint=report.fingerprint,
                n_train=report.n_train,
                n_test=report.n_test,
            )
        assert report.entry("naive_bayes").algorithm == "naive_bayes"
        with pytest.raises(ValueError):
            report.entry("quantum_svm")


class TestFingerprint:
    def test_stable_for_equal_matrices(self):
        a = labeled_matrix(seed=40)
        b = labeled_matrix(seed=40)
        assert matrix_fingerprint(a) == matrix_fingerprint(b)
        assert len(matrix_fingerprint(a)) == 64

    def test_sensitive_to_any_field(self):
        base = labeled_matrix(seed=41)
        digest = matrix_fingerprint(base)

        bumped = base.x.copy()
        bumped[0, 0] += 1e-9
        assert matrix_fingerprint(
            FeatureMatrix(
                domain=base.domain,
                period=base.period,
                user_ids=base.user_ids,
                rows=tuple(map(tuple, bumped.tolist())),
                labels=base.labels,
            )
        ) != digest

        renamed = ("someone",) + base.user_ids[1:]
        assert matrix_fingerprint(
            FeatureMatrix(
                domain=base.domain,
                period=base.period,
                user_ids=renamed,
                rows=base.rows,
                labels=base.labels,
            )
        ) != digest

        flipped = (N if base.labels[0] == I else I,) + base.labels[1:]
        assert matrix_fingerprint(
            FeatureMatrix(
                domain=base.domain,
                period=base.period,
                user_ids=base.user_ids,
                rows=base.rows,
                labels=flipped,
            )
        ) != digest


class TestDefaultSpecs:
    def test_one_spec_per_algorithm_in_order(self):
        specs = default_specs(42)
        assert tuple(s.algorithm for s in specs) == ALGORITHMS

    def test_seeds_deterministic_and_distinct(self):
        first = default_specs(42)
        second = default_specs(42)
        assert [s.seed for s in first] == [s.seed for s in second]
        assert len({s.seed for s in first}) == len(ALGORITHMS)
        other = default_specs(43)
        assert [s.seed for s in first] != [s.seed for s in other]


class TestRenderTable:
    def test_one_row_per_algorithm(self):
        matrix = labeled_matrix(seed=50)
        report = benchmark(matrix, SplitSpec(seed=7), specs=fast_specs())
        text = render_table(report)
        lines = text.splitlines()
        assert len(lines) == 1 + len(ALGORITHMS)
        assert lines[0].startswith("algorithm")
        assert "accuracy" in lines[0]
        for algorithm, line in zip(ALGORITHMS, lines[1:]):
            assert line.startswith(algorithm)
            assert line.count("%") == 5
        assert text.endswith("\n")

    def test_percent_formatting(self):
        assert format_percent(0.992487479) == "99.249%"
        assert format_percent(1.0) == "100.000%"
        assert format_percent(0.0) == "0.000%"

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_skipped_entry_rendered_with_reason(self):
        matrix = labeled_matrix(seed=51)
        specs = list(fast_specs())
        idx = ALGORITHMS.index("neural_net")
        specs[idx] = ModelSpec(
            algorithm="neural_net",
            hyperparameters={
                "hidden": (8,),
                "epochs": 30,
                "learning_rate": 1e10,
                "adaptive_rate": False,
                "l2": 10.0,
            },
            seed=0,
        )
        text = render_table(benchmark(matrix, SplitSpec(seed=8), specs=tuple(specs)))
        row = [line for line in text.splitlines() if line.startswith("neural_net")]
        assert len(row) == 1
        assert "skipped (RuntimeError" in row[0]


class TestTreeReportDigests:
    """The report entries of the three tree learners, pinned byte for byte.

    The trees use no BLAS, so their entries hold on every platform the
    suite runs on, with one exception: the boosting entry's final loss
    passes through tanh and logaddexp, whose last bit may differ between
    the vector code of two CPUs, so it enters the digest to 10 significant
    digits.  A change that moves a tree moves a digest; it re-pins them and
    says why.
    """

    PINNED = {
        "decision_tree": "7b9f02475695f7137d53ba7d315cd98f2907782a4d27460649336768842b5d14",
        "random_forest": "ccd7cf6cc17b09cbe73cedff6a62248579c0215264f09a95bd568c5a3c164fda",
        "gradient_boosted_trees": (
            "89fb929614db611467edd5a9cc933e643d1aafd2b5ecaa1585472b8a8728559c"
        ),
    }

    def test_default_specs_on_overlapping_blobs(self):
        import hashlib

        from helpers import blob_data

        x, y = blob_data(seed=11, n_per=60, n_features=len(FEATURE_COLUMNS), gap=0.6)
        matrix = FeatureMatrix(
            domain="Technology and Computing",
            period=0,
            user_ids=tuple(f"u{i:03d}" for i in range(len(y))),
            rows=tuple(map(tuple, x.tolist())),
            labels=tuple(I if v else N for v in y),
        )
        report = benchmark(matrix, SplitSpec(train_fraction=0.6, seed=4, stratified=True))
        digests = {}
        for algorithm in self.PINNED:
            entry = report.entry(algorithm).to_dict()
            if algorithm == "gradient_boosted_trees":
                entry["summary"]["final_loss"] = f"{entry['summary']['final_loss']:.10g}"
            payload = json.dumps(entry, sort_keys=True).encode()
            digests[algorithm] = hashlib.sha256(payload).hexdigest()
        assert digests == self.PINNED
