"""Cross-cutting invariants checked against generated inputs."""

import re
from datetime import datetime, timedelta, timezone

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from domcred.annotate import DomainAnnotation
from domcred.corpus.archive import dataset_to_lines, load_dataset, save_dataset
from domcred.corpus.cleanse import cleanse
from domcred.corpus.periods import GRANULARITIES, PeriodSpec, partition_periods, slice_indices
from domcred.corpus.synth import _stamps
from domcred.corpus.types import INFLUENCER, NON_INFLUENCER, format_timestamps
from domcred.evaluate import ConfusionTable, SplitSpec, metrics, roc, split_indices
from domcred.features import accumulate_domain_features, relativeness_weights
from domcred.learn import ModelSpec, train_xy
from domcred.learn.base import ALGORITHMS
from domcred.lexicon import builtin_sentiment_lexicon, tokenize

from helpers import (
    annotation_columns,
    brute_partition,
    brute_weights,
    brute_wilcoxon_auc,
    make_dataset,
    make_reply,
    make_tweet,
    make_user,
    random_micro_dataset,
)

TOKEN_SHAPE = re.compile(r"^[a-z0-9']+$")

LABEL_POOL = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")


@st.composite
def annotation_lists(draw, min_size=1, max_size=6):
    labels = draw(
        st.lists(st.sampled_from(LABEL_POOL), min_size=min_size, max_size=max_size, unique=True)
    )
    return tuple(
        DomainAnnotation(
            label=label,
            score=draw(st.floats(0.0, 1.0)),
            confident=draw(st.booleans()),
        )
        for label in labels
    )


class TestLexiconInvariants:
    @given(text=st.text(max_size=300))
    def test_tokens_match_the_token_shape(self, text):
        for token in tokenize(text):
            assert TOKEN_SHAPE.match(token)

    @given(text=st.text(max_size=300), gain=st.floats(0.05, 20.0))
    def test_sentiment_score_stays_in_unit_band(self, text, gain):
        score = builtin_sentiment_lexicon().score(text, gain=gain)
        assert -1.0 <= score <= 1.0

    @given(text=st.text(max_size=300))
    def test_neutral_when_no_charged_tokens(self, text):
        lexicon = builtin_sentiment_lexicon()
        assume(not any(tok in lexicon.polarity for tok in tokenize(text)))
        assert lexicon.score(text) == 0.0


class TestRelativenessInvariants:
    @given(a=annotation_lists())
    @example(
        a=(
            DomainAnnotation(label="alpha", score=1.0, confident=False),
            DomainAnnotation(label="beta", score=1.0, confident=False),
            DomainAnnotation(label="gamma", score=5e-324, confident=False),
        )
    )
    def test_weights_form_a_unit_partition(self, a):
        assume(any(d.score > 0 for d in a))
        weights = relativeness_weights(a)
        assert abs(sum(weights.values()) - 1.0) < 1e-12
        assert all(w > 0 for w in weights.values())
        assert weights == brute_weights(a)

    @given(a=annotation_lists(), retweets=st.integers(0, 10**6))
    def test_distribution_conserves_mass(self, a, retweets):
        assume(any(d.score > 0 for d in a))
        dataset = make_dataset([make_user("u")], [make_tweet("t", "u", retweets=retweets)])
        annotations = annotation_columns([("t", a)])
        cells = accumulate_domain_features(dataset.columns, annotations)
        total = sum(c.r for c in cells.values())
        assert abs(total - retweets) <= 1e-9 * max(1.0, retweets)


class TestMetricsInvariants:
    tables = st.tuples(
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    )

    @given(counts=tables)
    @settings(max_examples=300)
    def test_error_plus_accuracy_is_exactly_one(self, counts):
        tp, fp, fn, tn = counts
        assume(tp + fp + fn + tn > 0)
        report = metrics(ConfusionTable(tp=tp, fp=fp, fn=fn, tn=tn))
        assert report.classification_error + report.accuracy == 1.0

    @given(counts=tables)
    def test_all_rates_are_bounded(self, counts):
        tp, fp, fn, tn = counts
        assume(tp + fp + fn + tn > 0)
        report = metrics(ConfusionTable(tp=tp, fp=fp, fn=fn, tn=tn))
        for value in (
            report.accuracy,
            report.classification_error,
            report.precision,
            report.recall,
            report.f_score,
        ):
            assert 0.0 <= value <= 1.0

    @given(counts=tables)
    def test_f_score_sits_between_precision_and_recall(self, counts):
        tp, fp, fn, tn = counts
        assume(tp > 0)
        report = metrics(ConfusionTable(tp=tp, fp=fp, fn=fn, tn=tn))
        lo = min(report.precision, report.recall)
        hi = max(report.precision, report.recall)
        assert lo - 1e-12 <= report.f_score <= hi + 1e-12


@st.composite
def scored_labels(draw):
    n = draw(st.integers(2, 30))
    grid = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
    scores = [draw(st.sampled_from(grid)) for _ in range(n)]
    labels = [INFLUENCER if draw(st.booleans()) else NON_INFLUENCER for _ in range(n)]
    assume(INFLUENCER in labels and NON_INFLUENCER in labels)
    return scores, labels


class TestRocInvariants:
    @given(case=scored_labels())
    @settings(max_examples=200)
    def test_sweep_area_equals_pairwise_probability(self, case):
        scores, labels = case
        curve = roc(scores, labels)
        assert abs(curve.auc - brute_wilcoxon_auc(scores, labels)) < 1e-12

    @given(case=scored_labels())
    def test_curve_is_monotone_from_origin_to_corner(self, case):
        scores, labels = case
        curve = roc(scores, labels)
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)
        for (x0, y0), (x1, y1) in zip(curve.points, curve.points[1:]):
            assert x1 >= x0 and y1 >= y0


class TestSplitInvariants:
    @given(
        n_pos=st.integers(4, 30),
        n_neg=st.integers(4, 30),
        fraction=st.floats(0.3, 0.7),
        seed=st.integers(0, 10**6),
    )
    def test_stratified_split_respects_class_shares(self, n_pos, n_neg, fraction, seed):
        labels = [INFLUENCER] * n_pos + [NON_INFLUENCER] * n_neg
        spec = SplitSpec(train_fraction=fraction, seed=seed)
        train, test = split_indices(labels, spec)
        assert sorted(np.concatenate([train, test]).tolist()) == list(range(len(labels)))
        assert len(train) == int(len(labels) * fraction + 1e-9)
        for cls, total in ((INFLUENCER, n_pos), (NON_INFLUENCER, n_neg)):
            in_train = sum(1 for i in train if labels[i] == cls)
            assert 1 <= in_train <= total - 1
            assert abs(in_train - total * fraction) < 1.0 + 1e-9


class TestDatasetInvariants:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_cleanse_is_idempotent(self, seed):
        dataset, _, _ = random_micro_dataset(np.random.default_rng(seed))
        once, _ = cleanse(dataset.columns)
        twice, report = cleanse(once)
        assert dataset_to_lines(twice) == dataset_to_lines(once)
        assert report.language_removed == 0
        assert report.orphan_replies_removed == 0
        assert report.owner_replies_removed == 0

    @given(seed=st.integers(0, 10**6))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_archive_round_trip_is_lossless(self, seed, tmp_path):
        dataset, _, _ = random_micro_dataset(np.random.default_rng(seed))
        path = tmp_path / "round_trip.jsonl"
        save_dataset(dataset.columns, path)
        loaded, report = load_dataset(path)
        assert report.malformed_lines == 0
        assert dataset_to_lines(loaded) == dataset_to_lines(dataset.columns)

    @given(
        start=st.datetimes(
            min_value=datetime(1000, 1, 1),
            max_value=datetime(9000, 1, 1),
            timezones=st.just(timezone.utc),
        ),
        seconds=st.lists(st.integers(-(10**10), 10**10), max_size=20),
    )
    def test_synth_stamps_equal_format_timestamps(self, start, seconds):
        want = format_timestamps([start + timedelta(seconds=at) for at in seconds])
        assert _stamps(start, np.array(seconds, dtype=np.int64)) == want


FAST_HYPERS = {
    "naive_bayes": {},
    "logistic": {"max_iter": 25},
    "glm_elastic_net": {"lambda": 0.1, "max_iter": 25},
    "decision_tree": {"max_depth": 4},
    "random_forest": {"n_trees": 5, "max_depth": 4},
    "gradient_boosted_trees": {"n_trees": 3, "max_depth": 2},
    "neural_net": {"hidden": (4,), "epochs": 3},
}


MONTHS_PER = {"month": 1, "quarter": 3, "year": 12}
EPOCH = datetime(2022, 1, 1, tzinfo=timezone.utc)


@st.composite
def partition_inputs(draw):
    """A period spec with a start anywhere in a month, and records placed on
    every edge, just before the start, at the end, and at random around it."""
    start = EPOCH + timedelta(seconds=draw(st.integers(0, 3 * 365 * 86400)))
    granularity = draw(st.sampled_from(GRANULARITIES))
    n_periods = draw(st.integers(1, 5))
    spec = PeriodSpec(n_periods=n_periods, start=start, granularity=granularity)
    oracle_slices, *_ = brute_partition(
        make_dataset([]), start, n_periods, MONTHS_PER[granularity]
    )
    edges = [start] + [s.end for s in oracle_slices]
    span = (edges[-1] - edges[0]).total_seconds()
    stamps = list(edges) + [start - timedelta(microseconds=1)]
    stamps += [
        start + timedelta(seconds=offset)
        for offset in draw(st.lists(st.floats(-0.2 * span, 1.2 * span), max_size=12))
    ]
    on_tweet = draw(st.lists(st.booleans(), min_size=len(stamps), max_size=len(stamps)))
    return spec, stamps, on_tweet


class TestPartitionInvariants:
    @given(partition_inputs())
    @settings(max_examples=150, deadline=None)
    def test_one_pass_matches_per_slice_rescan(self, case):
        spec, stamps, on_tweet = case
        tweets = [
            make_tweet(f"t{i:03d}", "a", posted=stamp)
            for i, (stamp, tweet) in enumerate(zip(stamps, on_tweet)) if tweet
        ] or [make_tweet("t-only", "a", posted=stamps[0])]
        replies = [
            make_reply(f"r{i:03d}", tweets[0].tweet_id, "a", posted=stamp)
            for i, (stamp, tweet) in enumerate(zip(stamps, on_tweet)) if not tweet
        ]
        dataset = make_dataset(
            [make_user("a", created="2000-01-01T00:00:00Z")], tweets, replies,
            capture="2030-01-01T00:00:00Z",
        )
        slices, report, (tweets_in, replies_in) = partition_periods(dataset.columns, spec)
        oracle_slices, oracle_report, tweet_slice, reply_slice = brute_partition(
            dataset, spec.start, spec.n_periods, MONTHS_PER[spec.granularity]
        )
        assert (slices, report) == (oracle_slices, oracle_report)
        # each record in the slice the rescan found it in, not just equal counts
        columns = dataset.columns
        assert tweets_in == slice_indices(slices, columns.tweet_posted) == [
            tweet_slice.get(t) for t in columns.tweet_ids
        ]
        assert replies_in == slice_indices(slices, columns.reply_posted) == [
            reply_slice.get(r) for r in columns.reply_ids
        ]


class TestModelInvariants:
    @given(seed=st.integers(0, 10**6), algorithm=st.sampled_from(ALGORITHMS))
    @settings(max_examples=35, deadline=None)
    def test_probabilities_stay_in_the_unit_interval(self, seed, algorithm):
        rng = np.random.default_rng(seed)
        scale = float(rng.uniform(0.1, 100.0))
        x = rng.normal(size=(14, 3)) * scale
        y = (rng.random(14) < 0.5).astype(float)
        assume(0 < y.sum() < len(y))
        spec = ModelSpec(
            algorithm=algorithm,
            hyperparameters=FAST_HYPERS[algorithm],
            seed=seed % 997,
        )
        model = train_xy(spec, x, y)
        fresh = rng.normal(size=(20, 3)) * scale
        proba = model.predict_proba(fresh)
        assert proba.shape == (20,)
        assert np.all(proba >= 0.0)
        assert np.all(proba <= 1.0)
        assert set(model.classify(fresh)) <= {INFLUENCER, NON_INFLUENCER}
