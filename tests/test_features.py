"""Feature distribution, accumulation, normalization, and matrix assembly."""

import dataclasses
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from domcred.annotate import LexiconAnnotator, annotate_dataset
from domcred.corpus.periods import PeriodSpec, partition_periods, slice_indices
from domcred.corpus.synth import SynthConfig, synthesize
from domcred.corpus.types import GroundTruthLabels
from domcred.evaluate import SplitSpec, benchmark, matrix_fingerprint
from domcred.features import (
    FEATURE_COLUMNS,
    POOLED,
    FeatureMatrix,
    UserDomainFeatures,
    accumulate_domain_features,
    assemble_matrix,
    compute_ffr,
    compute_global_features,
    load_matrix,
    min_max,
    profile_age_years,
    relativeness_weights,
    save_matrix,
    scale_by_max,
)
from helpers import (
    annotated_reply,
    annotated_tweet,
    annotation,
    annotation_columns,
    brute_domain_cells,
    brute_global,
    brute_max_scale,
    brute_min_max,
    make_dataset,
    make_reply,
    make_tweet,
    make_user,
    random_micro_dataset,
    ts,
)

TECH = "Technology and Computing"


class TestRelativenessWeights:
    def test_three_domain_example(self):
        notes = [annotation("a", 1.0), annotation("b", 0.5), annotation("c", 0.5)]
        assert relativeness_weights(notes) == {"a": 0.5, "b": 0.25, "c": 0.25}

    def test_reply_masses_keep_sign(self):
        # the accumulator splits each count by the weights: 10 retweets,
        # 15 favorites and ten replies of sentiment -1 over (1, 0.5, 0.5)
        replies = [make_reply(f"r{i}", "t1", "bob") for i in range(10)]
        dataset = make_dataset(
            [make_user("alice"), make_user("bob")],
            [make_tweet("t1", "alice", retweets=10, favorites=15)],
            replies,
        )
        notes = (annotated_tweet("t1", {"a": 1.0, "b": 0.5, "c": 0.5}),)
        sentiments = tuple(annotated_reply(r.reply_id, -1.0) for r in replies)
        annotations = annotation_columns(notes, sentiments)
        cells = accumulate_domain_features(dataset.columns, annotations)
        got = {d: (c.r, c.l, c.sn) for (_, d, _), c in cells.items()}
        assert got == {
            "a": (5.0, 7.5, -5.0),
            "b": (2.5, 3.75, -2.5),
            "c": (2.5, 3.75, -2.5),
        }

    def test_zero_scores_dropped(self):
        weights = relativeness_weights([annotation("a", 0.8), annotation("b", 0.0)])
        assert weights == {"a": 1.0}

    def test_underflowing_share_dropped(self):
        # 5e-324 / 2.0 rounds to 0.0: "c" has no representable weight
        notes = [annotation("a", 1.0), annotation("b", 1.0), annotation("c", 5e-324)]
        assert relativeness_weights(notes) == {"a": 0.5, "b": 0.5}

    def test_nothing_to_weight(self):
        assert relativeness_weights([]) == {}
        assert relativeness_weights([annotation("a", 0.0)]) == {}

    @given(
        st.dictionaries(
            st.sampled_from("abcde"),
            st.floats(min_value=0.01, max_value=1.0),
            min_size=1,
            max_size=5,
        )
    )
    def test_weights_sum_to_one(self, scores):
        notes = [annotation(k, v) for k, v in scores.items()]
        assert sum(relativeness_weights(notes).values()) == pytest.approx(1.0, abs=1e-12)


class TestUserDomainFeatures:
    def test_s_is_positive_minus_negative_magnitude(self):
        f = UserDomainFeatures(sp=75.198, sn=-13.434)
        assert f.s == pytest.approx(61.764)


class TestAccumulate:
    def small(self):
        users = [make_user("alice"), make_user("bob")]
        tweets = [
            make_tweet("t1", "alice", retweets=9, favorites=3, replies=6),
            make_tweet("t2", "bob", retweets=4),
            make_tweet("t3", "alice"),  # never annotated
        ]
        replies = [
            make_reply("r1", "t1", "bob"),
            make_reply("r2", "t1", "bob"),
            make_reply("r3", "t2", "alice"),
        ]
        dataset = make_dataset(users, tweets, replies)
        notes = (
            annotated_tweet("t1", {"tech": 1.0, "food": 0.5}),
            annotated_tweet("t2", {"tech": 1.0}),
        )
        sentiments = (
            annotated_reply("r1", 0.9),
            annotated_reply("r2", -0.6),
            annotated_reply("r3", 0.0),
        )
        return dataset, notes, sentiments

    def test_tweet_masses_split_by_weight(self):
        dataset, notes, sentiments = self.small()
        annotations = annotation_columns(notes, sentiments)
        cells = accumulate_domain_features(dataset.columns, annotations)
        tech = cells[("alice", "tech", POOLED)]
        food = cells[("alice", "food", POOLED)]
        assert tech.r == pytest.approx(6.0)
        assert food.r == pytest.approx(3.0)
        assert tech.l == pytest.approx(2.0)
        assert tech.p == pytest.approx(4.0)
        assert tech.domain_tweet_count == 1
        assert ("alice", "food", POOLED) in cells  # t3 contributed nothing new

    def test_reply_sentiment_credits_parent_author(self):
        dataset, notes, sentiments = self.small()
        annotations = annotation_columns(notes, sentiments)
        cells = accumulate_domain_features(dataset.columns, annotations)
        tech = cells[("alice", "tech", POOLED)]
        assert tech.sp == pytest.approx(0.9 * 2 / 3)
        assert tech.sn == pytest.approx(-0.6 * 2 / 3)
        assert tech.count_pos == pytest.approx(2 / 3)
        assert tech.count_neg == pytest.approx(2 / 3)
        # the neutral reply r3 leaves bob untouched
        assert cells[("bob", "tech", POOLED)].sp == 0.0
        assert cells[("bob", "tech", POOLED)].count_pos == 0.0

    def test_unannotated_tweet_invisible(self):
        dataset, notes, sentiments = self.small()
        annotations = annotation_columns(notes, sentiments)
        cells = accumulate_domain_features(dataset.columns, annotations)
        assert all(key[1] in ("tech", "food") for key in cells)

    def test_underflowing_domain_gets_no_cell(self):
        users = [make_user("alice"), make_user("bob")]
        tweets = [make_tweet("t1", "alice", retweets=8, favorites=2, replies=4)]
        replies = [make_reply("r1", "t1", "bob")]
        dataset = make_dataset(users, tweets, replies)
        notes = (annotated_tweet("t1", {"tech": 1.0, "food": 1.0, "art": 5e-324}),)
        sentiments = (annotated_reply("r1", 0.5),)
        annotations = annotation_columns(notes, sentiments)
        cells = accumulate_domain_features(dataset.columns, annotations)
        assert set(cells) == {("alice", "food", POOLED), ("alice", "tech", POOLED)}
        for key in cells:
            assert cells[key].domain_tweet_count == 1
            assert cells[key].r == 4.0
            assert cells[key].sp == 0.25

    def test_period_filter_uses_own_timestamps(self):
        users = [make_user("alice"), make_user("bob")]
        tweets = [make_tweet("t1", "alice", posted="2024-01-10T00:00:00Z", retweets=8)]
        # reply lands a month after the tweet
        replies = [make_reply("r1", "t1", "bob", posted="2024-02-20T00:00:00Z")]
        dataset = make_dataset(users, tweets, replies)
        slices, _, placement = partition_periods(dataset.columns, PeriodSpec(n_periods=2))
        notes = (annotated_tweet("t1", {"tech": 1.0}),)
        sentiments = (annotated_reply("r1", 1.0),)

        annotations = annotation_columns(notes, sentiments)
        cells = accumulate_domain_features(dataset.columns, annotations, placement)
        first = cells[("alice", "tech", slices[0].index)]
        second = cells[("alice", "tech", slices[1].index)]
        assert first.r == 8.0
        assert first.sp == 0.0
        # the late reply still credits alice, in its own period
        assert second.sp == 1.0
        assert second.r == 0.0
        pooled = cells[("alice", "tech", POOLED)]
        assert (pooled.r, pooled.sp) == (8.0, 1.0)

    def test_pooled_index_is_not_a_slice(self):
        dataset, notes, sentiments = self.small()
        slices, _, _ = partition_periods(dataset.columns, PeriodSpec(n_periods=1))
        clash = dataclasses.replace(slices[0], index=POOLED)
        columns = dataset.columns
        placement = (
            slice_indices([clash], columns.tweet_posted),
            slice_indices([clash], columns.reply_posted),
        )
        annotations = annotation_columns(notes, sentiments)
        with pytest.raises(ValueError, match="reserved"):
            accumulate_domain_features(columns, annotations, placement)

    def test_placement_must_fit_the_records(self):
        # a placement of other records would put these in the wrong cells
        dataset, notes, sentiments = self.small()
        _, _, (tweets_in, replies_in) = partition_periods(dataset.columns, PeriodSpec(n_periods=2))
        annotations = annotation_columns(notes, sentiments)
        others = ((tweets_in[1:], replies_in), (tweets_in, replies_in + [1]))
        for other in others:
            with pytest.raises(ValueError):
                accumulate_domain_features(dataset.columns, annotations, other)

    # unchecked, tweets t1 (3 retweets) and t2 (5) with one domain list gave
    # a single cell with r=3.0: an id without its value was dropped unseen
    @pytest.mark.parametrize("short", ["merged_domains", "sentiments"])
    def test_ragged_columns_fail(self, short):
        users = [make_user("alice"), make_user("bob")]
        tweets = [make_tweet("t1", "alice", retweets=3), make_tweet("t2", "alice", retweets=5)]
        replies = [make_reply("r1", "t1", "bob"), make_reply("r2", "t2", "bob")]
        dataset = make_dataset(users, tweets, replies)
        annotations = annotation_columns(
            (annotated_tweet("t1", {"tech": 1.0}), annotated_tweet("t2", {"tech": 1.0})),
            (annotated_reply("r1", 0.5), annotated_reply("r2", 0.5)),
        )
        ragged = annotations._replace(**{short: getattr(annotations, short)[:1]})
        with pytest.raises(ValueError):
            accumulate_domain_features(dataset.columns, ragged)

    def test_matches_brute_oracle_on_random_data(self):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            dataset, notes, sentiments = random_micro_dataset(rng)
            annotations = annotation_columns(notes, sentiments)
            cells = accumulate_domain_features(dataset.columns, annotations)
            # the signs hold by construction: counts are >= 0, weights > 0,
            # and only a negative sentiment adds to sn
            for f in cells.values():
                assert min(f.r, f.l, f.p, f.sp, f.count_pos, f.count_neg) >= 0
                assert f.sn <= 0
            got = {(u, d): f for (u, d, _), f in cells.items()}
            expected = brute_domain_cells(dataset, notes, sentiments)
            expected = {k: v for k, v in expected.items() if any(v.values())}
            got_nonzero = {
                k: v
                for k, v in got.items()
                if v.r or v.l or v.p or v.sp or v.sn or v.domain_tweet_count
            }
            assert set(got_nonzero) <= set(expected)
            for key, want in expected.items():
                if key not in got:
                    continue
                have = got[key]
                np.testing.assert_allclose(
                    [have.r, have.l, have.p, have.sp, have.sn],
                    [want["r"], want["l"], want["p"], want["sp"], want["sn"]],
                    atol=1e-12,
                )


class TestGlobalFeatures:
    def test_only_selection_active_users(self):
        users = [make_user("alice"), make_user("idle")]
        tweets = [make_tweet("t1", "alice", retweets=3, favorites=1, replies=2)]
        dataset = make_dataset(users, tweets)
        out = compute_global_features(dataset.columns)
        assert set(out) == {"alice"}
        g = out["alice"]
        assert (g.retweet_total, g.favorite_total, g.replies_total) == (3, 1, 2)

    def test_age_and_ratio(self):
        created = ts("2020-01-01T00:00:00Z")
        capture = ts("2022-01-01T00:00:00Z")  # 731 days
        age = profile_age_years(created, capture)
        assert age == pytest.approx(731 / 365.25)
        assert compute_ffr(100, 40, created, capture) == pytest.approx(60 / age)

    def test_tie_falls_back_to_inverse_age(self):
        created = ts("2020-01-01T00:00:00Z")
        capture = ts("2021-01-01T00:00:00Z")
        assert compute_ffr(50, 50, created, capture) == pytest.approx(365.25 / 366)

    def test_negative_ratio_allowed(self):
        created = ts("2020-01-01T00:00:00Z")
        assert compute_ffr(10, 400, created, ts("2021-01-01T00:00:00Z")) < 0

    def test_age_floored_at_one_day(self):
        age = profile_age_years(ts("2024-12-31T23:00:00Z"), ts("2025-01-01T00:00:00Z"))
        assert age == pytest.approx(1 / 365.25)

    def test_created_after_capture_rejected(self):
        with pytest.raises(ValueError, match="created at or after"):
            profile_age_years(ts("2025-06-01T00:00:00Z"), ts("2025-01-01T00:00:00Z"))

    def test_matches_brute_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            dataset, _, _ = random_micro_dataset(rng)
            got = compute_global_features(dataset.columns)
            expected = brute_global(dataset)
            assert set(got) == set(expected)
            for uid, want in expected.items():
                g = got[uid]
                assert {key: getattr(g, key) for key in want} == want


class TestNormalizations:
    def test_max_scaling(self):
        values = {"a": 8.0, "b": 4.0, "c": 2.0}
        assert scale_by_max(values) == {"a": 1.0, "b": 0.5, "c": 0.25}

    def test_max_scaling_zero_peak(self):
        assert scale_by_max({"a": 0.0, "b": 0.0}) == {"a": 0.0, "b": 0.0}

    def test_min_max(self):
        values = {"a": 2.0, "b": 6.0, "c": 10.0}
        assert min_max(values) == {"a": 0.0, "b": 0.5, "c": 1.0}

    def test_min_max_constant_maps_to_one(self):
        assert min_max({"a": 3.0, "b": 3.0}) == {"a": 1.0, "b": 1.0}

    def test_empty_inputs(self):
        assert scale_by_max({}) == {}
        assert min_max({}) == {}

    values = st.dictionaries(
        st.sampled_from("abcdef"),
        st.floats(min_value=0.0, max_value=1e6),
        min_size=1,
        max_size=6,
    )

    @given(values)
    def test_outputs_in_unit_interval(self, values):
        for rule in (scale_by_max, min_max):
            out = rule(values)
            assert all(0.0 <= v <= 1.0 for v in out.values())

    @given(
        st.dictionaries(
            st.sampled_from("abcdef"), st.floats(-1e6, 1e6), min_size=0, max_size=6
        )
    )
    def test_rules_match_brute_oracles(self, values):
        assert scale_by_max(values) == brute_max_scale(values)
        assert min_max(values) == brute_min_max(values)

    @given(values, st.floats(min_value=0.1, max_value=100.0))
    def test_max_scaling_ignores_positive_rescaling(self, values, factor):
        rescaled = {k: v * factor for k, v in values.items()}
        # v * factor is a faithful rescaling only while it stays a normal
        # float: 5e-324 * 0.5 rounds to 0.0, and a subnormal product keeps
        # too few significant bits to preserve the ratios.
        assume(all(rescaled[k] >= sys.float_info.min for k, v in values.items() if v > 0))
        base = scale_by_max(values)
        scaled = scale_by_max(rescaled)
        for key in values:
            assert scaled[key] == pytest.approx(base[key], abs=1e-9)


class TestAssembleMatrix:
    def features(self):
        users = [make_user("alice", followers=100, friends=40), make_user("bob")]
        tweets = [
            make_tweet("t1", "alice", retweets=9, favorites=3, replies=6),
            make_tweet("t2", "bob", retweets=4),
        ]
        dataset = make_dataset(users, tweets)
        notes = (annotated_tweet("t1", {"tech": 1.0, "food": 0.5}),)
        annotations = annotation_columns(notes)
        cells = accumulate_domain_features(dataset.columns, annotations)
        globals_ = compute_global_features(dataset.columns)
        return cells, globals_

    def test_rows_sorted_and_zero_filled(self):
        cells, globals_ = self.features()
        matrix = assemble_matrix("tech", 0, cells, globals_)
        assert matrix.user_ids == ("alice", "bob")
        assert matrix.x.shape == (2, 12)
        assert matrix.column("domain_retweet_count")[0] == pytest.approx(6.0)
        # bob tweeted but never in the tech domain, so his domain columns are 0
        assert matrix.column("domain_retweet_count")[1] == 0.0
        assert matrix.column("retweet_count")[1] == 4.0
        assert matrix.column("followers_count")[0] == 100.0

    def test_labels_restrict_and_attach(self):
        cells, globals_ = self.features()
        labels = GroundTruthLabels(
            domain="tech", labels={"alice": "Influencer"}
        )
        matrix = assemble_matrix("tech", 0, cells, globals_, labels=labels)
        assert matrix.user_ids == ("alice",)
        assert matrix.labels == ("Influencer",)

    def test_no_rows_raises(self):
        cells, globals_ = self.features()
        labels = GroundTruthLabels(domain="tech", labels={"stranger": "Influencer"})
        with pytest.raises(ValueError, match="no users"):
            assemble_matrix("tech", 0, cells, globals_, labels=labels)

    def test_shape_validation(self):
        row = (0.0,) * 12
        with pytest.raises(ValueError, match="2 rows for 1 users"):
            FeatureMatrix(domain="d", period=0, user_ids=("u",), rows=(row, row))
        with pytest.raises(ValueError, match="must hold 12 cells"):
            FeatureMatrix(domain="d", period=0, user_ids=("u", "v"), rows=(row, row[:11]))
        with pytest.raises(ValueError, match="must hold 12 cells"):
            FeatureMatrix(domain="d", period=0, user_ids=("u",), rows=((*row, 0.0),))
        with pytest.raises(ValueError, match="labels length"):
            FeatureMatrix(
                domain="d",
                period=0,
                user_ids=("u",),
                rows=(row,),
                labels=("a", "b"),
            )

    def test_x_is_a_read_only_view_of_the_rows(self):
        cells, globals_ = self.features()
        matrix = assemble_matrix("tech", 0, cells, globals_)
        np.testing.assert_array_equal(matrix.x, np.array(matrix.rows, dtype=float))
        assert matrix.x is matrix.x
        with pytest.raises(ValueError, match="read-only"):
            matrix.x[0, 0] = 1.0

    def test_column_names_cover_matrix(self):
        assert len(FEATURE_COLUMNS) == 12
        assert len(set(FEATURE_COLUMNS)) == 12


class TestMatrixIO:
    def matrix(self, labeled=True):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1000, size=(4, 12))
        x[1, 3] = 1 / 3  # a value whose decimal form is non-terminating
        return FeatureMatrix(
            domain="tech",
            period=2,
            user_ids=("a", "b", "c", "d"),
            rows=tuple(map(tuple, x.tolist())),
            labels=("Influencer", "NonInfluencer", "Influencer", "NonInfluencer")
            if labeled
            else None,
        )

    def test_round_trip_exact(self, tmp_path):
        matrix = self.matrix()
        path = tmp_path / "matrix.csv"
        save_matrix(matrix, path)
        loaded = load_matrix(path)
        assert loaded.domain == "tech"
        assert loaded.period == 2
        assert loaded.user_ids == matrix.user_ids
        assert loaded.labels == matrix.labels
        assert loaded.rows == matrix.rows

    def test_assembled_matrix_round_trips(self, tmp_path):
        # the pipeline's own matrix: what benchmark reads back from the file
        # is what assemble_matrix built, down to the report
        columns, labels = synthesize(SynthConfig(n_users=60, domains=(TECH,)), seed=3)
        annotations, _ = annotate_dataset(columns, LexiconAnnotator())
        cells = accumulate_domain_features(columns, annotations)
        matrix = assemble_matrix(
            TECH, POOLED, cells, compute_global_features(columns), labels=labels
        )
        path = tmp_path / "features.csv"
        save_matrix(matrix, path)
        loaded = load_matrix(path)
        assert loaded == matrix
        assert matrix_fingerprint(loaded) == matrix_fingerprint(matrix)
        spec = SplitSpec(train_fraction=0.6, seed=7)
        assert benchmark(loaded, spec).to_dict() == benchmark(matrix, spec).to_dict()

    def test_unlabeled_round_trip(self, tmp_path):
        matrix = self.matrix(labeled=False)
        path = tmp_path / "matrix.csv"
        save_matrix(matrix, path)
        loaded = load_matrix(path)
        assert loaded.labels is None
        assert loaded.rows == matrix.rows

    def test_stacked_selections_rejected(self, tmp_path):
        path = tmp_path / "matrix.csv"
        save_matrix(self.matrix(), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        for old, new in ((",tech,2,", ",tech,3,"), (",tech,2,", ",food,2,")):
            stacked = lines[:-1] + [lines[-1].replace(old, new)]
            path.write_text("".join(stacked), encoding="utf-8")
            with pytest.raises(ValueError, match="row 4 has .*row 1 has"):
                load_matrix(path)

    def test_foreign_header_rejected(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("user,score\nu1,3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_matrix(path)

    @pytest.mark.parametrize("labeled", [True, False])
    def test_extra_column_rejected(self, tmp_path, labeled):
        # a column the format does not list is refused, not read without it
        path = tmp_path / "matrix.csv"
        save_matrix(self.matrix(labeled=labeled), path)
        widened = []
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
            fields = line.split(",")
            # before the label column, or last in an unlabeled file
            fields.insert(len(fields) - labeled, "ffr" if i == 0 else "0.5")
            widened.append(",".join(fields) + "\n")
        path.write_text("".join(widened), encoding="utf-8")
        want = f"{path}: unexpected header (extra columns: ffr)"
        with pytest.raises(ValueError, match=re.escape(want)):
            load_matrix(path)

    @pytest.mark.parametrize(
        "header",
        [
            ["user_id", "domain", "period", *FEATURE_COLUMNS[:-1]],
            ["user_id", "domain", "period", *reversed(FEATURE_COLUMNS)],
            ["user_id", "domain", "period", *FEATURE_COLUMNS, "label", "label"],
            ["user_id", "domain", "period", "label", *FEATURE_COLUMNS],
        ],
    )
    def test_missing_or_reordered_columns_rejected(self, tmp_path, header):
        path = tmp_path / "matrix.csv"
        path.write_text(",".join(header) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape("(extra columns: none)")):
            load_matrix(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "matrix.csv"
        save_matrix(self.matrix(), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = lines[3].split(",")
        fields[3 + 4] = cell  # friends_count
        lines[3] = ",".join(fields)
        path.write_text("".join(lines), encoding="utf-8")
        want = f"{path}: data row 3: friends_count is {cell}, not a finite number"
        with pytest.raises(ValueError, match=re.escape(want)):
            load_matrix(path)

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "matrix.csv"
        save_matrix(self.matrix(), path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(",NonInfluencer\n", ",Celebrity\n", 1), encoding="utf-8")
        want = f"{path}: data row 2: unknown label 'Celebrity'"
        with pytest.raises(ValueError, match=re.escape(want)):
            load_matrix(path)
