"""Dataset model, archive round-trips, cleansing, periods, and the generator."""

import hashlib
import json
from dataclasses import replace
from datetime import timedelta

import pytest

from domcred.corpus.archive import (
    ArchiveFormatError,
    dataset_to_lines,
    load_dataset,
    load_labels,
    save_dataset,
    save_labels,
)
from domcred.corpus.cleanse import cleanse
from domcred.corpus.periods import PeriodSpec, partition_periods
from domcred.corpus.synth import (
    INFLUENCER_LEVEL,
    ORDINARY_LEVEL,
    _FILLERS,
    EngagementLevel,
    SynthConfig,
    synthesize,
)
from domcred.corpus.types import (
    Dataset,
    GroundTruthLabels,
    format_timestamp,
    parse_timestamp,
)
from domcred.lexicon import builtin_domain_lexicon
from helpers import make_dataset, make_reply, make_tweet, make_user, ts


class TestTimestamps:
    def test_z_suffix_round_trip(self):
        stamp = parse_timestamp("2024-03-01T12:30:00Z")
        assert format_timestamp(stamp) == "2024-03-01T12:30:00Z"

    def test_offset_normalized_to_utc(self):
        stamp = parse_timestamp("2024-03-01T14:30:00+02:00")
        assert format_timestamp(stamp) == "2024-03-01T12:30:00Z"

    def test_microseconds_kept_only_when_nonzero(self):
        assert format_timestamp(parse_timestamp("2024-03-01T12:30:00.250000Z")).endswith(
            ".250000Z"
        )
        assert format_timestamp(parse_timestamp("2024-03-01T12:30:00.000000Z")).endswith(
            ":00Z"
        )

    def test_rejects_naive(self):
        with pytest.raises(ValueError):
            parse_timestamp("2024-03-01T12:30:00")


class TestDataset:
    def test_records_sorted_by_id(self):
        users = [make_user("b"), make_user("a")]
        tweets = [make_tweet("t2", "a"), make_tweet("t1", "b")]
        ds = make_dataset(users, tweets)
        assert [u.user_id for u in ds.users] == ["a", "b"]
        assert [t.tweet_id for t in ds.tweets] == ["t1", "t2"]

    def test_duplicate_tweet_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_dataset([make_user("a")], [make_tweet("t1", "a"), make_tweet("t1", "a")])

    def test_user_created_after_capture_rejected(self):
        with pytest.raises(ValueError, match="capture"):
            make_dataset([make_user("a", created="2026-01-01T00:00:00Z")])

    def test_labels_validate_against_dataset(self):
        ds = make_dataset([make_user("a")])
        labels = GroundTruthLabels(domain="d", labels={"a": "Influencer"})
        labels.validate_against(ds)
        bad = GroundTruthLabels(domain="d", labels={"ghost": "Influencer"})
        with pytest.raises(ValueError):
            bad.validate_against(ds)

    def test_unknown_label_value_rejected(self):
        with pytest.raises(ValueError):
            GroundTruthLabels(domain="d", labels={"a": "Superstar"})


class TestArchiveIO:
    def _archive(self, tmp_path, lines):
        path = tmp_path / "archive.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def _user_line(self, uid, **extra):
        body = {
            "user_id": uid,
            "handle": uid,
            "followers_count": 10,
            "friends_count": 5,
            "created_at": "2020-01-01T00:00:00Z",
        }
        body.update(extra)
        return json.dumps({"kind": "user", "body": body})

    def _tweet_line(self, tid, author, **extra):
        body = {
            "tweet_id": tid,
            "author_id": author,
            "posted_at": "2024-02-01T00:00:00Z",
            "text": "hello",
        }
        body.update(extra)
        return json.dumps({"kind": "tweet", "body": body})

    def test_round_trip_is_byte_identical(self, tmp_path):
        ds = make_dataset(
            [make_user("a"), make_user("b", followers=99)],
            [make_tweet("t1", "a", retweets=3)],
            [make_reply("r1", "t1", "b")],
        )
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        first = path.read_bytes()
        loaded, report = load_dataset(path)
        assert report.warning_count == 0
        save_dataset(loaded, path)
        assert path.read_bytes() == first

    def test_meta_line_carries_capture_and_provenance(self, tmp_path):
        ds = make_dataset([make_user("a")], provenance="unit test")
        lines = dataset_to_lines(ds)
        meta = json.loads(lines[0])
        assert meta["kind"] == "dataset"
        assert meta["provenance"] == "unit test"
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        loaded, _ = load_dataset(path)
        assert loaded.capture_at == ds.capture_at
        assert loaded.provenance == "unit test"

    def test_malformed_line_skipped_and_counted(self, tmp_path):
        path = self._archive(
            tmp_path, [self._user_line("a"), "{not json", self._tweet_line("t1", "a")]
        )
        ds, report = load_dataset(path)
        assert report.malformed_lines == 1
        assert report.malformed_line_numbers == [2]
        assert len(ds.tweets) == 1

    def test_fail_fast_raises_with_line_number(self, tmp_path):
        path = self._archive(tmp_path, [self._user_line("a"), '{"kind": "mystery"}'])
        with pytest.raises(ArchiveFormatError, match="line 2"):
            load_dataset(path, fail_fast=True)

    def test_unknown_author_tweet_quarantined(self, tmp_path):
        path = self._archive(
            tmp_path, [self._user_line("a"), self._tweet_line("t1", "ghost")]
        )
        ds, report = load_dataset(path)
        assert report.quarantined_tweets == 1
        assert ds.tweets == ()

    def test_reply_needs_parent_and_author(self, tmp_path):
        reply = json.dumps(
            {
                "kind": "reply",
                "body": {
                    "reply_id": "r1",
                    "parent_tweet_id": "missing",
                    "author_id": "a",
                    "posted_at": "2024-02-02T00:00:00Z",
                    "text": "hi",
                },
            }
        )
        path = self._archive(tmp_path, [self._user_line("a"), reply])
        ds, report = load_dataset(path)
        assert report.quarantined_replies == 1
        assert ds.replies == ()

    def test_max_friends_filters_users_and_their_records(self, tmp_path):
        path = self._archive(
            tmp_path,
            [
                self._user_line("a"),
                self._user_line("bot", friends_count=5000),
                self._tweet_line("t1", "bot"),
            ],
        )
        ds, report = load_dataset(path, max_friends=1000)
        assert report.filtered_users == 1
        assert report.quarantined_tweets == 1
        assert [u.user_id for u in ds.users] == ["a"]

    @pytest.mark.parametrize("max_friends", [0, -5])
    def test_max_friends_below_one_rejected(self, tmp_path, max_friends):
        path = self._archive(tmp_path, [self._user_line("a")])
        with pytest.raises(ValueError, match=f"max_friends must be at least 1, got {max_friends}"):
            load_dataset(path, max_friends=max_friends)

    def test_default_capture_is_day_after_latest_stamp(self, tmp_path):
        path = self._archive(
            tmp_path,
            [self._user_line("a"), self._tweet_line("t1", "a", posted_at="2024-05-01T00:00:00Z")],
        )
        ds, _ = load_dataset(path)
        assert ds.capture_at == ts("2024-05-01T00:00:00Z") + timedelta(days=1)

    def test_labels_round_trip(self, tmp_path):
        labels = GroundTruthLabels(
            domain="Sports", labels={"a": "Influencer", "b": "NonInfluencer"}
        )
        path = tmp_path / "labels.json"
        save_labels(labels, path)
        assert load_labels(path) == labels


class TestCleanse:
    def test_non_english_tweet_removed_with_replies(self):
        ds = make_dataset(
            [make_user("a"), make_user("b")],
            [make_tweet("t1", "a", language="fr"), make_tweet("t2", "a")],
            [make_reply("r1", "t1", "b"), make_reply("r2", "t2", "b")],
        )
        cleaned, report = cleanse(ds)
        assert [t.tweet_id for t in cleaned.tweets] == ["t2"]
        assert [r.reply_id for r in cleaned.replies] == ["r2"]
        assert report.language_removed == 1
        assert report.orphan_replies_removed == 1

    def test_missing_language_counts_as_non_english_by_default(self):
        ds = make_dataset([make_user("a")], [make_tweet("t1", "a", language=None)])
        cleaned, _ = cleanse(ds)
        assert cleaned.tweets == ()
        kept, _ = cleanse(ds, keep_missing_language=True)
        assert len(kept.tweets) == 1

    def test_retweet_counts_zeroed_text_kept(self):
        ds = make_dataset(
            [make_user("a")],
            [make_tweet("t1", "a", is_retweet=True, retweets=7, favorites=3, replies=2)],
        )
        cleaned, report = cleanse(ds)
        t = cleaned.tweets[0]
        assert (t.retweet_count, t.favorite_count, t.replies_count) == (0, 0, 0)
        assert t.text == "python code software"
        assert report.retweets_zeroed == 1

    def test_owner_replies_removed(self):
        ds = make_dataset(
            [make_user("a"), make_user("b")],
            [make_tweet("t1", "a")],
            [make_reply("r1", "t1", "a"), make_reply("r2", "t1", "b")],
        )
        cleaned, report = cleanse(ds)
        assert [r.reply_id for r in cleaned.replies] == ["r2"]
        assert report.owner_replies_removed == 1

    def test_idempotent(self):
        ds = make_dataset(
            [make_user("a"), make_user("b")],
            [
                make_tweet("t1", "a", language="de"),
                make_tweet("t2", "a", is_retweet=True, retweets=5),
            ],
            [make_reply("r1", "t2", "a"), make_reply("r2", "t2", "b")],
        )
        once, _ = cleanse(ds)
        twice, report = cleanse(once)
        assert twice == once
        assert report.language_removed == 0
        assert report.retweets_zeroed == 0
        assert report.owner_replies_removed == 0


class TestPeriods:
    def _dataset(self, stamps):
        tweets = [
            make_tweet(f"t{i}", "a", posted=stamp) for i, stamp in enumerate(stamps)
        ]
        return make_dataset([make_user("a")], tweets)

    def test_indices_start_at_one_and_edges_are_half_open(self):
        ds = self._dataset(
            ["2024-01-15T00:00:00Z", "2024-02-01T00:00:00Z", "2024-02-29T23:59:59Z"]
        )
        slices, report = partition_periods(ds, PeriodSpec(n_periods=2))
        assert [s.index for s in slices] == [1, 2]
        assert slices[0].start == ts("2024-01-01T00:00:00Z")
        assert slices[0].end == ts("2024-02-01T00:00:00Z")
        # the boundary tweet belongs to the later period
        assert "t1" in slices[1].tweet_ids and "t1" not in slices[0].tweet_ids
        assert report.out_of_range_tweets == 0

    def test_out_of_range_counted_not_assigned(self):
        ds = self._dataset(["2024-01-15T00:00:00Z", "2024-06-01T00:00:00Z"])
        slices, report = partition_periods(ds, PeriodSpec(n_periods=2))
        assert report.out_of_range_tweets == 1
        assert sum(len(s.tweet_ids) for s in slices) == 1

    def test_explicit_start_before_data_gives_empty_leading_periods(self):
        ds = self._dataset(["2024-03-10T00:00:00Z"])
        spec = PeriodSpec(n_periods=3, start=ts("2024-01-01T00:00:00Z"))
        slices, report = partition_periods(ds, spec)
        assert report.empty_periods == 2
        assert len(slices[2].tweet_ids) == 1

    def test_quarter_and_year_granularity(self):
        ds = self._dataset(["2024-02-10T00:00:00Z", "2024-05-10T00:00:00Z"])
        quarters, _ = partition_periods(
            ds, PeriodSpec(n_periods=2, granularity="quarter")
        )
        assert quarters[0].start == ts("2024-01-01T00:00:00Z")
        assert quarters[1].end == ts("2024-07-01T00:00:00Z")
        years, _ = partition_periods(ds, PeriodSpec(n_periods=1, granularity="year"))
        assert years[0].start == ts("2024-01-01T00:00:00Z")
        assert years[0].end == ts("2025-01-01T00:00:00Z")

    def test_replies_assigned_by_their_own_timestamp(self):
        ds = make_dataset(
            [make_user("a"), make_user("b")],
            [make_tweet("t1", "a", posted="2024-01-05T00:00:00Z")],
            [make_reply("r1", "t1", "b", posted="2024-02-20T00:00:00Z")],
        )
        slices, _ = partition_periods(ds, PeriodSpec(n_periods=2))
        assert "r1" in slices[1].reply_ids
        assert "r1" not in slices[0].reply_ids

    def test_default_count_reaches_the_last_record(self):
        ds = make_dataset(
            [make_user("a"), make_user("b")],
            [make_tweet("t1", "a", posted="2024-01-15T00:00:00Z")],
            # a reply exactly on the April boundary needs a fourth month
            [make_reply("r1", "t1", "b", posted="2024-04-01T00:00:00Z")],
        )
        slices, report = partition_periods(ds, PeriodSpec())
        assert report.n_periods == 4 and len(slices) == 4
        assert "r1" in slices[3].reply_ids
        assert report.out_of_range_tweets == report.out_of_range_replies == 0
        quarters, _ = partition_periods(ds, PeriodSpec(granularity="quarter"))
        assert [q.end for q in quarters] == [
            ts("2024-04-01T00:00:00Z"), ts("2024-07-01T00:00:00Z")
        ]
        # a start after every record still gives one (empty) period
        late, report = partition_periods(ds, PeriodSpec(start=ts("2024-06-01T00:00:00Z")))
        assert len(late) == 1 and report.out_of_range_tweets == 1

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            PeriodSpec(n_periods=0)
        with pytest.raises(ValueError):
            PeriodSpec(n_periods=1, granularity="fortnight")


class TestSynthesize:
    def test_deterministic_in_config_and_seed(self):
        config = SynthConfig(n_users=30)
        a1, l1 = synthesize(config, seed=11)
        a2, l2 = synthesize(config, seed=11)
        assert a1 == a2 and l1 == l2
        b, _ = synthesize(config, seed=12)
        assert b != a1

    def test_influencer_count_is_floor_with_minimum_one(self):
        _, labels = synthesize(SynthConfig(n_users=30, influencer_fraction=0.25), seed=3)
        assert sum(1 for v in labels.labels.values() if v == "Influencer") == 7
        _, tiny = synthesize(SynthConfig(n_users=5, influencer_fraction=0.05), seed=3)
        assert sum(1 for v in tiny.labels.values() if v == "Influencer") == 1

    def test_labels_cover_every_user(self):
        dataset, labels = synthesize(SynthConfig(n_users=20), seed=5)
        labels.validate_against(dataset)
        assert set(labels.labels) == {u.user_id for u in dataset.users}

    def test_capture_is_after_every_record(self):
        dataset, _ = synthesize(SynthConfig(n_users=15), seed=9)
        last = max(
            [t.posted_at for t in dataset.tweets] + [r.posted_at for r in dataset.replies]
        )
        assert last < dataset.capture_at
        assert dataset.provenance == "synthetic seed=9"

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError, match="not in the built-in lexicon"):
            synthesize(SynthConfig(domains=("Astrology",)), seed=1)

    def test_round_trips_through_archive_io(self, tmp_path):
        dataset, _ = synthesize(SynthConfig(n_users=12), seed=2)
        path = tmp_path / "synth.jsonl"
        save_dataset(dataset, path)
        loaded, report = load_dataset(path)
        assert report.warning_count == 0
        assert loaded == dataset

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"n_users": "30"}, "n_users"),
            ({"n_users": True}, "n_users"),
            ({"n_users": 30.0}, "n_users"),
            ({"n_periods": 2.5}, "n_periods"),
            ({"period_days": None}, "period_days"),
            ({"influencer_fraction": "0.25"}, "influencer_fraction"),
            ({"blend_rate": True}, "blend_rate"),
            ({"retweet_rate": [0.1]}, "retweet_rate"),
            ({"start": 20240101}, "start"),
        ],
    )
    def test_wrong_types_rejected_by_name(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            SynthConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"followers": (1, "2")}, "followers"),
            ({"friends": (1, 2, 3)}, "friends"),
            ({"tweets_per_period": 4}, "tweets_per_period"),
            ({"replies_mean": "6"}, "replies_mean"),
            ({"positive_reply_rate": None}, "positive_reply_rate"),
        ],
    )
    def test_level_wrong_types_rejected_by_name(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            replace(INFLUENCER_LEVEL, **kwargs)

    # The tests below hold for any draw order: they pin what the generator
    # promises, not the bytes it writes.

    @pytest.mark.parametrize("seed", [1, 7, 13])
    def test_record_invariants(self, seed):
        config = SynthConfig(n_users=60)
        dataset, labels = synthesize(config, seed)
        start = parse_timestamp(config.start)
        tweets_of = {u.user_id: 0 for u in dataset.users}
        for t in dataset.tweets:
            tweets_of[t.author_id] += 1
            assert start <= t.posted_at < dataset.capture_at
            assert t.language in ("en", "es")
        for user_id, n in tweets_of.items():
            level = config.influencer if labels.labels[user_id] == "Influencer" else config.ordinary
            lo, hi = level.tweets_per_period
            assert config.n_periods * lo <= n <= config.n_periods * hi

        by_id = {t.tweet_id: t for t in dataset.tweets}
        reply_ids = {t.tweet_id: [] for t in dataset.tweets}
        for r in dataset.replies:
            reply_ids[r.parent_tweet_id].append(r.reply_id)
            assert r.author_id != by_id[r.parent_tweet_id].author_id
            assert by_id[r.parent_tweet_id].posted_at <= r.posted_at <= dataset.capture_at
        for tweet_id, ids in reply_ids.items():
            assert by_id[tweet_id].replies_count == len(ids)
            assert sorted(ids) == [f"r{tweet_id[1:]}-{k:03d}" for k in range(len(ids))]

    def test_edge_configs_behave_as_named(self):
        two, labels = synthesize(GOLDEN_STREAM["two_users"][0], seed=7)
        labels.validate_against(two)
        assert len(two.users) == 2 and two.tweets

        silent, _ = synthesize(GOLDEN_STREAM["no_tweets"][0], seed=7)
        assert len(silent.users) == 40
        assert silent.tweets == () and silent.replies == ()

        loud, _ = synthesize(GOLDEN_STREAM["rates_one"][0], seed=7)
        assert loud.tweets
        assert all(t.language == "es" and t.is_retweet for t in loud.tweets)

        config = GOLDEN_STREAM["one_domain"][0]
        single, _ = synthesize(config, seed=7)
        allowed = builtin_domain_lexicon().terms["Sports"] | set(_FILLERS)
        assert single.tweets
        for t in single.tweets:
            assert set(t.text.split()) <= allowed, t.text

    def test_mean_record_counts_match_the_levels(self):
        config = SynthConfig(n_users=2000)
        n_inf = int(config.n_users * config.influencer_fraction)
        want_tweets = want_replies = 0.0
        for level, n in ((config.influencer, n_inf), (config.ordinary, config.n_users - n_inf)):
            lo, hi = level.tweets_per_period
            tweets = n * config.n_periods * (lo + hi) / 2
            want_tweets += tweets
            want_replies += tweets * level.replies_mean
        seeds = range(101, 109)
        got_tweets = got_replies = 0
        for seed in seeds:
            dataset, _ = synthesize(config, seed)
            got_tweets += len(dataset.tweets)
            got_replies += len(dataset.replies)
        assert got_tweets / len(seeds) == pytest.approx(want_tweets, rel=0.01)
        assert got_replies / len(seeds) == pytest.approx(want_replies, rel=0.01)


def _silent(level: EngagementLevel) -> EngagementLevel:
    return replace(level, tweets_per_period=(0, 0))


# sha256 of "\n".join(dataset_to_lines(synthesize(config, seed=7))).  The
# generator's draw order is its contract: a change that moves these digests
# moves every synthetic archive and must say so.
GOLDEN_STREAM = {
    "default": (
        SynthConfig(n_users=40),
        "fae6f12b24ea6abc77a535f9e2b64d16b1c9d0a1d9fb8ec9085735e68d6b3b00",
    ),
    "two_users": (
        SynthConfig(n_users=2),
        "309cca6dd02a125fc1b326c6fdf6736330780051967aede36776aabd83dd6b03",
    ),
    "one_domain": (
        SynthConfig(n_users=40, domains=("Sports",)),
        "15272e5d485896f515c9c4de58ce48de2a9eb32d07e8333b161ece384496397a",
    ),
    "rates_one": (
        SynthConfig(
            n_users=40,
            off_domain_rate=1.0,
            blend_rate=1.0,
            non_english_rate=1.0,
            retweet_rate=1.0,
        ),
        "70b4d83792fa25fb541f5021794da9ade440d3fc528440d1c2be46cd4cbc71b8",
    ),
    "no_tweets": (
        SynthConfig(
            n_users=40,
            influencer=_silent(INFLUENCER_LEVEL),
            ordinary=_silent(ORDINARY_LEVEL),
        ),
        "706ee069dad4f675760af30f8d76950ee67519eaebf3b56733c9e310e407ecfa",
    ),
}


class TestSynthStream:
    @pytest.mark.parametrize("name", sorted(GOLDEN_STREAM))
    def test_golden_digest(self, name):
        config, digest = GOLDEN_STREAM[name]
        dataset, _ = synthesize(config, seed=7)
        lines = "\n".join(dataset_to_lines(dataset)).encode("utf-8")
        assert hashlib.sha256(lines).hexdigest() == digest
