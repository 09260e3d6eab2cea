"""The corpus records and domain annotations: frozen, slotted, hashable value objects."""

from dataclasses import FrozenInstanceError, asdict, fields, replace

import pytest

from domcred.annotate import DomainAnnotation
from domcred.corpus.types import ReplyRecord, TweetRecord, UserProfile

from helpers import annotation, make_reply, make_tweet, make_user


def _records():
    """One record of each slotted class, with a field to change and a new value."""
    return [
        (make_user("a"), "followers_count", 11),
        (make_tweet("t1", "a"), "text", "other"),
        (make_reply("r1", "t1", "a"), "text", "other"),
        (annotation("Sports", 0.5, True), "score", 0.25),
    ]


RECORDS = _records()
IDS = [type(record).__name__ for record, _, _ in RECORDS]


def test_the_four_record_classes_are_covered():
    classes = {UserProfile, TweetRecord, ReplyRecord, DomainAnnotation}
    assert {type(record) for record, _, _ in RECORDS} == classes


@pytest.mark.parametrize("record, name, value", RECORDS, ids=IDS)
class TestSlottedRecords:
    def test_has_slots_and_no_instance_dict(self, record, name, value):
        assert type(record).__slots__ == tuple(f.name for f in fields(record))
        assert not hasattr(record, "__dict__")

    def test_assignment_raises(self, record, name, value):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, value)
        with pytest.raises((FrozenInstanceError, AttributeError, TypeError)):
            record.not_a_field = 1

    def test_equality_and_hash_follow_the_fields(self, record, name, value):
        twin = replace(record)
        assert twin == record and twin is not record
        assert hash(twin) == hash(record)
        assert len({record, twin}) == 1
        changed = replace(record, **{name: value})
        assert changed != record
        assert getattr(changed, name) == value
        assert getattr(record, name) != value

    def test_asdict_holds_every_field(self, record, name, value):
        payload = asdict(record)
        assert list(payload) == [f.name for f in fields(record)]
        assert payload[name] == getattr(record, name)


@pytest.mark.parametrize(
    "record, name, bad",
    [
        (make_user("a"), "followers_count", -1),
        (make_tweet("t1", "a"), "retweet_count", -1),
        (annotation("Sports", 0.5), "score", 1.5),
    ],
    ids=["UserProfile", "TweetRecord", "DomainAnnotation"],
)
def test_replace_still_runs_the_checks(record, name, bad):
    with pytest.raises(ValueError):
        replace(record, **{name: bad})


def test_replace_zeroes_engagement_as_cleanse_does():
    tweet = make_tweet("t1", "a", retweets=3, favorites=2, replies=1, is_retweet=True)
    zeroed = replace(tweet, retweet_count=0, favorite_count=0, replies_count=0)
    assert (zeroed.retweet_count, zeroed.favorite_count, zeroed.replies_count) == (0, 0, 0)
    assert (zeroed.tweet_id, zeroed.text, zeroed.is_retweet) == ("t1", tweet.text, True)
