"""The corpus records and domain annotations: named tuples, immutable and
equal and hashed by their fields."""

import pytest

from domcred.annotate import DomainAnnotation
from domcred.corpus.types import ReplyRecord, TweetRecord, UserProfile

from helpers import annotation, make_reply, make_tweet, make_user

# the field order is the row order the archive reader builds
FIELDS = {
    UserProfile: ("user_id", "handle", "followers_count", "friends_count", "created_at"),
    TweetRecord: (
        "tweet_id",
        "author_id",
        "posted_at",
        "text",
        "retweet_count",
        "favorite_count",
        "replies_count",
        "is_retweet",
        "language",
    ),
    ReplyRecord: ("reply_id", "parent_tweet_id", "author_id", "posted_at", "text"),
    DomainAnnotation: ("label", "score", "confident"),
}


def _records():
    """One record of each class, with a field to change and a new value."""
    return [
        (make_user("a"), "followers_count", 11),
        (make_tweet("t1", "a"), "text", "other"),
        (make_reply("r1", "t1", "a"), "text", "other"),
        (annotation("Sports", 0.5, True), "score", 0.25),
    ]


RECORDS = _records()
IDS = [type(record).__name__ for record, _, _ in RECORDS]


def test_the_four_record_classes_are_covered():
    assert {type(record) for record, _, _ in RECORDS} == set(FIELDS)


@pytest.mark.parametrize("record, name, value", RECORDS, ids=IDS)
class TestNamedTupleRecords:
    def test_fields_and_no_instance_dict(self, record, name, value):
        assert type(record)._fields == FIELDS[type(record)]
        assert tuple(record) == tuple(getattr(record, f) for f in record._fields)
        assert type(record).__slots__ == ()
        assert not hasattr(record, "__dict__")

    def test_assignment_raises(self, record, name, value):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            record.not_a_field = 1

    def test_equality_and_hash_follow_the_fields(self, record, name, value):
        twin = type(record)._make(tuple(record))
        assert twin == record and twin is not record
        assert hash(twin) == hash(record)
        assert len({record, twin}) == 1
        changed = record._replace(**{name: value})
        assert changed != record
        assert getattr(changed, name) == value
        assert getattr(record, name) != value

    def test_asdict_holds_every_field(self, record, name, value):
        payload = record._asdict()
        assert list(payload) == list(FIELDS[type(record)])
        assert payload[name] == getattr(record, name)


def test_replace_zeroes_engagement_as_cleanse_does():
    tweet = make_tweet("t1", "a", retweets=3, favorites=2, replies=1, is_retweet=True)
    zeroed = tweet._replace(retweet_count=0, favorite_count=0, replies_count=0)
    assert (zeroed.retweet_count, zeroed.favorite_count, zeroed.replies_count) == (0, 0, 0)
    assert (zeroed.tweet_id, zeroed.text, zeroed.is_retweet) == ("t1", tweet.text, True)
