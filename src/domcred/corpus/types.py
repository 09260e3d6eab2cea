"""Core data model: user profiles, tweets, replies, datasets, period slices."""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from itertools import islice
from operator import itemgetter, lt
from typing import NamedTuple

INFLUENCER = "Influencer"
NON_INFLUENCER = "NonInfluencer"
LABELS = (INFLUENCER, NON_INFLUENCER)


def parse_timestamp(value: str) -> datetime:
    """Parse an RFC 3339 timestamp into an aware UTC datetime."""
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        raise ValueError(f"timestamp {value!r} has no timezone; UTC offset required")
    try:
        return dt.astimezone(timezone.utc)
    except OverflowError as exc:
        raise ValueError(f"timestamp {value!r} falls outside years 1-9999 in UTC") from exc


def format_timestamps(stamps) -> list[str]:
    """Canonical RFC 3339 rendering of each aware datetime, in UTC with a Z
    suffix; ValueError for a naive one, whose instant depends on the machine.

    The year always has four digits; microseconds appear only when nonzero.
    Each UTC day's date text is built once.
    """
    utc = timezone.utc
    days: dict[int, str] = {}
    texts = []
    append = texts.append
    for dt in stamps:
        if dt.tzinfo is not utc:
            if dt.utcoffset() is None:
                raise ValueError(f"timestamp {dt!r} has no timezone; UTC offset required")
            dt = dt.astimezone(utc)
        ordinal = dt.toordinal()
        day = days.get(ordinal)
        if day is None:
            day = days[ordinal] = "%04d-%02d-%02dT" % (dt.year, dt.month, dt.day)
        if dt.microsecond:
            append(
                "%s%02d:%02d:%02d.%06dZ" % (day, dt.hour, dt.minute, dt.second, dt.microsecond)
            )
        else:
            append("%s%02d:%02d:%02dZ" % (day, dt.hour, dt.minute, dt.second))
    return texts


def format_timestamp(dt: datetime) -> str:
    """``format_timestamps`` of one datetime."""
    return format_timestamps((dt,))[0]


class UserProfile(NamedTuple):
    user_id: str
    handle: str
    followers_count: int
    friends_count: int
    created_at: datetime


class TweetRecord(NamedTuple):
    tweet_id: str
    author_id: str
    posted_at: datetime
    text: str
    retweet_count: int = 0
    favorite_count: int = 0
    replies_count: int = 0
    is_retweet: bool = False
    language: str | None = None


class ReplyRecord(NamedTuple):
    reply_id: str
    parent_tweet_id: str
    author_id: str
    posted_at: datetime
    text: str


def sorted_by_id(kind: str, items, key) -> list:
    """``items`` of one kind sorted by their ids, which ``key`` reads;
    ValueError naming the first id that repeats."""
    ordered = sorted(items, key=key)
    ids = list(map(key, ordered))
    if len(set(ids)) < len(ids):
        repeated = next(a for a, b in zip(ids, ids[1:]) if a == b)
        raise ValueError(f"duplicate {kind}_id {repeated!r}")
    return ordered


def in_id_order(kind: str, columns, at) -> list[tuple]:
    """A kind's columns, the first holding the ids, at the positions ``at``
    (ascending) and in id order; ValueError naming the first id that repeats."""
    ids = columns[0]
    if len(at) == len(ids) and all(map(lt, ids, islice(ids, 1, None))):
        return list(map(tuple, columns))  # every record, already in id order
    order = sorted_by_id(kind, at, ids.__getitem__)
    return [tuple(map(column.__getitem__, order)) for column in columns]


class DatasetColumns(NamedTuple):
    """A dataset: one tuple per field of its users, tweets and replies, each
    kind in id order, then the capture timestamp and the provenance.  It is
    a named tuple because every command imports this module, and a named
    tuple costs that import a fraction of what a frozen dataclass does."""

    # UserProfile's fields
    user_ids: tuple[str, ...]
    handles: tuple[str, ...]
    followers: tuple[int, ...]
    friends: tuple[int, ...]
    user_created: tuple[datetime, ...]
    # TweetRecord's fields
    tweet_ids: tuple[str, ...]
    tweet_authors: tuple[str, ...]
    tweet_posted: tuple[datetime, ...]
    tweet_texts: tuple[str, ...]
    retweets: tuple[int, ...]
    favorites: tuple[int, ...]
    tweet_replies: tuple[int, ...]
    is_retweet: tuple[bool, ...]
    languages: tuple[str | None, ...]
    # ReplyRecord's fields
    reply_ids: tuple[str, ...]
    reply_parents: tuple[str, ...]
    reply_authors: tuple[str, ...]
    reply_posted: tuple[datetime, ...]
    reply_texts: tuple[str, ...]
    capture_at: datetime
    provenance: str = ""

    def kinds(self) -> tuple[tuple, tuple, tuple]:
        """The users', the tweets' and the replies' columns."""
        return self[:5], self[5:14], self[14:19]

    def tweet_engagement(self):
        """(tweet id, author, retweets, favorites, replies) per tweet, in id order."""
        return zip(
            self.tweet_ids, self.tweet_authors, self.retweets, self.favorites, self.tweet_replies
        )


@dataclass(frozen=True)
class Dataset:
    """Immutable snapshot of an archive; record tuples are sorted by id."""

    users: tuple[UserProfile, ...]
    tweets: tuple[TweetRecord, ...]
    replies: tuple[ReplyRecord, ...]
    capture_at: datetime
    provenance: str = ""

    def __post_init__(self):
        for name, kind in (("users", "user"), ("tweets", "tweet"), ("replies", "reply")):
            records = sorted_by_id(kind, getattr(self, name), itemgetter(0))
            object.__setattr__(self, name, tuple(records))
        for u in self.users:
            if u.created_at >= self.capture_at:
                raise ValueError(f"user {u.user_id} created at or after capture_at")

    @cached_property
    def columns(self) -> DatasetColumns:
        """The records' columns, transposed on first use; records are in id order."""
        users, tweets, replies = (
            tuple(zip(*records)) or ((),) * width
            for records, width in ((self.users, 5), (self.tweets, 9), (self.replies, 5))
        )
        return DatasetColumns(*users, *tweets, *replies, self.capture_at, self.provenance)


@dataclass(frozen=True)
class PeriodSlice:
    """One timeline chunk, the half-open interval [start, end): a record lies in
    the slice that holds its own posted_at, as ``periods.slice_indices`` places it."""

    index: int
    start: datetime
    end: datetime


@dataclass(frozen=True)
class GroundTruthLabels:
    domain: str
    labels: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        bad = {v for v in self.labels.values() if v not in LABELS}
        if bad:
            raise ValueError(f"unknown label values: {sorted(bad)}")

    def validate_against(self, columns: DatasetColumns) -> None:
        known = set(columns.user_ids)
        missing = sorted(set(self.labels) - known)
        if missing:
            raise ValueError(
                f"labels refer to unknown users: {missing[:5]}; {len(missing)} labeled"
                " user(s) missing from the dataset (dropped by ingest --max-friends or"
                " by cleansing?); narrow the labels file to the dataset's users"
            )
