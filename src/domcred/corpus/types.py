"""Core data model: a dataset's columns and each record kind's place in them,
timestamps, period slices and ground-truth labels."""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import islice
from operator import lt
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


def in_id_order(kind: str, columns, at) -> list[tuple]:
    """A kind's columns, the first holding the ids, at the positions ``at``
    (ascending) and in id order; ValueError naming the first id that repeats."""
    ids = columns[0]
    if len(at) == len(ids) and all(map(lt, ids, islice(ids, 1, None))):
        return list(map(tuple, columns))  # every record, already in id order
    order = sorted(at, key=ids.__getitem__)
    sorted_ids = list(map(ids.__getitem__, order))
    if len(set(sorted_ids)) < len(sorted_ids):
        repeated = next(a for a, b in zip(sorted_ids, sorted_ids[1:]) if a == b)
        raise ValueError(f"duplicate {kind}_id {repeated!r}")
    return [tuple(map(column.__getitem__, order)) for column in columns]


class DatasetColumns(NamedTuple):
    """A dataset: one tuple per field of its users, tweets and replies, each
    kind in id order, then the capture timestamp and the provenance.  It is
    a named tuple because every command imports this module, and a named
    tuple costs that import a fraction of what a frozen dataclass does.

    Every timestamp is its canonical RFC 3339 UTC text, the string
    ``format_timestamps`` writes and an archive line holds, so a dataset
    goes from file to file without a parse.  Dropping the trailing ``Z``
    makes two such texts compare as their instants do (``...:00`` sorts
    before ``...:00.000001``; with the ``Z`` it would sort after)."""

    # a user's fields
    user_ids: tuple[str, ...]
    handles: tuple[str, ...]
    followers: tuple[int, ...]
    friends: tuple[int, ...]
    user_created: tuple[str, ...]
    # a tweet's fields
    tweet_ids: tuple[str, ...]
    tweet_authors: tuple[str, ...]
    tweet_posted: tuple[str, ...]
    tweet_texts: tuple[str, ...]
    retweets: tuple[int, ...]
    favorites: tuple[int, ...]
    tweet_replies: tuple[int, ...]
    is_retweet: tuple[bool, ...]
    languages: tuple[str | None, ...]
    # a reply's fields
    reply_ids: tuple[str, ...]
    reply_parents: tuple[str, ...]
    reply_authors: tuple[str, ...]
    reply_posted: tuple[str, ...]
    reply_texts: tuple[str, ...]
    capture_at: str
    provenance: str = ""

    def kinds(self) -> tuple[tuple, ...]:
        """The users', the tweets' and the replies' columns, as ``KIND_LAYOUTS`` places them."""
        return tuple(self[layout.start : layout.stop] for layout in KIND_LAYOUTS)

    def tweet_engagement(self):
        """(tweet id, author, retweets, favorites, replies) per tweet, in id order."""
        return zip(
            self.tweet_ids, self.tweet_authors, self.retweets, self.favorites, self.tweet_replies
        )


class KindLayout(NamedTuple):
    """Where one record kind sits in a ``DatasetColumns``: its fields are
    ``columns[start:stop]``, in the order its archive lines' bodies are read,
    and the one at ``stamp`` among them holds its timestamps."""

    name: str
    start: int
    stop: int
    stamp: int

    @property
    def width(self) -> int:
        return self.stop - self.start


# the record kinds, in DatasetColumns order
KIND_LAYOUTS = (
    KindLayout("user", 0, 5, 4),  # user_created
    KindLayout("tweet", 5, 14, 2),  # tweet_posted
    KindLayout("reply", 14, 19, 3),  # reply_posted
)


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
