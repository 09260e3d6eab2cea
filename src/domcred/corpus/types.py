"""Core data model: user profiles, tweets, replies, datasets, period slices."""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone

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


def format_timestamp(dt: datetime) -> str:
    """Canonical RFC 3339 rendering in UTC with a Z suffix.

    The year always has four digits; microseconds appear only when nonzero.
    """
    # isoformat() of a UTC datetime ends in "+00:00"
    return dt.astimezone(timezone.utc).isoformat()[:-6] + "Z"


@dataclass(frozen=True, slots=True)
class UserProfile:
    user_id: str
    handle: str
    followers_count: int
    friends_count: int
    created_at: datetime

    def __post_init__(self):
        if self.followers_count < 0:
            raise ValueError(f"user {self.user_id}: followers_count < 0")
        if self.friends_count < 0:
            raise ValueError(f"user {self.user_id}: friends_count < 0")


@dataclass(frozen=True, slots=True)
class TweetRecord:
    tweet_id: str
    author_id: str
    posted_at: datetime
    text: str
    retweet_count: int = 0
    favorite_count: int = 0
    replies_count: int = 0
    is_retweet: bool = False
    language: str | None = None

    def __post_init__(self):
        for name in ("retweet_count", "favorite_count", "replies_count"):
            if getattr(self, name) < 0:
                raise ValueError(f"tweet {self.tweet_id}: {name} < 0")


@dataclass(frozen=True, slots=True)
class ReplyRecord:
    reply_id: str
    parent_tweet_id: str
    author_id: str
    posted_at: datetime
    text: str


@dataclass(frozen=True)
class Dataset:
    """Immutable snapshot of an archive; record tuples are sorted by id."""

    users: tuple[UserProfile, ...]
    tweets: tuple[TweetRecord, ...]
    replies: tuple[ReplyRecord, ...]
    capture_at: datetime
    provenance: str = ""

    def __post_init__(self):
        object.__setattr__(self, "users", tuple(sorted(self.users, key=lambda u: u.user_id)))
        object.__setattr__(self, "tweets", tuple(sorted(self.tweets, key=lambda t: t.tweet_id)))
        object.__setattr__(self, "replies", tuple(sorted(self.replies, key=lambda r: r.reply_id)))
        for u in self.users:
            if u.created_at >= self.capture_at:
                raise ValueError(f"user {u.user_id} created at or after capture_at")
        seen: set[str] = set()
        for t in self.tweets:
            if t.tweet_id in seen:
                raise ValueError(f"duplicate tweet_id {t.tweet_id!r}")
            seen.add(t.tweet_id)
        seen = set()
        for r in self.replies:
            if r.reply_id in seen:
                raise ValueError(f"duplicate reply_id {r.reply_id!r}")
            seen.add(r.reply_id)


@dataclass(frozen=True)
class PeriodSlice:
    """One timeline chunk; the id sets are authoritative for membership.

    The partitioner fills them with the records posted in the half-open
    interval [start, end), the final period included.
    """

    index: int
    start: datetime
    end: datetime
    tweet_ids: frozenset[str]
    reply_ids: frozenset[str]


@dataclass(frozen=True)
class GroundTruthLabels:
    domain: str
    labels: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        bad = {v for v in self.labels.values() if v not in LABELS}
        if bad:
            raise ValueError(f"unknown label values: {sorted(bad)}")

    def validate_against(self, dataset: Dataset) -> None:
        known = {u.user_id for u in dataset.users}
        missing = sorted(set(self.labels) - known)
        if missing:
            raise ValueError(
                f"labels refer to unknown users: {missing[:5]}; {len(missing)} labeled"
                " user(s) missing from the dataset (dropped by ingest --max-friends or"
                " by cleansing?); narrow the labels file to the dataset's users"
            )
