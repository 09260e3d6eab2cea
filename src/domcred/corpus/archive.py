"""Archive-lines file IO: one JSON record envelope per line.

Envelope: {"kind": "user" | "tweet" | "reply", "body": {...}} with timestamps
in RFC 3339 UTC.  An optional single {"kind": "dataset", ...} line carries the
capture timestamp and a provenance note; without it the capture timestamp
defaults to one day after the newest record.  See docs/formats.md.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timedelta
from pathlib import Path

from .types import (
    Dataset,
    GroundTruthLabels,
    ReplyRecord,
    TweetRecord,
    UserProfile,
    format_timestamp,
    parse_timestamp,
)

KINDS = ("user", "tweet", "reply", "dataset")

# one encoder and one decoder for every line, instead of a json.dumps or
# json.loads call (and its set-up) per line
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode
_raw_decode = json.JSONDecoder().raw_decode


def decode_line(text: str):
    """``json.loads(text)``, without its per-call set-up for a line it accepts.

    A line the raw decoder does not take whole (surrounding whitespace,
    trailing data, invalid JSON) goes to json.loads itself, so the accepted
    lines, the values and the error messages are exactly json.loads's.
    """
    try:
        value, end = _raw_decode(text)
        if end == len(text):
            return value
    except ValueError:
        pass
    return json.loads(text)


class ArchiveFormatError(ValueError):
    """Malformed archive line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class LoadReport:
    """Counts of records skipped or quarantined while loading."""

    malformed_lines: int = 0
    malformed_line_numbers: list[int] = field(default_factory=list)
    quarantined_users: int = 0
    quarantined_tweets: int = 0
    quarantined_replies: int = 0
    filtered_users: int = 0

    @property
    def warning_count(self) -> int:
        return (
            self.malformed_lines
            + self.quarantined_users
            + self.quarantined_tweets
            + self.quarantined_replies
            + self.filtered_users
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "warning_count": self.warning_count}


def _check_utf8(line: str) -> None:
    """ValueError when a line read with surrogateescape held a byte that is not UTF-8."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        byte = ord(line[exc.start]) - 0xDC00
        raise ValueError(f"not UTF-8: byte 0x{byte:02x} at character {exc.start}") from None


def _user_from_body(body: dict) -> UserProfile:
    return UserProfile(
        user_id=str(body["user_id"]),
        handle=str(body.get("handle", body["user_id"])),
        followers_count=int(body["followers_count"]),
        friends_count=int(body["friends_count"]),
        created_at=parse_timestamp(body["created_at"]),
    )


def _tweet_from_body(body: dict) -> TweetRecord:
    return TweetRecord(
        tweet_id=str(body["tweet_id"]),
        author_id=str(body["author_id"]),
        posted_at=parse_timestamp(body["posted_at"]),
        text=str(body.get("text", "")),
        retweet_count=int(body.get("retweet_count", 0)),
        favorite_count=int(body.get("favorite_count", 0)),
        replies_count=int(body.get("replies_count", 0)),
        is_retweet=bool(body.get("is_retweet", False)),
        language=body.get("language"),
    )


def _reply_from_body(body: dict) -> ReplyRecord:
    return ReplyRecord(
        reply_id=str(body["reply_id"]),
        parent_tweet_id=str(body["parent_tweet_id"]),
        author_id=str(body["author_id"]),
        posted_at=parse_timestamp(body["posted_at"]),
        text=str(body.get("text", "")),
    )


def load_dataset(
    path: str | Path,
    fail_fast: bool = False,
    capture_at: datetime | None = None,
    max_friends: int | None = None,
) -> tuple[Dataset, LoadReport]:
    """Load an archive-lines file into a Dataset.

    Records with unresolvable references (tweet author unknown, reply parent or
    author unknown) are quarantined and counted, never loaded, as are users
    created at or after the capture timestamp.  With ``fail_fast`` a malformed
    line raises ArchiveFormatError; otherwise it is skipped and counted.
    ``max_friends`` optionally drops users at or above the given friends count
    (off by default), together with their records; it must be at least 1.
    """
    if max_friends is not None and max_friends < 1:
        raise ValueError(f"max_friends must be at least 1, got {max_friends}")
    path = Path(path)
    report = LoadReport()
    users: list[UserProfile] = []
    tweets: list[TweetRecord] = []
    replies: list[ReplyRecord] = []
    meta_capture: datetime | None = None
    provenance = ""

    # surrogateescape turns each byte that is not UTF-8 into a lone surrogate,
    # so a bad line is found, and counted, on its own
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                if not line.isascii():
                    _check_utf8(line)
                envelope = decode_line(line)
                if not isinstance(envelope, dict):
                    raise ValueError("envelope is not an object")
                kind = envelope.get("kind")
                if kind not in KINDS:
                    raise ValueError(f"unknown kind {kind!r}")
                if kind == "dataset":
                    if "capture_at" in envelope:
                        meta_capture = parse_timestamp(envelope["capture_at"])
                    provenance = str(envelope.get("provenance", ""))
                    continue
                body = envelope.get("body")
                if not isinstance(body, dict):
                    raise ValueError("missing body object")
                if kind == "user":
                    users.append(_user_from_body(body))
                elif kind == "tweet":
                    tweets.append(_tweet_from_body(body))
                else:
                    replies.append(_reply_from_body(body))
            except ArchiveFormatError:
                raise
            except (KeyError, ValueError, TypeError) as exc:
                if fail_fast:
                    raise ArchiveFormatError(line_no, str(exc)) from exc
                report.malformed_lines += 1
                report.malformed_line_numbers.append(line_no)

    if max_friends is not None:
        kept = [u for u in users if u.friends_count < max_friends]
        report.filtered_users = len(users) - len(kept)
        users = kept

    if capture_at is None:
        capture_at = meta_capture
    if capture_at is None:
        stamps = [t.posted_at for t in tweets] + [r.posted_at for r in replies]
        stamps += [u.created_at for u in users]
        if stamps:
            capture_at = max(stamps) + timedelta(days=1)
        else:
            capture_at = parse_timestamp("1970-01-01T00:00:00Z")

    alive = [u for u in users if u.created_at < capture_at]
    report.quarantined_users = len(users) - len(alive)
    users = alive

    user_ids = {u.user_id for u in users}
    resolved_tweets = [t for t in tweets if t.author_id in user_ids]
    report.quarantined_tweets = len(tweets) - len(resolved_tweets)
    tweet_ids = {t.tweet_id for t in resolved_tweets}
    resolved_replies = [
        r for r in replies if r.parent_tweet_id in tweet_ids and r.author_id in user_ids
    ]
    report.quarantined_replies = len(replies) - len(resolved_replies)

    dataset = Dataset(
        users=tuple(users),
        tweets=tuple(resolved_tweets),
        replies=tuple(resolved_replies),
        capture_at=capture_at,
        provenance=provenance,
    )
    return dataset, report


def dataset_to_lines(dataset: Dataset) -> list[str]:
    """Canonical serialization: meta line, then users, tweets, replies by id."""
    lines = [
        _dump(
            {
                "kind": "dataset",
                "capture_at": format_timestamp(dataset.capture_at),
                "provenance": dataset.provenance,
            }
        )
    ]
    for u in dataset.users:
        lines.append(
            _dump(
                {
                    "kind": "user",
                    "body": {
                        "user_id": u.user_id,
                        "handle": u.handle,
                        "followers_count": u.followers_count,
                        "friends_count": u.friends_count,
                        "created_at": format_timestamp(u.created_at),
                    },
                }
            )
        )
    for t in dataset.tweets:
        lines.append(
            _dump(
                {
                    "kind": "tweet",
                    "body": {
                        "tweet_id": t.tweet_id,
                        "author_id": t.author_id,
                        "posted_at": format_timestamp(t.posted_at),
                        "text": t.text,
                        "retweet_count": t.retweet_count,
                        "favorite_count": t.favorite_count,
                        "replies_count": t.replies_count,
                        "is_retweet": t.is_retweet,
                        "language": t.language,
                    },
                }
            )
        )
    for r in dataset.replies:
        lines.append(
            _dump(
                {
                    "kind": "reply",
                    "body": {
                        "reply_id": r.reply_id,
                        "parent_tweet_id": r.parent_tweet_id,
                        "author_id": r.author_id,
                        "posted_at": format_timestamp(r.posted_at),
                        "text": r.text,
                    },
                }
            )
        )
    return lines


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    Path(path).write_text("\n".join(dataset_to_lines(dataset)) + "\n", encoding="utf-8")


def write_json(path: str | Path, payload) -> None:
    """Write one JSON document: sorted keys, two-space indent, a final newline."""
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def read_json(path: str | Path, what: str):
    """The JSON document in a file; ValueError naming the file when it is not UTF-8 JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{path}: {what} file is not UTF-8 JSON: {exc}") from exc


def save_labels(labels: GroundTruthLabels, path: str | Path) -> None:
    write_json(path, asdict(labels))


def load_labels(path: str | Path) -> GroundTruthLabels:
    payload = read_json(path, "labels")
    if not (
        isinstance(payload, dict)
        and isinstance(payload.get("domain"), str)
        and isinstance(payload.get("labels"), dict)
        and all(isinstance(v, str) for v in payload["labels"].values())
    ):
        raise ValueError(
            f'{path}: a labels file holds a JSON object with a "domain" string and a'
            ' "labels" object mapping user ids to label strings'
        )
    return GroundTruthLabels(domain=payload["domain"], labels=payload["labels"])
