"""Archive-lines file IO: one JSON record envelope per line.

Envelope: {"kind": "user" | "tweet" | "reply", "body": {...}} with timestamps
in RFC 3339 UTC.  An optional single {"kind": "dataset", ...} line carries the
capture timestamp and a provenance note; without it the capture timestamp
defaults to one day after the newest record.  See docs/formats.md.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, field
from datetime import datetime, timedelta
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path

from .types import (
    Dataset,
    DatasetColumns,
    GroundTruthLabels,
    ReplyRecord,
    TweetRecord,
    UserProfile,
    format_timestamp,
    parse_timestamp,
)

KINDS = ("user", "tweet", "reply", "dataset")

# One template per line kind: the line json.dumps(record, sort_keys=True,
# separators=(",", ":"), ensure_ascii=False) writes.  Strings are filled in
# through encode_basestring, the quoting function of that encoder, and
# timestamps, which are ASCII digits and punctuation, through format_timestamp.
_META_LINE = '{"capture_at":"%s","kind":"dataset","provenance":%s}'
_USER_LINE = (
    '{"body":{"created_at":"%s","followers_count":%d,"friends_count":%d,"handle":%s,'
    '"user_id":%s},"kind":"user"}'
)
_TWEET_LINE = (
    '{"body":{"author_id":%s,"favorite_count":%d,"is_retweet":%s,"language":%s,'
    '"posted_at":"%s","replies_count":%d,"retweet_count":%d,"text":%s,"tweet_id":%s},'
    '"kind":"tweet"}'
)
_REPLY_LINE = (
    '{"body":{"author_id":%s,"parent_tweet_id":%s,"posted_at":"%s","reply_id":%s,'
    '"text":%s},"kind":"reply"}'
)


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


_REQUIRED = object()


def _field(body: dict, key: str, kind: type, default=_REQUIRED):
    """``body[key]`` when its JSON type is exactly ``kind`` (true is not an integer).

    An optional field that is missing or null takes ``default``; any other
    value raises ValueError naming the field.
    """
    value = body.get(key)
    if type(value) is kind:
        return value
    if value is None and default is not _REQUIRED:
        return default
    if key not in body:
        raise ValueError(f"missing {key}")
    return json_value(value, kind, key)


# a JSON body's row: its record's fields in field order, with every count
# checked, since a record does not check itself
def _user_from_body(body: dict) -> tuple:
    user_id = _field(body, "user_id", str)
    handle = _field(body, "handle", str, user_id)
    followers = _field(body, "followers_count", int)
    friends = _field(body, "friends_count", int)
    row = (user_id, handle, followers, friends, parse_timestamp(_field(body, "created_at", str)))
    for name, count in (("followers_count", followers), ("friends_count", friends)):
        if count < 0:
            raise ValueError(f"user {user_id}: {name} < 0")
    return row


def _tweet_from_body(body: dict) -> tuple:
    tweet_id = _field(body, "tweet_id", str)
    author = _field(body, "author_id", str)
    posted = parse_timestamp(_field(body, "posted_at", str))
    text = _field(body, "text", str, "")
    retweets = _field(body, "retweet_count", int, 0)
    favorites = _field(body, "favorite_count", int, 0)
    replies = _field(body, "replies_count", int, 0)
    is_retweet = _field(body, "is_retweet", bool, False)
    language = _field(body, "language", str, None)
    for name, count in (
        ("retweet_count", retweets),
        ("favorite_count", favorites),
        ("replies_count", replies),
    ):
        if count < 0:
            raise ValueError(f"tweet {tweet_id}: {name} < 0")
    return (tweet_id, author, posted, text, retweets, favorites, replies, is_retweet, language)


def _reply_from_body(body: dict) -> tuple:
    return (
        _field(body, "reply_id", str),
        _field(body, "parent_tweet_id", str),
        _field(body, "author_id", str),
        parse_timestamp(_field(body, "posted_at", str)),
        _field(body, "text", str, ""),
    )


# The pieces of a canonical line's pattern, shared by this module's reader
# and the annotations reader.  Each takes only text that json.loads reads as
# the same value: a string's text with nothing escaped (no '"', '\' or control
# character), a number in JSON's grammar, a flag spelled true or false.  STRING
# is a whole string whose group holds its text; the rest hold no group.
CHARS = r'[^"\\\x00-\x1f]*'
STRING = f'"({CHARS})"'
NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"
FLAG = "true|false"


def inverse(template: str, *groups: str) -> str:
    """The pattern of the lines ``template`` writes, one pattern piece per
    placeholder; a reader compiles it on first use, so importing its module
    compiles none."""
    fill = iter(groups)
    return re.sub("%[sd]", lambda _: next(fill), re.escape(template))


# The inverse of each record template: a line that template writes, split by
# one pattern into its fields.  A count is a number without sign, fraction or
# exponent; a timestamp is as format_timestamp writes it, inside the
# template's own quotes, and its group holds it without its Z.
_STAMP = r"([0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}(?:\.[0-9]{6})?)Z"
_COUNT = "(0|[1-9][0-9]*)"
_FLAG = f"({FLAG})"
_LANGUAGE = f'(?:null|{STRING})'  # no group text for null

_USER_PATTERN = inverse(_USER_LINE, _STAMP, _COUNT, _COUNT, STRING, STRING)
_TWEET_PATTERN = inverse(
    _TWEET_LINE, STRING, _COUNT, _FLAG, _LANGUAGE, _STAMP, _COUNT, _COUNT, STRING, STRING
)
_REPLY_PATTERN = inverse(_REPLY_LINE, STRING, STRING, _STAMP, STRING, STRING)


def _utc(stamp: str) -> datetime:
    """``parse_timestamp(stamp + "Z")`` for a stamp _STAMP took: the same
    call to fromisoformat, whose UTC result needs no conversion."""
    return datetime.fromisoformat(stamp + "+00:00")


def _user_fields(created, followers, friends, handle, user_id) -> tuple:
    return (user_id, handle, int(followers), int(friends), _utc(created))


def _tweet_fields(
    author, favorites, is_retweet, language, posted, replies, retweets, text, tweet_id
) -> tuple:
    return (
        tweet_id,
        author,
        _utc(posted),
        text,
        int(retweets),
        int(favorites),
        int(replies),
        is_retweet == "true",
        language,
    )


def _reply_fields(author, parent, posted, reply_id, text) -> tuple:
    return (reply_id, parent, author, _utc(posted), text)


# per record kind: the canonical line's pattern and the row its groups give,
# and the row read from any JSON body
_RECORD_KINDS = (
    ("reply", _REPLY_PATTERN, _reply_fields, _reply_from_body),
    ("tweet", _TWEET_PATTERN, _tweet_fields, _tweet_from_body),
    ("user", _USER_PATTERN, _user_fields, _user_from_body),
)
# the start every record template shares, which a line must have to match one
_CANONICAL_START = '{"body":{"'


def _read_records(
    path: Path, fail_fast: bool, report: LoadReport
) -> tuple[dict[str, list], datetime | None, str]:
    """The records of an archive file by kind, in file order, as rows (each
    record's fields in field order), then the meta line's capture timestamp
    and provenance.

    A line written as ``dataset_to_lines`` writes it is split by its kind's
    pattern.  Any other line is decoded as JSON and read field by field into
    a row and its counts checked, so both give the same fields, and a line
    either way gives the same error.  With ``fail_fast`` a malformed line
    raises ArchiveFormatError; otherwise it is skipped and counted in
    ``report``.
    """
    records: dict[str, list] = {}
    canonical, from_body = [], {}
    for kind, pattern, split, build in _RECORD_KINDS:
        append = records.setdefault(kind, []).append
        canonical.append((re.compile(pattern).fullmatch, split, append))
        from_body[kind] = (build, append)
    meta_seen = False  # apart from meta_capture: a meta line may omit capture_at
    meta_capture: datetime | None = None
    provenance = ""
    # surrogateescape turns each byte that is not UTF-8 into a lone surrogate,
    # so a bad line is found, and counted, on its own; lines end at "\n" alone,
    # since a lone "\r" is JSON whitespace inside a line
    with path.open("r", encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                if not line.isascii():
                    _check_utf8(line)
                # a line that starts as no template does goes straight to JSON
                tries = canonical if line.startswith(_CANONICAL_START) else ()
                for match, split, append in tries:
                    m = match(line)
                    if m:
                        append(split(*m.groups()))
                        break
                else:
                    envelope = json.loads(line)
                    if not isinstance(envelope, dict):
                        raise ValueError("envelope is not an object")
                    kind = envelope.get("kind")
                    if kind not in KINDS:
                        raise ValueError(f"unknown kind {kind!r}")
                    if kind == "dataset":
                        if meta_seen:
                            raise ValueError("a second dataset line; an archive holds at most one")
                        # a malformed meta line sets nothing
                        capture = _field(envelope, "capture_at", str, None)
                        if capture is not None:
                            capture = parse_timestamp(capture)
                        provenance = _field(envelope, "provenance", str, "")
                        meta_capture, meta_seen = capture, True
                        continue
                    body = envelope.get("body")
                    if not isinstance(body, dict):
                        raise ValueError("missing body object")
                    build, append = from_body[kind]
                    append(build(body))
            except ArchiveFormatError:
                raise
            except (KeyError, ValueError, TypeError) as exc:
                if fail_fast:
                    raise ArchiveFormatError(line_no, str(exc)) from exc
                report.malformed_lines += 1
                report.malformed_line_numbers.append(line_no)
    return records, meta_capture, provenance


def _getters(record_class, *names: str):
    """One getter per field name, for the class's rows."""
    return [itemgetter(record_class._fields.index(name)) for name in names]


def _load(
    path: str | Path,
    fail_fast: bool,
    capture_at: datetime | None,
    max_friends: int | None,
) -> tuple[list, list, list, datetime, str, LoadReport]:
    """The rows of the users, tweets and replies that load, then the capture
    timestamp, the provenance and the report: the rules of load_dataset."""
    if max_friends is not None and max_friends < 1:
        raise ValueError(f"max_friends must be at least 1, got {max_friends}")
    report = LoadReport()
    records, meta_capture, provenance = _read_records(Path(path), fail_fast, report)
    users, tweets, replies = records["user"], records["tweet"], records["reply"]
    user_id, friends, created = _getters(UserProfile, "user_id", "friends_count", "created_at")
    tweet_id, author, posted = _getters(TweetRecord, "tweet_id", "author_id", "posted_at")
    parent, replier, replied = _getters(ReplyRecord, "parent_tweet_id", "author_id", "posted_at")

    if max_friends is not None:
        kept = [u for u in users if friends(u) < max_friends]
        report.filtered_users = len(users) - len(kept)
        users = kept

    if capture_at is None:
        capture_at = meta_capture
    if capture_at is None:
        stamps = [posted(t) for t in tweets] + [replied(r) for r in replies]
        stamps += [created(u) for u in users]
        if stamps:
            newest = max(stamps)
            try:
                capture_at = newest + timedelta(days=1)
            except OverflowError:
                raise ValueError(
                    f"{path}: the default capture timestamp, a day after the newest record"
                    f" ({format_timestamp(newest)}), falls after year 9999;"
                    " pass one with --capture-at"
                ) from None
        else:
            capture_at = parse_timestamp("1970-01-01T00:00:00Z")

    alive = [u for u in users if created(u) < capture_at]
    report.quarantined_users = len(users) - len(alive)

    user_ids = {user_id(u) for u in alive}
    resolved_tweets = [t for t in tweets if author(t) in user_ids]
    report.quarantined_tweets = len(tweets) - len(resolved_tweets)
    tweet_ids = {tweet_id(t) for t in resolved_tweets}
    resolved_replies = [r for r in replies if parent(r) in tweet_ids and replier(r) in user_ids]
    report.quarantined_replies = len(replies) - len(resolved_replies)
    return alive, resolved_tweets, resolved_replies, capture_at, provenance, report


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
    users, tweets, replies, capture_at, provenance, report = _load(
        path, fail_fast, capture_at, max_friends
    )
    dataset = Dataset(
        users=tuple(map(UserProfile._make, users)),
        tweets=tuple(map(TweetRecord._make, tweets)),
        replies=tuple(map(ReplyRecord._make, replies)),
        capture_at=capture_at,
        provenance=provenance,
    )
    return dataset, report


def load_columns(path: str | Path, fail_fast: bool = False) -> tuple[DatasetColumns, LoadReport]:
    """The columns of ``load_dataset(path, fail_fast)``'s Dataset, read
    without building a record: the same lines load, are quarantined or fail,
    with the same report and the same errors."""
    users, tweets, replies, capture_at, _, report = _load(path, fail_fast, None, None)
    return DatasetColumns.from_rows(users, tweets, replies, capture_at), report


def dataset_to_lines(dataset: Dataset) -> list[str]:
    """Canonical serialization: meta line, then users, tweets, replies by id."""
    quote, stamp = encode_basestring, format_timestamp
    lines = [_META_LINE % (stamp(dataset.capture_at), quote(dataset.provenance))]
    lines += [
        _USER_LINE
        % (
            stamp(u.created_at),
            u.followers_count,
            u.friends_count,
            quote(u.handle),
            quote(u.user_id),
        )
        for u in dataset.users
    ]
    lines += [
        _TWEET_LINE
        % (
            quote(t.author_id),
            t.favorite_count,
            "true" if t.is_retweet else "false",
            "null" if t.language is None else quote(t.language),
            stamp(t.posted_at),
            t.replies_count,
            t.retweet_count,
            quote(t.text),
            quote(t.tweet_id),
        )
        for t in dataset.tweets
    ]
    lines += [
        _REPLY_LINE
        % (
            quote(r.author_id),
            quote(r.parent_tweet_id),
            stamp(r.posted_at),
            quote(r.reply_id),
            quote(r.text),
        )
        for r in dataset.replies
    ]
    return lines


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    Path(path).write_text("\n".join(dataset_to_lines(dataset)) + "\n", encoding="utf-8")


def write_json(path: str | Path, payload) -> None:
    """Write one JSON document: sorted keys, two-space indent, a final newline."""
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


# the JSON values each kind takes: true is not an integer, an integer is a
# number, and a number is finite (JSON's Infinity and NaN read as floats)
_JSON_KINDS = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a finite number"),
    str: ((str,), "a string"),
}


def json_value(value, kind: type, name: str):
    """value, when it is a JSON value of kind; else ValueError naming it."""
    types, description = _JSON_KINDS[kind]
    if type(value) not in types or (type(value) is float and not math.isfinite(value)):
        raise ValueError(f"{name} must be {description}, got {value!r}")
    return value


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
