"""Archive-lines file IO: one JSON record envelope per line.

Envelope: {"kind": "user" | "tweet" | "reply", "body": {...}} with timestamps
in RFC 3339 UTC.  An optional single {"kind": "dataset", ...} line carries the
capture timestamp and a provenance note; without it the capture timestamp
defaults to one day after the newest record.  A dataset is its columns:
``save_dataset`` writes them and a columns sidecar beside the file, which
``load_dataset`` reads in place of the lines while it mirrors them.  Its
timestamps stay the canonical text the lines hold: only a line decoded as
JSON has its stamps parsed, and formatted once.  See docs/formats.md.
"""

from __future__ import annotations

import json
import marshal
import math
import re
import sys
from dataclasses import asdict, dataclass, field
from datetime import date, datetime, timedelta
from itertools import islice
from json.encoder import encode_basestring
from pathlib import Path

from .types import (
    KIND_LAYOUTS,
    DatasetColumns,
    GroundTruthLabels,
    format_timestamp,
    format_timestamps,
    in_id_order,
    parse_timestamp,
)

KINDS = ("user", "tweet", "reply", "dataset")

# One template per line kind: the line json.dumps(record, sort_keys=True,
# separators=(",", ":"), ensure_ascii=False) writes.  Strings are filled in
# through encode_basestring, the quoting function of that encoder, and
# timestamps, canonical text of ASCII digits and punctuation, as they are.
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


# a JSON body's row: its kind's fields in DatasetColumns order, with every
# count checked, since the columns do not check themselves
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


# per record kind, by name: the row read from any JSON body
_RECORD_KINDS = {"user": _user_from_body, "tweet": _tweet_from_body, "reply": _reply_from_body}


def _kinds_from_payload(payload) -> tuple[list, str, str]:
    """``_read_records``' result from an archive sidecar's payload, whose
    timestamps are the lines' canonical text."""
    capture, provenance, *kinds = payload
    for layout, columns in zip(KIND_LAYOUTS, kinds, strict=True):
        if len(columns) != layout.width or len(set(map(len, columns))) > 1:
            raise ValueError("a kind's columns differ in number or length")
    return kinds, capture, provenance


def _read_records(
    path: Path, fail_fast: bool, report: LoadReport
) -> tuple[list, str | None, str]:
    """The columns of an archive file's users, tweets and replies in field
    order, records in file order, then the meta line's capture timestamp and
    provenance; every timestamp canonical text.

    They come from the file's sidecar when it mirrors the file's bytes.
    Otherwise each line is decoded as JSON into a row, its counts and
    timestamps checked, and the rows transposed, each kind's timestamps
    formatted in one ``format_timestamps`` call.  With ``fail_fast`` a
    malformed line raises ArchiveFormatError; otherwise it is skipped and
    counted in ``report``.
    """
    cached = read_sidecar(path, _kinds_from_payload)
    if cached is not None:
        return cached
    rows: dict[str, list] = {}
    from_body = {
        kind: (build, rows.setdefault(kind, []).append) for kind, build in _RECORD_KINDS.items()
    }
    meta_seen = False  # apart from meta_capture: a meta line may omit capture_at
    meta_capture: str | None = None
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
                        capture = format_timestamp(parse_timestamp(capture))
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
    kinds = []
    for layout in KIND_LAYOUTS:
        columns = list(zip(*rows[layout.name])) or [()] * layout.width
        columns[layout.stamp] = format_timestamps(columns[layout.stamp])
        kinds.append(columns)
    return kinds, meta_capture, provenance


def load_dataset(
    path: str | Path,
    fail_fast: bool = False,
    capture_at: datetime | None = None,
    max_friends: int | None = None,
) -> tuple[DatasetColumns, LoadReport]:
    """Load an archive-lines file into the columns of a dataset.

    Records with unresolvable references (tweet author unknown, reply parent or
    author unknown) are quarantined and counted, never loaded, as are users
    created at or after the capture timestamp: ``capture_at`` when given
    (an aware datetime), else the file's, else a day after the newest record.
    With ``fail_fast`` a malformed line raises ArchiveFormatError; otherwise
    it is skipped and counted.  ``max_friends`` optionally drops users at or
    above the given friends count (off by default), together with their
    records; it must be at least 1.  An id that repeats among the records
    that load is a ValueError.
    """
    if max_friends is not None and max_friends < 1:
        raise ValueError(f"max_friends must be at least 1, got {max_friends}")
    report = LoadReport()
    kinds, meta_capture, provenance = _read_records(Path(path), fail_fast, report)
    (user_ids, _, _, friends, created), tweets, (_, parents, repliers, replied, _) = kinds
    tweet_ids, authors, posted = tweets[:3]

    # each rule keeps positions; the columns are gathered once, in id order
    users_at = range(len(user_ids))
    if max_friends is not None:
        users_at = [i for i in users_at if friends[i] < max_friends]
        report.filtered_users = len(user_ids) - len(users_at)

    # timestamps are canonical text: without their Z they compare as instants
    capture = meta_capture if capture_at is None else format_timestamp(capture_at)
    if capture is None:
        stamps = [*posted, *replied, *map(created.__getitem__, users_at)]
        if stamps:
            newest = max(stamp[:-1] for stamp in stamps) + "Z"
            try:
                capture = format_timestamp(parse_timestamp(newest) + timedelta(days=1))
            except OverflowError:
                raise ValueError(
                    f"the default capture timestamp, a day after the newest record"
                    f" ({newest}), falls after year 9999; pass one with --capture-at"
                ) from None
        else:
            capture = "1970-01-01T00:00:00Z"

    before = capture[:-1]
    alive = [i for i in users_at if created[i][:-1] < before]
    report.quarantined_users = len(users_at) - len(alive)

    known_users = set(map(user_ids.__getitem__, alive))
    tweets_at = [i for i, author in enumerate(authors) if author in known_users]
    report.quarantined_tweets = len(authors) - len(tweets_at)
    known_tweets = set(map(tweet_ids.__getitem__, tweets_at))
    replies_at = [
        i
        for i, (parent, author) in enumerate(zip(parents, repliers))
        if parent in known_tweets and author in known_users
    ]
    report.quarantined_replies = len(parents) - len(replies_at)

    users, tweets, replies = (
        in_id_order(layout.name, columns, at)
        for layout, columns, at in zip(KIND_LAYOUTS, kinds, (alive, tweets_at, replies_at))
    )
    return DatasetColumns(*users, *tweets, *replies, capture, provenance), report


# the canonical text of a timestamp, as format_timestamps writes it, but for
# its date's place in the calendar, which _canonical checks once per distinct
# day; [0-9], since \d would match any script's digits
_STAMP = (
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}T(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9]"
    r"(?:\.(?!0{6})[0-9]{6})?Z"
)
_STAMP_LINES = rf"(?:{_STAMP}\n)*{_STAMP}"


def _canonical(stamps: list) -> bool:
    """Whether every stamp is canonical timestamp text: one match over each
    chunk of texts joined by newlines (over all of them at once, the match
    keeps a stack that grows faster than the texts), then one calendar check
    per distinct date (year 0, month 13 and February 30 fail it)."""
    try:
        for at in range(0, len(stamps), _CHUNK_LINES):
            chunk = stamps[at : at + _CHUNK_LINES]
            joined = "\n".join(chunk)
            # a text that holds a newline would pass as two
            if joined.count("\n") != len(chunk) - 1 or not re.fullmatch(_STAMP_LINES, joined):
                return False
        for day in {stamp[:10] for stamp in stamps}:
            date(int(day[:4]), int(day[5:7]), int(day[8:]))
    except (TypeError, ValueError):  # a stamp that is not text, a date not in the calendar
        return False
    return True


def _archive_payload(columns: DatasetColumns) -> tuple:
    """The sidecar payload of the dataset's lines: the capture timestamp and
    the provenance, then each record kind's columns in field order and id
    order; ValueError when a kind's columns differ in length, which would
    write a record short, or a timestamp is not canonical text."""
    payload = [columns.capture_at, columns.provenance]
    stamps = [columns.capture_at]
    for layout, kind in zip(KIND_LAYOUTS, columns.kinds()):
        if len(set(map(len, kind))) > 1:
            raise ValueError(f"the {layout.name} columns differ in length")
        payload.append(tuple(map(tuple, kind)))
        stamps += kind[layout.stamp]
    if not _canonical(stamps):
        bad = next(stamp for stamp in stamps if not _canonical([stamp]))
        raise ValueError(
            f"timestamp {bad!r} is not canonical RFC 3339 UTC text"
            " (YYYY-MM-DDTHH:MM:SS[.ffffff]Z, as format_timestamps writes it)"
        )
    return tuple(payload)


def _archive_lines(payload: tuple):
    """The canonical lines of an archive payload: the meta line, then users,
    tweets and replies by id."""
    capture, provenance, users, tweets, replies = payload
    quote = encode_basestring
    yield _META_LINE % (capture, quote(provenance))
    for user_id, handle, followers, friends, created in zip(*users):
        yield _USER_LINE % (created, followers, friends, quote(handle), quote(user_id))
    for tweet_id, author, posted, text, retweets, favorites, n_replies, is_retweet, language in zip(
        *tweets
    ):
        yield _TWEET_LINE % (
            quote(author),
            favorites,
            "true" if is_retweet else "false",
            "null" if language is None else quote(language),
            posted,
            n_replies,
            retweets,
            quote(text),
            quote(tweet_id),
        )
    for reply_id, parent, author, posted, text in zip(*replies):
        yield _REPLY_LINE % (quote(author), quote(parent), posted, quote(reply_id), quote(text))


def dataset_to_lines(columns: DatasetColumns) -> list[str]:
    """Canonical serialization: meta line, then users, tweets, replies by id."""
    return list(_archive_lines(_archive_payload(columns)))


def save_dataset(columns: DatasetColumns, path: str | Path) -> None:
    """Write the dataset's canonical lines and their sidecar.  No sidecar
    unless every count is an int of at least 0 and every retweet flag a bool,
    which the columns do not check: the lines would read back otherwise."""
    payload = _archive_payload(columns)
    _, _, users, tweets, _ = payload
    counts = (*users[2:4], *tweets[4:7])  # followers, friends; retweets, favorites, replies
    reads_back = set(map(type, tweets[7])) <= {bool} and all(
        set(map(type, c)) <= {int} and min(c, default=0) >= 0 for c in counts
    )
    write_jsonl(path, _archive_lines(payload), payload if reads_back else None)


# The columns sidecar: a cache of what a JSONL file the program writes reads
# as, written beside it as <file>.cols.  One ASCII header line names the
# format, this Python's version and the sha256 of the file's bytes; the payload
# follows as marshal version 2 writes it.  From version 3 on, marshal marks
# each object that has more than one reference, so its bytes would depend on
# how the values share objects; version 2's depend on the values alone.  See
# docs/formats.md.
SIDECAR_FORMAT = 1
_SIDECAR_HEAD = b"domcred-cols %d %d.%d " % (SIDECAR_FORMAT, *sys.version_info[:2])
_CHUNK_LINES = 4096
_CHUNK_BYTES = 1 << 20


def write_jsonl(path: str | Path, lines, payload) -> None:
    """Write the lines, each ended by a newline, in chunks, then the sidecar
    of the payload, which is what the file's reader gives for them; none for
    None or a payload marshal cannot write.  A sidecar an earlier write left
    names other bytes, or mirrors these same bytes."""
    import hashlib  # imported here: it costs every command's start-up

    digest = hashlib.sha256()
    lines = iter(lines)
    with open(path, "wb") as fh:
        while batch := list(islice(lines, _CHUNK_LINES)):
            data = ("\n".join(batch) + "\n").encode("utf-8")
            fh.write(data)
            digest.update(data)
    if payload is None:
        return
    try:
        blob = marshal.dumps(payload, 2)
    except ValueError:  # a value of a type marshal does not write
        return
    with open(f"{path}.cols", "wb") as fh:
        fh.write(_SIDECAR_HEAD + digest.hexdigest().encode("ascii") + b"\n")
        fh.write(blob)


def read_sidecar(path: str | Path, build):
    """``build(payload)`` of the sidecar beside the file at ``path``; None when
    there is no sidecar, or it names another format, Python or file content,
    or its payload does not load or build."""
    try:
        blob = Path(f"{path}.cols").read_bytes()
    except OSError:
        return None
    if not blob.startswith(_SIDECAR_HEAD):
        return None
    import hashlib  # imported here: it costs every command's start-up

    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(_CHUNK_BYTES):
                digest.update(chunk)
    except OSError:
        return None
    header = _SIDECAR_HEAD + digest.hexdigest().encode("ascii") + b"\n"
    if not blob.startswith(header):
        return None
    try:
        return build(marshal.loads(memoryview(blob)[len(header) :]))
    except (EOFError, ValueError, TypeError, IndexError):
        return None


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
    try:
        return GroundTruthLabels(domain=payload["domain"], labels=payload["labels"])
    except ValueError as exc:  # a label that is not one of LABELS
        raise ValueError(f"{path}: {exc}") from exc
