"""Archive and annotation line codecs: byte-identity with the json.dumps and
strftime writers, exact json.loads acceptance, and timestamp round trips."""

import hashlib
import json
import marshal
import random
import re
import shutil
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import domcred.annotate
from domcred.annotate import DomainAnnotation, load_annotation_columns, save_annotations
from domcred.corpus.archive import (
    ArchiveFormatError,
    dataset_to_lines,
    load_dataset,
    read_sidecar,
    save_dataset,
)
from domcred.corpus.cleanse import CleanseReport, cleanse
from domcred.corpus.types import format_timestamp, format_timestamps, parse_timestamp

from helpers import (
    Dataset,
    ReplyRecord,
    TweetRecord,
    UserProfile,
    annotation_columns,
    brute_annotation_lines,
    brute_cleanse,
    brute_dataset_lines,
    brute_load,
    dataset_of,
    make_dataset,
    make_reply,
    make_tweet,
    make_user,
)

UTC = timezone.utc
CANONICAL = re.compile(r"^\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d{6})?Z$")

offsets = st.integers(-(24 * 60 - 1), 24 * 60 - 1).map(
    lambda minutes: timezone(timedelta(minutes=minutes))
)


# an aware stamp spelled with its own offset (+HH:MM or -HH:MM), in UTC as
# +00:00, and in UTC with a lowercase z
SPELLINGS = (
    datetime.isoformat,
    lambda stamp: stamp.astimezone(UTC).isoformat(),
    lambda stamp: stamp.astimezone(UTC).isoformat()[:-6] + "z",
)


def stamps(first_year, last_year):
    """Aware datetimes whose UTC instant stays inside [first_year, last_year]."""
    # one day of margin on each side keeps any offset inside the range
    return st.datetimes(
        min_value=datetime(first_year, 1, 2),
        max_value=datetime(last_year, 12, 30),
        timezones=st.one_of(st.just(UTC), offsets),
    )


class TestTimestamps:
    @given(drawn=st.lists(stamps(1, 9999), max_size=6))
    def test_format_then_parse_is_identity(self, drawn):
        # each stamp also at microsecond 0 and 1, on the same UTC day
        batch = [s for d in drawn for s in (d, d.replace(microsecond=0), d.replace(microsecond=1))]
        texts = format_timestamps(batch)
        assert texts == [s.astimezone(timezone.utc).isoformat()[:-6] + "Z" for s in batch]
        assert texts == list(map(format_timestamp, batch))
        for stamp, text in zip(batch, texts):
            assert CANONICAL.match(text), text
            assert parse_timestamp(text) == stamp

    def test_naive_stamp_is_a_value_error(self):
        # astimezone would read a naive stamp as the machine's local time
        naive = datetime(2024, 1, 1)
        with pytest.raises(ValueError, match="has no timezone"):
            format_timestamp(naive)
        with pytest.raises(ValueError, match="has no timezone"):
            format_timestamps([datetime(2024, 1, 1, tzinfo=UTC), naive])

    @given(data=st.data())
    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_any_spelling_loads_as_canonical_text(self, tmp_path, data):
        # the user's, the tweet's and the reply's stamps, then the capture after them
        drawn = [data.draw(stamps(1, 9997)) for _ in range(3)]
        drawn.append(max(drawn) + timedelta(seconds=1))
        spelled = [data.draw(st.sampled_from(SPELLINGS))(stamp) for stamp in drawn]
        created, posted, replied, capture = spelled
        lines = [
            json.dumps({"kind": "dataset", "capture_at": capture}),
            _body_line("user", created_at=created),
            _body_line("tweet", posted_at=posted),
            _body_line("reply", posted_at=replied),
        ]
        path = tmp_path / "archive.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        columns, report = load_dataset(path, fail_fast=True)
        assert report.warning_count == 0
        read = [*columns.user_created, *columns.tweet_posted, *columns.reply_posted]
        assert read + [columns.capture_at] == format_timestamps(drawn)
        # saved, they read back alike through their sidecar and through their lines
        saved = tmp_path / "saved.jsonl"
        save_dataset(columns, saved)
        assert read_sidecar(saved, len) is not None
        assert load_dataset(saved)[0] == columns
        Path(f"{saved}.cols").unlink()
        assert load_dataset(saved)[0] == columns

    @pytest.mark.parametrize(
        "field", ["capture_at", "user_created", "tweet_posted", "reply_posted"]
    )
    @pytest.mark.parametrize(
        "stamp",
        [
            "2024-01-01T00:00:00",
            "2024-01-01T00:00:00+00:00",
            "2024-01-01T00:00:00.000000Z",
            "2024-13-01T00:00:00Z",
            "0000-01-01T00:00:00Z",
            "2024-02-30T00:00:00Z",
            "2024-01-01T24:00:00Z",
            "2024-01-01T00:00:00z",
            "2024-01-01T00:00:00Z\n2024-01-01T00:00:00Z",
            "\uff12024-01-01T00:00:00Z",
            datetime(2024, 1, 1, tzinfo=UTC),
        ],
        ids=[
            "no-offset", "offset", "zero-fraction", "month-13", "year-0", "feb-30",
            "hour-24", "lowercase-z", "newline", "fullwidth-digit", "datetime",
        ],
    )
    def test_writer_refuses_stamp_that_is_not_canonical_text(self, tmp_path, field, stamp):
        # the lines would hold what the sidecar mirrors, so neither is written
        dataset = make_dataset(
            [make_user("u"), make_user("v")],
            [make_tweet("t", "u")],
            [make_reply("r", "t", "v")],
        )
        columns = dataset.columns
        value = stamp if field == "capture_at" else (stamp,) + getattr(columns, field)[1:]
        path = tmp_path / "dataset.jsonl"
        with pytest.raises(ValueError, match=re.escape(f"timestamp {stamp!r} is not canonical")):
            save_dataset(columns._replace(**{field: value}), path)
        assert not path.exists()
        assert not Path(f"{path}.cols").exists()

    def test_year_below_1000_is_zero_padded(self):
        stamp = datetime(999, 6, 1, tzinfo=UTC)
        assert format_timestamp(stamp) == "0999-06-01T00:00:00Z"
        assert parse_timestamp("0999-06-01T00:00:00Z") == stamp

    @pytest.mark.parametrize(
        "text", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:30:00-01:00"]
    )
    def test_instant_outside_utc_range_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="outside years 1-9999"):
            parse_timestamp(text)


def datasets(chars=st.characters(codec="utf-8")):
    """Datasets whose ids, handles, texts and languages draw from chars."""
    text = st.text(chars, max_size=12)
    ids = st.lists(st.text(chars, min_size=1, max_size=6), min_size=1, max_size=4, unique=True)
    counts = st.integers(0, 10**12)

    @st.composite
    def build(draw):
        users = tuple(
            UserProfile(
                user_id=uid,
                handle=draw(text),
                followers_count=draw(counts),
                friends_count=draw(counts),
                created_at=draw(stamps(1000, 9997)),
            )
            for uid in draw(ids)
        )
        tweets = tuple(
            TweetRecord(
                tweet_id=tid,
                author_id=draw(st.sampled_from([u.user_id for u in users])),
                posted_at=draw(stamps(1000, 9998)),
                text=draw(text),
                retweet_count=draw(counts),
                favorite_count=draw(counts),
                replies_count=draw(counts),
                is_retweet=draw(st.booleans()),
                language=draw(st.none() | st.text(chars, max_size=3)),
            )
            for tid in draw(ids)
        )
        replies = tuple(
            ReplyRecord(
                reply_id=rid,
                parent_tweet_id=draw(text),
                author_id=draw(text),
                posted_at=draw(stamps(1000, 9998)),
                text=draw(text),
            )
            for rid in draw(ids)
        )
        newest = max(u.created_at for u in users)
        capture = newest + draw(st.timedeltas(timedelta(microseconds=1), timedelta(days=300)))
        return Dataset(users, tweets, replies, capture, provenance=draw(text))

    return build()


class TestDatasetLines:
    @given(dataset=datasets())
    @settings(max_examples=60, deadline=None)
    def test_lines_equal_the_per_line_json_dumps_writer(self, dataset):
        assert dataset_to_lines(dataset.columns) == brute_dataset_lines(dataset)

    def _archive(self, tmp_path, lines):
        path = tmp_path / "archive.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def _user(self, uid, created="2020-01-01T00:00:00Z"):
        body = {
            "user_id": uid,
            "followers_count": 1,
            "friends_count": 1,
            "created_at": created,
        }
        return json.dumps({"kind": "user", "body": body})

    def test_malformed_lines_counted_as_json_loads_would(self, tmp_path):
        lines = [
            self._user("a"),
            "{} x",
            '{"kind": "user", "body": {}} {}',
            "[1, 2]",
            '"user"',
            "",
            "   ",
            f"  {self._user('b')}\t",
            "\ufeff" + self._user("c"),
        ]
        _, report = load_dataset(self._archive(tmp_path, lines))
        assert report.malformed_lines == 5
        assert report.malformed_line_numbers == [2, 3, 4, 5, 9]

        def accepted(line):
            try:
                return isinstance(json.loads(line.strip()), dict)
            except ValueError:
                return False

        expected = [n for n, line in enumerate(lines, 1) if line.strip() and not accepted(line)]
        assert report.malformed_line_numbers == expected

    def test_line_that_is_not_utf8_is_malformed(self, tmp_path):
        path = tmp_path / "archive.jsonl"
        bad = self._user("b").replace('"b"', '"b\xff"').encode("latin-1")
        path.write_bytes(b"\n".join([self._user("a").encode(), bad, self._user("c").encode()]))
        columns, report = load_dataset(path)
        assert report.malformed_line_numbers == [2]
        assert columns.user_ids == ("a", "c")
        with pytest.raises(ArchiveFormatError, match="line 2: not UTF-8: byte 0xff at character"):
            load_dataset(path, fail_fast=True)

    def test_fail_fast_keeps_the_json_loads_message(self, tmp_path):
        path = self._archive(tmp_path, [self._user("a"), "{} x"])
        with pytest.raises(ArchiveFormatError, match=r"line 2: Extra data: line 1 column 4"):
            load_dataset(path, fail_fast=True)

    def test_out_of_range_timestamp_is_a_malformed_line(self, tmp_path):
        path = self._archive(
            tmp_path, [self._user("a"), self._user("b", "0001-01-01T00:00:00+01:00")]
        )
        columns, report = load_dataset(path)
        assert report.malformed_line_numbers == [2]
        assert columns.user_ids == ("a",)
        with pytest.raises(ArchiveFormatError, match="line 2: .*outside years 1-9999"):
            load_dataset(path, fail_fast=True)


labels = st.text(min_size=1, max_size=8)
scores = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1, -0.0]))
domain_lists = st.lists(
    st.builds(DomainAnnotation, label=labels, score=scores, confident=st.booleans()),
    max_size=3,
).map(tuple)


@st.composite
def annotations(draw):
    """(tweet id, domains) and (reply id, sentiment) column entries."""
    ids = draw(st.lists(st.text(min_size=1, max_size=6), max_size=5, unique=True))
    tweets = tuple((tid, draw(domain_lists)) for tid in ids)
    replies = tuple(
        (rid, draw(st.floats(-1.0, 1.0)))
        for rid in draw(st.lists(st.text(min_size=1, max_size=6), max_size=5, unique=True))
    )
    return tweets, replies


class TestAnnotationLines:
    @given(payload=annotations())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_lines_equal_the_per_line_json_dumps_writer(self, payload, tmp_path):
        tweets, replies = payload
        columns = annotation_columns(tweets, replies)
        path = tmp_path / "annotations.jsonl"
        save_annotations(columns, path)
        text = path.read_text(encoding="utf-8")
        assert text == "\n".join(brute_annotation_lines(tweets, replies)) + "\n"
        loaded = load_annotation_columns(path)
        # == cannot tell 1 from 1.0 or -0.0 from 0.0; repr can
        assert repr(loaded) == repr(columns)
        save_annotations(loaded, path)
        assert path.read_text(encoding="utf-8") == text

    def test_load_equals_per_entry_construction(self, tmp_path):
        # lines in the layout written before a tweet carried one domain list
        entries = [
            [["Arts", 1, True], ["Sports", 0.5, False]],
            [["Arts", 1.0, True], ["Sports", 0.5, False], ["Sports", 0.5, 1]],
            [["Arts", 1, True], ["Sports", -0.0, False], ["Sports", 0.0, False]],
        ]
        lines = [
            json.dumps(
                {
                    "kind": "tweet",
                    "tweet_id": f"t{i}",
                    "text_domains": domains,
                    "url_domains": [],
                    "merged_domains": domains,
                }
            )
            for i, domains in enumerate(entries)
        ]
        lines.append(json.dumps({"kind": "reply", "reply_id": "r0", "sentiment": -0.25}))
        path = tmp_path / "annotations.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        columns = load_annotation_columns(path)
        expected = tuple(
            tuple(DomainAnnotation(label=a, score=s, confident=c) for a, s, c in domains)
            for domains in entries
        )
        assert columns.merged_domains == expected
        # == cannot tell 1 from 1.0 or -0.0 from 0.0; repr can
        assert repr(columns.merged_domains) == repr(expected)
        assert (columns.reply_ids, columns.sentiments) == (("r0",), (-0.25,))
        # saving what was loaded writes the one-list layout
        save_annotations(columns, path)
        assert path.read_text(encoding="utf-8").splitlines()[:3] == [
            json.dumps(
                {"kind": "tweet", "merged_domains": domains, "tweet_id": f"t{i}"},
                sort_keys=True,
            )
            for i, domains in enumerate(entries)
        ]

    @pytest.mark.parametrize("flag", ['"no"', "null", "0.5", "2", "[]"])
    def test_confident_flag_must_be_bool_or_0_or_1(self, tmp_path, flag):
        path = tmp_path / "annotations.jsonl"
        good = '{"kind": "tweet", "tweet_id": "t0", "merged_domains": [["Arts", 1.0, 0]]}'
        bad = f'{{"kind": "tweet", "tweet_id": "t1", "merged_domains": [["Arts", 1.0, {flag}]]}}'
        path.write_text(f"{good}\n{bad}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 2: .*0 or 1 flag"):
            load_annotation_columns(path)


# ids and labels from characters a canonical line escapes (a quote, a
# backslash, control characters, non-ASCII, U+2028) and plain ones
awkward_text = st.text(st.sampled_from('ab"\\\x00\x1f\x7f\xe9\u2028'), min_size=1, max_size=4)
awkward_scores = st.one_of(st.sampled_from([0, 1, -0.0, 5e-324]), st.floats(0.0, 1.0))
awkward_sentiments = st.one_of(st.sampled_from([0, 1, -1, -0.0, 5e-324]), st.floats(-1.0, 1.0))
awkward_lists = st.lists(
    st.builds(
        DomainAnnotation,
        label=awkward_text,
        score=awkward_scores,
        confident=st.sampled_from([True, False, 0, 1]),
    ),
    max_size=3,
).map(tuple)


@st.composite
def respelled_annotations(draw):
    """Column entries whose domain lists and sentiments repeat, as a file's do."""
    lists = draw(st.lists(awkward_lists, min_size=1, max_size=3))
    sentiments = draw(st.lists(awkward_sentiments, min_size=1, max_size=3))
    tweet_ids = draw(st.lists(awkward_text, max_size=6, unique=True))
    reply_ids = draw(st.lists(awkward_text, max_size=6, unique=True))
    tweets = tuple((t, draw(st.sampled_from(lists))) for t in tweet_ids)
    replies = tuple((r, draw(st.sampled_from(sentiments))) for r in reply_ids)
    return tweets, replies


def respell(line: str) -> str:
    """The line as compact JSON with non-ASCII raw, as annotate never writes it."""
    return json.dumps(json.loads(line), separators=(",", ":"), ensure_ascii=False)


class TestAnnotationReaders:
    """A sidecar gives the values its lines give read as JSON, however spelled."""

    def _both_spellings(self, tmp_path, lines):
        """An annotations file of the lines in canonical/ and one of them
        re-spelled in respelled/, both named annotations.jsonl."""
        paths = []
        for name, spell in (("canonical", str), ("respelled", respell)):
            path = tmp_path / name / "annotations.jsonl"
            path.parent.mkdir(exist_ok=True)
            path.write_text("".join(spell(line) + "\n" for line in lines), encoding="utf-8")
            paths.append(path)
        return paths

    @given(payload=respelled_annotations())
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_sidecar_equals_json_path(self, payload, tmp_path):
        saved = annotation_columns(*payload)
        path = tmp_path / "annotations.jsonl"
        save_annotations(saved, path)
        text = path.read_bytes()
        columns = load_annotation_columns(path)
        assert read_sidecar(path, lambda payload: True)
        # == cannot tell 1 from 1.0, -0.0 from 0.0 or True from 1; repr can
        assert columns == saved
        assert repr(columns) == repr(saved)
        save_annotations(columns, path)
        assert path.read_bytes() == text
        lines = [line for line in text.decode("utf-8").split("\n") if line]
        for json_path in self._both_spellings(tmp_path, lines):
            assert repr(load_annotation_columns(json_path)) == repr(columns)

    def test_lists_equal_by_value_keep_their_json_types(self, tmp_path):
        # 1 == 1.0 == True and -0.0 == 0 == False: one list each all the same
        lists = [
            (DomainAnnotation("Arts", 1, True),),
            (DomainAnnotation("Arts", 1.0, 1),),
            (DomainAnnotation("Arts", 1.0, True),),
            (DomainAnnotation("Arts", -0.0, 0),),
            (DomainAnnotation("Arts", 0, False),),
        ]
        saved = annotation_columns([(f"t{i}", domains) for i, domains in enumerate(lists * 2)])
        path = tmp_path / "annotations.jsonl"
        save_annotations(saved, path)
        assert repr(load_annotation_columns(path)) == repr(saved)

    def test_sidecar_decodes_no_line(self, tmp_path, monkeypatch):
        tweets = [(f"t{i}", (DomainAnnotation("Arts", 1.0, True),)) for i in range(3)]
        replies = [(f"r{i}", -0.5) for i in range(3)]
        path = tmp_path / "annotations.jsonl"
        save_annotations(annotation_columns(tweets, replies), path)
        decoded = []
        real = json.loads
        monkeypatch.setattr(
            domcred.annotate.json, "loads", lambda text: decoded.append(text) or real(text)
        )
        columns = load_annotation_columns(path)
        assert decoded == []
        # the tweets with one list share one tuple
        assert len({id(domains) for domains in columns.merged_domains}) == 1
        Path(f"{path}.cols").unlink()
        assert repr(load_annotation_columns(path)) == repr(columns)
        assert len(decoded) == 6

    @pytest.mark.parametrize(
        "bad, message",
        [
            (
                '{"kind": "tweet", "merged_domains": [["Arts", 1.5, true]], "tweet_id": "t%d"}',
                "score for 'Arts' outside [0, 1]: 1.5",
            ),
            (
                '{"kind": "reply", "reply_id": "r%d", "sentiment": 2.0}',
                "sentiment for r2 outside [-1, 1]",
            ),
        ],
        ids=["score", "sentiment"],
    )
    def test_bad_value_fails_at_its_first_line_either_way(self, tmp_path, bad, message):
        lines = [
            '{"kind": "tweet", "merged_domains": [["Arts", 1.0, true]], "tweet_id": "t0"}',
            '{"kind": "reply", "reply_id": "r1", "sentiment": 0.5}',
            bad % 2,
            bad % 3,
        ]
        for path in self._both_spellings(tmp_path, lines):
            with pytest.raises(ValueError) as caught:
                load_annotation_columns(path)
            assert str(caught.value) == f"{path}: line 3: {message}"


class TestLineSeparatorsInText:
    # str.splitlines breaks at each of these; json writes them raw when
    # ensure_ascii is off, so the loader must split at "\n" alone
    TEXT = "one\u2028two\u2029three\x85four"

    def test_text_stays_on_its_line_and_loads_back_equal(self, tmp_path):
        dataset = make_dataset(
            [make_user("a", handle="h\u2028h")],
            [make_tweet("t1", "a", text=self.TEXT)],
            [make_reply("r1", "t1", "a", text=self.TEXT)],
            provenance="p\u2029p",
        )
        path = tmp_path / "dataset.jsonl"
        save_dataset(dataset.columns, path)
        data = path.read_bytes()
        assert data.count(b"\n") == 4
        for char in "\u2028\u2029\x85":
            assert char.encode() in data
        loaded, report = load_dataset(path)
        assert report.warning_count == 0
        assert loaded == dataset.columns
        assert loaded.tweet_texts[0] == self.TEXT == loaded.reply_texts[0]

    def test_annotation_ids_keep_them_raw(self, tmp_path):
        # annotate writes ASCII, but a legal line may hold them raw, and a
        # lone carriage return as whitespace
        path = tmp_path / "annotations.jsonl"
        path.write_text(
            '{"kind": "tweet", "merged_domains": [], "tweet_id": "t\u20281"}\n'
            '{"kind": "reply",\r "reply_id": "r\x851", "sentiment": 0.5}\n',
            encoding="utf-8",
        )
        assert path.read_bytes().count(b"\n") == 2
        assert load_annotation_columns(path) == annotation_columns(
            [("t\u20281", ())], [("r\x851", 0.5)]
        )


class TestAnnotationNumbers:
    @pytest.mark.parametrize(
        "score, flag",
        [(1, True), (1.0, False), (1, 1), (1.0, 0), (0, 1), (-0.0, True), (5e-324, 0)],
    )
    @pytest.mark.parametrize("sentiment", [0, 1, -1, 1.0, -0.0, 0.0, 5e-324, -5e-324])
    def test_written_as_json_writes_them_and_stable_through_a_load(
        self, tmp_path, score, flag, sentiment
    ):
        tweets = [("té", (DomainAnnotation("Été", score, flag),))]
        replies = [("r1", sentiment)]
        columns = annotation_columns(tweets, replies)
        path = tmp_path / "annotations.jsonl"
        save_annotations(columns, path)
        text = path.read_text(encoding="utf-8")
        assert text == "\n".join(brute_annotation_lines(tweets, replies)) + "\n"
        assert text.isascii()
        loaded = load_annotation_columns(path)
        assert repr(loaded) == repr(columns)
        save_annotations(loaded, path)
        assert path.read_text(encoding="utf-8") == text

    def test_empty_domain_list_and_no_records(self, tmp_path):
        path = tmp_path / "annotations.jsonl"
        tweets = [("t1", ())]
        save_annotations(annotation_columns(tweets), path)
        assert path.read_text(encoding="utf-8") == brute_annotation_lines(tweets, ())[0] + "\n"
        save_annotations(annotation_columns(), path)
        assert path.read_text(encoding="utf-8") == "\n"


def _body_line(kind, **override):
    """One valid archive line of ``kind`` with ``override`` applied; ``...`` drops a key."""
    bodies = {
        "user": {
            "user_id": "a",
            "handle": "ha",
            "followers_count": 1,
            "friends_count": 1,
            "created_at": "2020-01-01T00:00:00Z",
        },
        "tweet": {
            "tweet_id": "t1",
            "author_id": "a",
            "posted_at": "2024-02-01T00:00:00Z",
            "text": "python code",
            "retweet_count": 2,
            "favorite_count": 3,
            "replies_count": 1,
            "is_retweet": False,
            "language": "en",
        },
        "reply": {
            "reply_id": "r1",
            "parent_tweet_id": "t1",
            "author_id": "a",
            "posted_at": "2024-02-02T00:00:00Z",
            "text": "great",
        },
    }
    body = {**bodies[kind], **override}
    return json.dumps({"kind": kind, "body": {k: v for k, v in body.items() if v is not ...}})


class TestArchiveFieldTypes:
    """Each documented field type is checked, not coerced."""

    def _load(self, tmp_path, kind, override, fail_fast=False):
        lines = [_body_line("user"), _body_line("tweet"), _body_line("reply")]
        lines[("user", "tweet", "reply").index(kind)] = _body_line(kind, **override)
        path = tmp_path / "archive.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return load_dataset(path, fail_fast=fail_fast)

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("user", "user_id", 5),
            ("user", "handle", 7),
            ("user", "followers_count", 10.9),
            ("user", "followers_count", "5"),
            ("user", "followers_count", None),
            ("user", "friends_count", True),
            ("user", "created_at", 20200101),
            ("tweet", "tweet_id", None),
            ("tweet", "author_id", ["a"]),
            ("tweet", "posted_at", None),
            ("tweet", "text", 5),
            ("tweet", "retweet_count", 1.0),
            ("tweet", "favorite_count", False),
            ("tweet", "replies_count", "1"),
            ("tweet", "is_retweet", "false"),
            ("tweet", "is_retweet", 0),
            ("tweet", "language", ["en"]),
            ("tweet", "language", 1),
            ("reply", "reply_id", 1),
            ("reply", "parent_tweet_id", {"id": "t1"}),
            ("reply", "text", ["great"]),
        ],
    )
    def test_wrong_type_is_a_malformed_line_named_under_fail_fast(
        self, tmp_path, kind, field, value
    ):
        line_no = ("user", "tweet", "reply").index(kind) + 1
        _, report = self._load(tmp_path, kind, {field: value})
        assert report.malformed_line_numbers == [line_no]
        with pytest.raises(ArchiveFormatError, match=rf"^line {line_no}: {field} must be "):
            self._load(tmp_path, kind, {field: value}, fail_fast=True)

    @pytest.mark.parametrize(
        "kind, field",
        [("user", "followers_count"), ("user", "created_at"), ("tweet", "author_id")],
    )
    def test_missing_required_field_is_named(self, tmp_path, kind, field):
        _, report = self._load(tmp_path, kind, {field: ...})
        assert report.malformed_lines == 1
        with pytest.raises(ArchiveFormatError, match=rf"missing {field}$"):
            self._load(tmp_path, kind, {field: ...}, fail_fast=True)

    @pytest.mark.parametrize("value", [None, ...])
    def test_optional_field_null_or_missing_takes_its_default(self, tmp_path, value):
        override = {
            "text": value,
            "retweet_count": value,
            "favorite_count": value,
            "replies_count": value,
            "is_retweet": value,
            "language": value,
        }
        columns, report = self._load(tmp_path, "tweet", override)
        assert report.warning_count == 0
        assert dataset_of(columns).tweets == (
            make_tweet("t1", "a", text="", language=None, posted="2024-02-01T00:00:00Z"),
        )
        columns, report = self._load(tmp_path, "user", {"handle": value})
        assert columns.handles == ("a",)
        columns, report = self._load(tmp_path, "reply", {"text": value})
        assert columns.reply_texts == ("",)

    def test_string_false_is_not_a_retweet(self, tmp_path):
        # bool("false") is True: coercion would load a retweet and cleansing
        # would then zero its engagement
        columns, report = self._load(tmp_path, "tweet", {"is_retweet": "false"})
        assert report.malformed_lines == 1
        assert columns.tweet_ids == ()

    @pytest.mark.parametrize(
        "meta, message",
        [
            # a malformed meta line sets nothing, not even its valid capture_at
            (
                {"capture_at": "2024-03-01T00:00:00Z", "provenance": 5},
                "provenance must be a string",
            ),
            ({"capture_at": 1}, "capture_at must be a string"),
        ],
    )
    def test_meta_line_fields_are_checked(self, tmp_path, meta, message):
        path = tmp_path / "archive.jsonl"
        path.write_text(
            json.dumps({"kind": "dataset", **meta}) + "\n" + _body_line("user") + "\n",
            encoding="utf-8",
        )
        dataset, report = load_dataset(path)
        assert report.malformed_line_numbers == [1]
        assert dataset.capture_at == "2020-01-02T00:00:00Z"
        with pytest.raises(ArchiveFormatError, match=f"line 1: {message}"):
            load_dataset(path, fail_fast=True)

    def test_null_meta_fields_take_their_defaults(self, tmp_path):
        path = tmp_path / "archive.jsonl"
        meta = {"kind": "dataset", "capture_at": None, "provenance": None}
        path.write_text(json.dumps(meta) + "\n" + _body_line("user") + "\n", encoding="utf-8")
        dataset, report = load_dataset(path)
        assert report.warning_count == 0
        assert dataset.provenance == ""
        assert dataset.capture_at == "2020-01-02T00:00:00Z"

    @pytest.mark.parametrize(
        "first, second, capture, provenance",
        [
            # the second line would override the first's provenance
            (
                {"capture_at": "2024-03-01T00:00:00Z", "provenance": "first"},
                {"provenance": "second"},
                "2024-03-01T00:00:00Z",
                "first",
            ),
            # a first line without capture_at still counts as the one meta line
            ({"provenance": "first"}, {"capture_at": "2024-03-01T00:00:00Z"}, None, "first"),
        ],
        ids=["second-provenance", "first-without-capture"],
    )
    def test_second_meta_line_is_malformed(self, tmp_path, first, second, capture, provenance):
        lines = [{"kind": "dataset", **first}, {"kind": "dataset", **second}]
        path = tmp_path / "archive.jsonl"
        path.write_text(
            "".join(json.dumps(m) + "\n" for m in lines) + _body_line("user") + "\n",
            encoding="utf-8",
        )
        # without capture_at the loader falls back to a day after the newest record
        want = capture or "2020-01-02T00:00:00Z"
        loaded, report = load_dataset(path)
        assert report.malformed_line_numbers == [2]
        assert (loaded.capture_at, loaded.provenance) == (want, provenance)
        with pytest.raises(ArchiveFormatError, match=r"^line 2: a second dataset line; "):
            load_dataset(path, fail_fast=True)


# the characters a string must escape, and others json writes raw
HOSTILE = st.sampled_from('"\\\x00\x1f\n\t\x7f\xe9\u2028\u2029\x85\U0001f600a0 ') | st.characters(
    codec="utf-8"
)


@st.composite
def cleansable(draw):
    """Datasets whose tweets are English, of no language or of another, with
    small counts, and whose replies answer those tweets or none, some of them
    written by the tweet's own author."""
    dataset = draw(datasets(HOSTILE))
    small = st.integers(0, 2)
    tweets = [
        t._replace(
            retweet_count=draw(small),
            favorite_count=draw(small),
            replies_count=draw(small),
            language=draw(st.sampled_from(["en", None, "fr"])),
        )
        for t in dataset.tweets
    ]
    user_ids = [u.user_id for u in dataset.users]
    replies = [
        r._replace(
            parent_tweet_id=draw(st.sampled_from([t.tweet_id for t in tweets] + ["none"])),
            author_id=draw(st.sampled_from(user_ids)),
        )
        for r in dataset.replies
    ]
    return make_dataset(dataset.users, tweets, replies, dataset.capture_at, dataset.provenance)


class TestRecordRules:
    """load_dataset and cleanse give the columns of what the record oracles
    give, rule for rule and count for count."""

    @given(dataset=datasets(HOSTILE), data=st.data())
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_load_equals_the_record_oracle(self, tmp_path, dataset, data):
        path = tmp_path / "dataset.jsonl"
        save_dataset(dataset.columns, path)
        if data.draw(st.booleans(), label="no meta line"):
            # the capture timestamp then defaults; the sidecar no longer mirrors the file
            path.write_bytes(path.read_bytes().split(b"\n", 1)[1])
        created = [u.created_at for u in dataset.users]
        friends = [max(1, u.friends_count + d) for u in dataset.users for d in (0, 1)]
        options = {
            "capture_at": data.draw(st.none() | st.sampled_from(created) | stamps(1000, 9998)),
            "max_friends": data.draw(st.none() | st.sampled_from(friends) | st.integers(1, 10)),
        }

        def oracle(path):
            loaded, report = brute_load(path, **options)
            return loaded.columns, report

        def load(path):
            return load_dataset(path, **options)

        want = oracle(path)
        assert load(path) == want
        assert _json_path_result(path, load, tmp_path) == want

    @given(dataset=cleansable(), keep=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_cleanse_equals_the_record_oracle(self, dataset, keep):
        cleaned, report = cleanse(dataset.columns, keep_missing_language=keep)
        want, want_report = brute_cleanse(dataset, keep_missing_language=keep)
        assert (cleaned, report) == (want.columns, want_report)
        assert cleanse(cleaned, keep_missing_language=keep) == (cleaned, CleanseReport())


class TestArchiveReaders:
    """Any spelling of a line reads as JSON, in any order, with the values,
    reports and errors the record oracle gives."""

    @given(dataset=datasets(HOSTILE), data=st.data())
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_lines_in_any_order_give_the_same_columns(self, tmp_path, dataset, data):
        path = tmp_path / "dataset.jsonl"
        save_dataset(dataset.columns, path)
        lines = path.read_text(encoding="utf-8").split("\n")[:-1]
        shuffled = tmp_path / "shuffled" / "dataset.jsonl"
        shuffled.parent.mkdir(exist_ok=True)
        shuffled.write_text("\n".join(data.draw(st.permutations(lines))) + "\n", encoding="utf-8")
        assert load_dataset(shuffled) == load_dataset(path)

    USER = (
        '{"body":{"created_at":"2020-01-01T00:00:00Z","followers_count":10,"friends_count":5,'
        '"handle":"ha","user_id":"a"},"kind":"user"}'
    )
    TWEET = (
        '{"body":{"author_id":"a","favorite_count":3,"is_retweet":false,"language":"en",'
        '"posted_at":"2024-02-01T00:00:00Z","replies_count":1,"retweet_count":2,'
        '"text":"python code","tweet_id":"t1"},"kind":"tweet"}'
    )
    REPLY = (
        '{"body":{"author_id":"a","parent_tweet_id":"t1","posted_at":"2024-02-02T00:00:00Z",'
        '"reply_id":"r1","text":"great"},"kind":"reply"}'
    )

    def test_lines_above_are_canonical(self):
        dataset = make_dataset(
            [make_user("a", handle="ha")],
            [make_tweet("t1", "a", text="python code", retweets=2, favorites=3, replies=1)],
            [make_reply("r1", "t1", "a", text="great")],
        )
        assert dataset_to_lines(dataset.columns)[1:] == [self.USER, self.TWEET, self.REPLY]

    @pytest.mark.parametrize(
        "line, old, new, field, value",
        [
            (1, ',"', ', "', "retweet_count", 2),  # a space after each separator
            (1, '"body":', '"body": ', "text", "python code"),
            (1, "{", '{"kind":"tweet",', "tweet_id", "t1"),  # kind first: a duplicate key too
            (1, '"retweet_count":2', '"retweet_count":-0', "retweet_count", 0),
            (1, '"retweet_count":2', '"retweet_count":2,"retweet_count":7', "retweet_count", 7),
            (1, '"text":"python code"', '"text":null', "text", ""),
            # null is the canonical spelling of no language; spaced, it is not
            (1, '"language":"en"', '"language": null', "language", None),
            (1, '"text":"python code"', r'"text":"python \"code\""', "text", 'python "code"'),
            (0, '"handle":"ha"', '"handle":null', "handle", "a"),
            (2, '"text":"great"', '"text":null', "text", ""),
            (2, "00:00:00Z", "01:00:00+01:00", "posted_at", datetime(2024, 2, 2, tzinfo=UTC)),
            (2, "00:00:00Z", "00:00:00z", "posted_at", datetime(2024, 2, 2, tzinfo=UTC)),
            # a lone carriage return is whitespace, not the end of the line
            (0, ',"followers_count"', ',\r"followers_count"', "followers_count", 10),
        ],
    )
    def test_respelled_line_reads_as_json(self, tmp_path, line, old, new, field, value):
        lines = [self.USER, self.TWEET, self.REPLY]
        assert old in lines[line]
        lines[line] = lines[line].replace(old, new, 1)
        path = tmp_path / "archive.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        columns, report = load_dataset(path, fail_fast=True)
        assert report.warning_count == 0
        dataset, oracle_report = brute_load(path, fail_fast=True)
        record = (dataset.users + dataset.tweets + dataset.replies)[line]
        assert getattr(record, field) == value
        assert (columns, report) == (dataset.columns, oracle_report)

    @pytest.mark.parametrize(
        "line, old, new, message",
        [
            (1, "2,", "1.0,", "retweet_count must be an integer, got 1.0"),
            (1, "2,", "1e0,", "retweet_count must be an integer, got 1.0"),
            (1, "2,", "-2,", "tweet t1: retweet_count < 0"),
            (0, ":10,", ":-10,", "user a: followers_count < 0"),
            (1, '"a"', "null", "author_id must be a string, got None"),
            (2, "2024-02-02", "2024-13-02", "month must be in 1..12"),
            (
                2,
                "2024-02-02T00:00:00Z",
                "2024-02-02",
                "timestamp '2024-02-02' has no timezone; UTC offset required",
            ),
        ],
    )
    def test_bad_line_fails_alike_either_way(self, tmp_path, line, old, new, message):
        lines = [self.USER, self.TWEET, self.REPLY]
        lines[line] = lines[line].replace(old, new, 1)
        path = tmp_path / "archive.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for load in (load_dataset, brute_load):
            want = rf"^line {line + 1}: {re.escape(message)}$"
            with pytest.raises(ArchiveFormatError, match=want):
                load(path, fail_fast=True)
            _, report = load(path)
            assert report.malformed_line_numbers == [line + 1]

    def test_duplicate_ids_fail_alike(self, tmp_path):
        # a repeated id of any kind fails the loader and its oracle alike
        lines = [self.USER, self.TWEET, self.REPLY]
        path = tmp_path / "archive.jsonl"
        for i, (kind, record_id) in enumerate([("user", "a"), ("tweet", "t1"), ("reply", "r1")]):
            path.write_text("\n".join([*lines, lines[i]]) + "\n", encoding="utf-8")
            want = rf"^duplicate {kind}_id '{record_id}'$"
            for load in (load_dataset, brute_load):
                for fail_fast in (False, True):
                    with pytest.raises(ValueError, match=want):
                        load(path, fail_fast=fail_fast)


def _json_path_result(path, load, tmp_path):
    """load's result for a copy of the file at path with no sidecar beside it."""
    copy = tmp_path / "json-path" / path.name
    copy.parent.mkdir(exist_ok=True)
    shutil.copy(path, copy)
    return load(copy)


def _pipeline_files(tmp_path):
    """A small dataset and its annotations, each saved with its sidecar."""
    dataset = make_dataset(
        [make_user("a", handle="ha"), make_user("b")],
        [make_tweet("t1", "a", text="python code"), make_tweet("t2", "b", text="python code")],
        [make_reply("r1", "t1", "b", text="great")],
        provenance="twice",
    )
    domains = (DomainAnnotation("Arts", 1, True), DomainAnnotation("News", 0.5, 0))
    annotations = annotation_columns([("t1", domains), ("t2", ())], [("r1", 0.5)])
    paths = tmp_path / "dataset.jsonl", tmp_path / "annotations.jsonl"
    save_dataset(dataset.columns, paths[0])
    save_annotations(annotations, paths[1])
    return paths


def _spoil(how, path, other):
    """Make the sidecar of the file at path stale, foreign, truncated or
    corrupt; other is another file's sidecar."""
    if how == "one-byte-changed":
        text = path.read_bytes().replace(b"python", b"pythom", 1)
        path.write_bytes(text.replace(b'"sentiment": 0.5', b'"sentiment": 0.6'))
        return
    sidecar = Path(f"{path}.cols")
    blob = sidecar.read_bytes()
    major, minor = sys.version_info[:2]
    spoiled = {
        "other-python": blob.replace(b" %d.%d " % (major, minor), b" %d.%d " % (major, minor + 1)),
        "other-format": blob.replace(b"domcred-cols 1 ", b"domcred-cols 2 ", 1),
        "truncated": blob[: len(blob) // 2],
        "payload-truncated": blob[: blob.index(b"\n") + 9],
        "random-bytes": random.Random(5).randbytes(len(blob)),
        "other-files": other,
    }[how]
    assert spoiled != blob
    sidecar.write_bytes(spoiled)


SPOILS = [
    "one-byte-changed",
    "other-python",
    "other-format",
    "truncated",
    "payload-truncated",
    "random-bytes",
    "other-files",
]


class TestSidecars:
    """A sidecar gives what its file's lines give, and one that does not
    mirror its file's bytes is never read."""

    @given(dataset=datasets(HOSTILE))
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_dataset_loads_alike_with_and_without_it(self, tmp_path, dataset):
        path = tmp_path / "dataset.jsonl"
        save_dataset(dataset.columns, path)
        assert read_sidecar(path, lambda payload: True)
        loaded = load_dataset(path)
        assert loaded == _json_path_result(path, load_dataset, tmp_path)

    def test_header_names_format_python_and_digest(self, tmp_path):
        for path in _pipeline_files(tmp_path):
            header = Path(f"{path}.cols").read_bytes().split(b"\n", 1)[0]
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert header == b"domcred-cols 1 %d.%d %s" % (*sys.version_info[:2], digest.encode())

    @pytest.mark.parametrize("how", SPOILS)
    def test_spoiled_sidecar_gives_the_json_path_result(self, tmp_path, how):
        paths = _pipeline_files(tmp_path)
        blobs = [Path(f"{path}.cols").read_bytes() for path in paths]
        for path, other in zip(paths, blobs[::-1]):
            _spoil(how, path, other)
        dataset_path, annotations_path = paths
        assert read_sidecar(dataset_path, lambda payload: True) is None
        assert read_sidecar(annotations_path, lambda payload: True) is None
        loaded = load_dataset(dataset_path)
        assert loaded == _json_path_result(dataset_path, load_dataset, tmp_path)
        columns = load_annotation_columns(annotations_path)
        want = _json_path_result(annotations_path, load_annotation_columns, tmp_path)
        assert repr(columns) == repr(want)
        if how == "one-byte-changed":
            assert loaded[0].tweet_texts[0] == "pythom code"
            assert columns.sentiments == (0.6,)

    @pytest.mark.parametrize("kind", [2, 3, 4], ids=["users", "tweets", "replies"])
    @pytest.mark.parametrize("how", ["short-column", "column-missing"])
    def test_payload_that_is_not_the_files_columns_is_not_used(self, tmp_path, kind, how):
        path, _ = _pipeline_files(tmp_path)
        sidecar = Path(f"{path}.cols")
        header, blob = sidecar.read_bytes().split(b"\n", 1)
        payload = list(marshal.loads(blob))
        columns = list(payload[kind])
        if how == "short-column":
            columns[-1] = columns[-1][:-1]
        else:
            del columns[-1]
        payload[kind] = tuple(columns)
        sidecar.write_bytes(header + b"\n" + marshal.dumps(tuple(payload), 2))
        assert read_sidecar(path, lambda payload: True)
        loaded = load_dataset(path)
        assert loaded == _json_path_result(path, load_dataset, tmp_path)
        assert loaded[1].warning_count == 0

    def test_bytes_do_not_depend_on_shared_objects(self, tmp_path):
        """Marshal version 2 writes a value the same way however many
        references it has; version 3 and later mark shared objects."""

        def copy(text):
            return "".join(list(text))

        def build(share):
            fresh = (lambda text: text) if share else copy
            users = [make_user(f"user{i}", handle=f"handle{i}") for i in range(3)]
            tweets = [make_tweet(f"tweet{i}", fresh(users[i].user_id)) for i in range(3)]
            replies = [
                make_reply(f"reply{i}", fresh(tweets[i].tweet_id), fresh(users[0].user_id))
                for i in range(3)
            ]
            arts = DomainAnnotation(fresh("Arts and Entertainment"), 1.0, True)
            news = DomainAnnotation(fresh(arts.label), 0.5)
            merged = [(t.tweet_id, (arts, news)) for t in tweets]
            sentiments = [(r.reply_id, 0.25) for r in replies]
            return make_dataset(users, tweets, replies), annotation_columns(merged, sentiments)

        blobs = []
        for share in (True, False):
            dataset, annotations = build(share)
            directory = tmp_path / str(share)
            directory.mkdir()
            save_dataset(dataset.columns, directory / "dataset.jsonl")
            save_annotations(annotations, directory / "annotations.jsonl")
            names = ("dataset.jsonl.cols", "annotations.jsonl.cols")
            blobs.append([(directory / name).read_bytes() for name in names])
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            (0, "followers_count", True),
            (0, "followers_count", -1),
            (0, "friends_count", 2.5),
            (1, "retweet_count", False),
            (1, "is_retweet", 1),
        ],
    )
    def test_dataset_that_would_not_read_back_gets_none(self, tmp_path, kind, field, value):
        records = [make_user("a"), make_tweet("t1", "a")]
        records[kind] = records[kind]._replace(**{field: value})
        path = tmp_path / "dataset.jsonl"
        save_dataset(make_dataset([records[0]], [records[1]]).columns, path)
        assert not Path(f"{path}.cols").exists()

    @pytest.mark.parametrize("field", ["handles", "languages", "reply_authors"])
    def test_columns_that_differ_in_length_are_not_written(self, tmp_path, field):
        columns = make_dataset(
            [make_user("a"), make_user("b")],
            [make_tweet("t1", "a"), make_tweet("t2", "b")],
            [make_reply("r1", "t1", "b"), make_reply("r2", "t2", "a")],
        ).columns
        ragged = columns._replace(**{field: getattr(columns, field)[:-1]})
        path = tmp_path / "dataset.jsonl"
        with pytest.raises(ValueError, match=r"^the (user|tweet|reply) columns differ in length$"):
            save_dataset(ragged, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "domains, sentiment",
        [
            ((DomainAnnotation("Arts", 1.0, 2),), 0.5),
            ((DomainAnnotation("Arts", 1.0, 0.0),), 0.5),
            ((), True),
        ],
        ids=["flag-2", "flag-0.0", "bool-sentiment"],
    )
    def test_annotations_that_would_not_read_back_get_none(self, tmp_path, domains, sentiment):
        path = tmp_path / "annotations.jsonl"
        save_annotations(annotation_columns([("t1", domains)], [("r1", sentiment)]), path)
        assert not Path(f"{path}.cols").exists()
        with pytest.raises(ValueError, match=r": line [12]: "):
            load_annotation_columns(path)
