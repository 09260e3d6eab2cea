"""Taxonomy and sentiment annotation behind a pluggable provider contract.

Each tweet's domains are inferred from its text and each reply gets one
sentiment score.  The built-in provider scores text against bundled term
lexicons and is fully deterministic.  A remote HTTP provider with the same
surface exists for services that expose a JSON endpoint.  Analysis code
depends only on the Annotator protocol.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple, Protocol

from .corpus.archive import json_value, read_sidecar, write_jsonl
from .corpus.types import DatasetColumns
from .lexicon import (
    DomainLexicon,
    SentimentLexicon,
    builtin_domain_lexicon,
    builtin_sentiment_lexicon,
)

MAX_DOMAINS_PER_TEXT = 3


class AnnotatorError(RuntimeError):
    """Provider failure, distinct from a legitimate empty annotation."""


class DomainAnnotation(NamedTuple):
    """One inferred domain: taxonomy label, score in [0, 1], confident flag.

    It does not check its score; ``_checked_score`` does, where a score
    enters: from a provider, a service payload or an annotations file.
    """

    label: str
    score: float
    confident: bool = False


def _checked_score(annotation: DomainAnnotation, tweet_id: str | None = None):
    """The annotation, when its score lies in [0, 1]; else ValueError naming
    its label, after the tweet when one is given."""
    if not 0.0 <= annotation.score <= 1.0:
        where = "" if tweet_id is None else f"tweet {tweet_id}: "
        raise ValueError(
            f"{where}score for {annotation.label!r} outside [0, 1]: {annotation.score}"
        )
    return annotation


def _rank(annotations) -> list[DomainAnnotation]:
    return sorted(annotations, key=lambda a: (-a.score, a.label))


class Annotator(Protocol):
    def infer_taxonomy(self, text: str) -> tuple[DomainAnnotation, ...]: ...

    def score_sentiment(self, text: str) -> float: ...


class LexiconAnnotator:
    """Deterministic annotator backed by term lexicons.

    Domain scores are hit counts scaled by the best domain's hits, so the top
    domain always scores 1.0; a domain is confident once it has at least
    ``min_hits`` matching tokens.  Sentiment is the hit-count difference over
    total tokens, scaled by ``gain`` and clamped to [-1, 1].
    """

    def __init__(
        self,
        domain_lexicon: DomainLexicon | None = None,
        sentiment_lexicon: SentimentLexicon | None = None,
        gain: float = 1.0,
        min_hits: int = 2,
    ):
        self.domain_lexicon = domain_lexicon or builtin_domain_lexicon()
        self.sentiment_lexicon = sentiment_lexicon or builtin_sentiment_lexicon()
        if not 0 < gain < math.inf:
            raise ValueError("gain must be positive and finite")
        if min_hits < 1:
            raise ValueError("min_hits must be >= 1")
        self.gain = gain
        self.min_hits = min_hits

    def infer_taxonomy(self, text: str) -> tuple[DomainAnnotation, ...]:
        counts = self.domain_lexicon.hit_counts(text)
        if not counts:
            return ()
        best = max(counts.values())
        ranked = _rank(
            DomainAnnotation(label=d, score=hits / best, confident=hits >= self.min_hits)
            for d, hits in counts.items()
        )
        return tuple(ranked[:MAX_DOMAINS_PER_TEXT])

    def score_sentiment(self, text: str) -> float:
        return self.sentiment_lexicon.score(text, gain=self.gain)


class RemoteAnnotator:
    """Adapter for an HTTP annotation service with the same surface.

    POSTs {"text": ...} as JSON to ``url`` and expects
    {"domains": [{"label", "score", "confident"}], "sentiment"}: a label is a
    string, a score or a sentiment a finite number, and ``confident`` true or
    false (false when missing).  An auth token is read from the environment
    variable named by ``token_env`` at call time.  Failures, and a payload
    value of any other type, raise AnnotatorError.
    """

    def __init__(self, url: str, token_env: str = "", timeout: float = 10.0):
        if not 0 < timeout < math.inf:
            raise ValueError("timeout must be positive and finite")
        self.url = url
        self.token_env = token_env
        self.timeout = timeout

    def _call(self, text: str) -> dict:
        import urllib.error
        import urllib.request

        headers = {"Content-Type": "application/json"}
        if self.token_env:
            token = os.environ.get(self.token_env, "")
            if token:
                headers["Authorization"] = f"Bearer {token}"
        request = urllib.request.Request(
            self.url, data=json.dumps({"text": text}).encode("utf-8"), headers=headers
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, ValueError, OSError) as exc:
            raise AnnotatorError(f"annotation service failed: {exc}") from exc
        if not isinstance(body, dict):
            raise AnnotatorError("annotation service returned a non-object")
        return body

    def infer_taxonomy(self, text: str) -> tuple[DomainAnnotation, ...]:
        body = self._call(text)
        try:
            ranked = _rank(
                _checked_score(
                    DomainAnnotation(
                        label=json_value(d["label"], str, "label"),
                        score=float(json_value(d["score"], float, "score")),
                        confident=json_value(d.get("confident", False), bool, "confident"),
                    )
                )
                for d in body.get("domains", [])
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise AnnotatorError(f"bad taxonomy payload: {exc}") from exc
        return tuple(ranked[:MAX_DOMAINS_PER_TEXT])

    def score_sentiment(self, text: str) -> float:
        body = self._call(text)
        try:
            value = float(json_value(body["sentiment"], float, "sentiment"))
        except (KeyError, ValueError, OverflowError) as exc:
            raise AnnotatorError(f"bad sentiment payload: {exc}") from exc
        return max(-1.0, min(1.0, value))


def _checked_sentiment(reply_id: str, sentiment):
    """The sentiment, when it lies in [-1, 1]; else ValueError naming the reply."""
    if not -1.0 <= sentiment <= 1.0:
        raise ValueError(f"sentiment for {reply_id} outside [-1, 1]")
    return sentiment


class AnnotationColumns(NamedTuple):
    """The annotations ``annotate`` writes and ``features`` reads, one tuple
    per field, each record kind in file order: a domain list per tweet and a
    sentiment per reply."""

    tweet_ids: tuple[str, ...]
    merged_domains: tuple[tuple[DomainAnnotation, ...], ...]
    reply_ids: tuple[str, ...]
    sentiments: tuple[float, ...]


@dataclass
class AnnotationReport:
    n_tweets: int = 0
    n_annotatable: int = 0
    n_unconfident: int = 0
    n_replies: int = 0
    n_neutral_replies: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)

    @property
    def n_not_annotatable(self) -> int:
        return self.n_tweets - self.n_annotatable

    def to_dict(self) -> dict:
        return {**asdict(self), "n_not_annotatable": self.n_not_annotatable}


def annotate_dataset(
    columns: DatasetColumns,
    annotator: Annotator | None = None,
    fail_fast: bool = False,
) -> tuple[AnnotationColumns, AnnotationReport]:
    """Annotate every tweet (domains) and every reply (sentiment) independently.

    A provider failure on one item is recorded in the report and the item
    gets an empty or neutral annotation, unless ``fail_fast`` re-raises.  A
    domain score outside [0, 1] raises ValueError naming its tweet, and a
    sentiment outside [-1, 1] one naming its reply.  Output order is
    canonical (by tweet/reply id, inherited from the dataset).
    """
    annotator = annotator or LexiconAnnotator()
    report = AnnotationReport(n_tweets=len(columns.tweet_ids), n_replies=len(columns.reply_ids))
    merged: list[tuple[DomainAnnotation, ...]] = []
    sentiments: list[float] = []

    for tweet_id, text in zip(columns.tweet_ids, columns.tweet_texts):
        domains: tuple[DomainAnnotation, ...] = ()
        try:
            domains = annotator.infer_taxonomy(text)
        except AnnotatorError as exc:
            if fail_fast:
                raise
            report.failures.append((tweet_id, str(exc)))
        for d in domains:
            _checked_score(d, tweet_id)
        merged.append(domains)
        if domains:
            report.n_annotatable += 1
            if not any(d.confident for d in domains):
                report.n_unconfident += 1

    for reply_id, text in zip(columns.reply_ids, columns.reply_texts):
        try:
            value = annotator.score_sentiment(text)
        except AnnotatorError as exc:
            if fail_fast:
                raise
            report.failures.append((reply_id, str(exc)))
            value = 0.0
        sentiments.append(_checked_sentiment(reply_id, value))
        if value == 0.0:
            report.n_neutral_replies += 1

    annotations = AnnotationColumns(
        columns.tweet_ids, tuple(merged), columns.reply_ids, tuple(sentiments)
    )
    return annotations, report


# the JSON types a score or a sentiment takes; true is not a number
_NUMBERS = (int, float)


def _is_entry(label, score, confident) -> bool:
    """Whether a domain entry's values are as an annotations file holds them:
    a string label, a numeric score, a flag that is a bool or the integer 0 or 1."""
    return (
        type(label) is str
        and type(score) in _NUMBERS
        and (type(confident) is bool or (type(confident) is int and confident in (0, 1)))
    )


def _domains_from_payload(payload) -> tuple[DomainAnnotation, ...]:
    """The entries as DomainAnnotations, their values as JSON reads them.

    Each entry is a [label, score, confident] list with a string label, a
    numeric score in [0, 1] and a flag that is a bool or the integer 0 or 1.
    A value keeps its JSON type (1 stays 1, not 1.0), so saving what was
    loaded writes each number as the file did.
    """
    if type(payload) is not list:
        raise ValueError(f"merged_domains must be a list, got {payload!r}")
    domains = []
    for entry in payload:
        if not (type(entry) is list and len(entry) == 3 and _is_entry(*entry)):
            raise ValueError(
                f"domain entry {entry!r} is not a [label, score, confident] triple"
                " with a string label, a numeric score and a true, false, 0 or 1 flag"
            )
        domains.append(_checked_score(DomainAnnotation(*entry)))
    return tuple(domains)


# One template per record kind: the line json.dumps(record, sort_keys=True)
# writes, with its ", " and ": " separators.  Strings are filled in through
# encode_basestring_ascii, the quoting function of that encoder.
_TWEET_LINE = '{"kind": "tweet", "merged_domains": [%s], "tweet_id": %s}'
_DOMAIN_ENTRY = "[%s, %s, %s]"
_REPLY_LINE = '{"kind": "reply", "reply_id": %s, "sentiment": %s}'


def _json_number(value) -> str:
    """A score, sentiment or confident flag as json writes it.

    A bool is true or false, an int keeps its integer form (1, not 1.0) and a
    float its shortest repr; ``save_annotations`` refuses NaN and the
    infinities, which json would write in its own way.
    """
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return float.__repr__(value)


def _check_ranges(annotations: AnnotationColumns) -> None:
    """The readers' ValueError for the first tweet with a score outside [0, 1],
    else the first reply with a sentiment outside [-1, 1], NaN included;
    each distinct domain list and sentiment is checked once."""
    merged, sentiments = annotations.merged_domains, annotations.sentiments
    for domains in dict.fromkeys(merged):
        if not all(0.0 <= d.score <= 1.0 for d in domains):
            tweet_id = annotations.tweet_ids[merged.index(domains)]
            for d in domains:
                _checked_score(d, tweet_id)
    for sentiment in dict.fromkeys(sentiments):
        if not -1.0 <= sentiment <= 1.0:
            _checked_sentiment(annotations.reply_ids[sentiments.index(sentiment)], sentiment)


def save_annotations(annotations: AnnotationColumns, path) -> None:
    """Write annotations as one JSON record per line, tweets then replies,
    and their sidecar; ValueError, and nothing written, when an id column and
    its value column differ in length or a score or sentiment lies outside
    its range.  No sidecar when a value would not read back as it is."""
    quote, number = encode_basestring_ascii, _json_number
    distinct: dict[str, tuple] = {}  # per entries text: its list's index, and the list
    index, lines = [], []
    for tweet_id, domains in zip(annotations.tweet_ids, annotations.merged_domains, strict=True):
        entries = ", ".join(
            [_DOMAIN_ENTRY % (quote(d.label), number(d.score), number(d.confident))
             for d in domains]
        )
        index.append(distinct.setdefault(entries, (len(distinct), domains))[0])
        lines.append(_TWEET_LINE % (entries, quote(tweet_id)))
    lines += [
        _REPLY_LINE % (quote(reply_id), number(sentiment))
        for reply_id, sentiment in zip(annotations.reply_ids, annotations.sentiments, strict=True)
    ]
    _check_ranges(annotations)
    lists = tuple(tuple(map(tuple, domains)) for _, domains in distinct.values())
    reads_back = set(map(type, annotations.sentiments)) <= {int, float} and all(
        _is_entry(*entry) for domains in lists for entry in domains
    )
    payload = (
        annotations.tweet_ids, lists, tuple(index), annotations.reply_ids, annotations.sentiments
    )
    write_jsonl(path, lines or [""], payload if reads_back else None)  # no records: "\n"


def _columns_from_payload(payload) -> AnnotationColumns:
    """The columns of an annotations sidecar's payload; each distinct domain
    list is one tuple, which its tweets share."""
    tweet_ids, lists, index, reply_ids, sentiments = payload
    domains = [tuple(map(DomainAnnotation._make, entries)) for entries in lists]
    merged = tuple(map(domains.__getitem__, index))
    return AnnotationColumns(tweet_ids, merged, reply_ids, sentiments)


def load_annotation_columns(path) -> AnnotationColumns:
    """The columns of an annotations file, read without building a record.

    They come from the file's sidecar when it mirrors the file's bytes;
    otherwise each line is decoded as JSON.  Both give the same values.

    Files written before a tweet carried one domain list hold two more lists
    per tweet; they still load, and only ``merged_domains`` is read.  A line
    that is not such a record raises ValueError naming the file and the line.
    """
    cached = read_sidecar(path, _columns_from_payload)
    if cached is not None:
        return cached
    tweet_ids: list[str] = []
    merged: list[tuple[DomainAnnotation, ...]] = []
    reply_ids: list[str] = []
    sentiments: list[float] = []
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: annotations file is not UTF-8: {exc}") from exc
    # lines end at "\n" alone: a string may hold U+2028 or U+0085 raw, which
    # str.splitlines would break at, and a lone "\r" is JSON whitespace
    for line_no, line in enumerate(text.split("\n"), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if type(record) is not dict:
                raise ValueError(f"a record must be a JSON object, got {record!r}")
            kind = record["kind"]
            if kind == "tweet":
                tweet_id = record["tweet_id"]
                if type(tweet_id) is not str:
                    raise ValueError(f"tweet_id must be a string, got {tweet_id!r}")
                merged.append(_domains_from_payload(record["merged_domains"]))
                tweet_ids.append(tweet_id)
            elif kind == "reply":
                reply_id, sentiment = record["reply_id"], record["sentiment"]
                if type(reply_id) is not str or type(sentiment) not in _NUMBERS:
                    raise ValueError(
                        "a reply needs a string reply_id and a numeric sentiment,"
                        f" got {reply_id!r} and {sentiment!r}"
                    )
                sentiments.append(_checked_sentiment(reply_id, sentiment))
                reply_ids.append(reply_id)
            else:
                raise ValueError(f"unknown annotation record kind {kind!r}")
        except KeyError as exc:
            raise ValueError(f"{path}: line {line_no}: record has no {exc} key") from None
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_no}: {exc}") from exc
    return AnnotationColumns(tuple(tweet_ids), tuple(merged), tuple(reply_ids), tuple(sentiments))
