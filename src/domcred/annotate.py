"""Taxonomy and sentiment annotation behind a pluggable provider contract.

The built-in provider scores text against bundled term lexicons and is fully
deterministic.  A remote HTTP provider with the same surface exists for
services that expose a JSON endpoint.  Analysis code depends only on the
Annotator protocol.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol

from .corpus.archive import decode_line
from .corpus.types import Dataset
from .lexicon import (
    DomainLexicon,
    SentimentLexicon,
    builtin_domain_lexicon,
    builtin_sentiment_lexicon,
)

MAX_DOMAINS_PER_TEXT = 3


class AnnotatorError(RuntimeError):
    """Provider failure, distinct from a legitimate empty annotation."""


@dataclass(frozen=True)
class DomainAnnotation:
    """One inferred domain: taxonomy label, score in [0, 1], confident flag."""

    label: str
    score: float
    confident: bool = False

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score for {self.label!r} outside [0, 1]: {self.score}")


def _rank(annotations) -> list[DomainAnnotation]:
    return sorted(annotations, key=lambda a: (-a.score, a.label))


def merge_domains(
    text_domains: tuple[DomainAnnotation, ...],
    url_domains: tuple[DomainAnnotation, ...],
) -> tuple[DomainAnnotation, ...]:
    """Combine text-derived and URL-derived annotations into one ranked list.

    A label present on both sides averages the two scores (capped at 1) and
    is confident if either side was; a label on one side passes through.
    The union is re-ranked (score desc, label asc) and truncated to three.
    Commutative, and the identity when one side is empty.
    """
    a = {d.label: d for d in text_domains}
    b = {d.label: d for d in url_domains}
    merged = []
    for label in set(a) | set(b):
        if label in a and label in b:
            merged.append(
                DomainAnnotation(
                    label=label,
                    score=min(1.0, (a[label].score + b[label].score) / 2.0),
                    confident=a[label].confident or b[label].confident,
                )
            )
        else:
            merged.append(a.get(label) or b[label])
    return tuple(_rank(merged)[:MAX_DOMAINS_PER_TEXT])


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
    {"domains": [{"label", "score", "confident"}], "sentiment": float}.
    An auth token is read from the environment variable named by
    ``token_env`` at call time.  Failures raise AnnotatorError.
    """

    def __init__(self, url: str, token_env: str = "", timeout: float = 10.0):
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
                DomainAnnotation(
                    label=str(d["label"]),
                    score=float(d["score"]),
                    confident=bool(d.get("confident", False)),
                )
                for d in body.get("domains", [])
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise AnnotatorError(f"bad taxonomy payload: {exc}") from exc
        return tuple(ranked[:MAX_DOMAINS_PER_TEXT])

    def score_sentiment(self, text: str) -> float:
        body = self._call(text)
        try:
            value = float(body["sentiment"])
        except (KeyError, TypeError, ValueError) as exc:
            raise AnnotatorError(f"bad sentiment payload: {exc}") from exc
        return max(-1.0, min(1.0, value))


@dataclass(frozen=True)
class AnnotatedTweet:
    """Domain annotations for one tweet from its text and its URLs."""

    tweet_id: str
    text_domains: tuple[DomainAnnotation, ...] = ()
    url_domains: tuple[DomainAnnotation, ...] = ()
    merged_domains: tuple[DomainAnnotation, ...] = ()

    @property
    def annotatable(self) -> bool:
        return bool(self.merged_domains)


@dataclass(frozen=True)
class AnnotatedReply:
    reply_id: str
    sentiment: float

    def __post_init__(self):
        if not -1.0 <= self.sentiment <= 1.0:
            raise ValueError(f"sentiment for {self.reply_id} outside [-1, 1]")


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
        return {
            "n_tweets": self.n_tweets,
            "n_annotatable": self.n_annotatable,
            "n_not_annotatable": self.n_not_annotatable,
            "n_unconfident": self.n_unconfident,
            "n_replies": self.n_replies,
            "n_neutral_replies": self.n_neutral_replies,
            "failures": [list(f) for f in self.failures],
        }


def annotate_dataset(
    dataset: Dataset,
    annotator: Annotator | None = None,
    url_text_resolver: Callable[[str], str] | None = None,
    fail_fast: bool = False,
) -> tuple[tuple[AnnotatedTweet, ...], tuple[AnnotatedReply, ...], AnnotationReport]:
    """Annotate every tweet (domains) and every reply (sentiment) independently.

    URL domains are inferred from resolver-provided page text when a resolver
    is given; otherwise annotation is text-only.  A provider failure on one
    item is recorded in the report and the item gets an empty or neutral
    annotation, unless ``fail_fast`` re-raises.  Output order is canonical
    (by tweet/reply id, inherited from the dataset).
    """
    annotator = annotator or LexiconAnnotator()
    report = AnnotationReport(n_tweets=len(dataset.tweets), n_replies=len(dataset.replies))
    tweets: list[AnnotatedTweet] = []
    replies: list[AnnotatedReply] = []

    for tweet in dataset.tweets:
        text_domains: tuple[DomainAnnotation, ...] = ()
        url_domains: tuple[DomainAnnotation, ...] = ()
        try:
            text_domains = annotator.infer_taxonomy(tweet.text)
            if url_text_resolver is not None and tweet.urls:
                url_text = " ".join(url_text_resolver(u) for u in tweet.urls)
                url_domains = annotator.infer_taxonomy(url_text)
        except AnnotatorError as exc:
            if fail_fast:
                raise
            report.failures.append((tweet.tweet_id, str(exc)))
        merged = merge_domains(text_domains, url_domains)
        annotated = AnnotatedTweet(
            tweet_id=tweet.tweet_id,
            text_domains=text_domains,
            url_domains=url_domains,
            merged_domains=merged,
        )
        tweets.append(annotated)
        if annotated.annotatable:
            report.n_annotatable += 1
            if not any(d.confident for d in merged):
                report.n_unconfident += 1

    for reply in dataset.replies:
        try:
            value = annotator.score_sentiment(reply.text)
        except AnnotatorError as exc:
            if fail_fast:
                raise
            report.failures.append((reply.reply_id, str(exc)))
            value = 0.0
        replies.append(AnnotatedReply(reply_id=reply.reply_id, sentiment=value))
        if value == 0.0:
            report.n_neutral_replies += 1

    return tuple(tweets), tuple(replies), report


def _domains_payload(annotations) -> list:
    return [[a.label, a.score, a.confident] for a in annotations]


def _domains_from_payload(payload, interned: dict) -> tuple[DomainAnnotation, ...]:
    """The entries as DomainAnnotations, one shared instance per distinct entry.

    Sharing is safe because the dataclass is frozen.  The key holds the
    score's type, so 1 and 1.0 stay apart.  Zero scores (0.0 and -0.0 are
    equal but written differently) and labels or flags that are not str and
    bool are built afresh.
    """
    domains = []
    for label, score, confident in payload:
        if score and type(label) is str and type(confident) is bool:
            key = (label, score, type(score), confident)
            annotation = interned.get(key)
            if annotation is None:
                annotation = interned[key] = DomainAnnotation(label, score, confident)
        else:
            annotation = DomainAnnotation(label=label, score=score, confident=confident)
        domains.append(annotation)
    return tuple(domains)


# one encoder for every line, instead of a json.dumps call (and its set-up) per line
_dump = json.JSONEncoder(sort_keys=True).encode


def save_annotations(
    tweets, replies, path, report: AnnotationReport | None = None
) -> None:
    """Write annotations as one JSON record per line, tweets then replies."""
    lines = []
    if report is not None:
        lines.append(_dump({"kind": "report", **report.to_dict()}))
    for t in tweets:
        lines.append(
            _dump(
                {
                    "kind": "tweet",
                    "tweet_id": t.tweet_id,
                    "text_domains": _domains_payload(t.text_domains),
                    "url_domains": _domains_payload(t.url_domains),
                    "merged_domains": _domains_payload(t.merged_domains),
                }
            )
        )
    for r in replies:
        lines.append(_dump({"kind": "reply", "reply_id": r.reply_id, "sentiment": r.sentiment}))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_annotations(path) -> tuple[tuple[AnnotatedTweet, ...], tuple[AnnotatedReply, ...]]:
    tweets: list[AnnotatedTweet] = []
    replies: list[AnnotatedReply] = []
    interned: dict = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = decode_line(line)
        kind = record.get("kind")
        if kind == "tweet":
            tweets.append(
                AnnotatedTweet(
                    tweet_id=record["tweet_id"],
                    text_domains=_domains_from_payload(record["text_domains"], interned),
                    url_domains=_domains_from_payload(record["url_domains"], interned),
                    merged_domains=_domains_from_payload(record["merged_domains"], interned),
                )
            )
        elif kind == "reply":
            replies.append(
                AnnotatedReply(reply_id=record["reply_id"], sentiment=record["sentiment"])
            )
        elif kind != "report":
            raise ValueError(f"unknown annotation record kind {kind!r}")
    return tuple(tweets), tuple(replies)
