"""Term lexicons for domain inference and reply sentiment.

Two plain-text formats live under data/:

domains.lex    [Domain Name] section headers, one lowercase term per line.
sentiment.lex  term<TAB>+1 or term<TAB>-1, one per line.

Both allow blank lines and # comments.  Terms are single tokens; scoring
tokenizes text with the same pattern, so a term that would not survive
tokenization is rejected at parse time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import repeat
from pathlib import Path

TOKEN_RE = re.compile(r"[a-z0-9']+")


def tokenize(text: str) -> list[str]:
    return TOKEN_RE.findall(text.lower())


class LexiconFormatError(ValueError):
    pass


@dataclass(frozen=True)
class DomainLexicon:
    """Domain name -> set of single-token terms."""

    terms: dict[str, frozenset[str]]

    def __post_init__(self):
        if not self.terms:
            raise LexiconFormatError("lexicon has no domains")

    @property
    def domains(self) -> tuple[str, ...]:
        return tuple(sorted(self.terms))

    @cached_property
    def _term_domains(self) -> dict[str, tuple[str, ...]]:
        """Term -> the domains whose vocabulary holds it, in ``terms`` order."""
        index: dict[str, list[str]] = {}
        for domain, vocabulary in self.terms.items():
            for term in vocabulary:
                index.setdefault(term, []).append(domain)
        return {term: tuple(domains) for term, domains in index.items()}

    def hit_counts(self, text: str) -> dict[str, int]:
        """Token occurrences per domain, keyed in ``terms`` order; every occurrence counts."""
        index = self._term_domains
        counts: dict[str, int] = {}
        for token in tokenize(text):
            for domain in index.get(token, ()):
                counts[domain] = counts.get(domain, 0) + 1
        if len(counts) > 1:
            counts = {domain: counts[domain] for domain in self.terms if domain in counts}
        return counts


@dataclass(frozen=True)
class SentimentLexicon:
    """Token -> polarity, +1 or -1."""

    polarity: dict[str, int]

    def __post_init__(self):
        bad = {t: p for t, p in self.polarity.items() if p not in (1, -1)}
        if bad:
            raise LexiconFormatError(f"polarity must be +1 or -1: {bad}")

    def score(self, text: str, gain: float = 1.0) -> float:
        """Signed sentiment in [-1, 1]: gain * (pos - neg) / total tokens."""
        tokens = tokenize(text)
        if not tokens:
            return 0.0
        # pos - neg in one pass: each token adds its polarity, 0 when it has none
        raw = gain * sum(map(self.polarity.get, tokens, repeat(0))) / len(tokens)
        return max(-1.0, min(1.0, raw))


def _clean_lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield line_no, line


def parse_domain_lexicon(text: str) -> DomainLexicon:
    terms: dict[str, set[str]] = {}
    current: str | None = None
    for line_no, line in _clean_lines(text):
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise LexiconFormatError(f"line {line_no}: empty domain name")
            terms.setdefault(current, set())
            continue
        if current is None:
            raise LexiconFormatError(f"line {line_no}: term before any [Domain] header")
        term = line.lower()
        if tokenize(term) != [term]:
            raise LexiconFormatError(f"line {line_no}: {line!r} is not a single token")
        terms[current].add(term)
    return DomainLexicon(terms={d: frozenset(v) for d, v in terms.items()})


def parse_sentiment_lexicon(text: str) -> SentimentLexicon:
    polarity: dict[str, int] = {}
    for line_no, line in _clean_lines(text):
        parts = line.split("\t")
        if len(parts) != 2:
            raise LexiconFormatError(f"line {line_no}: expected term<TAB>polarity")
        term, value = parts[0].lower().strip(), parts[1].strip()
        if tokenize(term) != [term]:
            raise LexiconFormatError(f"line {line_no}: {term!r} is not a single token")
        if value not in ("+1", "1", "-1"):
            raise LexiconFormatError(f"line {line_no}: polarity {value!r} not +1/-1")
        polarity[term] = 1 if value in ("+1", "1") else -1
    if not polarity:
        raise LexiconFormatError("sentiment lexicon is empty")
    return SentimentLexicon(polarity=polarity)


def _load(path: str | Path, parse):
    """``parse`` of a lexicon file's text; LexiconFormatError naming the file
    when it is not UTF-8 or not in the lexicon's format."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not a lexicon
        raise LexiconFormatError(f"{path}: {exc}") from exc


def load_domain_lexicon(path: str | Path) -> DomainLexicon:
    return _load(path, parse_domain_lexicon)


def load_sentiment_lexicon(path: str | Path) -> SentimentLexicon:
    return _load(path, parse_sentiment_lexicon)


def _builtin(name: str) -> str:
    return resources.files("domcred.data").joinpath(name).read_text(encoding="utf-8")


def builtin_domain_lexicon() -> DomainLexicon:
    return parse_domain_lexicon(_builtin("domains.lex"))


def builtin_sentiment_lexicon() -> SentimentLexicon:
    return parse_sentiment_lexicon(_builtin("sentiment.lex"))
