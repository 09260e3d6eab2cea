"""Synthetic archive generator with planted influencer ground truth.

synthesize(config, seed) is a pure function: the same arguments always
produce byte-identical archives.  Influencers get systematically heavier
engagement, more followers, and more positive replies than ordinary users,
so the planted labels are recoverable from the engineered features.

Stream contract: the archive bytes are a function of (config, seed, numpy's
``Generator`` algorithms).  Every record is built from one ``default_rng``
stream, and the order of the draws, with their arguments, is the contract:
reordering, batching or merging draws moves the bytes even where the
distributions stay the same.  ``tests/test_corpus.py`` pins the digests of a
few configurations; a change that moves the bytes updates them and says so.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from datetime import timedelta

import numpy as np

from ..lexicon import builtin_domain_lexicon, builtin_sentiment_lexicon
from .types import (
    INFLUENCER,
    NON_INFLUENCER,
    Dataset,
    GroundTruthLabels,
    ReplyRecord,
    TweetRecord,
    UserProfile,
    parse_timestamp,
)

_FILLERS = ("the", "a", "about", "today", "really", "just", "new", "my", "this", "update")
_NEUTRAL_REPLY = ("the", "this", "that", "it", "was", "so", "very", "honestly")


def _require_int(name: str, value) -> None:
    # bool is an Integral too, but a JSON true is never meant as a count
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _require_real(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or (
        isinstance(value, float) and not math.isfinite(value)
    ):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


@dataclass(frozen=True)
class EngagementLevel:
    """Per-user-class generation parameters."""

    followers: tuple[int, int]
    friends: tuple[int, int]
    account_age_days: tuple[int, int]
    tweets_per_period: tuple[int, int]
    retweets_mean: float
    favorites_mean: float
    replies_mean: float
    positive_reply_rate: float

    def __post_init__(self):
        for name in ("followers", "friends", "account_age_days", "tweets_per_period"):
            bounds = getattr(self, name)
            if not isinstance(bounds, (tuple, list)) or len(bounds) != 2:
                raise ValueError(f"{name} must be a [lo, hi] pair, got {bounds!r}")
            lo, hi = bounds
            _require_int(f"{name} lo", lo)
            _require_int(f"{name} hi", hi)
            if not 0 <= lo <= hi:
                raise ValueError(f"{name} range must satisfy 0 <= lo <= hi")
        for name in ("retweets_mean", "favorites_mean", "replies_mean"):
            _require_real(name, getattr(self, name))
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        _require_real("positive_reply_rate", self.positive_reply_rate)
        if not 0.0 <= self.positive_reply_rate <= 1.0:
            raise ValueError("positive_reply_rate must be in [0, 1]")


INFLUENCER_LEVEL = EngagementLevel(
    followers=(8000, 20000),
    friends=(100, 900),
    account_age_days=(800, 3000),
    tweets_per_period=(4, 9),
    retweets_mean=40.0,
    favorites_mean=60.0,
    replies_mean=6.0,
    positive_reply_rate=0.8,
)

ORDINARY_LEVEL = EngagementLevel(
    followers=(50, 800),
    friends=(100, 1500),
    account_age_days=(400, 3000),
    tweets_per_period=(1, 5),
    retweets_mean=1.5,
    favorites_mean=2.5,
    replies_mean=1.2,
    positive_reply_rate=0.45,
)


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the generator; defaults give a small mixed-domain corpus."""

    n_users: int = 120
    influencer_fraction: float = 0.25
    domains: tuple[str, ...] = ()
    target_domain: str = ""
    off_domain_rate: float = 0.10
    blend_rate: float = 0.15
    non_english_rate: float = 0.05
    retweet_rate: float = 0.05
    n_periods: int = 4
    period_days: int = 91
    start: str = "2024-01-01T00:00:00Z"
    influencer: EngagementLevel = INFLUENCER_LEVEL
    ordinary: EngagementLevel = ORDINARY_LEVEL

    def __post_init__(self):
        for name in ("n_users", "n_periods", "period_days"):
            _require_int(name, getattr(self, name))
        for name in (
            "influencer_fraction",
            "off_domain_rate",
            "blend_rate",
            "non_english_rate",
            "retweet_rate",
        ):
            _require_real(name, getattr(self, name))
        if self.n_users < 2:
            raise ValueError("n_users must be >= 2")
        if not 0.0 < self.influencer_fraction < 1.0:
            raise ValueError("influencer_fraction must be in (0, 1)")
        for name in ("off_domain_rate", "blend_rate", "non_english_rate", "retweet_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.n_periods < 1 or self.period_days < 1:
            raise ValueError("n_periods and period_days must be >= 1")
        if not isinstance(self.start, str):
            raise ValueError(f"start must be an RFC 3339 string, got {self.start!r}")
        parse_timestamp(self.start)


def draw_words(rng, pool, k: int) -> list:
    """The k words ``rng.choice(np.array(pool), size=k)`` draws, drawn the same way.

    With replacement and no weights, ``Generator.choice`` draws exactly
    ``integers(0, len(pool), size=k)`` and takes those indices, so indexing a
    Python sequence gives the same words and leaves the generator in the same
    state, without the array round trip.
    """
    return [pool[j] for j in rng.integers(0, len(pool), size=k).tolist()]


def _shuffled_text(rng, words: list) -> str:
    return " ".join([words[i] for i in rng.permutation(len(words)).tolist()])


def _tweet_text(rng, primary_terms, other_terms) -> str:
    words = draw_words(rng, primary_terms, int(rng.integers(4, 8)))
    if other_terms is not None:
        words += draw_words(rng, other_terms, int(rng.integers(2, 4)))
    words += draw_words(rng, _FILLERS, int(rng.integers(1, 4)))
    return _shuffled_text(rng, words)


def _reply_text(rng, positive: bool, pos_words, neg_words) -> str:
    charged = pos_words if positive else neg_words
    words = draw_words(rng, charged, int(rng.integers(2, 5)))
    words += draw_words(rng, _NEUTRAL_REPLY, int(rng.integers(1, 4)))
    return _shuffled_text(rng, words)


def synthesize(config: SynthConfig, seed: int) -> tuple[Dataset, GroundTruthLabels]:
    """Generate (dataset, labels); deterministic in (config, seed)."""
    lexicon = builtin_domain_lexicon()
    domains = config.domains or lexicon.domains
    unknown = sorted(set(domains) - set(lexicon.domains))
    if unknown:
        raise ValueError(f"domains not in the built-in lexicon: {unknown}")
    target = config.target_domain or domains[0]
    if target not in domains:
        raise ValueError(f"target_domain {target!r} not among configured domains")

    term_pool = {d: sorted(lexicon.terms[d]) for d in domains}
    sentiment = builtin_sentiment_lexicon()
    pos_words = sorted(t for t, p in sentiment.polarity.items() if p == 1)
    neg_words = sorted(t for t, p in sentiment.polarity.items() if p == -1)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    start = parse_timestamp(config.start)
    span_seconds = config.n_periods * config.period_days * 86400
    capture_at = start + timedelta(seconds=span_seconds)

    # floor with a tiny epsilon so 100 * 0.1 lands on 10, not 9
    n_influencers = max(1, int(config.n_users * config.influencer_fraction + 1e-9))
    flags = [False] * config.n_users
    for i in rng.choice(config.n_users, size=n_influencers, replace=False).tolist():
        flags[i] = True
    # planted influencers are influential in the target domain specifically
    primaries = [
        target if flag else domain
        for flag, domain in zip(flags, draw_words(rng, domains, config.n_users))
    ]

    users: list[UserProfile] = []
    tweets: list[TweetRecord] = []
    replies: list[ReplyRecord] = []
    labels: dict[str, str] = {}
    user_ids = [f"u{i:05d}" for i in range(config.n_users)]

    for i, user_id in enumerate(user_ids):
        level = config.influencer if flags[i] else config.ordinary
        age = int(rng.integers(level.account_age_days[0], level.account_age_days[1] + 1))
        users.append(
            UserProfile(
                user_id=user_id,
                handle=f"user{i:05d}",
                followers_count=int(rng.integers(level.followers[0], level.followers[1] + 1)),
                friends_count=int(rng.integers(level.friends[0], level.friends[1] + 1)),
                created_at=start - timedelta(days=age),
            )
        )
        labels[user_id] = INFLUENCER if flags[i] else NON_INFLUENCER

    for i in range(config.n_users):
        level = config.influencer if flags[i] else config.ordinary
        primary = primaries[i]
        others = [d for d in domains if d != primary]
        seq = 0
        for _ in range(config.n_periods):
            n_tweets = int(
                rng.integers(level.tweets_per_period[0], level.tweets_per_period[1] + 1)
            )
            for _ in range(n_tweets):
                tweet_id = f"t{i:05d}-{seq:04d}"
                seq += 1
                posted = start + timedelta(seconds=int(rng.integers(0, span_seconds)))

                pool, blend = primary, None
                if others and rng.random() < config.off_domain_rate:
                    pool = others[int(rng.integers(0, len(others)))]
                elif others and rng.random() < config.blend_rate:
                    blend = others[int(rng.integers(0, len(others)))]
                text = _tweet_text(rng, term_pool[pool], term_pool[blend] if blend else None)

                n_replies = int(rng.poisson(level.replies_mean))
                is_retweet = rng.random() < config.retweet_rate
                language = "es" if rng.random() < config.non_english_rate else "en"

                tweets.append(
                    TweetRecord(
                        tweet_id=tweet_id,
                        author_id=user_ids[i],
                        posted_at=posted,
                        text=text,
                        retweet_count=int(rng.poisson(level.retweets_mean)),
                        favorite_count=int(rng.poisson(level.favorites_mean)),
                        replies_count=n_replies,
                        is_retweet=is_retweet,
                        language=language,
                    )
                )

                for k in range(n_replies):
                    offset = int(rng.integers(60, 3 * 86400))
                    reply_at = min(posted + timedelta(seconds=offset), capture_at)
                    author = int(rng.integers(0, config.n_users - 1))
                    if author >= i:
                        author += 1
                    positive = rng.random() < level.positive_reply_rate
                    replies.append(
                        ReplyRecord(
                            reply_id=f"r{tweet_id[1:]}-{k:03d}",
                            parent_tweet_id=tweet_id,
                            author_id=user_ids[author],
                            posted_at=reply_at,
                            text=_reply_text(rng, positive, pos_words, neg_words),
                        )
                    )

    dataset = Dataset(
        users=tuple(users),
        tweets=tuple(tweets),
        replies=tuple(replies),
        capture_at=capture_at,
        provenance=f"synthetic seed={seed}",
    )
    return dataset, GroundTruthLabels(domain=target, labels=labels)
