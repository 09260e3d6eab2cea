"""Synthetic archive generator with planted influencer ground truth.

synthesize(config, seed) is a pure function: the same arguments always
produce byte-identical archives.  Influencers get systematically heavier
engagement, more followers, and more positive replies than ordinary users,
so the planted labels are recoverable from the engineered features.

The dataset is returned as a ``DatasetColumns`` built straight from the
draws, each kind put in id order.

Stream contract: the archive bytes are a function of (config, seed, numpy's
``Generator`` algorithms).  Every record is built from one ``default_rng``
stream, consumed as a fixed sequence of sized draws, one per field per
record kind, in this order:

1. influencer flags: ``choice(n_users, n_influencers, replace=False)``;
2. a primary domain for every user (influencers then take the target);
3. per user: account age, followers, friends, each between its level's bounds;
4. a tweet count per (user, period);
5. per tweet: timestamp; off-domain uniform; blend uniform; other-domain
   index (these three only when some domain has others); reply count;
   retweet and favourite counts; retweet flag; language flag; and the
   topic, blend and filler word counts;
6. one word index per tweet-word slot, then one uniform key per slot;
7. per reply: time offset, author, positive flag, charged and neutral word
   counts;
8. one word index per reply-word slot, then one uniform key per slot.

Off-domain takes precedence over blend.  Each text's words are ordered by
their keys, ties keeping their place (a stable lexsort of (key, text)).
Reordering, merging or resizing any of these draws moves the bytes even
where the distributions stay the same.  ``tests/test_corpus.py`` pins the
digests of a few configurations; a change that moves the bytes updates
them and says so.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from ..lexicon import builtin_domain_lexicon, builtin_sentiment_lexicon
from .types import (
    INFLUENCER,
    KIND_LAYOUTS,
    NON_INFLUENCER,
    DatasetColumns,
    GroundTruthLabels,
    format_timestamp,
    in_id_order,
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
        start = parse_timestamp(self.start)
        # the archive's dates run from its oldest account's creation to its capture
        oldest = max(self.influencer.account_age_days[1], self.ordinary.account_age_days[1])
        if not _in_calendar(start, -oldest):
            raise ValueError(
                f"start {self.start} minus account_age_days of up to {oldest} days"
                " falls before year 1"
            )
        span = self.n_periods * self.period_days
        if not _in_calendar(start, span):
            raise ValueError(
                f"start {self.start} plus n_periods * period_days ({span} days)"
                " falls after year 9999"
            )


def _in_calendar(start: datetime, days: int) -> bool:
    """Whether ``start`` moved by ``days`` days stays within years 1-9999."""
    try:
        start + timedelta(days=days)
    except OverflowError:
        return False
    return True


def _stamps(start: datetime, seconds: np.ndarray) -> list[str]:
    """``format_timestamps`` of ``start`` moved by each whole number of
    seconds, without a datetime per stamp: each day's date text is made once
    by ``format_timestamp``, and each time of day is put after it."""
    midnight = start.replace(hour=0, minute=0, second=0, microsecond=0)
    into_day = start.hour * 3600 + start.minute * 60 + start.second
    spelled = "%s%02d:%02d:%02d" + (".%06dZ" % start.microsecond if start.microsecond else "Z")
    day, second = np.divmod(seconds + into_day, 86400)
    day = day.tolist()
    # a set, not np.unique, whose first call imports numpy.ma
    dates = {d: format_timestamp(midnight + timedelta(days=d))[:11] for d in set(day)}
    hour, second = np.divmod(second, 3600)
    minute, second = np.divmod(second, 60)
    return [
        spelled % (dates[d], h, m, s)
        for d, h, m, s in zip(day, hour.tolist(), minute.tolist(), second.tolist())
    ]


def _runs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner and place of each of ``sum(counts)`` items laid out in runs.

    Run i holds counts[i] items; item j belongs to run owner[j] and is the
    place[j]-th item of it.
    """
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]


def _texts(rng, parts, vocab) -> list[str]:
    """Draw the words of a batch of texts, shuffle each text and join it.

    ``parts`` is a list of (offset, size, count) per-text arrays: that part of
    text i takes count[i] words, each drawn uniformly, with replacement, from
    ``vocab[offset[i] : offset[i] + size[i]]``.  The words of a text are laid
    out part by part, then put in the order of one uniform key per word (ties
    keep their place), which shuffles each text uniformly.  Every text must
    get at least one word.
    """
    offset, size, count = (np.stack(column, axis=1).ravel() for column in zip(*parts))
    picks = np.repeat(offset, count) + rng.integers(0, np.repeat(size, count))
    keys = rng.random(picks.size)
    per_text = sum(part[2] for part in parts)
    text_of, place = _runs(per_text)
    # one row of keys per text, padded with 2.0 so the padding sorts last
    grid = np.full((per_text.size, per_text.max(initial=0)), 2.0)
    grid[text_of, place] = keys
    ranks = np.argsort(grid, axis=1, kind="stable")
    ends = np.cumsum(per_text)
    order = (ends - per_text)[:, None] + ranks
    order = order[np.arange(grid.shape[1]) < per_text[:, None]]
    # each word carries its separator: a space, or a newline when it ends its text
    spelled = np.array([w + " " for w in vocab] + [w + "\n" for w in vocab], dtype=object)
    ending = np.zeros(picks.size, dtype=np.intp)
    ending[ends - 1] = len(vocab)
    return "".join(spelled[picks[order] + ending].tolist()).split("\n")[:-1]


def synthesize(config: SynthConfig, seed: int) -> tuple[DatasetColumns, GroundTruthLabels]:
    """Generate (the dataset's columns, labels); deterministic in (config, seed)."""
    lexicon = builtin_domain_lexicon()
    domains = config.domains or lexicon.domains
    unknown = sorted(set(domains) - set(lexicon.domains))
    if unknown:
        raise ValueError(f"domains not in the built-in lexicon: {unknown}")
    target = config.target_domain or domains[0]
    if target not in domains:
        raise ValueError(f"target_domain {target!r} not among configured domains")

    # domain k's terms are tweet_vocab[term_offset[k] : term_offset[k] + term_size[k]]
    term_pools = [sorted(lexicon.terms[d]) for d in domains]
    term_size = np.array([len(pool) for pool in term_pools])
    term_offset = np.cumsum(term_size) - term_size
    tweet_vocab = [w for pool in term_pools for w in pool] + list(_FILLERS)
    sentiment = builtin_sentiment_lexicon()
    pos_words = sorted(t for t, p in sentiment.polarity.items() if p == 1)
    neg_words = sorted(t for t, p in sentiment.polarity.items() if p == -1)
    reply_vocab = pos_words + neg_words + list(_NEUTRAL_REPLY)
    # the other domains of domain k, by name, so a repeated name is never its own other
    others = [[j for j, d in enumerate(domains) if d != name] for name in domains]
    n_others = np.array([len(o) for o in others])
    others_table = np.array([o + [0] * (n_others.max() - len(o)) for o in others])

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    start = parse_timestamp(config.start)
    span_seconds = config.n_periods * config.period_days * 86400
    capture_at = format_timestamp(start + timedelta(seconds=span_seconds))
    n_users = config.n_users

    # floor with a tiny epsilon so 100 * 0.1 lands on 10, not 9
    n_influencers = max(1, int(n_users * config.influencer_fraction + 1e-9))
    is_influencer = np.zeros(n_users, dtype=bool)
    is_influencer[rng.choice(n_users, size=n_influencers, replace=False)] = True
    # planted influencers are influential in the target domain specifically
    primary = np.where(
        is_influencer, domains.index(target), rng.integers(0, len(domains), size=n_users)
    )

    levels = (config.ordinary, config.influencer)
    level_of = is_influencer.astype(np.intp)

    def per_user(name: str) -> np.ndarray:
        return np.array([getattr(level, name) for level in levels])[level_of]

    def draw_in(name: str, size=None) -> np.ndarray:
        lo, hi = per_user(name).T
        if size is not None:
            lo, hi = lo[:, None], hi[:, None]
        return rng.integers(lo, hi, size=size, endpoint=True)

    ages = draw_in("account_age_days")
    followers = draw_in("followers")
    friends = draw_in("friends")
    tweets_of = draw_in("tweets_per_period", size=(n_users, config.n_periods)).sum(axis=1)

    author, seq = _runs(tweets_of)
    n_tweets = author.size
    tweet_primary = primary[author]
    posted = rng.integers(0, span_seconds, size=n_tweets)
    if n_others.any():
        has_others = n_others[tweet_primary] > 0
        off = has_others & (rng.random(n_tweets) < config.off_domain_rate)
        blend = has_others & ~off & (rng.random(n_tweets) < config.blend_rate)
        pick = rng.integers(0, np.maximum(n_others[tweet_primary], 1))
        other = others_table[tweet_primary, pick]
    else:  # a single domain has no others to draw from
        off = blend = np.zeros(n_tweets, dtype=bool)
        other = tweet_primary
    replies_of = rng.poisson(per_user("replies_mean")[author])
    retweets = rng.poisson(per_user("retweets_mean")[author])
    favorites = rng.poisson(per_user("favorites_mean")[author])
    is_retweet = rng.random(n_tweets) < config.retweet_rate
    is_spanish = rng.random(n_tweets) < config.non_english_rate
    n_topic = rng.integers(4, 8, size=n_tweets)
    n_blend = np.where(blend, rng.integers(2, 4, size=n_tweets), 0)
    n_filler = rng.integers(1, 4, size=n_tweets)
    topic = np.where(off, other, tweet_primary)
    fillers = np.full(n_tweets, len(tweet_vocab) - len(_FILLERS))
    tweet_texts = _texts(
        rng,
        [
            (term_offset[topic], term_size[topic], n_topic),
            (term_offset[other], term_size[other], n_blend),
            (fillers, np.full(n_tweets, len(_FILLERS)), n_filler),
        ],
        tweet_vocab,
    )

    parent, reply_seq = _runs(replies_of)
    n_replies = parent.size
    parent_author = author[parent]
    reply_posted = np.minimum(
        posted[parent] + rng.integers(60, 3 * 86400, size=n_replies), span_seconds
    )
    reply_author = rng.integers(0, n_users - 1, size=n_replies)
    reply_author += reply_author >= parent_author  # never the parent's author
    positive = rng.random(n_replies) < per_user("positive_reply_rate")[parent_author]
    n_charged = rng.integers(2, 5, size=n_replies)
    n_neutral = rng.integers(1, 4, size=n_replies)
    charged = np.where(positive, 0, len(pos_words))
    n_pool = np.where(positive, len(pos_words), len(neg_words))
    neutral = np.full(n_replies, len(pos_words) + len(neg_words))
    reply_texts = _texts(
        rng,
        [
            (charged, n_pool, n_charged),
            (neutral, np.full(n_replies, len(_NEUTRAL_REPLY)), n_neutral),
        ],
        reply_vocab,
    )

    user_ids = [f"u{i:05d}" for i in range(n_users)]
    labels = {
        user_id: INFLUENCER if flag else NON_INFLUENCER
        for user_id, flag in zip(user_ids, is_influencer.tolist())
    }
    users = (
        user_ids,
        [f"user{user_id[1:]}" for user_id in user_ids],
        followers.tolist(),
        friends.tolist(),
        _stamps(start, ages * -86400),
    )
    authors = author.tolist()
    tweet_ids = [f"t{i:05d}-{k:04d}" for i, k in zip(authors, seq.tolist())]
    tweets = (
        tweet_ids,
        list(map(user_ids.__getitem__, authors)),
        _stamps(start, posted),
        tweet_texts,
        retweets.tolist(),
        favorites.tolist(),
        replies_of.tolist(),
        is_retweet.tolist(),
        ["es" if spanish else "en" for spanish in is_spanish.tolist()],
    )
    parent_ids = list(map(tweet_ids.__getitem__, parent.tolist()))
    replies = (
        [f"r{p[1:]}-{k:03d}" for p, k in zip(parent_ids, reply_seq.tolist())],
        parent_ids,
        list(map(user_ids.__getitem__, reply_author.tolist())),
        _stamps(start, reply_posted),
        reply_texts,
    )
    users, tweets, replies = (
        in_id_order(layout.name, drawn, range(len(drawn[0])))
        for layout, drawn in zip(KIND_LAYOUTS, (users, tweets, replies))
    )
    columns = DatasetColumns(*users, *tweets, *replies, capture_at, f"synthetic seed={seed}")
    return columns, GroundTruthLabels(domain=target, labels=labels)
