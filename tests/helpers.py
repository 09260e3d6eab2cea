"""Shared builders and independent brute-force oracles.

The oracle functions recompute features and metrics with plain loops and
no shared code paths, so agreement with the package is meaningful.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

from domcred.annotate import AnnotatedReply, AnnotatedTweet, DomainAnnotation
from domcred.corpus.types import Dataset, ReplyRecord, TweetRecord, UserProfile

UTC = timezone.utc


def ts(stamp: str) -> datetime:
    return datetime.fromisoformat(stamp.replace("Z", "+00:00"))


def make_user(uid, followers=10, friends=5, created="2020-01-01T00:00:00Z", handle=None):
    return UserProfile(
        user_id=uid,
        handle=handle or uid,
        followers_count=followers,
        friends_count=friends,
        created_at=ts(created) if isinstance(created, str) else created,
    )


def make_tweet(
    tid,
    author,
    posted="2024-02-01T00:00:00Z",
    text="python code software",
    retweets=0,
    favorites=0,
    replies=0,
    language="en",
    urls=(),
    is_retweet=False,
):
    return TweetRecord(
        tweet_id=tid,
        author_id=author,
        posted_at=ts(posted) if isinstance(posted, str) else posted,
        text=text,
        urls=tuple(urls),
        retweet_count=retweets,
        favorite_count=favorites,
        replies_count=replies,
        is_retweet=is_retweet,
        language=language,
    )


def make_reply(rid, parent, author, posted="2024-02-02T00:00:00Z", text="great work"):
    return ReplyRecord(
        reply_id=rid,
        parent_tweet_id=parent,
        author_id=author,
        posted_at=ts(posted) if isinstance(posted, str) else posted,
        text=text,
    )


def make_dataset(users, tweets=(), replies=(), capture="2025-01-01T00:00:00Z", provenance=""):
    return Dataset(
        users=tuple(users),
        tweets=tuple(tweets),
        replies=tuple(replies),
        capture_at=ts(capture) if isinstance(capture, str) else capture,
        provenance=provenance,
    )


def annotation(label, score, confident=False):
    return DomainAnnotation(label=label, score=score, confident=confident)


def annotated_tweet(tweet_id, scores, confident=False):
    """AnnotatedTweet whose merged domains carry the given label -> score map."""
    merged = tuple(
        DomainAnnotation(label=label, score=score, confident=confident)
        for label, score in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    )
    return AnnotatedTweet(
        tweet_id=tweet_id, text_domains=merged, url_domains=(), merged_domains=merged
    )


def annotated_reply(reply_id, sentiment):
    return AnnotatedReply(reply_id=reply_id, sentiment=sentiment)


# ---------------------------------------------------------------------------
# brute-force oracles


def brute_weights(merged_domains):
    total = 0.0
    for a in merged_domains:
        if a.score > 0:
            total += a.score
    if total <= 0:
        return {}
    return {a.label: a.score / total for a in merged_domains if a.score > 0}


def _in_interval(stamp, interval):
    if interval is None:
        return True
    start, end = interval
    return start <= stamp < end


def brute_domain_cells(dataset, annotated_tweets, annotated_replies, interval=None):
    """Per-(user, domain) engagement masses, recomputed with plain loops.

    ``interval`` is an optional (start, end) pair; membership is the
    half-open timestamp test on each record's own posted_at.
    """
    weights = {t.tweet_id: brute_weights(t.merged_domains) for t in annotated_tweets}
    sentiments = {r.reply_id: r.sentiment for r in annotated_replies}
    tweet_author = {t.tweet_id: t.author_id for t in dataset.tweets}

    cells = {}

    def cell(user, domain):
        key = (user, domain)
        if key not in cells:
            cells[key] = {
                "r": 0.0,
                "l": 0.0,
                "p": 0.0,
                "sp": 0.0,
                "sn": 0.0,
                "count_pos": 0.0,
                "count_neg": 0.0,
                "domain_tweet_count": 0,
            }
        return cells[key]

    for tweet in dataset.tweets:
        if not _in_interval(tweet.posted_at, interval):
            continue
        for domain, w in weights.get(tweet.tweet_id, {}).items():
            c = cell(tweet.author_id, domain)
            c["r"] += tweet.retweet_count * w
            c["l"] += tweet.favorite_count * w
            c["p"] += tweet.replies_count * w
            c["domain_tweet_count"] += 1

    for reply in dataset.replies:
        if not _in_interval(reply.posted_at, interval):
            continue
        parent_weights = weights.get(reply.parent_tweet_id, {})
        author = tweet_author.get(reply.parent_tweet_id)
        if author is None:
            continue
        value = sentiments.get(reply.reply_id, 0.0)
        for domain, w in parent_weights.items():
            c = cell(author, domain)
            if value > 0:
                c["sp"] += value * w
                c["count_pos"] += w
            elif value < 0:
                c["sn"] += value * w
                c["count_neg"] += w
    return cells


def brute_global(dataset, interval=None):
    """Per-active-user profile features and engagement totals."""
    out = {}
    for tweet in dataset.tweets:
        if not _in_interval(tweet.posted_at, interval):
            continue
        entry = out.setdefault(
            tweet.author_id,
            {"retweet_total": 0, "favorite_total": 0, "replies_total": 0},
        )
        entry["retweet_total"] += tweet.retweet_count
        entry["favorite_total"] += tweet.favorite_count
        entry["replies_total"] += tweet.replies_count
    for user in dataset.users:
        if user.user_id not in out:
            continue
        entry = out[user.user_id]
        days = (dataset.capture_at - user.created_at).total_seconds() / 86400.0
        age = max(days / 365.25, 1.0 / 365.25)
        diff = user.followers_count - user.friends_count
        entry["followers_count"] = user.followers_count
        entry["friends_count"] = user.friends_count
        entry["age_years"] = age
        entry["ff_r"] = (1.0 / age) if diff == 0 else diff / age
    return out


def brute_max_scale(values):
    peak = max(values.values(), default=0.0)
    if peak <= 0:
        return {k: 0.0 for k in values}
    return {k: v / peak for k, v in values.items()}


def brute_min_max(values):
    if not values:
        return {}
    lo = min(values.values())
    hi = max(values.values())
    if hi == lo:
        return {k: 1.0 for k in values}
    return {k: (v - lo) / (hi - lo) for k, v in values.items()}


def brute_wilcoxon_auc(scores, labels, positive="Influencer"):
    """Pairwise comparison AUC: P(score_pos > score_neg) + half ties."""
    pos = [s for s, lab in zip(scores, labels) if lab == positive]
    neg = [s for s, lab in zip(scores, labels) if lab != positive]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def random_micro_dataset(rng, max_users=5, max_tweets=20, max_domains=3):
    """Small random dataset plus direct annotations for oracle comparison."""
    n_users = int(rng.integers(1, max_users + 1))
    users = [
        make_user(
            f"u{i}",
            followers=int(rng.integers(0, 5000)),
            friends=int(rng.integers(0, 5000)),
            created=ts("2015-01-01T00:00:00Z") + timedelta(days=int(rng.integers(0, 3000))),
        )
        for i in range(n_users)
    ]
    domains = [f"dom{k}" for k in range(int(rng.integers(1, max_domains + 1)))]
    base = ts("2024-01-01T00:00:00Z")

    tweets = []
    annotations = []
    n_tweets = int(rng.integers(1, max_tweets + 1))
    for i in range(n_tweets):
        author = f"u{int(rng.integers(0, n_users))}"
        tweets.append(
            make_tweet(
                f"t{i:03d}",
                author,
                posted=base + timedelta(hours=int(rng.integers(0, 24 * 180))),
                retweets=int(rng.integers(0, 50)),
                favorites=int(rng.integers(0, 80)),
                replies=int(rng.integers(0, 30)),
            )
        )
        n_labels = int(rng.integers(0, len(domains) + 1))
        chosen = list(rng.choice(domains, size=n_labels, replace=False)) if n_labels else []
        scores = {d: float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0])) for d in chosen}
        annotations.append(annotated_tweet(f"t{i:03d}", scores))

    replies = []
    reply_notes = []
    n_replies = int(rng.integers(0, 31))
    for k in range(n_replies):
        parent = f"t{int(rng.integers(0, n_tweets)):03d}"
        replies.append(
            make_reply(
                f"r{k:03d}",
                parent,
                f"u{int(rng.integers(0, n_users))}",
                posted=base + timedelta(hours=int(rng.integers(0, 24 * 180))),
            )
        )
        reply_notes.append(
            annotated_reply(f"r{k:03d}", float(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0])))
        )

    dataset = make_dataset(users, tweets, replies, capture="2024-08-01T00:00:00Z")
    return dataset, tuple(annotations), tuple(reply_notes)


def blob_data(seed=0, n_per=30, n_features=4, gap=3.0):
    """Two well-separated Gaussian blobs; labels 0/1."""
    import numpy as np

    rng = np.random.default_rng(seed)
    neg = rng.normal(0.0, 1.0, size=(n_per, n_features))
    pos = rng.normal(gap, 1.0, size=(n_per, n_features))
    x = np.vstack([neg, pos])
    y = np.concatenate([np.zeros(n_per), np.ones(n_per)])
    order = rng.permutation(len(y))
    return x[order], y[order]


def _brute_entropy(counts):
    import numpy as np

    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def brute_classification_split(x, y, features, eps_gain=1e-12):
    """Best (gain ratio, feature, threshold), one candidate cut at a time.

    Features in the given order, thresholds ascending; a candidate replaces
    the best only when strictly greater.
    """
    import numpy as np

    n = len(y)
    parent_counts = np.array([np.sum(y == 0), np.sum(y == 1)], dtype=float)
    parent_entropy = _brute_entropy(parent_counts)
    best = None
    for j in features:
        order = np.argsort(x[:, j], kind="stable")
        xv = x[order, j]
        pos = np.cumsum(y[order])
        for i in range(n - 1):
            if xv[i] == xv[i + 1]:
                continue
            nl = i + 1
            nr = n - nl
            left = np.array([nl - pos[i], pos[i]], dtype=float)
            right = parent_counts - left
            gain = (
                parent_entropy
                - (nl / n) * _brute_entropy(left)
                - (nr / n) * _brute_entropy(right)
            )
            if gain <= eps_gain:
                continue
            pl, pr = nl / n, nr / n
            ratio = gain / -(pl * np.log2(pl) + pr * np.log2(pr))
            if best is None or ratio > best[0]:
                best = (ratio, j, (xv[i] + xv[i + 1]) / 2.0)
    return best


def brute_regression_split(x, y, eps_gain=1e-12):
    """Best (sum-of-squares reduction, feature, threshold), one cut at a time."""
    import numpy as np

    n = len(y)
    total_sum = float(y.sum())
    total_sq = float((y * y).sum())
    parent_sse = total_sq - total_sum * total_sum / n
    best = None
    for j in range(x.shape[1]):
        order = np.argsort(x[:, j], kind="stable")
        xv = x[order, j]
        ys = np.cumsum(y[order])
        y2s = np.cumsum(y[order] * y[order])
        for i in range(n - 1):
            if xv[i] == xv[i + 1]:
                continue
            nl = i + 1
            nr = n - nl
            left_sse = float(y2s[i]) - float(ys[i]) ** 2 / nl
            right_sum = total_sum - float(ys[i])
            right_sse = (total_sq - float(y2s[i])) - right_sum**2 / nr
            reduction = parent_sse - left_sse - right_sse
            if reduction <= eps_gain:
                continue
            if best is None or reduction > best[0]:
                best = (reduction, j, (xv[i] + xv[i + 1]) / 2.0)
    return best
