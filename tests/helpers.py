"""Shared builders and independent brute-force oracles.

The oracle functions recompute features and metrics with plain loops and
no shared code paths, so agreement with the package is meaningful.
"""

from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone

from domcred.annotate import AnnotatedReply, AnnotatedTweet, DomainAnnotation
from domcred.corpus.periods import PartitionReport
from domcred.corpus.types import Dataset, PeriodSlice, ReplyRecord, TweetRecord, UserProfile
from domcred.lexicon import tokenize

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
    is_retweet=False,
):
    return TweetRecord(
        tweet_id=tid,
        author_id=author,
        posted_at=ts(posted) if isinstance(posted, str) else posted,
        text=text,
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
    """AnnotatedTweet whose domains carry the given label -> score map."""
    merged = tuple(
        DomainAnnotation(label=label, score=score, confident=confident)
        for label, score in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    )
    return AnnotatedTweet(tweet_id=tweet_id, merged_domains=merged)


def annotated_reply(reply_id, sentiment):
    return AnnotatedReply(reply_id=reply_id, sentiment=sentiment)


# ---------------------------------------------------------------------------
# brute-force oracles


def _brute_timestamp(dt):
    """The strftime rendering; its year is four digits only from year 1000 on."""
    dt = dt.astimezone(UTC)
    if dt.microsecond:
        return dt.strftime("%Y-%m-%dT%H:%M:%S.%f") + "Z"
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def brute_dataset_lines(dataset):
    """Archive lines with one json.dumps call and one strftime call per record."""

    def dump(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)

    lines = [
        dump(
            {
                "kind": "dataset",
                "capture_at": _brute_timestamp(dataset.capture_at),
                "provenance": dataset.provenance,
            }
        )
    ]
    for u in dataset.users:
        body = {
            "user_id": u.user_id,
            "handle": u.handle,
            "followers_count": u.followers_count,
            "friends_count": u.friends_count,
            "created_at": _brute_timestamp(u.created_at),
        }
        lines.append(dump({"kind": "user", "body": body}))
    for t in dataset.tweets:
        body = {
            "tweet_id": t.tweet_id,
            "author_id": t.author_id,
            "posted_at": _brute_timestamp(t.posted_at),
            "text": t.text,
            "retweet_count": t.retweet_count,
            "favorite_count": t.favorite_count,
            "replies_count": t.replies_count,
            "is_retweet": t.is_retweet,
            "language": t.language,
        }
        lines.append(dump({"kind": "tweet", "body": body}))
    for r in dataset.replies:
        body = {
            "reply_id": r.reply_id,
            "parent_tweet_id": r.parent_tweet_id,
            "author_id": r.author_id,
            "posted_at": _brute_timestamp(r.posted_at),
            "text": r.text,
        }
        lines.append(dump({"kind": "reply", "body": body}))
    return lines


def brute_annotation_lines(tweets, replies):
    """Annotation lines with one json.dumps call per record."""

    def payload(domains):
        return [[d.label, d.score, d.confident] for d in domains]

    lines = []
    for t in tweets:
        record = {
            "kind": "tweet",
            "tweet_id": t.tweet_id,
            "merged_domains": payload(t.merged_domains),
        }
        lines.append(json.dumps(record, sort_keys=True))
    for r in replies:
        record = {"kind": "reply", "reply_id": r.reply_id, "sentiment": r.sentiment}
        lines.append(json.dumps(record, sort_keys=True))
    return lines


def brute_hit_counts(lexicon, text):
    """Token hits per domain with one pass over the tokens per domain."""
    tokens = tokenize(text)
    counts = {}
    for domain, vocabulary in lexicon.terms.items():
        hits = sum(1 for tok in tokens if tok in vocabulary)
        if hits:
            counts[domain] = hits
    return counts


def brute_sentiment_score(lexicon, text, gain=1.0):
    """Sentiment with the positive and the negative tokens counted in two passes."""
    tokens = tokenize(text)
    if not tokens:
        return 0.0
    pos = sum(1 for t in tokens if lexicon.polarity.get(t) == 1)
    neg = sum(1 for t in tokens if lexicon.polarity.get(t) == -1)
    raw = gain * (pos - neg) / len(tokens)
    return max(-1.0, min(1.0, raw))


def brute_weights(merged_domains):
    """Shares of the positive scores; a label whose share underflows to 0.0
    is dropped and the rest are renormalised over their own total."""
    positive = [(a.label, a.score) for a in merged_domains if a.score > 0]
    total = 0.0
    for _, score in positive:
        total += score
    if total <= 0:
        return {}
    kept = [(label, score) for label, score in positive if score / total > 0]
    total = 0.0
    for _, score in kept:
        total += score
    return {label: score / total for label, score in kept}


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


def brute_partition(dataset, start, n_periods, months_per_period):
    """Period slices and report by the per-slice rescan, one pass per period.

    The edges are ``start`` and then the first instant of every
    ``months_per_period``-th calendar month after it (UTC); each slice keeps
    the records whose posted_at falls in its half-open [start, end).
    """
    edges = [start]
    for i in range(1, n_periods + 1):
        month = start.month - 1 + i * months_per_period
        edges.append(datetime(start.year + month // 12, month % 12 + 1, 1, tzinfo=UTC))
    slices = []
    for i in range(n_periods):
        lo, hi = edges[i], edges[i + 1]
        slices.append(
            PeriodSlice(
                index=i + 1,
                start=lo,
                end=hi,
                tweet_ids=frozenset(t.tweet_id for t in dataset.tweets if lo <= t.posted_at < hi),
                reply_ids=frozenset(r.reply_id for r in dataset.replies if lo <= r.posted_at < hi),
            )
        )
    tweets_per = tuple(len(s.tweet_ids) for s in slices)
    replies_per = tuple(len(s.reply_ids) for s in slices)
    report = PartitionReport(
        n_periods=n_periods,
        empty_periods=sum(1 for a, b in zip(tweets_per, replies_per) if a == 0 and b == 0),
        tweets_per_period=tweets_per,
        replies_per_period=replies_per,
        out_of_range_tweets=len(dataset.tweets) - sum(tweets_per),
        out_of_range_replies=len(dataset.replies) - sum(replies_per),
    )
    return tuple(slices), report


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
        entry["followers_count"] = user.followers_count
        entry["friends_count"] = user.friends_count
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


def separating_threshold(a, b):
    """A threshold t with a <= t < b for neighbouring values a < b: the
    midpoint where it lies there, else a/2 + b/2, else a."""
    a, b = float(a), float(b)
    t = (a + b) / 2.0
    if not a <= t < b:
        t = a / 2.0 + b / 2.0
        if not a <= t < b:
            t = a
    return t


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
                best = (ratio, j, separating_threshold(xv[i], xv[i + 1]))
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
                best = (reduction, j, separating_threshold(xv[i], xv[i + 1]))
    return best


# The recursive grower that the presorted one replaced: every node sorts its
# own rows and copies them into its children, one node at a time.


def _reference_plogp(count, total):
    import numpy as np

    p = np.divide(count, total)
    return p * np.log2(p, out=np.zeros_like(p), where=count > 0)


def _reference_entropy(neg, pos):
    total = neg + pos
    return -(_reference_plogp(neg, total) + _reference_plogp(pos, total))


def _reference_sorted_columns(x, features):
    import numpy as np

    cols = x[:, features].T
    order = np.argsort(cols, axis=1, kind="stable")
    xv = np.take_along_axis(cols, order, axis=1)
    return order, xv, xv[:, :-1] != xv[:, 1:]


def _reference_first_best(score, xv, features):
    import numpy as np

    k, i = divmod(int(np.argmax(score)), score.shape[1])
    if score[k, i] == -np.inf:
        return None
    return score[k, i], features[k], separating_threshold(xv[k, i], xv[k, i + 1])


def reference_classification_split(x, y, features, eps_gain=1e-12):
    """Highest gain-ratio (score, feature, threshold) of one node."""
    import numpy as np

    n = len(y)
    if n < 2 or len(features) == 0:
        return None
    n_pos = float(np.sum(y == 1))
    n_neg = float(np.sum(y == 0))
    parent_entropy = float(_reference_entropy(n_neg, n_pos))
    order, xv, distinct = _reference_sorted_columns(x, features)
    left_pos = np.cumsum(y[order], axis=1)[:, :-1]
    nl = np.arange(1, n, dtype=float)
    left_neg = nl - left_pos
    pl, pr = nl / n, (n - nl) / n
    gain = (
        parent_entropy
        - pl * _reference_entropy(left_neg, left_pos)
        - pr * _reference_entropy(n_neg - left_neg, n_pos - left_pos)
    )
    split_info = -(pl * np.log2(pl) + pr * np.log2(pr))
    ratio = np.where(distinct & (gain > eps_gain), gain / split_info, -np.inf)
    return _reference_first_best(ratio, xv, features)


def reference_regression_split(x, y, features, eps_gain=1e-12):
    """Highest sum-of-squares reduction (score, feature, threshold) of one node."""
    import numpy as np

    n = len(y)
    if n < 2 or len(features) == 0:
        return None
    total_sum = float(y.sum())
    total_sq = float((y * y).sum())
    parent_sse = total_sq - total_sum * total_sum / n
    order, xv, distinct = _reference_sorted_columns(x, features)
    yo = y[order]
    ys = np.cumsum(yo, axis=1)[:, :-1]
    y2s = np.cumsum(yo * yo, axis=1)[:, :-1]
    nl = np.arange(1, n, dtype=float)
    nr = n - nl
    left_sse = y2s - np.float_power(ys, 2.0) / nl
    right_sse = (total_sq - y2s) - np.float_power(total_sum - ys, 2.0) / nr
    reduction = parent_sse - left_sse - right_sse
    reduction = np.where(distinct & (reduction > eps_gain), reduction, -np.inf)
    return _reference_first_best(reduction, xv, features)


def reference_class_leaf(y):
    import numpy as np

    from domcred.learn.tree import Node

    neg = int(np.sum(y == 0))
    pos = int(np.sum(y == 1))
    total = neg + pos
    return Node(n=total, value=pos / total if total else 0.5, counts=(neg, pos))


def reference_mean_leaf(y):
    from domcred.learn.tree import Node

    return Node(n=len(y), value=float(y.mean()) if len(y) else 0.0)


def reference_grow(
    x, y, max_depth, split, leaf, minimal_gain=0.0, rng=None, n_feature_subsample=None
):
    """Recursive splitting, left subtree first; the forest passes an rng to
    draw the candidate features of every node it tries to split."""
    import numpy as np

    if len(y) < 2 or max_depth == 0 or np.all(y == y[0]):
        return leaf(y)
    if rng is not None and n_feature_subsample is not None:
        features = np.sort(
            rng.choice(x.shape[1], size=min(n_feature_subsample, x.shape[1]), replace=False)
        )
    else:
        features = range(x.shape[1])
    best = split(x, y, features)
    if best is None or best[0] < minimal_gain:
        return leaf(y)
    _, feature, threshold = best
    mask = x[:, feature] <= threshold
    node = leaf(y)
    node.feature = int(feature)
    node.threshold = float(threshold)
    args = (max_depth - 1, split, leaf, minimal_gain, rng, n_feature_subsample)
    node.left = reference_grow(x[mask], y[mask], *args)
    node.right = reference_grow(x[~mask], y[~mask], *args)
    return node


def reference_prune(node, confidence):
    """Recursive bottom-up subtree replacement by pessimistic error."""
    from statistics import NormalDist

    from domcred.learn.tree import _pessimistic_errors

    z = NormalDist().inv_cdf(1.0 - confidence)

    def walk(nd):
        neg, pos = nd.counts
        leaf_errors = _pessimistic_errors(nd.n, min(neg, pos), z)
        if nd.is_leaf:
            return leaf_errors
        subtree_errors = walk(nd.left) + walk(nd.right)
        if leaf_errors <= subtree_errors + 1e-12:
            nd.feature = None
            nd.left = nd.right = None
            return leaf_errors
        return subtree_errors

    walk(node)
    return node


def reference_forest_roots(x, y, hyper, seed):
    """The member roots of a random forest, each member grown alone from a
    copied bootstrap sample."""
    import math

    import numpy as np

    setting = hyper["feature_subsample"]
    if setting is None:
        k = None
    elif setting == "sqrt":
        k = math.ceil(math.sqrt(x.shape[1]))
    else:
        k = min(int(setting), x.shape[1])
    roots = []
    for child_seed in np.random.SeedSequence(seed).spawn(int(hyper["n_trees"])):
        rng = np.random.default_rng(child_seed)
        if hyper["bootstrap"]:
            idx = rng.integers(0, len(y), size=len(y))
            bx, by = x[idx], y[idx]
        else:
            bx, by = x, y
        roots.append(reference_grow(
            bx, by, int(hyper["max_depth"]), reference_classification_split, reference_class_leaf,
            minimal_gain=float(hyper["minimal_gain"]), rng=rng, n_feature_subsample=k,
        ))
    return roots


def walk_tree(root, x):
    """Each row's leaf value, one row and one node at a time: the per-row
    descent that the vectorised ``Tree.predict`` replaced."""
    import numpy as np

    values = []
    for row in x:
        node = root
        while node.feature is not None:
            node = node.left if row[node.feature] <= node.threshold else node.right
        values.append(node.value)
    return np.array(values, dtype=float)


def _brute_net_forward(weights, biases, activation, z):
    """Output probabilities and per-layer caches, one array at a time."""
    import numpy as np

    a = z
    caches = []
    for w, b in zip(weights[:-1], biases[:-1]):
        if activation == "maxout":
            z1 = a @ w[0].T + b[0]
            z2 = a @ w[1].T + b[1]
            winner = z1 >= z2
            h = np.where(winner, z1, z2)
            caches.append((a, winner))
        elif activation == "rectifier":
            pre = a @ w.T + b
            h = np.maximum(pre, 0.0)
            caches.append((a, pre))
        else:
            pre = a @ w.T + b
            h = np.tanh(pre)
            caches.append((a, h))
        a = h
    out = (a @ weights[-1].T + biases[-1]).ravel()
    return 0.5 * (1.0 + np.tanh(0.5 * out)), caches, a


def _brute_net_loss_grads(weights, biases, activation, l1, l2, z, y):
    """Penalized quadratic loss and the per-array gradients, interleaved
    weight, bias per layer, output last."""
    import numpy as np

    p, caches, a_last = _brute_net_forward(weights, biases, activation, z)
    batch = len(y)
    penalty = 0.0
    for w in weights:
        penalty += l1 * float(np.abs(w).sum()) + 0.5 * l2 * float((w * w).sum())
    loss = float(np.sum((p - y) ** 2)) / (2.0 * batch) + penalty

    grads_w = [np.zeros_like(w) for w in weights]
    grads_b = [np.zeros_like(b) for b in biases]
    dout = (p - y) * p * (1.0 - p) / batch
    grads_w[-1] = dout[None, :] @ a_last
    grads_b[-1] = np.array([dout.sum()])
    delta = dout[:, None] @ weights[-1]
    for i in range(len(caches) - 1, -1, -1):
        if activation == "maxout":
            a_prev, winner = caches[i]
            dz1 = delta * winner
            dz2 = delta * ~winner
            grads_w[i] = np.stack([dz1.T @ a_prev, dz2.T @ a_prev])
            grads_b[i] = np.stack([dz1.sum(axis=0), dz2.sum(axis=0)])
            delta = dz1 @ weights[i][0] + dz2 @ weights[i][1]
        elif activation == "rectifier":
            a_prev, pre = caches[i]
            dpre = delta * (pre > 0)
            grads_w[i] = dpre.T @ a_prev
            grads_b[i] = dpre.sum(axis=0)
            delta = dpre @ weights[i]
        else:
            a_prev, h = caches[i]
            dpre = delta * (1.0 - h * h)
            grads_w[i] = dpre.T @ a_prev
            grads_b[i] = dpre.sum(axis=0)
            delta = dpre @ weights[i]
    for i, w in enumerate(weights):
        grads_w[i] = grads_w[i] + l1 * np.sign(w) + l2 * w
    grads = []
    for gw, gb in zip(grads_w, grads_b):
        grads.append(gw)
        grads.append(gb)
    return loss, grads


def brute_neural_fit(x, y, hyper, seed):
    """The network ``neural.fit`` trains, stepped one parameter array at a
    time: per array an ADADELTA (or fixed-rate) update, after a full loss
    and gradient evaluation of every minibatch.

    Returns (weights, biases, final_loss, predict_proba).
    """
    import numpy as np

    hidden = tuple(hyper["hidden"])
    activation = hyper["activation"]
    l1, l2 = float(hyper["l1"]), float(hyper["l2"])
    rho, eps = float(hyper["rho"]), float(hyper["epsilon"])
    rate = float(hyper["learning_rate"])
    batch_size = int(hyper["batch_size"])

    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    z = (x - mean) / std
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    weights, biases = [], []
    fan_in = x.shape[1]
    for units in hidden:
        limit = np.sqrt(6.0 / (fan_in + units))
        if activation == "maxout":
            weights.append(rng.uniform(-limit, limit, size=(2, units, fan_in)))
            biases.append(np.zeros((2, units)))
        else:
            weights.append(rng.uniform(-limit, limit, size=(units, fan_in)))
            biases.append(np.zeros(units))
        fan_in = units
    limit = np.sqrt(6.0 / (fan_in + 1))
    weights.append(rng.uniform(-limit, limit, size=(1, fan_in)))
    biases.append(np.zeros(1))

    params = []
    for w, b in zip(weights, biases):
        params.append(w)
        params.append(b)
    acc_grad = [np.zeros_like(p) for p in params]
    acc_step = [np.zeros_like(p) for p in params]

    def loss_grads(zb, yb):
        return _brute_net_loss_grads(weights, biases, activation, l1, l2, zb, yb)

    loss = loss_grads(z, y)[0]
    for _ in range(int(hyper["epochs"])):
        order = rng.permutation(len(y))
        for start in range(0, len(y), batch_size):
            idx = order[start : start + batch_size]
            _, grads = loss_grads(z[idx], y[idx])
            for i, (p, g) in enumerate(zip(params, grads)):
                if hyper["adaptive_rate"]:
                    acc_grad[i] = rho * acc_grad[i] + (1.0 - rho) * g * g
                    step = -np.sqrt(acc_step[i] + eps) / np.sqrt(acc_grad[i] + eps) * g
                    acc_step[i] = rho * acc_step[i] + (1.0 - rho) * step * step
                    p += step
                else:
                    p -= rate * g
        loss = loss_grads(z, y)[0]

    def predict_proba(x_new):
        return _brute_net_forward(weights, biases, activation, (x_new - mean) / std)[0]

    return weights, biases, loss, predict_proba


def _brute_sigmoid(eta):
    import numpy as np

    return 0.5 * (1.0 + np.tanh(0.5 * eta))


def _brute_binomial_nll(eta, y):
    import numpy as np

    return float(np.mean(np.logaddexp(0.0, eta) - y * eta))


def _brute_halving_step(b, delta, loss, objective, cap):
    """First of the steps 1, 1/2, ... (30 tries) not raising the loss by
    more than 1e-12, clipped to [-cap, cap]; else stay at b."""
    import numpy as np

    step = 1.0
    for _ in range(30):
        candidate = np.clip(b + step * delta, -cap, cap)
        new_loss = objective(candidate)
        if new_loss <= loss + 1e-12:
            return candidate, new_loss
        step /= 2.0
    return b, loss


def brute_irls(design, y, max_iter, tol, cap=30.0):
    """Newton / IRLS with step halving on the mean binomial loss, every
    coefficient clipped to [-cap, cap]: the unpenalized binomial solver as a
    loop of its own.

    Returns (coefficients, iterations, converged, final_loss); a fit that
    ends on the cap is not converged.
    """
    import numpy as np

    def solve(matrix, rhs):
        try:
            return np.linalg.solve(matrix + 1e-12 * np.eye(len(rhs)), rhs)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(matrix, rhs, rcond=None)[0]

    n, k = design.shape
    b = np.zeros(k)
    nll = _brute_binomial_nll(design @ b, y)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        eta = design @ b
        p = _brute_sigmoid(eta)
        w = np.maximum(p * (1.0 - p), 1e-10)
        grad = design.T @ (y - p) / n
        hessian = (design.T * w) @ design / n
        candidate, new_nll = _brute_halving_step(
            b, solve(hessian, grad), nll, lambda c: _brute_binomial_nll(design @ c, y), cap
        )
        shift = float(np.max(np.abs(candidate - b), initial=0.0))
        b, nll = candidate, new_nll
        if shift < tol:
            converged = True
            break
    capped = bool(np.any(np.abs(b) >= cap - 1e-12))
    return b, iterations, converged and not capped, nll


def brute_penalized(design, y, family, lam, alpha, max_iter, tol):
    """Proximal Newton around covariance-update coordinate descent, as a
    loop of its own: each outer step solves the penalized quadratic in the
    working response eta + (y - p)/w (the label itself for gaussian) for
    the new coefficients, warm-started at the current ones.

    Returns (coefficients, iterations, converged, final_loss).
    """
    import numpy as np

    n = len(y)
    l1, l2 = lam * alpha, lam * (1.0 - alpha)

    def objective(b):
        eta = design @ b
        if family == "binomial":
            loss = _brute_binomial_nll(eta, y)
        else:
            loss = 0.5 * float(np.mean((y - eta) ** 2))
        beta = b[1:]
        ridge, lasso = float(beta @ beta), float(np.abs(beta).sum())
        return loss + lam * ((1.0 - alpha) / 2.0 * ridge + alpha * lasso)

    def descend(gram, score, b):
        diag = np.diag(gram).tolist()
        grad = gram @ b - score
        for _ in range(1000):
            biggest = 0.0
            for j, g_jj in enumerate(diag):
                old = float(b[j])
                if j == 0:
                    new = old - float(grad[0]) / g_jj
                else:
                    rho = g_jj * old - float(grad[j])
                    if rho > l1:
                        shrunk = rho - l1
                    elif rho < -l1:
                        shrunk = rho + l1
                    else:
                        shrunk = 0.0
                    new = shrunk / (g_jj + l2) if g_jj + l2 > 0 else 0.0
                if new != old:
                    grad += gram[:, j] * (new - old)
                    b[j] = new
                    biggest = max(biggest, abs(new - old))
            if biggest < 1e-10:
                break
        return b

    b = np.zeros(design.shape[1])
    loss = objective(b)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if family == "binomial":
            eta = design @ b
            p = _brute_sigmoid(eta)
            w = np.maximum(p * (1.0 - p), 1e-10)
            target = eta + (y - p) / w
        else:
            w, target = np.ones(n), y
        weighted = design.T * w
        solution = descend(weighted @ design / n, weighted @ target / n, b.copy())
        trial, new_loss = _brute_halving_step(b, solution - b, loss, objective, np.inf)
        shift = float(np.max(np.abs(trial - b)))
        b, loss = trial, new_loss
        if shift < tol:
            converged = True
            break
    return b, iterations, converged, loss
