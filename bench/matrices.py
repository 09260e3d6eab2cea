"""Labelled feature matrices for the classify workloads, drawn from a seed.

The classify workloads must keep their inputs when the program's generator
or feature code changes, so the matrices are drawn here, with numpy alone,
from a per-user model of the twelve feature columns:

- each user posts a number of tweets per period over four periods, and
  about one tweet in ten brings no engagement (non-English or a retweet);
- retweets, favorites and replies are Poisson totals over those tweets;
- a share ``w`` of the user's engagement falls in the target domain: high
  for users whose main domain is the target (every influencer and one
  ordinary user in four), low for the rest;
- each reply is positive with the level's rate and carries a mean
  sentiment magnitude between 0.3 and 0.7.

``PLANTED`` copies the program's default synthetic engagement levels, which
separate the classes.  ``OVERLAP`` moves the influencer level into the
ordinary range, so the classes overlap and the iterative solvers converge.
The rows are written in the program's matrix CSV format.
"""

from __future__ import annotations

import csv

import numpy as np

COLUMNS = (
    "domain_favorite_count",
    "domain_replies_count",
    "domain_retweet_count",
    "followers_count",
    "friends_count",
    "retweet_count",
    "favorite_count",
    "replies_count",
    "count_domain_pos",
    "count_domain_neg",
    "sum_domain_pos",
    "sum_domain_neg",
)
DOMAIN = "Technology and Computing"
INFLUENCER_FRACTION = 0.25
PERIODS = 4
ENGAGING_SHARE = 0.9
CHARGED_SHARE = 0.9

PLANTED = {
    "influencer": dict(followers=(8000, 20000), friends=(100, 900), tweets=(4, 9),
                       retweets=40.0, favorites=60.0, replies=6.0, positive=0.8),
    "ordinary": dict(followers=(50, 800), friends=(100, 1500), tweets=(1, 5),
                     retweets=1.5, favorites=2.5, replies=1.2, positive=0.45),
}
OVERLAP = {
    "influencer": dict(followers=(200, 2000), friends=(100, 1500), tweets=(1, 5),
                       retweets=2.2, favorites=3.4, replies=1.4, positive=0.52),
    "ordinary": PLANTED["ordinary"],
}
LEVELS = {"planted": PLANTED, "overlap": OVERLAP}


def draw_matrix(levels: dict, n_rows: int, seed: int):
    """Return (user_ids, x, labels) for ``n_rows`` users; deterministic in seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, n_rows]))
    n_inf = max(1, int(n_rows * INFLUENCER_FRACTION + 1e-9))
    influencer = np.zeros(n_rows, dtype=bool)
    influencer[rng.choice(n_rows, size=n_inf, replace=False)] = True
    x = np.zeros((n_rows, len(COLUMNS)))
    for i in range(n_rows):
        lv = levels["influencer" if influencer[i] else "ordinary"]
        lo, hi = lv["tweets"]
        tweets = int(rng.integers(lo, hi + 1, size=PERIODS).sum())
        engaging = int(rng.binomial(tweets, ENGAGING_SHARE))
        retweets = int(rng.poisson(engaging * lv["retweets"]))
        favorites = int(rng.poisson(engaging * lv["favorites"]))
        replies = int(rng.poisson(engaging * lv["replies"]))
        on_target = influencer[i] or rng.random() < 0.25
        w = rng.uniform(0.75, 0.95) if on_target else rng.uniform(0.0, 0.12)
        charged = int(rng.binomial(replies, CHARGED_SHARE))
        pos = int(rng.binomial(charged, lv["positive"]))
        followers = int(rng.integers(lv["followers"][0], lv["followers"][1] + 1))
        friends = int(rng.integers(lv["friends"][0], lv["friends"][1] + 1))
        x[i] = (
            favorites * w,
            replies * w,
            retweets * w,
            followers,
            friends,
            retweets,
            favorites,
            replies,
            pos * w,
            (charged - pos) * w,
            pos * w * rng.uniform(0.3, 0.7),
            -(charged - pos) * w * rng.uniform(0.3, 0.7),
        )
    user_ids = [f"u{i:05d}" for i in range(n_rows)]
    labels = ["Influencer" if f else "NonInfluencer" for f in influencer]
    return user_ids, x, labels


def write_matrix(path, user_ids, x, labels) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "domain", "period", *COLUMNS, "label"])
        for uid, row, label in zip(user_ids, x, labels):
            writer.writerow([uid, DOMAIN, 0, *(repr(float(v)) for v in row), label])
