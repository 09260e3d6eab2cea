"""Domain-weighted credibility features, per user, per domain, per period.

Engagement on a tweet (retweets, favorites, replies, reply sentiment) is
split across the tweet's inferred domains in proportion to their annotation
scores, accumulated per (user, domain, period) cell in one pass over the
corpus (period ``POOLED`` is the whole timeline).  The 12-column matrix
feeds the classifiers; the per-period credibility tables rank the cells'
masses scaled by ``scale_by_max`` or ``min_max``, as ``RANKINGS`` says.

The module loads without numpy.  A ``FeatureMatrix`` holds plain rows, so
``assemble_matrix``, ``save_matrix`` and ``load_matrix`` build, write and
read one as Python values; only its ``x`` array imports numpy, on first use.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property
from itertools import compress
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .annotate import AnnotationColumns, DomainAnnotation
from .corpus.periods import slice_indices
from .corpus.types import LABELS, DatasetColumns, GroundTruthLabels, PeriodSlice

if TYPE_CHECKING:
    import numpy as np

FEATURE_COLUMNS = (
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

DAYS_PER_YEAR = 365.25
MIN_AGE_YEARS = 1.0 / DAYS_PER_YEAR

POOLED = 0  # period index for whole-timeline accumulation


def relativeness_weights(
    annotations: Iterable[DomainAnnotation],
) -> dict[str, float]:
    """Scores normalized to weights that sum to 1; {} when nothing to weight.

    A tweet scored (1, 0.5, 0.5) across three domains weighs them
    (0.5, 0.25, 0.25), so 10 retweets distribute as (5, 2.5, 2.5).

    The weights are a unit partition: every weight is > 0 and they sum to 1.
    A label is dropped when its score is 0, or when its share
    ``score / total`` underflows to 0.0 in float64 (a subnormal score next
    to normal ones); the remaining labels are renormalized over their own
    total.  Dropping cannot underflow another share, since the total only
    shrinks, so (1, 1, 5e-324) weighs as (0.5, 0.5).
    """
    scored = [(a.label, a.score) for a in annotations if a.score > 0]
    total = sum(s for _, s in scored)
    if total <= 0:
        return {}
    kept = [(label, score) for label, score in scored if score / total > 0]
    if len(kept) < len(scored):
        total = sum(s for _, s in kept)
    return {label: score / total for label, score in kept}


class UserDomainFeatures(NamedTuple):
    """Accumulated domain-attributed engagement for the (user, domain, period)
    cell that keys it; ``UserDomainFeatures()`` is a cell with nothing in it."""

    r: float = 0.0  # distributed retweet mass
    l: float = 0.0  # distributed favorite mass
    p: float = 0.0  # distributed reply mass
    sp: float = 0.0  # distributed positive sentiment sum
    sn: float = 0.0  # distributed negative sentiment sum, <= 0
    count_pos: float = 0.0  # distributed count of positive replies
    count_neg: float = 0.0  # distributed count of negative replies
    domain_tweet_count: int = 0

    @property
    def s(self) -> float:
        return self.sp - abs(self.sn)


class UserGlobalFeatures(NamedTuple):
    """Domain-independent features of the user that keys them: profile counts
    and engagement totals, in ``FEATURE_COLUMNS`` order."""

    followers_count: int
    friends_count: int
    retweet_total: int = 0
    favorite_total: int = 0
    replies_total: int = 0


def profile_age_years(created_at: datetime, capture_at: datetime) -> float:
    """Fractional account age in years at capture, floored at one day."""
    if created_at >= capture_at:
        raise ValueError("account created at or after capture_at")
    days = (capture_at - created_at).total_seconds() / 86400.0
    return max(days / DAYS_PER_YEAR, MIN_AGE_YEARS)


def compute_ffr(followers: int, friends: int, created_at: datetime, capture_at: datetime) -> float:
    """Followers-friends ratio over account age; 1/age on an exact tie."""
    age = profile_age_years(created_at, capture_at)
    diff = followers - friends
    if diff == 0:
        return 1.0 / age
    return diff / age


def accumulate_domain_features(
    columns: DatasetColumns,
    annotations: AnnotationColumns,
    placement: tuple[Sequence[int | None], Sequence[int | None]] | None = None,
) -> dict[tuple[str, str, int], UserDomainFeatures]:
    """Accumulate distributed engagement per (user, domain, period) in one pass.

    One pass over the tweets and one over the replies, in the dataset's id
    order.  The weights are computed once per distinct domain list, told
    apart by value: lists equal by value weigh alike, since a score that is
    an integer is 0 or 1 and converts to float exactly.  Each id column must
    be as long as its value column, and the placement's tweet and reply
    indices as the tweets and the replies (ValueError otherwise).  Every
    record adds its mass to the pooled cell ``(user, domain, POOLED)`` and,
    when the placement, as ``partition_periods`` returns it, puts it in a
    slice, to ``(user, domain, slice.index)``.  Each cell therefore sums the
    same records in the same order as a separate scan of its selection would.

    Tweets contribute their own engagement counts; replies contribute their
    sentiment to the parent tweet's author, split by the parent's weights.
    A reply belongs to a slice by its own timestamp, so late replies to an
    earlier tweet count in the period they were written.  Tweets with no
    usable annotation contribute nothing.
    """
    weights_of = {
        domains: relativeness_weights(domains)
        for domains in dict.fromkeys(annotations.merged_domains)
    }
    weights_by_tweet = dict(
        zip(
            annotations.tweet_ids,
            map(weights_of.__getitem__, annotations.merged_domains),
            strict=True,
        )
    )
    sentiment_by_reply = dict(zip(annotations.reply_ids, annotations.sentiments, strict=True))
    if placement is None:
        placement = ([None] * len(columns.tweet_ids), [None] * len(columns.reply_ids))
    tweets_in, replies_in = placement
    # a record's slice index (None when no slice holds it) picks its cells' periods
    periods_of = {i: (POOLED,) if i is None else (POOLED, i) for i in {*tweets_in, *replies_in}}
    if POOLED in periods_of:
        raise ValueError(f"slice index {POOLED} is reserved for the pooled cells")
    tweet_periods = map(periods_of.__getitem__, tweets_in)
    reply_periods = map(periods_of.__getitem__, replies_in)
    # the authors of the tweets that carry weights, for their replies' cells
    author_of: dict[str, str] = {}
    # a cell holds the UserDomainFeatures fields in order
    cells: dict[tuple[str, str, int], list] = {}
    cell = cells.get

    tweets = zip(tweet_periods, columns.tweet_engagement(), strict=True)
    for periods, (tweet_id, author, rt, fav, rep) in tweets:
        weights = weights_by_tweet.get(tweet_id)
        if not weights:
            continue
        author_of[tweet_id] = author
        for domain, w in weights.items():
            r, l, p = rt * w, fav * w, rep * w
            for period in periods:
                key = (author, domain, period)
                acc = cell(key)
                if acc is None:
                    acc = cells[key] = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0]
                acc[0] += r
                acc[1] += l
                acc[2] += p
                acc[7] += 1

    replies = zip(reply_periods, columns.reply_ids, columns.reply_parents, strict=True)
    for periods, reply_id, parent in replies:
        sentiment = sentiment_by_reply.get(reply_id, 0.0)
        if sentiment == 0.0:
            continue
        author = author_of.get(parent)
        if author is None:
            continue
        # positive replies fill sp and count_pos, the rest sn and count_neg
        total, count = (3, 5) if sentiment > 0 else (4, 6)
        for domain, w in weights_by_tweet[parent].items():
            s = sentiment * w
            for period in periods:
                key = (author, domain, period)
                acc = cell(key)
                if acc is None:
                    acc = cells[key] = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0]
                acc[total] += s
                acc[count] += w

    return {key: UserDomainFeatures._make(acc) for key, acc in sorted(cells.items())}


def compute_global_features(
    columns: DatasetColumns, period: PeriodSlice | None = None
) -> dict[str, UserGlobalFeatures]:
    """Profile features plus in-selection engagement totals, per active user.

    The selection is every tweet, or those posted in the period's [start,
    end); a user is active when they have at least one tweet in it.
    """
    totals: dict[str, list[int]] = {}
    engagement = columns.tweet_engagement()
    if period is not None:
        placed = slice_indices((period,), columns.tweet_posted)
        engagement = compress(engagement, (at is not None for at in placed))
    for _, author, rt, fav, rep in engagement:
        entry = totals.setdefault(author, [0, 0, 0])
        entry[0] += rt
        entry[1] += fav
        entry[2] += rep

    profiles = zip(columns.user_ids, columns.followers, columns.friends)
    return {
        user_id: UserGlobalFeatures(followers, friends, *totals[user_id])
        for user_id, followers, friends in profiles
        if user_id in totals
    }


def scale_by_max(values: Mapping[str, float]) -> dict[str, float]:
    """Each value over the maximum; a maximum of zero or less maps all to 0."""
    if not values:
        return {}
    top = max(values.values())
    if top <= 0:
        return {k: 0.0 for k in values}
    return {k: v / top for k, v in values.items()}


def min_max(values: Mapping[str, float]) -> dict[str, float]:
    """Each value's place between the minimum and the maximum; a constant
    column maps all to 1."""
    if not values:
        return {}
    lo, hi = min(values.values()), max(values.values())
    if hi == lo:
        return {k: 1.0 for k in values}
    return {k: (v - lo) / (hi - lo) for k, v in values.items()}


# the per-period credibility rankings: section title, the UserDomainFeatures
# measure ranked, and its scaling over the period's users in the domain
RANKINGS = (
    ("normalized retweets (R')", "r", scale_by_max),
    ("normalized favorites (L')", "l", scale_by_max),
    ("normalized replies (P')", "p", scale_by_max),
    ("normalized sentiment (S')", "s", min_max),
)


@dataclass(frozen=True)
class FeatureMatrix:
    """Rows of the 12 engineered columns for one domain and period selection,
    as plain numbers; ``x``, the ndarray the learners read, is built on first use."""

    domain: str
    period: int
    user_ids: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if len(self.rows) != len(self.user_ids):
            raise ValueError(f"matrix has {len(self.rows)} rows for {len(self.user_ids)} users")
        if any(len(row) != len(FEATURE_COLUMNS) for row in self.rows):
            raise ValueError(f"every matrix row must hold {len(FEATURE_COLUMNS)} cells")
        if self.labels is not None and len(self.labels) != len(self.user_ids):
            raise ValueError("labels length does not match rows")

    @cached_property
    def x(self) -> np.ndarray:
        """The rows as a read-only (n_rows, 12) float array."""
        import numpy as np

        x = np.array(self.rows, dtype=float).reshape(self.n_rows, len(FEATURE_COLUMNS))
        x.flags.writeable = False
        return x

    @property
    def n_rows(self) -> int:
        return len(self.user_ids)

    def column(self, name: str) -> np.ndarray:
        return self.x[:, FEATURE_COLUMNS.index(name)]


# the columns of a matrix file before the optional label column
_HEADER = ("user_id", "domain", "period", *FEATURE_COLUMNS)


def assemble_matrix(
    domain: str,
    period: int,
    domain_features: Mapping[tuple[str, str, int], UserDomainFeatures],
    global_features: Mapping[str, UserGlobalFeatures],
    labels: GroundTruthLabels | None = None,
) -> FeatureMatrix:
    """The matrix for one domain from the ``(user, domain, period)`` cells;
    ``period`` picks the pooled cells (``POOLED``) or one slice's.

    Every selection-active user (one with global features) gets a row; a
    user with no cell in the domain reads as ``UserDomainFeatures()``, zeros
    in the domain columns.  With labels the rows are restricted to labeled users and carry
    their labels; without, all active users appear unlabeled.
    """
    user_ids = sorted(global_features)
    if labels is not None:
        user_ids = [u for u in user_ids if u in labels.labels]
    if not user_ids:
        raise ValueError(f"no users to assemble for domain {domain!r}")

    empty = UserDomainFeatures()
    rows = []
    for user_id in user_ids:
        d = domain_features.get((user_id, domain, period), empty)
        g = global_features[user_id]
        rows.append((d.l, d.p, d.r, *g, d.count_pos, d.count_neg, d.sp, d.sn))
    return FeatureMatrix(
        domain=domain,
        period=period,
        user_ids=tuple(user_ids),
        rows=tuple(rows),
        labels=tuple(labels.labels[u] for u in user_ids) if labels is not None else None,
    )


def save_matrix(matrix: FeatureMatrix, path: str | Path) -> None:
    """Write the matrix as CSV: user_id, domain, period, the 12 columns and,
    when the matrix is labeled, label."""
    labels = matrix.labels
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*_HEADER, "label"] if labels is not None else _HEADER)
        for i, (user_id, values) in enumerate(zip(matrix.user_ids, matrix.rows)):
            row = [user_id, matrix.domain, matrix.period]
            row += [repr(float(v)) for v in values]
            if labels is not None:
                row.append(labels[i])
            writer.writerow(row)


def load_matrix(path: str | Path) -> FeatureMatrix:
    """Read a matrix written by save_matrix; values round-trip exactly.

    The header must be save_matrix's: user_id, domain, period and the 12
    columns in order, then optionally label.  A file with any other column
    is rejected rather than read without it.  Every row must share one
    (domain, period): a stacked file holding several is rejected rather than
    read as the last row's selection.  Every feature cell must be finite and
    every label one of ``LABELS``, and a file with no data rows is rejected.
    """
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header not in (list(_HEADER), [*_HEADER, "label"]):
            extra = [c for c in header if c not in _HEADER and c != "label"]
            raise ValueError(
                f"{path}: unexpected header (extra columns: {', '.join(extra) or 'none'});"
                f" a matrix has the columns {','.join(_HEADER)}, then optionally label"
            )
        labeled = header[-1] == "label"
        user_ids, rows, labels = [], [], []
        selection = None
        for n, row in enumerate(reader, 1):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: data row {n} has {len(row)} cells"
                    f" but the header has {len(header)}"
                )
            try:
                key = (row[1], int(row[2]))
                values = tuple(float(v) for v in row[3 : 3 + len(FEATURE_COLUMNS)])
            except ValueError as exc:
                raise ValueError(f"{path}: data row {n}: {exc}") from exc
            for name, v in zip(FEATURE_COLUMNS, values):
                if not math.isfinite(v):
                    raise ValueError(
                        f"{path}: data row {n}: {name} is {v!r},"
                        " not a finite number"
                    )
            selection = selection or key
            if key != selection:
                raise ValueError(
                    f"{path}: data row {n} has (domain, period) {key!r}"
                    f" but row 1 has {selection!r}; a matrix holds one of each"
                )
            user_ids.append(row[0])
            rows.append(values)
            if labeled:
                if row[-1] not in LABELS:
                    raise ValueError(
                        f"{path}: data row {n}: unknown label {row[-1]!r};"
                        f" labels are {' or '.join(LABELS)}"
                    )
                labels.append(row[-1])
    if selection is None:
        raise ValueError(f"{path}: no data rows")
    domain, period = selection
    return FeatureMatrix(
        domain=domain,
        period=period,
        user_ids=tuple(user_ids),
        rows=tuple(rows),
        labels=tuple(labels) if labeled else None,
    )
