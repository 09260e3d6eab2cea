"""Timeline partitioning into consecutive calendar periods.

Slices align to UTC calendar boundaries (month by default, quarter or year
optionally), start at the configured range start or the month of the first
activity, and are half-open [start, end).  Without a configured count there
are just enough slices to reach the last record.  Records outside the range
land in no slice and are counted.  A period that would end after year 9999
is an error that names it.  Records are placed by their timestamps' canonical
text, never parsed: without its ``Z`` such a text compares as its instant does.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from datetime import MAXYEAR, datetime, timezone
from typing import Iterable, Sequence

from .types import DatasetColumns, PeriodSlice, format_timestamps, parse_timestamp

GRANULARITIES = ("month", "quarter", "year")
_MONTHS_PER = {"month": 1, "quarter": 3, "year": 12}


@dataclass(frozen=True)
class PeriodSpec:
    """K consecutive calendar periods starting at ``start`` (or first activity).

    ``n_periods=None`` takes the smallest K whose periods reach the last
    tweet or reply.
    """

    n_periods: int | None = None
    start: datetime | None = None
    granularity: str = "month"

    def __post_init__(self):
        if self.n_periods is not None and self.n_periods < 1:
            raise ValueError("n_periods must be >= 1")
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if self.start is not None and self.start.tzinfo is None:
            raise ValueError("start must be timezone-aware")


@dataclass(frozen=True)
class PartitionReport:
    n_periods: int
    empty_periods: int
    tweets_per_period: tuple[int, ...]
    replies_per_period: tuple[int, ...]
    out_of_range_tweets: int
    out_of_range_replies: int


def _floor_boundary(dt: datetime, granularity: str) -> datetime:
    if granularity == "year":
        return datetime(dt.year, 1, 1, tzinfo=timezone.utc)
    month = dt.month
    if granularity == "quarter":
        month = 3 * ((month - 1) // 3) + 1
    return datetime(dt.year, month, 1, tzinfo=timezone.utc)


def _period_end(first: datetime, index: int, step: int) -> datetime:
    """The end edge of period ``index``: the month boundary ``index * step``
    months after first's month; ValueError naming the period and the edge
    when that falls after year 9999."""
    year, month = divmod(first.year * 12 + first.month - 1 + index * step, 12)
    if year > MAXYEAR:
        raise ValueError(
            f"period {index} would end at {year}-{month + 1:02d}-01T00:00:00Z,"
            f" after year {MAXYEAR}, the last year a timestamp can hold"
        )
    return datetime(year, month + 1, 1, tzinfo=timezone.utc)


def slice_indices(slices: Sequence[PeriodSlice], stamps: Iterable[str]) -> list[int | None]:
    """The index of the slice whose [start, end) holds each canonical
    timestamp text, or None where none does, by one bisect over the slice
    starts; ValueError unless the slices are disjoint and in time order, as
    ``partition_periods`` makes them."""
    if any(a.end > b.start for a, b in zip(slices, slices[1:])):
        raise ValueError("slices must be disjoint and in time order")
    # each edge and stamp without its Z, so that text order is time order
    starts = [text[:-1] for text in format_timestamps(sl.start for sl in slices)]
    ends = [text[:-1] for text in format_timestamps(sl.end for sl in slices)]
    indices = [sl.index for sl in slices]
    placed = []
    append = placed.append
    for stamp in stamps:
        stamp = stamp[:-1]
        i = bisect_right(starts, stamp) - 1
        append(indices[i] if i >= 0 and stamp < ends[i] else None)
    return placed


def partition_periods(
    columns: DatasetColumns, spec: PeriodSpec
) -> tuple[tuple[PeriodSlice, ...], PartitionReport, tuple[list, list]]:
    """Slice the dataset timeline into consecutive periods (spec.n_periods, or
    just enough to reach the last record when that is None).

    Periods are indexed 1..K, disjoint and in time order, each ending where
    the next starts.  Every tweet and reply lies by its own posted_at in at
    most one slice (``slice_indices``); anything before the range start or
    at or after the range end is out of range.  The placement, the index of
    the slice that holds each tweet and each reply (None where none does),
    is made once: the report counts it, and it is returned as (tweets,
    replies) for ``accumulate_domain_features``.
    """
    stamps = [*columns.tweet_posted, *columns.reply_posted]
    # text order differs from time order only within one second, so the
    # least and greatest texts lie in the first and last records' months
    if spec.start is not None:
        first = spec.start.astimezone(timezone.utc)
    else:
        first = _floor_boundary(
            parse_timestamp(min(stamps, default=columns.capture_at)), spec.granularity
        )

    step = _MONTHS_PER[spec.granularity]
    n_periods = spec.n_periods
    if n_periods is None:
        # period K ends at the boundary step * K months after first's month
        last = parse_timestamp(max(stamps)) if stamps else first
        months = (last.year - first.year) * 12 + last.month - first.month
        n_periods = max(1, months // step + 1)
    edges = [first, *(_period_end(first, i, step) for i in range(1, n_periods + 1))]

    slices = tuple(PeriodSlice(i, edges[i - 1], edges[i]) for i in range(1, n_periods + 1))
    placement = (
        slice_indices(slices, columns.tweet_posted),
        slice_indices(slices, columns.reply_posted),
    )
    tweets_in, replies_in = map(Counter, placement)
    tweets_per = tuple(tweets_in[sl.index] for sl in slices)
    replies_per = tuple(replies_in[sl.index] for sl in slices)
    report = PartitionReport(
        n_periods=n_periods,
        empty_periods=sum(1 for a, b in zip(tweets_per, replies_per) if a == 0 and b == 0),
        tweets_per_period=tweets_per,
        replies_per_period=replies_per,
        out_of_range_tweets=len(columns.tweet_ids) - sum(tweets_per),
        out_of_range_replies=len(columns.reply_ids) - sum(replies_per),
    )
    return slices, report, placement
