"""Built-in numeric fixtures that exercise the published reference values.

Each fixture drives real package code with small frozen inputs and checks
the results against hand-verified numbers, so a change that breaks one of
the core formulas fails loudly here.  The CLI exposes these as `verify`.
"""

from __future__ import annotations

from datetime import timedelta
from typing import Callable, TextIO

from .annotate import AnnotationColumns, DomainAnnotation
from .corpus.types import DatasetColumns, parse_timestamp
from .evaluate import ConfusionTable, metrics
from .features import (
    UserDomainFeatures,
    accumulate_domain_features,
    compute_ffr,
    min_max,
    scale_by_max,
)


class FixtureFailure(Exception):
    """A fixture's result differs from its reference value."""


def _check(ok: bool, message: str) -> None:
    """Fail the fixture unless ok; unlike ``assert``, kept under ``python -O``."""
    if not ok:
        raise FixtureFailure(message)


def _check_engagement_distribution() -> str:
    # one tweet scored (1, 0.5, 0.5) with 10 retweets, 15 favorites and ten
    # replies of sentiment -1, through the accumulator the pipeline runs
    at = "2016-01-01T00:00:00Z"
    reply_ids = tuple(f"r{i}" for i in range(10))
    n = len(reply_ids)
    # user u; u's tweet t, with 10 retweets and 15 favorites; u's replies to t
    users = (("u",), ("u",), (0,), (0,), (at,))
    tweets = (("t",), ("u",), (at,), ("",), (10,), (15,), (0,), (False,), (None,))
    replies = (reply_ids, ("t",) * n, ("u",) * n, (at,) * n, ("",) * n)
    columns = DatasetColumns(*users, *tweets, *replies, capture_at="2016-01-02T00:00:00Z")
    scores = (("Sports", 1.0), ("Arts and Entertainment", 0.5), ("Education", 0.5))
    domains = tuple(DomainAnnotation(d, s) for d, s in scores)
    annotations = AnnotationColumns(("t",), (domains,), reply_ids, (-1.0,) * n)
    cells = accumulate_domain_features(columns, annotations)
    got = {domain: (c.r, c.l, c.sn) for (_, domain, _), c in cells.items()}
    expected = {
        "Sports": (5.0, 7.5, -5.0),
        "Arts and Entertainment": (2.5, 3.75, -2.5),
        "Education": (2.5, 3.75, -2.5),
    }
    _check(got == expected, f"pooled (r, l, sn) cells {got}")
    return "scores (1, 0.5, 0.5): 10 -> (5, 2.5, 2.5); 15 -> (7.5, 3.75, 3.75); -10 -> (-5, -2.5, -2.5)"


_RETWEET_ROWS = (
    ("chris_radcliff", 3831.0, 1.0),
    ("nfreader", 962.0, 0.251),
    ("nukeador", 627.0, 0.164),
    ("IvorCrotty", 604.0, 0.158),
    ("LocalJoost", 398.0, 0.104),
)

_REPLY_ROWS = (
    ("tigga7d6", 1908.0, 1.0),
    ("grahamgilbert", 992.0, 0.52),
    ("Xantiriad", 992.0, 0.52),
    ("Aurynn", 985.0, 0.516),
    ("markdrew", 917.0, 0.481),
)


def _check_scaling(rows, normalize) -> str:
    values = {handle: raw for handle, raw, _ in rows}
    scaled = normalize(values)
    for handle, _, expected in rows:
        got = round(scaled[handle], 3)
        _check(got == expected, f"{handle}: {got} != {expected}")
    return "; ".join(f"{raw:g} -> {expected:g}" for _, raw, expected in rows)


def _check_retweet_scaling() -> str:
    return _check_scaling(_RETWEET_ROWS, scale_by_max)


def _check_reply_scaling() -> str:
    return _check_scaling(_REPLY_ROWS, scale_by_max)


_SENTIMENT_ROWS = (
    ("scout2i", 75.198, -13.434, 61.764),
    ("agardnahh", 67.483, -9.570, 57.913),
    ("CodrutTurcanu", 60.068, -7.580, 52.488),
    ("johnjwall", 70.107, -21.318, 48.789),
    ("MLanghans410", 63.303, -16.022, 47.281),
)


def _check_sentiment_difference() -> str:
    for handle, sp, sn, expected in _SENTIMENT_ROWS:
        row = UserDomainFeatures(sp=sp, sn=sn)
        got = round(row.s, 3)
        _check(got == expected, f"{handle}: {got} != {expected}")
    return "; ".join(f"{sp:g} - {abs(sn):g} = {s:g}" for _, sp, sn, s in _SENTIMENT_ROWS)


_RATE_ROWS = (
    ("michaelfrisby", 4150, 29, 7.0, 1.0),
    ("roseandgrey", 4686, 733, 7.0, 0.972),
    ("brettdetar", 4037, 121, 7.0, 0.966),
    ("captdirectory", 4501, 660, 7.0, 0.953),
    ("kyriiii", 4852, 119, 9.0, 0.927),
)


def _check_follower_friend_rate() -> str:
    capture = parse_timestamp("2016-01-01T00:00:00Z")
    rates = {}
    for handle, followers, friends, age_years, _ in _RATE_ROWS:
        created = capture - timedelta(days=age_years * 365.25)
        rates[handle] = compute_ffr(followers, friends, created, capture)
    top = rates["michaelfrisby"]
    _check(round(top, 3) == 588.714, f"top rate {top}")

    # The published table normalizes against an unseen dataset minimum; the
    # non-top rows pin it, so recover it by least squares and check that it
    # reproduces every published normalized value.
    num = den = 0.0
    for handle, _, _, _, published in _RATE_ROWS[1:]:
        a = rates[handle] - published * top
        b = 1.0 - published
        num += a * b
        den += b * b
    floor = num / den
    _check(-280.0 < floor < -255.0, f"implied minimum {floor}")
    values = dict(rates)
    values["(dataset minimum)"] = floor
    scaled = min_max(values)
    for handle, _, _, _, published in _RATE_ROWS:
        got = round(scaled[handle], 3)
        _check(got == published, f"{handle}: {got} != {published}")
    return f"(4150 - 29) / 7 = 588.714; implied minimum {floor:.1f} reproduces all five scaled rates"


def _check_confusion_rates() -> str:
    report = metrics(ConfusionTable(tp=1114, fp=9, fn=0, tn=75))
    got = (
        round(report.accuracy * 100, 3),
        round(report.classification_error * 100, 3),
        round(report.precision * 100, 3),
        round(report.recall * 100, 3),
        round(report.f_score * 100, 3),
    )
    expected = (99.249, 0.751, 99.199, 100.0, 99.598)
    _check(got == expected, f"rates {got} != {expected}")
    _check(report.classification_error + report.accuracy == 1.0, "error + accuracy != 1")

    all_positive = metrics(ConfusionTable(tp=1113, fp=85, fn=0, tn=0))
    _check(all_positive.precision == all_positive.accuracy, "all-positive: precision != accuracy")
    _check(all_positive.recall == 1.0, "all-positive: recall != 100%")
    return "(1114, 9, 0, 75) -> 99.249/0.751/99.199/100.000/99.598%; all-positive table has precision = accuracy, recall 100%"


# name -> (description, check), in report order; a check returns its detail
# line or raises FixtureFailure
FIXTURES: dict[str, tuple[str, Callable[[], str]]] = {
    "engagement-distribution": (
        "a tweet's engagement splits across its domains in proportion to score",
        _check_engagement_distribution,
    ),
    "retweet-scaling": (
        "domain retweet masses scale by the domain maximum",
        _check_retweet_scaling,
    ),
    "reply-scaling": (
        "domain reply masses scale by the domain maximum",
        _check_reply_scaling,
    ),
    "sentiment-difference": (
        "the sentiment score is the positive sum minus the negative magnitude",
        _check_sentiment_difference,
    ),
    "follower-friend-rate": (
        "followers minus friends over account age, min-max scaled",
        _check_follower_friend_rate,
    ),
    "confusion-rates": (
        "accuracy, error, precision, recall, and F from a confusion table",
        _check_confusion_rates,
    ),
}


def report_fixtures(stream: TextIO, names=None) -> bool:
    """Run fixtures (all, or the named ones in registry order), print one
    PASS/FAIL line each, return overall success."""
    if names is not None:
        unknown = sorted(set(names) - set(FIXTURES))
        if unknown:
            raise ValueError(f"unknown fixtures: {unknown}")
    selected = [name for name in FIXTURES if names is None or name in names]
    passed = 0
    for name in selected:
        try:
            detail = FIXTURES[name][1]()
        except FixtureFailure as exc:
            status, detail = "FAIL", str(exc)
        else:
            status, passed = "PASS", passed + 1
        stream.write(f"{status} {name}: {detail}\n")
    stream.write(f"{passed}/{len(selected)} fixtures passed\n")
    return passed == len(selected)
