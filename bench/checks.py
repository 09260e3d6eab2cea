"""Correctness checks on the CLI's output files, made apart from the program.

Nothing here imports domcred.  Each check reads the files a stage wrote and
either recomputes them with plain loops from that stage's inputs or tests a
property the method must have; a failed check raises CheckError.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

ALGORITHMS = (
    "naive_bayes",
    "logistic",
    "glm_elastic_net",
    "decision_tree",
    "random_forest",
    "gradient_boosted_trees",
    "neural_net",
)
TOKEN = re.compile(r"[a-z0-9']+")
TOP_DOMAINS = 3
RANKINGS = (
    ("normalized retweets (R')", "r", "max"),
    ("normalized favorites (L')", "l", "max"),
    ("normalized replies (P')", "p", "max"),
    ("normalized sentiment (S')", "s", "minmax"),
)


class CheckError(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_archive(path: Path) -> tuple[dict, dict, dict]:
    """Users, tweets and replies of an archive-lines file, keyed by id."""
    users, tweets, replies = {}, {}, {}
    for record in read_jsonl(path):
        body = record.get("body")
        if record["kind"] == "user":
            users[body["user_id"]] = body
        elif record["kind"] == "tweet":
            tweets[body["tweet_id"]] = body
        elif record["kind"] == "reply":
            replies[body["reply_id"]] = body
    return users, tweets, replies


# -- synth ------------------------------------------------------------------


def check_synth(work: Path, n_users: int) -> None:
    users, tweets, replies = read_archive(work / "synth_archive.jsonl")
    require(len(users) == n_users, f"synth wrote {len(users)} users, asked for {n_users}")
    labels = json.loads((work / "synth_labels.json").read_text(encoding="utf-8"))
    require(set(labels["labels"]) == set(users), "labels do not cover exactly the users")
    influencers = sum(1 for v in labels["labels"].values() if v == "Influencer")
    require(
        influencers == max(1, n_users // 4),
        f"{influencers} influencers, want max(1, floor({n_users} x 0.25))",
    )
    per_tweet = {tid: 0 for tid in tweets}
    for r in replies.values():
        require(r["parent_tweet_id"] in per_tweet, f"reply {r['reply_id']} has no parent")
        per_tweet[r["parent_tweet_id"]] += 1
    for tid, t in tweets.items():
        require(
            t["replies_count"] == per_tweet[tid],
            f"tweet {tid}: replies_count {t['replies_count']} but {per_tweet[tid]} replies",
        )


# -- ingest -----------------------------------------------------------------


def check_ingest(work: Path) -> None:
    a_users, a_tweets, a_replies = read_archive(work / "synth_archive.jsonl")
    users, tweets, replies = read_archive(work / "dataset.jsonl")
    require(set(users) == set(a_users), "ingest changed the user set")
    english = {tid for tid, t in a_tweets.items() if t.get("language") == "en"}
    require(set(tweets) == english, "ingest kept other tweets than the English ones")
    for tid, t in tweets.items():
        require(t["language"] == "en", f"tweet {tid} is not English")
        if t["is_retweet"]:
            engagement = (t["retweet_count"], t["favorite_count"], t["replies_count"])
            require(engagement == (0, 0, 0), f"retweet {tid} keeps engagement {engagement}")
    want = {
        rid
        for rid, r in a_replies.items()
        if r["parent_tweet_id"] in english
        and r["author_id"] != a_tweets[r["parent_tweet_id"]]["author_id"]
    }
    require(set(replies) == want, "ingest kept other replies than the cleanse rules allow")
    for rid, r in replies.items():
        require(
            r["author_id"] != tweets[r["parent_tweet_id"]]["author_id"],
            f"reply {rid} is by its parent tweet's author",
        )


# -- annotate ---------------------------------------------------------------


def read_lexicons(data_dir: Path) -> tuple[dict, dict]:
    """(domain -> term set, term -> +1/-1) from the two bundled .lex files."""
    domains: dict[str, set] = {}
    current = None
    for raw in (data_dir / "domains.lex").read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            current = line[1:-1].strip()
            domains.setdefault(current, set())
        else:
            domains[current].add(line.lower())
    polarity = {}
    for raw in (data_dir / "sentiment.lex").read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        term, value = line.split("\t")
        polarity[term.strip().lower()] = -1 if value.strip() == "-1" else 1
    return domains, polarity


def recount_sentiment(text: str, polarity: dict) -> float:
    tokens = TOKEN.findall(text.lower())
    if not tokens:
        return 0.0
    pos = sum(1 for t in tokens if polarity.get(t) == 1)
    neg = sum(1 for t in tokens if polarity.get(t) == -1)
    return max(-1.0, min(1.0, (pos - neg) / len(tokens)))


def recount_domains(text: str, domains: dict) -> list:
    tokens = TOKEN.findall(text.lower())
    hits = {}
    for d, terms in domains.items():
        n = sum(1 for t in tokens if t in terms)
        if n:
            hits[d] = n
    if not hits:
        return []
    best = max(hits.values())
    ranked = sorted(((d, n / best, n >= 2) for d, n in hits.items()), key=lambda e: (-e[1], e[0]))
    return [list(e) for e in ranked[:TOP_DOMAINS]]


def read_annotations(path: Path) -> tuple[dict, dict]:
    tweets, replies = {}, {}
    for record in read_jsonl(path):
        if record["kind"] == "tweet":
            tweets[record["tweet_id"]] = record
        elif record["kind"] == "reply":
            replies[record["reply_id"]] = record["sentiment"]
    return tweets, replies


def check_annotate(work: Path, data_dir: Path) -> None:
    domains, polarity = read_lexicons(data_dir)
    _, tweets, replies = read_archive(work / "dataset.jsonl")
    a_tweets, a_replies = read_annotations(work / "annotations.jsonl")
    require(set(a_replies) == set(replies), "annotations do not cover exactly the replies")
    require(set(a_tweets) == set(tweets), "annotations do not cover exactly the tweets")
    for rid, r in replies.items():
        want = recount_sentiment(r["text"], polarity)
        require(
            abs(a_replies[rid] - want) <= 1e-12,
            f"reply {rid}: sentiment {a_replies[rid]!r}, lexicon recount {want!r}",
        )
    for tid, t in tweets.items():
        want = recount_domains(t["text"], domains)
        got = a_tweets[tid]["merged_domains"]
        require(
            [e[0] for e in got] == [e[0] for e in want]
            and all(abs(g[1] - w[1]) <= 1e-12 and g[2] == w[2] for g, w in zip(got, want)),
            f"tweet {tid}: domains {got}, lexicon recount {want}",
        )


# -- features ---------------------------------------------------------------


def weights_of(merged: list) -> dict:
    scored = [(label, score) for label, score, _ in merged if score > 0]
    total = sum(s for _, s in scored)
    return {label: s / total for label, s in scored} if total > 0 else {}


def domain_cells(tweets: dict, replies: dict, weights: dict, sentiment: dict, domain: str, keep):
    """Per-user (r, l, p, sp, sn, count_pos, count_neg) in ``domain``.

    ``keep(record)`` selects the tweets and replies counted; records are
    visited in id order, the order the dataset file holds them in.
    """
    cells: dict[str, list] = {}
    for tid in sorted(tweets):
        t = tweets[tid]
        w = weights[tid].get(domain)
        if w is None or not keep(t):
            continue
        c = cells.setdefault(t["author_id"], [0.0] * 7)
        c[0] += t["retweet_count"] * w
        c[1] += t["favorite_count"] * w
        c[2] += t["replies_count"] * w
    for rid in sorted(replies):
        r = replies[rid]
        s = sentiment[rid]
        parent = tweets[r["parent_tweet_id"]]
        w = weights[parent["tweet_id"]].get(domain)
        if s == 0.0 or w is None or not keep(r):
            continue
        c = cells.setdefault(parent["author_id"], [0.0] * 7)
        if s > 0:
            c[3] += s * w
            c[5] += w
        else:
            c[4] += s * w
            c[6] += w
    return cells


def read_matrix(path: Path) -> tuple[list[str], list[list[float]], list[str]]:
    with path.open(encoding="utf-8", newline="") as fh:
        lines = list(csv.reader(fh))
    header = lines[0]
    require(header[-1] == "label" and len(header) == 16, f"unexpected header {header}")
    ids, rows, labels = [], [], []
    for cells in lines[1:]:
        ids.append(cells[0])
        rows.append([float(v) for v in cells[3:15]])
        labels.append(cells[15])
    return ids, rows, labels


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0)


def parse_period_report(path: Path) -> list[dict]:
    periods, section = [], None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("period "):
            m = re.match(r"period (\d+) \[(\S+) \.\. (\S+)\)$", line)
            require(m is not None, f"bad period header {line!r}")
            periods.append({"start": m.group(2), "end": m.group(3), "sections": {}, "idle": False})
        elif line.startswith("    "):
            rank, user, value = line.split()
            periods[-1]["sections"][section].append((int(rank.rstrip(".")), user, value))
        elif line.strip() == "(no activity)":
            periods[-1]["idle"] = True
        elif line.startswith("  "):
            section = line.strip().rstrip(":")
            periods[-1]["sections"][section] = []
    return periods


def normalize(values: dict, how: str) -> dict:
    if how == "max":
        top = max(values.values())
        return {k: (v / top if top > 0 else 0.0) for k, v in values.items()}
    lo, hi = min(values.values()), max(values.values())
    return {k: (1.0 if hi == lo else (v - lo) / (hi - lo)) for k, v in values.items()}


def check_features(work: Path, domain: str, n_periods: int, top_k: int) -> None:
    users, tweets, replies = read_archive(work / "dataset.jsonl")
    a_tweets, sentiment = read_annotations(work / "annotations.jsonl")
    weights = {tid: weights_of(a_tweets[tid]["merged_domains"]) for tid in tweets}
    labels = json.loads((work / "synth_labels.json").read_text(encoding="utf-8"))["labels"]

    cells = domain_cells(tweets, replies, weights, sentiment, domain, lambda rec: True)
    totals: dict[str, list] = {}
    for tid in sorted(tweets):
        t = tweets[tid]
        e = totals.setdefault(t["author_id"], [0, 0, 0])
        e[0] += t["retweet_count"]
        e[1] += t["favorite_count"]
        e[2] += t["replies_count"]
    want_ids = sorted(u for u in totals if u in labels)
    ids, rows, row_labels = read_matrix(work / "features.csv")
    require(ids == want_ids, "features.csv rows are not the active labelled users")
    require(row_labels == [labels[u] for u in ids], "features.csv labels differ from synth's")
    for uid, row in zip(ids, rows):
        r, l, p, sp, sn, cpos, cneg = cells.get(uid, [0.0] * 7)
        u, tot = users[uid], totals[uid]
        want = [l, p, r, u["followers_count"], u["friends_count"], *tot, cpos, cneg, sp, sn]
        for column, (got, expected) in enumerate(zip(row, want)):
            require(close(got, expected), f"features.csv {uid} column {column}: {got!r} != {expected!r}")

    report = json.loads((work / "features_report.json").read_text(encoding="utf-8"))
    require(report["periods"]["n_periods"] == n_periods, "wrong period count in the report")
    require(report["periods"]["out_of_range_tweets"] == 0, "tweets fall outside every period")

    periods = parse_period_report(work / "features_report.txt")
    require(len(periods) == n_periods, f"{len(periods)} periods in the report, want {n_periods}")
    for index, period in enumerate(periods, 1):
        def inside(rec, period=period):
            return period["start"] <= rec["posted_at"] < period["end"]

        period_cells = domain_cells(tweets, replies, weights, sentiment, domain, inside)
        require(period["idle"] == (not period_cells), f"period {index}: activity disagrees")
        if not period_cells:
            continue
        for title, key, how in RANKINGS:
            got = period["sections"].get(title)
            require(got is not None, f"period {index}: no {title} ranking")
            values = [float(v) for _, _, v in got]
            require(all(0.0 <= v <= 1.0 for v in values), f"period {index} {title}: outside [0, 1]")
            require(values == sorted(values, reverse=True), f"period {index} {title}: not sorted")
            raw = {}
            for uid, c in period_cells.items():
                r, l, p, sp, sn = c[:5]
                raw[uid] = {"r": r, "l": l, "p": p, "s": sp - abs(sn)}[key]
            if how == "minmax" or max(raw.values()) > 0:
                require(values[0] == 1.0, f"period {index} {title}: top is not 1.000")
            scaled = normalize(raw, how)
            ranked = sorted(scaled.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
            want = [(rank, uid, f"{v:.3f}") for rank, (uid, v) in enumerate(ranked, 1)]
            require(got == want, f"period {index} {title}: {got} != recount {want}")


# -- benchmark --------------------------------------------------------------

PLANTED_FLOORS = {a: 0.99 for a in ALGORITHMS} | {"naive_bayes": 0.95}


def check_benchmark(report: dict, n_rows: int, kind: str) -> None:
    """Identities every report obeys, plus the floors or agreements of ``kind``.

    ``kind`` is "planted" (criterion-07 accuracy floors), "overlap"
    (converged linear solvers that agree, every model above the majority
    rate) or "" (identities only).
    """
    require(report["n_train"] + report["n_test"] == n_rows, "split does not cover the rows")
    models = {m["algorithm"]: m for m in report["models"]}
    require(tuple(models) == ALGORITHMS, "report does not list the seven algorithms in order")
    n_test = report["n_test"]
    for name, m in models.items():
        if m["status"] != "trained":
            continue
        ct = m["confusion"]
        require(sum(ct.values()) == n_test, f"{name}: confusion sums to {sum(ct.values())}")
        accuracy = (ct["tp"] + ct["tn"]) / n_test
        got = m["metrics"]
        require(abs(got["accuracy"] - accuracy) <= 1e-12, f"{name}: accuracy disagrees")
        require(got["classification_error"] == 1.0 - got["accuracy"], f"{name}: error != 1 - accuracy")
        points = m["roc"]["points"]
        require(points[0] == [0.0, 0.0] and points[-1] == [1.0, 1.0], f"{name}: ROC endpoints")
        area = sum((x1 - x0) * (y0 + y1) / 2.0 for (x0, y0), (x1, y1) in zip(points, points[1:]))
        require(abs(m["roc"]["auc"] - area) <= 1e-12, f"{name}: AUC is not the trapezoid area")
        if kind == "planted":
            require(
                got["accuracy"] >= PLANTED_FLOORS[name],
                f"{name}: accuracy {got['accuracy']:.4f} below {PLANTED_FLOORS[name]}",
            )
    if kind == "overlap":
        for name in ("logistic", "glm_elastic_net"):
            require(models[name]["summary"]["converged"], f"{name} did not converge")
        require(
            models["logistic"]["confusion"] == models["glm_elastic_net"]["confusion"],
            "logistic and glm_elastic_net at lambda=0 disagree",
        )
        ct = models["logistic"]["confusion"]
        positives = ct["tp"] + ct["fn"]
        majority = max(positives, n_test - positives) / n_test
        for name, m in models.items():
            if m["status"] == "trained":
                require(
                    m["metrics"]["accuracy"] > majority,
                    f"{name}: accuracy {m['metrics']['accuracy']:.4f} not above majority {majority:.4f}",
                )
