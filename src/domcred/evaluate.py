"""Train/test splitting, confusion metrics, ROC curves, and the model benchmark.

The benchmark evaluates the seven classifiers on one shared split and
reports accuracy, classification error, precision, recall, and F-measure
for each, plus the confusion table and ROC curve.  Wall-clock timings are
kept out of the serialized report so reruns compare byte for byte; they
are exposed separately for a sidecar file.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .corpus.types import INFLUENCER, LABELS
from .features import FEATURE_COLUMNS, FeatureMatrix
from .learn import ALGORITHMS, ModelSpec, TrainingSummary, train
from .learn.base import encode_labels


@dataclass(frozen=True)
class SplitSpec:
    """How to divide labeled rows into train and test parts."""

    train_fraction: float = 0.6
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")

    def to_dict(self) -> dict:
        return {
            "train_fraction": self.train_fraction,
            "seed": self.seed,
            "stratified": self.stratified,
        }


def _train_count(n: int, fraction: float) -> int:
    # the epsilon absorbs float dust so 10 rows at 0.6 yield exactly 6
    return int(n * fraction + 1e-9)


def split_indices(labels, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic train/test row indices, stratified by default.

    Stratification keeps the class ratio within one row per class and
    guarantees every class appears on both sides, or fails when the data
    is too small for that.
    """
    labels = list(labels)
    n = len(labels)
    k = _train_count(n, spec.train_fraction)
    if not 1 <= k <= n - 1:
        raise ValueError(f"cannot split {n} rows at fraction {spec.train_fraction}")
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))

    if not spec.stratified:
        perm = rng.permutation(n)
        return np.sort(perm[:k]), np.sort(perm[k:])

    classes = sorted(set(labels))
    if len(classes) < 2:
        raise ValueError("stratified split needs both classes present")
    by_class = {c: [i for i, lab in enumerate(labels) if lab == c] for c in classes}
    if any(len(rows) < 2 for rows in by_class.values()):
        raise ValueError("too few rows per class to stratify")

    takes = {}
    remainders = {}
    for c in classes:
        exact = len(by_class[c]) * spec.train_fraction
        takes[c] = int(exact + 1e-9)
        remainders[c] = exact - takes[c]
    seats = k - sum(takes.values())
    order = sorted(classes, key=lambda c: (-remainders[c], -len(by_class[c]), c))
    for c in order:
        if seats <= 0:
            break
        if takes[c] <= len(by_class[c]) - 2:
            takes[c] += 1
            seats -= 1
    # every class must land on both sides of the split
    for c in classes:
        if takes[c] == 0:
            donors = [d for d in order if takes[d] > 1]
            if not donors:
                raise ValueError("too few rows per class to stratify")
            takes[donors[0]] -= 1
            takes[c] = 1
    if any(not 1 <= takes[c] <= len(by_class[c]) - 1 for c in classes):
        raise ValueError("too few rows per class to stratify")

    train_idx = []
    test_idx = []
    for c in classes:
        rows = np.array(by_class[c])
        perm = rng.permutation(len(rows))
        train_idx.extend(rows[perm[: takes[c]]])
        test_idx.extend(rows[perm[takes[c] :]])
    return np.sort(np.array(train_idx)), np.sort(np.array(test_idx))


def _subset(matrix: FeatureMatrix, idx: np.ndarray) -> FeatureMatrix:
    return FeatureMatrix(
        domain=matrix.domain,
        period=matrix.period,
        user_ids=tuple(matrix.user_ids[i] for i in idx),
        x=matrix.x[idx],
        labels=tuple(matrix.labels[i] for i in idx),
    )


def split(matrix: FeatureMatrix, spec: SplitSpec) -> tuple[FeatureMatrix, FeatureMatrix]:
    """One labeled matrix in, disjoint exhaustive (train, test) out."""
    if matrix.labels is None:
        raise ValueError("matrix has no labels to split on")
    train_idx, test_idx = split_indices(matrix.labels, spec)
    return _subset(matrix, train_idx), _subset(matrix, test_idx)


@dataclass(frozen=True)
class ConfusionTable:
    """Counts of the four prediction outcomes; Influencer is positive."""

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def to_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn}

    @classmethod
    def from_dict(cls, d: dict) -> "ConfusionTable":
        return cls(tp=d["tp"], fp=d["fp"], fn=d["fn"], tn=d["tn"])


def confusion(predictions, labels) -> ConfusionTable:
    predictions = list(predictions)
    labels = list(labels)
    if len(predictions) != len(labels):
        raise ValueError("predictions and labels differ in length")
    for value in predictions + labels:
        if value not in LABELS:
            raise ValueError(f"unknown class {value!r}")
    tp = fp = fn = tn = 0
    for pred, lab in zip(predictions, labels):
        if pred == INFLUENCER:
            if lab == INFLUENCER:
                tp += 1
            else:
                fp += 1
        elif lab == INFLUENCER:
            fn += 1
        else:
            tn += 1
    return ConfusionTable(tp=tp, fp=fp, fn=fn, tn=tn)


@dataclass(frozen=True)
class MetricsReport:
    """The five confusion-derived rates, all in [0, 1]."""

    classification_error: float
    accuracy: float
    precision: float
    recall: float
    f_score: float
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "classification_error": self.classification_error,
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f_score": self.f_score,
            "warnings": list(self.warnings),
        }


def metrics(ct: ConfusionTable) -> MetricsReport:
    """Accuracy, error, precision, recall, and F-score from one table.

    Zero denominators define the rate as 0 and record a warning; the error
    is computed as 1 - accuracy so the pair always sums to exactly 1.
    """
    if ct.total == 0:
        raise ValueError("empty confusion table")
    warnings = []
    accuracy = (ct.tp + ct.tn) / ct.total
    error = 1.0 - accuracy
    if ct.tp + ct.fp == 0:
        precision = 0.0
        warnings.append("no positive predictions: precision defined as 0")
    else:
        precision = ct.tp / (ct.tp + ct.fp)
    if ct.tp + ct.fn == 0:
        recall = 0.0
        warnings.append("no positive labels: recall defined as 0")
    else:
        recall = ct.tp / (ct.tp + ct.fn)
    if precision + recall == 0.0:
        f_score = 0.0
    else:
        f_score = 2.0 * precision * recall / (precision + recall)
    return MetricsReport(
        classification_error=error,
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f_score=f_score,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class RocCurve:
    """Threshold-sweep operating points plus the trapezoid area."""

    points: tuple[tuple[float, float], ...]
    auc: float

    def __post_init__(self):
        if not self.points or self.points[0] != (0.0, 0.0) or self.points[-1] != (1.0, 1.0):
            raise ValueError("curve must run from (0,0) to (1,1)")
        for (x0, y0), (x1, y1) in zip(self.points, self.points[1:]):
            if x1 < x0 or y1 < y0:
                raise ValueError("curve coordinates must be non-decreasing")
        if not 0.0 <= self.auc <= 1.0:
            raise ValueError("auc out of range")

    def to_dict(self) -> dict:
        return {"points": [list(p) for p in self.points], "auc": self.auc}


def roc(scores, labels) -> RocCurve:
    """Sweep thresholds over the distinct scores, grouping ties.

    Equal scores move together, so the curve does not depend on how ties
    happen to be ordered.
    """
    scores = np.asarray(scores, dtype=float).reshape(-1)
    labels = list(labels)
    if len(scores) != len(labels):
        raise ValueError("scores and labels differ in length")
    if not np.all(np.isfinite(scores)):
        raise ValueError("non-finite scores")
    positive = np.array([lab == INFLUENCER for lab in labels])
    n_pos = int(positive.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc needs at least one positive and one negative label")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = positive[order]
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    n = len(scores)
    while i < n:
        j = i
        while j < n and sorted_scores[j] == sorted_scores[i]:
            j += 1
        gained = int(sorted_pos[i:j].sum())
        tp += gained
        fp += (j - i) - gained
        points.append((fp / n_neg, tp / n_pos))
        i = j

    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return RocCurve(points=tuple(points), auc=min(1.0, max(0.0, auc)))


@dataclass(frozen=True)
class CorrelationWeights:
    """|Pearson r| of each feature against the 0/1 label, sorted descending."""

    weights: tuple[tuple[str, float], ...]

    def __post_init__(self):
        for name, value in self.weights:
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"weight for {name} out of [0, 1]")

    def as_dict(self) -> dict:
        return dict(self.weights)

    def to_dict(self) -> dict:
        return {"weights": [[name, value] for name, value in self.weights]}


def correlation_weights(matrix: FeatureMatrix) -> CorrelationWeights:
    if matrix.labels is None:
        raise ValueError("matrix has no labels")
    if matrix.n_rows < 2:
        raise ValueError("need at least 2 rows")
    y = encode_labels(matrix.labels)
    yc = y - y.mean()
    y_ss = float(yc @ yc)
    pairs = []
    for j, name in enumerate(FEATURE_COLUMNS):
        xc = matrix.x[:, j] - matrix.x[:, j].mean()
        denom = math.sqrt(float(xc @ xc) * y_ss)
        if denom == 0.0:
            value = 0.0
        else:
            value = min(1.0, abs(float(xc @ yc) / denom))
        pairs.append((name, value))
    pairs.sort(key=lambda kv: (-kv[1], kv[0]))
    return CorrelationWeights(weights=tuple(pairs))


@dataclass(frozen=True)
class BenchmarkEntry:
    """One algorithm's result: either trained with metrics, or skipped."""

    algorithm: str
    status: str
    reason: str = ""
    metrics: MetricsReport | None = None
    confusion: ConfusionTable | None = None
    roc: RocCurve | None = None
    summary: TrainingSummary | None = None
    wall_time_seconds: float = 0.0

    def to_dict(self) -> dict:
        # wall time deliberately omitted: reruns must serialize identically
        return {
            "algorithm": self.algorithm,
            "status": self.status,
            "reason": self.reason,
            "metrics": None if self.metrics is None else self.metrics.to_dict(),
            "confusion": None if self.confusion is None else self.confusion.to_dict(),
            "roc": None if self.roc is None else self.roc.to_dict(),
            "summary": None if self.summary is None else self.summary.to_dict(),
        }


@dataclass(frozen=True)
class BenchmarkReport:
    entries: tuple[BenchmarkEntry, ...]
    split_spec: SplitSpec
    fingerprint: str
    n_train: int
    n_test: int

    def __post_init__(self):
        if tuple(e.algorithm for e in self.entries) != ALGORITHMS:
            raise ValueError("report must cover all algorithms in fixed order")

    def entry(self, algorithm: str) -> BenchmarkEntry:
        return self.entries[ALGORITHMS.index(algorithm)]

    def timings(self) -> dict:
        return {e.algorithm: e.wall_time_seconds for e in self.entries}

    def to_dict(self) -> dict:
        return {
            "split": self.split_spec.to_dict(),
            "fingerprint": self.fingerprint,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "models": [e.to_dict() for e in self.entries],
        }


def matrix_fingerprint(matrix: FeatureMatrix) -> str:
    digest = hashlib.sha256()
    digest.update(matrix.domain.encode())
    digest.update(str(matrix.period).encode())
    digest.update("\x1f".join(matrix.user_ids).encode())
    if matrix.labels is not None:
        digest.update("\x1f".join(matrix.labels).encode())
    digest.update(str(matrix.x.shape).encode())
    digest.update(np.ascontiguousarray(matrix.x, dtype=float).tobytes())
    return digest.hexdigest()


def default_specs(seed: int) -> tuple[ModelSpec, ...]:
    """Default hyperparameters, one spec per algorithm, seeds derived."""
    children = np.random.SeedSequence(seed).spawn(len(ALGORITHMS))
    return tuple(
        ModelSpec(algorithm=a, seed=int(child.generate_state(1)[0]))
        for a, child in zip(ALGORITHMS, children)
    )


def _evaluate_one(spec: ModelSpec, train_m: FeatureMatrix, test_m: FeatureMatrix) -> BenchmarkEntry:
    started = time.perf_counter()
    try:
        model = train(spec, train_m)
        proba = model.predict_proba(test_m.x)
        predictions = model.classify(test_m.x)
        ct = confusion(predictions, test_m.labels)
        report = metrics(ct)
        curve = roc(proba, test_m.labels)
    except Exception as exc:
        return BenchmarkEntry(
            algorithm=spec.algorithm,
            status="skipped",
            reason=f"{type(exc).__name__}: {exc}",
            wall_time_seconds=time.perf_counter() - started,
        )
    return BenchmarkEntry(
        algorithm=spec.algorithm,
        status="trained",
        metrics=report,
        confusion=ct,
        roc=curve,
        summary=model.summary,
        wall_time_seconds=time.perf_counter() - started,
    )


def benchmark(
    matrix: FeatureMatrix,
    split_spec: SplitSpec,
    specs=None,
) -> BenchmarkReport:
    """Evaluate all seven algorithms on one shared train/test split.

    A model failure becomes a skipped entry with the reason recorded; the
    suite itself never aborts.
    """
    if matrix.labels is None:
        raise ValueError("benchmark needs a labeled matrix")
    if specs is None:
        specs = default_specs(split_spec.seed)
    by_algorithm = {s.algorithm: s for s in specs}
    if len(by_algorithm) != len(specs) or set(by_algorithm) != set(ALGORITHMS):
        raise ValueError("need exactly one spec per algorithm")
    ordered = tuple(by_algorithm[a] for a in ALGORITHMS)

    train_m, test_m = split(matrix, split_spec)
    entries = tuple(_evaluate_one(s, train_m, test_m) for s in ordered)

    return BenchmarkReport(
        entries=entries,
        split_spec=split_spec,
        fingerprint=matrix_fingerprint(matrix),
        n_train=train_m.n_rows,
        n_test=test_m.n_rows,
    )


def format_percent(value: float) -> str:
    return f"{value * 100:.3f}%"


def render_table(report: BenchmarkReport) -> str:
    """Flat text table: one row per algorithm, percent metrics to 3 decimals."""
    header = ("algorithm", "accuracy", "classification_error", "precision", "recall", "f_measure")
    rows = [header]
    for entry in report.entries:
        if entry.status != "trained":
            rows.append((entry.algorithm, f"skipped ({entry.reason})", "", "", "", ""))
            continue
        m = entry.metrics
        rows.append(
            (
                entry.algorithm,
                format_percent(m.accuracy),
                format_percent(m.classification_error),
                format_percent(m.precision),
                format_percent(m.recall),
                format_percent(m.f_score),
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"
