"""Acceptance suite: the eleven headline guarantees, one test each.

Each test checks one externally visible promise of the package, from the
frozen reference values through solver cross-checks to CLI determinism,
and prints a single PASS line when its assertions hold.  Tolerances and
time budgets are pinned inline next to the checks they protect.
"""

import json
import time
from datetime import timedelta

import numpy as np
import pytest

from domcred.annotate import DomainAnnotation, LexiconAnnotator, annotate_dataset
from domcred.cli import main
from domcred.corpus.cleanse import cleanse
from domcred.corpus.periods import PeriodSpec, partition_periods
from domcred.corpus.synth import SynthConfig, synthesize
from domcred.corpus.types import (
    INFLUENCER,
    NON_INFLUENCER,
    UserProfile,
    parse_timestamp,
)
from domcred.evaluate import (
    ConfusionTable,
    SplitSpec,
    confusion,
    default_specs,
    metrics,
    roc,
    split,
)
from domcred.features import (
    FEATURE_COLUMNS,
    POOLED,
    FeatureMatrix,
    UserDomainFeatures,
    accumulate_domain_features,
    assemble_matrix,
    compute_ffr,
    compute_global_features,
    distribute,
    normalize_ffr,
    normalize_r,
    relativeness_weights,
    save_matrix,
)
from domcred.learn import ModelSpec, train, train_xy
from domcred.learn.base import ALGORITHMS

from helpers import (
    blob_data,
    brute_domain_cells,
    brute_global,
    brute_wilcoxon_auc,
    random_micro_dataset,
)

TECH = "Technology and Computing"


def _ok(number: int, claim: str) -> None:
    print(f"criterion {number:02d}: PASS - {claim}")


def test_criterion_01_engagement_distribution_is_exact():
    started = time.perf_counter()
    notes = (
        DomainAnnotation("Sports", 1.0),
        DomainAnnotation("Arts and Entertainment", 0.5),
        DomainAnnotation("Education", 0.5),
    )
    weights = relativeness_weights(notes)
    assert weights == {
        "Sports": 0.5,
        "Arts and Entertainment": 0.25,
        "Education": 0.25,
    }
    assert distribute(10.0, weights) == {
        "Sports": 5.0,
        "Arts and Entertainment": 2.5,
        "Education": 2.5,
    }
    assert distribute(15.0, weights) == {
        "Sports": 7.5,
        "Arts and Entertainment": 3.75,
        "Education": 3.75,
    }
    assert distribute(-10.0, weights) == {
        "Sports": -5.0,
        "Arts and Entertainment": -2.5,
        "Education": -2.5,
    }
    assert time.perf_counter() - started < 1.0
    _ok(1, "scores (1, 0.5, 0.5) split 10/+15/-10 exactly")


def test_criterion_02_retweet_normalization_reference_rows():
    started = time.perf_counter()
    raw = {
        "chris_radcliff": 3831.0,
        "nfreader": 962.0,
        "nukeador": 627.0,
        "IvorCrotty": 604.0,
        "LocalJoost": 398.0,
    }
    expected = {
        "chris_radcliff": 1.0,
        "nfreader": 0.251,
        "nukeador": 0.164,
        "IvorCrotty": 0.158,
        "LocalJoost": 0.104,
    }
    scaled = normalize_r(raw)
    for handle, want in expected.items():
        assert round(scaled[handle], 3) == want
    assert time.perf_counter() - started < 1.0
    _ok(2, "R {3831, 962, 627, 604, 398} scales to the reference R' rows")


def test_criterion_03_sentiment_difference_reference_rows():
    started = time.perf_counter()
    rows = (
        ("scout2i", 75.198, -13.434, 61.764),
        ("agardnahh", 67.483, -9.570, 57.913),
        ("CodrutTurcanu", 60.068, -7.580, 52.488),
        ("johnjwall", 70.107, -21.318, 48.789),
        ("MLanghans410", 63.303, -16.022, 47.281),
    )
    for handle, sp, sn, want in rows:
        row = UserDomainFeatures(user_id=handle, domain="d", period=1, sp=sp, sn=sn)
        assert round(row.s, 3) == want
    assert time.perf_counter() - started < 1.0
    _ok(3, "S = SP - |SN| reproduces all five reference rows to 3 decimals")


def test_criterion_04_follower_friend_rate_and_inverted_minimum():
    rows = (
        ("michaelfrisby", 4150, 29, 7.0, 1.0),
        ("roseandgrey", 4686, 733, 7.0, 0.972),
        ("brettdetar", 4037, 121, 7.0, 0.966),
        ("captdirectory", 4501, 660, 7.0, 0.953),
        ("kyriiii", 4852, 119, 9.0, 0.927),
    )
    capture = parse_timestamp("2016-01-01T00:00:00Z")
    rates = {}
    for handle, followers, friends, age_years, _ in rows:
        profile = UserProfile(
            user_id=handle,
            handle=handle,
            followers_count=followers,
            friends_count=friends,
            created_at=capture - timedelta(days=age_years * 365.25),
        )
        rates[handle] = compute_ffr(profile, capture)
    assert round(rates["michaelfrisby"], 3) == 588.714

    # The reference normalization subtracts a dataset minimum that is not
    # itself listed; rows 2..5 pin it, so recover it by least squares over
    # published = (rate - m) / (top - m) and demand we land in the window
    # implied by 3-decimal rounding of those four rows.
    top = rates["michaelfrisby"]
    num = den = 0.0
    for handle, _, _, _, published in rows[1:]:
        a = rates[handle] - published * top
        b = 1.0 - published
        num += a * b
        den += b * b
    floor = num / den
    assert -280.0 < floor < -255.0

    values = dict(rates)
    values["(dataset minimum)"] = floor
    scaled = normalize_ffr(values)
    for handle, _, _, _, published in rows:
        assert round(scaled[handle], 3) == published
    _ok(4, "(4150 - 29)/7 = 588.714 and the inverted minimum rescales all rows")


def test_criterion_05_confusion_identities():
    report = metrics(ConfusionTable(tp=1114, fp=9, fn=0, tn=75))
    got = (
        round(report.accuracy * 100, 3),
        round(report.classification_error * 100, 3),
        round(report.precision * 100, 3),
        round(report.recall * 100, 3),
        round(report.f_score * 100, 3),
    )
    assert got == (99.249, 0.751, 99.199, 100.0, 99.598)
    assert report.classification_error + report.accuracy == 1.0

    # a classifier that marks everyone positive: precision equals accuracy
    # and recall is total, whatever the exact counts were
    all_positive = metrics(ConfusionTable(tp=1113, fp=85, fn=0, tn=0))
    assert all_positive.precision == all_positive.accuracy
    assert all_positive.recall == 1.0
    _ok(5, "(1114, 9, 0, 75) gives the five reference rates; all-positive signature holds")


def _cell_tuple(cell):
    if cell is None:
        return (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
    if isinstance(cell, dict):
        return (
            cell["r"],
            cell["l"],
            cell["p"],
            cell["sp"],
            cell["sn"],
            cell["count_pos"],
            cell["count_neg"],
            cell["domain_tweet_count"],
        )
    return (
        cell.r,
        cell.l,
        cell.p,
        cell.sp,
        cell.sn,
        cell.count_pos,
        cell.count_neg,
        cell.domain_tweet_count,
    )


def _compare_cells(got, want):
    for key in set(got) | set(want):
        g = _cell_tuple(got.get(key))
        w = _cell_tuple(want.get(key))
        np.testing.assert_allclose(g[:7], w[:7], atol=1e-12)
        assert g[7] == w[7], f"domain tweet count differs at {key}"


def _compare_global(got, want):
    assert set(got) == set(want)
    for uid, w in want.items():
        g = got[uid]
        assert g.followers_count == w["followers_count"]
        assert g.friends_count == w["friends_count"]
        assert g.retweet_total == w["retweet_total"]
        assert g.favorite_total == w["favorite_total"]
        assert g.replies_total == w["replies_total"]


def _period_cells(cells, period):
    """The (user, domain) cells of one period from a one-pass result."""
    return {(u, d): f for (u, d, k), f in cells.items() if k == period}


def test_criterion_06_feature_pipeline_equals_brute_force():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        dataset, notes, sentiments = random_micro_dataset(rng)
        slices, _ = partition_periods(
            dataset, PeriodSpec(n_periods=int(rng.integers(1, 7)))
        )
        cells = accumulate_domain_features(dataset, notes, sentiments, slices)
        assert {k for _, _, k in cells} <= {POOLED} | {sl.index for sl in slices}
        _compare_cells(
            _period_cells(cells, POOLED),
            brute_domain_cells(dataset, notes, sentiments),
        )
        _compare_global(compute_global_features(dataset), brute_global(dataset))

        for sl in slices:
            interval = (sl.start, sl.end)
            _compare_cells(
                _period_cells(cells, sl.index),
                brute_domain_cells(dataset, notes, sentiments, interval=interval),
            )
            got = compute_global_features(dataset, period=sl)
            want = brute_global(dataset, interval=interval)
            _compare_global(got, want)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _ok(6, f"200 randomized micro-datasets match the brute oracle within 1e-12 ({elapsed:.1f}s)")


def _synthetic_matrix(n_users: int, seed: int) -> FeatureMatrix:
    config = SynthConfig(n_users=n_users, domains=(TECH,))
    dataset, labels = synthesize(config, seed)
    clean, _ = cleanse(dataset)
    tweets, replies, _ = annotate_dataset(clean, LexiconAnnotator())
    cells = accumulate_domain_features(clean, tweets, replies)
    global_features = compute_global_features(clean)
    return assemble_matrix(TECH, POOLED, cells, global_features, labels=labels)


def test_criterion_07_classifier_sanity_on_planted_structure():
    matrix = _synthetic_matrix(n_users=400, seed=7)
    assert matrix.n_rows == 400
    train_m, test_m = split(matrix, SplitSpec(train_fraction=0.6, seed=7))

    floors = {name: 0.99 for name in ALGORITHMS}
    floors["naive_bayes"] = 0.95
    for spec in default_specs(7):
        started = time.perf_counter()
        model = train(spec, train_m)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"{spec.algorithm} took {elapsed:.1f}s"
        accuracy = metrics(confusion(model.classify(test_m.x), test_m.labels)).accuracy
        assert accuracy >= floors[spec.algorithm], (
            f"{spec.algorithm}: {accuracy:.4f} < {floors[spec.algorithm]}"
        )
    _ok(7, "six models reach 99% and naive bayes 95% on 400 planted users")


def _numeric_gradients(net, x, y, h=1e-5):
    grads = []
    for p in net.parameters:
        g = np.zeros_like(p)
        flat, gflat = p.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = net.loss_and_gradients(x, y)[0]
            flat[i] = orig - h
            down = net.loss_and_gradients(x, y)[0]
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def _kink_margin(net, x):
    """Smallest |preactivation| in the rectifier layers for this batch."""
    a = net.scaler.transform(x)
    margin = np.inf
    for i in range(len(net.hidden)):
        pre = a @ net.weights[i].T + net.biases[i]
        margin = min(margin, float(np.min(np.abs(pre))))
        a = np.maximum(pre, 0.0)
    return margin


def test_criterion_08_solver_cross_checks():
    # 8a: the Newton step by coordinate descent, at a vanishing ridge
    # penalty, agrees with the step by one linear solve (lambda = 0) on the
    # raw coefficient scale
    rng = np.random.default_rng(17)
    x = rng.normal(size=(600, 4))
    eta = -0.4 + x @ np.array([1.0, -0.8, 0.5, 0.0])
    y = (rng.uniform(size=600) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    direct = train_xy(ModelSpec("logistic"), x, y)
    descent = train_xy(
        ModelSpec("glm_elastic_net", hyperparameters={"lambda": 1e-9, "alpha": 0.0}), x, y
    )
    assert direct.summary.converged and descent.summary.converged
    assert abs(direct.params.intercept - descent.params.intercept) < 1e-4
    assert np.max(np.abs(direct.params.weights - descent.params.weights)) < 1e-4

    # 8b: one unbagged, unsubsampled member reduces the forest to the tree
    bx, by = blob_data(seed=31, n_per=25, n_features=5, gap=1.5)
    fresh, _ = blob_data(seed=77, n_per=40, n_features=5, gap=1.5)
    shared = {"max_depth": 6, "minimal_gain": 0.05}
    forest = train_xy(
        ModelSpec(
            "random_forest",
            hyperparameters={
                "n_trees": 1,
                "bootstrap": False,
                "feature_subsample": None,
                **shared,
            },
        ),
        bx,
        by,
    )
    tree = train_xy(
        ModelSpec("decision_tree", hyperparameters={"confidence": None, **shared}),
        bx,
        by,
    )
    assert forest.classify(fresh) == tree.classify(fresh)
    assert forest.params.members[0] == tree.params

    # 8c: boosting stage losses never increase and the weights are a partition
    gx, gy = blob_data(seed=41, n_per=40, gap=2.0)
    boosted = train_xy(
        ModelSpec(
            "gradient_boosted_trees",
            hyperparameters={"n_trees": 16, "max_depth": 3},
        ),
        gx,
        gy,
    )
    losses = np.array(boosted.params.stage_losses)
    assert np.all(np.diff(losses) <= 1e-12)
    assert abs(float(boosted.params.weights.sum()) - 1.0) <= 1e-9

    # 8d: analytic gradients agree with central differences; a rectifier
    # batch must sit away from the activation kinks or the two-sided
    # difference straddles the corner, so redraw until the margin is wide
    h = 1e-5
    grad_rng = np.random.default_rng(61)
    for activation in ("tanh", "rectifier"):
        while True:
            nx = grad_rng.normal(size=(12, 3))
            ny = (grad_rng.uniform(size=12) < 0.5).astype(float)
            net = train_xy(
                ModelSpec(
                    "neural_net",
                    hyperparameters={"hidden": (5, 4), "epochs": 0, "l1": 0.0,
                                     "activation": activation},
                    seed=3,
                ),
                nx,
                ny,
            ).params
            if activation != "rectifier" or _kink_margin(net, nx) > 100.0 * h:
                break
        _, analytic = net.loss_and_gradients(nx, ny)
        for a, n in zip(analytic, _numeric_gradients(net, nx, ny, h=h)):
            scale = np.maximum(1.0, np.abs(a) + np.abs(n))
            assert np.max(np.abs(a - n) / scale) < 1e-4
    _ok(8, "descent step = direct step, 1-tree forest = tree, boosting invariants, gradients check")


def test_criterion_09_metric_and_roc_properties():
    rng = np.random.default_rng(90)
    for _ in range(1000):
        tp, fp, fn, tn = (int(v) for v in rng.integers(0, 10**6, size=4))
        report = metrics(ConfusionTable(tp=tp, fp=fp, fn=fn, tn=tn + 1))
        assert report.classification_error + report.accuracy == 1.0

    grid = np.array([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
    for _ in range(100):
        n = int(rng.integers(4, 60))
        scores = rng.choice(grid, size=n)
        labels = [INFLUENCER if v else NON_INFLUENCER for v in rng.integers(0, 2, size=n)]
        labels[0] = INFLUENCER
        labels[1] = NON_INFLUENCER
        curve = roc(scores, labels)
        assert abs(curve.auc - brute_wilcoxon_auc(scores, labels)) < 1e-12

    assert roc([0.9, 0.8, 0.2, 0.1], [INFLUENCER, INFLUENCER, NON_INFLUENCER, NON_INFLUENCER]).auc == 1.0
    assert roc([0.5, 0.5, 0.5, 0.5], [INFLUENCER, NON_INFLUENCER, INFLUENCER, NON_INFLUENCER]).auc == 0.5
    _ok(9, "error + accuracy = 1 on 1000 tables; sweep AUC = pairwise AUC on 100 fixtures")


def test_criterion_10_benchmark_cli_is_rerun_deterministic(tmp_path):
    synth_dir = tmp_path / "synth"
    data_dir = tmp_path / "data"
    feat_dir = tmp_path / "feat"
    assert main(
        ["synth", "--n-users", "80", "--influencer-fraction", "0.2",
         "--domains", TECH, "--seed", "42", "--output-dir", str(synth_dir)]
    ) == 0
    assert main(
        ["ingest", str(synth_dir / "synth_archive.jsonl"), "--output-dir", str(data_dir)]
    ) == 0
    assert main(
        ["annotate", str(data_dir / "dataset.jsonl"), "--output-dir", str(data_dir)]
    ) == 0
    assert main(
        ["features", str(data_dir / "dataset.jsonl"), "--domain", TECH,
         "--labels", str(synth_dir / "synth_labels.json"),
         "--output-dir", str(feat_dir)]
    ) == 0

    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(
            ["benchmark", str(feat_dir / "features.csv"), "--seed", "42",
             "--output-dir", str(out)]
        ) == 0
        outputs.append(
            (
                (out / "benchmark_report.json").read_bytes(),
                (out / "benchmark_table.txt").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]
    _ok(10, "benchmark output bytes are identical across reruns")


def test_criterion_11_external_matrix_mode_is_shape_only(tmp_path):
    rng = np.random.default_rng(5)
    n = 40
    labels = tuple(
        INFLUENCER if i < 15 else NON_INFLUENCER for i in range(n)
    )
    matrix = FeatureMatrix(
        domain="External Topic",
        period=POOLED,
        user_ids=tuple(f"ext{i:02d}" for i in range(n)),
        x=rng.normal(size=(n, len(FEATURE_COLUMNS))),
        labels=labels,
    )
    path = tmp_path / "external.csv"
    save_matrix(matrix, path)

    out = tmp_path / "out"
    assert main(
        ["benchmark", str(path), "--seed", "1", "--output-dir", str(out)]
    ) == 0
    report = json.loads((out / "benchmark_report.json").read_text())
    assert [m["algorithm"] for m in report["models"]] == list(ALGORITHMS)
    for entry in report["models"]:
        assert entry["status"] in ("trained", "skipped")
        if entry["status"] == "trained":
            assert set(entry["metrics"]) == {
                "classification_error",
                "accuracy",
                "precision",
                "recall",
                "f_score",
                "warnings",
            }
            assert set(entry["confusion"]) == {"tp", "fp", "fn", "tn"}
            assert 0.0 <= entry["roc"]["auc"] <= 1.0
    table = (out / "benchmark_table.txt").read_text()
    assert len(table.splitlines()) == 1 + len(ALGORITHMS)
    _ok(11, "an externally supplied labeled matrix runs the full report, shape only")
