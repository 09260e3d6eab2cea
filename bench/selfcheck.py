#!/usr/bin/env python3
"""Quick self-check of the benchmark at a tiny size: python3 bench/selfcheck.py

1. Runs every workload once on tiny inputs and requires a correct result with
   no failed operation, so every workload's checks run on real output.
2. Runs featurize once traced and requires the layer counts the CLI makes
   today (3 dataset loads, 2 annotation passes, 1 + 12 accumulation scans)
   and a time above zero for every traced function, so a wrapper that
   misses its call site is caught.
3. Damages one output of each stage in turn and requires the matching check
   to reject it, so a check that passes everything is caught.
4. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark, and requires a non-zero exit without a result line.

Exits 0 when all of it holds; takes about 30 seconds on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from checks import CheckError, check_annotate, check_benchmark, check_features, check_ingest, check_synth
from run import Workload

TINY = {
    "featurize": Workload(users=40, matrix="overlap", rows=300),
    "classify-planted": Workload(users=20, matrix="planted", rows=100),
}
SEED = 1


def fail(message: str) -> None:
    raise SystemExit(f"selfcheck FAILED: {message}")


def run_tiny() -> None:
    for name, workload in TINY.items():
        result = run.run_workload(name, SEED, 1, False, workload)
        if not result["correct"] or result["failed"] or result["attempted"] != 12:
            fail(f"{name}: {json.dumps({k: result[k] for k in ('correct', 'attempted', 'failed', 'errors')})}")
        print(f"ok   {name}: correct, 12 operations, none failed")


def run_traced() -> None:
    result = run.run_workload("featurize", SEED, 1, True, TINY["featurize"])
    if not result["correct"] or result["failed"]:
        fail(f"traced featurize: {result['errors']}")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    dataset = run.WORK / "featurize" / "round" / "dataset.jsonl"
    kinds = [json.loads(line)["kind"] for line in dataset.read_text(encoding="utf-8").splitlines()]
    tweets, replies = kinds.count("tweet"), kinds.count("reply")
    want = {
        "archive.load_dataset_calls": 3,
        "annotate.annotate_dataset_calls": 2,
        "features.accumulate_domain_features_calls": 1 + run.N_PERIODS,
        "features.relativeness_weights_calls": (1 + run.N_PERIODS) * tweets,
        "annotate.annotator_calls": 2 * (tweets + replies),
    }
    for name, value in want.items():
        if m[name] != value:
            fail(f"traced {name} = {m[name]}, want {value}")
    untimed = [f"{name}_s" for name in run.LAYER_TIMES if not m[f"{name}_s"] > 0]
    if untimed:
        fail(f"traced times not above zero: {untimed}")
    print(f"ok   traced featurize: counts {want}")


def edit_json_lines(path: Path, pick, change) -> None:
    """Apply ``change`` to the first record ``pick`` accepts."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if pick(record):
            change(record)
            lines[i] = json.dumps(record, sort_keys=True)
            break
    else:
        fail(f"nothing to damage in {path.name}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def bump_matrix_value(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[4] = repr(float(cells[4]) * (1 + 1e-6) + 1e-6)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def swap_ranking(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("    1. "))
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def damaged_report(report: dict, change) -> dict:
    report = json.loads(json.dumps(report))
    change(report)
    return report


def run_damage() -> None:
    source = run.WORK / "featurize" / "round"
    work = run.WORK / "selfcheck"
    data = run.SRC / "domcred" / "data"
    domain = json.loads((source / "synth_labels.json").read_text(encoding="utf-8"))["domain"]
    w = TINY["featurize"]
    tweet = lambda r: r.get("kind") == "tweet"  # noqa: E731
    cases = (
        ("synth replies_count", "synth_archive.jsonl",
         lambda p: edit_json_lines(p, tweet, lambda r: r["body"].update(replies_count=r["body"]["replies_count"] + 1)),
         lambda: check_synth(work, w.users)),
        ("ingest keeps a non-English tweet", "dataset.jsonl",
         lambda p: edit_json_lines(p, tweet, lambda r: r["body"].update(language="es")),
         lambda: check_ingest(work)),
        ("annotate sentiment", "annotations.jsonl",
         lambda p: edit_json_lines(p, lambda r: r["kind"] == "reply", lambda r: r.update(sentiment=r["sentiment"] / 2 + 0.01)),
         lambda: check_annotate(work, data)),
        ("features.csv value", "features.csv", bump_matrix_value,
         lambda: check_features(work, domain, run.N_PERIODS, run.TOP_K)),
        ("period ranking order", "features_report.txt", swap_ranking,
         lambda: check_features(work, domain, run.N_PERIODS, run.TOP_K)),
    )
    for label, name, damage, check in cases:
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(source, work)
        check()  # the undamaged copy passes
        damage(work / name)
        try:
            check()
        except CheckError as exc:
            print(f"ok   damaged {label}: rejected ({str(exc)[:60]})")
        else:
            fail(f"damaged {label} was not rejected")
    shutil.rmtree(work, ignore_errors=True)

    report = json.loads((source / "bench" / "benchmark_report.json").read_text(encoding="utf-8"))
    n_rows = w.rows
    check_benchmark(report, n_rows, "overlap")
    damages = (
        ("benchmark AUC", lambda r: r["models"][0]["roc"].update(auc=r["models"][0]["roc"]["auc"] * 0.9)),
        ("benchmark confusion", lambda r: r["models"][3]["confusion"].update(tp=r["models"][3]["confusion"]["tp"] + 1)),
        ("benchmark split size", lambda r: r.update(n_test=r["n_test"] - 1)),
        # same accuracy, other errors: only the agreement check can see it
        ("logistic and glm disagree", lambda r: r["models"][2]["confusion"].update(
            {k: v + (1 if k in ("tp", "fp") else -1) for k, v in r["models"][2]["confusion"].items()})),
    )
    for label, change in damages:
        try:
            check_benchmark(damaged_report(report, change), n_rows, "overlap")
        except CheckError as exc:
            print(f"ok   damaged {label}: rejected ({str(exc)[:60]})")
        else:
            fail(f"damaged {label} was not rejected")
    try:
        check_benchmark(report, n_rows, "planted")
    except CheckError:
        print("ok   planted floors reject an overlapping matrix's accuracies")
    else:
        fail("planted floors accepted overlapping-class accuracies")


def run_bare() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "featurize",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok   bare directory: exit {proc.returncode}, no result printed")


def main() -> int:
    run_tiny()
    run_traced()
    run_damage()
    run_bare()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
