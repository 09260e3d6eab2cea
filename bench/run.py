#!/usr/bin/env python3
"""domcred benchmark: time each CLI stage as a user runs it, check every output.

    python3 bench/run.py --workload featurize --seed 1 --seconds 60 --trace 0

Run from a source checkout; nothing needs installing.  Every stage is a fresh
``python3 -c`` process that calls ``domcred.cli.main`` with ``PYTHONPATH=src``.
A round runs the five CLI stages (synth, ingest, annotate, features,
benchmark) one after another, in one work directory, with the default
``--threads 1``; a run repeats whole rounds until the next one would not fit
in ``--seconds``.  The outputs of the first round are checked against
independent recomputations (bench/checks.py); every later round must
reproduce them byte for byte.

With ``--trace 0`` the last stdout line reports the end-to-end metrics: the
median time of each stage, the median set-up time of a fresh interpreter,
both scaled to a reference speed (see Reference), and the largest resident
set of any stage process.  With ``--trace 1`` plain rounds alternate with
rounds run through bench/tracer.py, and the line reports per-layer times and
counts instead.  Details of every run, raw wall times and spans included, go
to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import matrices  # noqa: E402

CLI = "import sys; from domcred.cli import main; sys.exit(main())"
SETUP = (
    "import domcred.cli; from domcred.annotate import LexiconAnnotator; LexiconAnnotator()"
)
# the usual time of one reference_work() call on the two-core machine of README.md
REFERENCE_SECONDS = 0.012
SLICE_SECONDS = 0.25
_TOKEN = re.compile(r"[a-z0-9']+")
_RECORDS = [
    {"id": f"t{i:05d}", "text": f"great python code about cloud {i % 97} the network news", "n": i}
    for i in range(600)
]
N_PERIODS = 12  # twelve months hold synth's whole 364-day span
TOP_K = 5  # the CLI's default ranking length
SETUP_REPS = 9
STAGES = ("synth", "ingest", "annotate", "features", "benchmark")
DETERMINISTIC = (
    "synth_archive.jsonl",
    "dataset.jsonl",
    "annotations.jsonl",
    "features.csv",
    "features_report.txt",
    "bench/benchmark_report.json",
)
ALGORITHMS = checks.ALGORITHMS


# the seed of every matrix and of the benchmark stage's split and models, so
# that --seed moves only the archive
MATRIX_SEED = 0


@dataclass(frozen=True)
class Workload:
    """Archive size for the four corpus stages and the matrix the benchmark stage gets."""

    users: int
    matrix: str  # "planted" or "overlap", drawn by bench/matrices.py and checked as such
    rows: int


WORKLOADS = {
    # corpus, annotate and features at scale; a small overlapping matrix where
    # the linear solvers converge and the forest leads
    "featurize": Workload(users=300, matrix="overlap", rows=300),
    # learn on separable rows, where glm_elastic_net runs out its iterations
    "classify-planted": Workload(users=200, matrix="planted", rows=400),
}

END_TO_END = {
    "setup_s": "s",
    "synth_s": "s",
    "ingest_s": "s",
    "annotate_s": "s",
    "features_s": "s",
    "benchmark_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_TIMES = (
    "synth.synthesize",
    "archive.save_dataset",
    "archive.load_dataset",
    "cleanse.cleanse",
    "periods.partition_periods",
    "annotate.annotate_dataset",
    "annotate.save_annotations",
    "features.accumulate_domain_features",
    "features.compute_global_features",
    "features.assemble_matrix",
    "features.save_matrix",
    "features.load_matrix",
    "evaluate.split",
    "evaluate.benchmark",
    *(f"learn.{a}.{step}" for a in ALGORITHMS for step in ("train", "predict")),
)
LAYER_COUNTS = (
    "archive.load_dataset_calls",
    "annotate.annotate_dataset_calls",
    "annotate.annotator_calls",
    "features.accumulate_domain_features_calls",
    "features.relativeness_weights_calls",
)


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in LAYER_TIMES}
    units.update({name: "count" for name in LAYER_COUNTS})
    units.update({f"learn.{a}.iterations": "count" for a in ALGORITHMS})
    units["trace.overhead_s"] = "s"
    return units


class Stage:
    """One finished child process.

    ``seconds`` is its wall time with the pauses taken out, ``scaled`` that
    time at the reference speed, ``segments`` the (start, end, factor) of
    each slice it ran in, ``code`` its exit code and ``rss_mb`` its peak
    resident set.
    """

    def __init__(self, segments: list[tuple[float, float, float]], status: int, usage):
        self.segments = segments
        self.seconds = sum(end - start for start, end, _ in segments)
        self.scaled = sum((end - start) * factor for start, end, factor in segments)
        self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0


def reference_work() -> float:
    """Seconds taken by fixed pure-Python work that no program change touches."""
    started = time.perf_counter()
    doc = json.loads(json.dumps(_RECORDS, sort_keys=True))
    counts: dict[str, int] = {}
    for record in doc:
        for token in _TOKEN.findall(record["text"].lower()):
            counts[token] = counts.get(token, 0) + 1
    total = 0
    for i in range(120_000):
        total += i * i % 7
    return time.perf_counter() - started


class Reference:
    """Runs child processes in slices and scales their wall time to a reference speed.

    The shared cores this was built on change speed by 20-40% within
    seconds, with no steal time the guest could see, so raw wall times
    spread wider than any bound worth setting, and so did wall times scaled
    by reference work run only before and after each call.  So a child runs
    in slices of SLICE_SECONDS: after each slice its process group is
    stopped, reference_work() runs once, and the child is continued.  Each
    slice's wall time is scaled by REFERENCE_SECONDS over the mean of the
    reference times just before and after it, and the call's time is the
    sum.  A program change moves it as it moves the wall time; a machine
    that is slower for everyone moves neither.
    """

    def __init__(self):
        self.samples: list[float] = []

    def probe(self) -> float:
        seconds = reference_work()
        self.samples.append(seconds)
        return seconds

    def run(self, argv: list[str], log: Path) -> Stage:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        before = self.probe()
        segments = []
        with log.open("ab") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, env=env, stdout=fh, stderr=fh, cwd=ROOT, start_new_session=True
            )
        exited = os.pidfd_open(proc.pid)
        try:
            while True:
                select.select([exited], [], [], max(0.0, start + SLICE_SECONDS - time.perf_counter()))
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid == 0:
                    os.killpg(proc.pid, signal.SIGSTOP)
                end = time.perf_counter()
                if pid == 0:
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                after = self.probe()
                segments.append((start, end, REFERENCE_SECONDS * 2.0 / (before + after)))
                before = after
                if not os.WIFSTOPPED(status):
                    break
                start = time.perf_counter()
                os.killpg(proc.pid, signal.SIGCONT)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            os.close(exited)
        result = Stage(segments, status, usage)
        proc.returncode = result.code
        return result


def scaled_span(start: float, end: float, segments: list[tuple[float, float, float]]) -> float:
    """A child's span at the reference speed, its pauses left out.

    perf_counter is CLOCK_MONOTONIC, so the child's span times and the
    parent's slice times are on one clock.
    """
    return sum(max(0.0, min(end, b) - max(start, a)) * factor for a, b, factor in segments)


def digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def layer_values(span_files: list[tuple[Path, list]]) -> dict[str, float]:
    """Sum each span name's scaled time over the stage calls of one round.

    Each span file comes with its stage call's slices.  A span nested in a
    span of the same name (classify calling predict_proba) is already
    inside its parent's time and is skipped.
    """
    values = {f"{name}_s": 0.0 for name in LAYER_TIMES}
    values.update({name: 0 for name in LAYER_COUNTS})
    for path, segments in span_files:
        if not path.exists():
            continue
        payload = json.loads(path.read_text(encoding="utf-8"))
        spans = payload["spans"]
        for name, start, end, parent, _ in spans:
            if parent is not None and spans[parent][0] == name:
                continue
            if f"{name}_s" in values:
                values[f"{name}_s"] += scaled_span(start, end, segments)
        for name, n in payload["counts"].items():
            if name in values:
                values[name] += n
    return values


class Run:
    def __init__(self, name: str, workload: Workload, seed: int, seconds: float, trace: bool):
        self.name, self.workload, self.seed = name, workload, seed
        self.seconds, self.trace = seconds, trace
        self.dir = WORK / name
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.stage_times: dict[str, list[float]] = {s: [] for s in STAGES}
        self.rss: list[float] = []
        self.rounds: list[dict] = []

    # -- one round ------------------------------------------------------------

    def stage(self, name: str, args: list[str], outputs: list[Path], traced: bool, spans: Path):
        log = self.dir / "stages.log"
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans), name, *args]
        else:
            argv = [sys.executable, "-c", CLI, *args]
        for path in outputs:
            path.unlink(missing_ok=True)
        result = self.reference.run(argv, log)
        self.attempted += 1
        self.rss.append(result.rss_mb)
        ok = result.code == 0 and all(p.exists() for p in outputs)
        if not ok:
            self.failed += 1
            self.errors.append(f"{name} exited {result.code} (log {log})")
        return result, ok

    def round(self, index: int, traced: bool) -> dict:
        w, out = self.workload, self.dir / "round"
        shutil.rmtree(out, ignore_errors=True)
        (out / "bench").mkdir(parents=True)
        spans = {s: self.dir / f"spans-{index}-{s}.json" for s in STAGES}
        for path in spans.values():
            path.unlink(missing_ok=True)
        ran: dict[str, bool] = {}
        times: dict[str, float] = {}
        walls: dict[str, float] = {}
        segments: dict[str, list] = {}

        def go(stage, args, outputs, output_dir=out):
            result, ok = self.stage(
                stage, [stage, *args, "--output-dir", str(output_dir)], outputs, traced, spans[stage]
            )
            ran[stage], times[stage], walls[stage] = ok, result.scaled, result.seconds
            segments[stage] = result.segments

        go("synth", ["--n-users", str(w.users), "--seed", str(self.seed)],
           [out / "synth_archive.jsonl", out / "synth_labels.json"])
        labels = out / "synth_labels.json"
        domain = json.loads(labels.read_text(encoding="utf-8"))["domain"] if ran["synth"] else ""
        go("ingest", [str(out / "synth_archive.jsonl")], [out / "dataset.jsonl"])
        go("annotate", [str(out / "dataset.jsonl")], [out / "annotations.jsonl"])
        go("features",
           [str(out / "dataset.jsonl"), "--domain", domain, "--labels", str(labels),
            "--n-periods", str(N_PERIODS)],
           [out / "features.csv", out / "features_report.txt", out / "features_report.json"])
        go("benchmark", [str(self.matrix_path), "--seed", str(MATRIX_SEED)],
           [out / "bench" / "benchmark_report.json"], output_dir=out / "bench")

        models = self.model_entries(out / "bench" / "benchmark_report.json", ran["benchmark"])
        record = {
            "round": index,
            "traced": traced,
            "scaled_s": sum(times.values()),
            "stage_s": times,
            "wall_s": walls,
            "domain": domain,
            "digests": {name: digest(out / name) for name in DETERMINISTIC},
            "iterations": {a: m["summary"]["iterations"] for a, m in models.items() if m},
        }
        if traced:
            record["layers"] = layer_values([(spans[s], segments.get(s, [])) for s in STAGES])
            record["spans"] = [
                json.loads(p.read_text(encoding="utf-8"))["spans"] for p in spans.values() if p.exists()
            ]
        if index == 0:
            self.check(out, domain, ran, models)
        elif record["digests"] != self.rounds[0]["digests"]:
            self.errors.append(f"round {index} outputs differ from round 0")
            self.correct = False
        return record

    def model_entries(self, report_path: Path, ran: bool) -> dict:
        """The seven model entries; a missing report or a skipped model is a failed operation."""
        report = json.loads(report_path.read_text(encoding="utf-8")) if ran else {"models": []}
        entries = {m["algorithm"]: m for m in report["models"]}
        out = {}
        for algorithm in ALGORITHMS:
            self.attempted += 1
            entry = entries.get(algorithm)
            if entry is None or entry["status"] != "trained":
                self.failed += 1
                self.errors.append(f"{algorithm}: {entry['reason'] if entry else 'no entry'}")
                entry = None
            out[algorithm] = entry
        return out

    def check(self, out: Path, domain: str, ran: dict, models: dict) -> None:
        w = self.workload
        try:
            if ran["synth"]:
                checks.check_synth(out, w.users)
            if ran["synth"] and ran["ingest"]:
                checks.check_ingest(out)
            if ran["ingest"] and ran["annotate"]:
                checks.check_annotate(out, SRC / "domcred" / "data")
            if ran["annotate"] and ran["features"]:
                checks.check_features(out, domain, N_PERIODS, TOP_K)
            if ran["benchmark"]:
                report = json.loads((out / "bench" / "benchmark_report.json").read_text(encoding="utf-8"))
                checks.check_benchmark(report, w.rows, w.matrix)
        except (checks.CheckError, OSError, ValueError, KeyError) as exc:
            self.errors.append(f"check failed: {type(exc).__name__}: {exc}")
            self.correct = False

    # -- the whole run ----------------------------------------------------------

    def setup_times(self) -> list[float]:
        times = []
        for _ in range(SETUP_REPS):
            result = self.reference.run([sys.executable, "-c", SETUP], self.dir / "setup.log")
            if result.code != 0:
                raise SystemExit(f"set-up failed; see {self.dir / 'setup.log'}")
            times.append(result.scaled)
        return times

    def execute(self) -> dict:
        started = time.perf_counter()
        deadline = started + self.seconds
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.correct = True
        w = self.workload
        self.matrix_path = self.dir / "matrix.csv"
        matrices.write_matrix(
            self.matrix_path, *matrices.draw_matrix(matrices.LEVELS[w.matrix], w.rows, MATRIX_SEED)
        )
        self.reference = Reference()
        setup = self.setup_times()
        longest = 0.0
        while True:
            index = len(self.rounds)
            # a traced run alternates plain and traced rounds, for the tracing overhead
            traced = self.trace and index % 2 == 1
            round_started = time.perf_counter()
            record = self.round(index, traced)
            self.rounds.append(record)
            if not traced:
                for stage, seconds in record["stage_s"].items():
                    self.stage_times[stage].append(seconds)
            longest = max(longest, time.perf_counter() - round_started)
            if self.trace and index == 0:
                continue
            if time.perf_counter() + longest > deadline:
                break
        return {
            "setup": setup,
            "metrics": self.layer_metrics() if self.trace else self.end_to_end(setup),
        }

    def end_to_end(self, setup: list[float]) -> dict:
        values = {"setup_s": statistics.median(setup)}
        for stage, times in self.stage_times.items():
            values[f"{stage}_s"] = statistics.median(times)
        values["peak_rss_mb"] = max(self.rss)
        return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}

    def layer_metrics(self) -> dict:
        traced = [r for r in self.rounds if r["traced"]]
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        for a in ALGORITHMS:
            values[f"learn.{a}.iterations"] = statistics.median(
                r["iterations"].get(a, 0) for r in traced
            )
        plain = statistics.median(r["scaled_s"] for r in self.rounds if not r["traced"])
        values["trace.overhead_s"] = statistics.median(r["scaled_s"] for r in traced) - plain
        return {k: {"value": values[k], "unit": unit} for k, unit in per_layer_units().items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, workload: Workload | None = None) -> dict:
    run = Run(name, workload or WORKLOADS[name], seed, seconds, trace)
    outcome = run.execute()
    OUT.mkdir(exist_ok=True)
    detail = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "setup_s": outcome["setup"],
        "rounds": run.rounds,
        "reference_s": run.reference.samples,
        "errors": run.errors,
    }
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": outcome["metrics"],
        "errors": run.errors,
        "digests": run.rounds[0]["digests"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running stage process is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "domcred" / "cli.py").is_file():
        print(f"error: no domcred sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.pop("errors"):
        print(line, file=sys.stderr)
    print("digests " + json.dumps(result.pop("digests"), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
