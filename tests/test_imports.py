"""The import diet: each command loads only the layers it uses, and the
CLI sets its BLAS thread default before anything loads numpy.

Every check runs in a fresh interpreter, since this test process has long
since imported numpy.  The last one runs a stage under bench/tracer.py,
which rebinds the names each loaded domcred module holds.
"""

import ast
import csv
import importlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from domcred.cli import main
from domcred.corpus.archive import save_dataset
from domcred.features import FEATURE_COLUMNS
from helpers import make_dataset, make_reply, make_tweet, make_user

ROOT = Path(__file__).resolve().parent.parent


def _python(code: str, blas_threads: str | None = None) -> str:
    """Stdout of code run in a fresh interpreter, with OPENBLAS_NUM_THREADS
    set to blas_threads, or unset for None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # importing domcred.cli in this process may already have set it
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_importing_the_cli_loads_no_numpy():
    assert _python("import sys, domcred.cli; print('numpy' in sys.modules)") == "False\n"


def test_importing_the_cli_loads_no_hashlib():
    """The sidecar functions import hashlib when they run: its _hashlib
    extension costs every command's start-up a few milliseconds."""
    assert _python("import sys, domcred.cli; print('_hashlib' in sys.modules)") == "False\n"


def test_importing_the_cli_loads_no_stage_module():
    """Each command imports the annotator, the lexicons and the cleanser
    when it runs them, so `synth` and `ingest` never compile them."""
    code = """
        import sys, domcred.cli
        print(sorted({"domcred.annotate", "domcred.lexicon", "domcred.corpus.cleanse"} & set(sys.modules)))
        """
    assert _python(code) == "[]\n"


@pytest.mark.parametrize("blas_threads, expected", [(None, "1"), ("2", "2")])
def test_cli_runs_blas_single_threaded_unless_told_otherwise(blas_threads, expected):
    out = _python(
        """
        import os, sys, domcred.cli
        print(os.environ["OPENBLAS_NUM_THREADS"], 'numpy' in sys.modules)
        """,
        blas_threads,
    )
    assert out == f"{expected} False\n"


def test_benchmark_report_does_not_depend_on_blas_threads(tmp_path):
    # 180 training rows: the net's 180x50 @ 50x50 products are past
    # OpenBLAS's threading threshold, so a second thread does take part
    rng = np.random.default_rng(71)
    x = rng.gamma(2.0, 10.0, size=(300, len(FEATURE_COLUMNS)))
    score = x[:, 0] - x[:, 1] + rng.normal(0.0, 10.0, size=300)
    labels = np.where(score > np.median(score), "Influencer", "NonInfluencer")
    matrix = tmp_path / "matrix.csv"
    with matrix.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "domain", "period", *FEATURE_COLUMNS, "label"])
        for i, (row, label) in enumerate(zip(x, labels)):
            cells = map(repr, row.tolist())
            writer.writerow([f"u{i:03d}", "Technology and Computing", 0, *cells, label])
    config = tmp_path / "config.json"
    models = {"random_forest": {"n_trees": 5}, "gradient_boosted_trees": {"n_trees": 3}}
    config.write_text(json.dumps({"models": models}), encoding="utf-8")
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        argv = ["benchmark", str(matrix), "--config", str(config), "--output-dir", str(out)]
        _python(f"from domcred.cli import main; assert main({argv!r}) == 0", threads)
        reports.append((out / "benchmark_report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command", ["ingest", "annotate", "features"])
def test_corpus_commands_load_no_numpy(tmp_path, command):
    dataset = make_dataset(
        [make_user("a"), make_user("b")], [make_tweet("t1", "a")], [make_reply("r1", "t1", "b")]
    )
    path = tmp_path / "dataset.jsonl"
    save_dataset(dataset.columns, path)
    # features reads the annotations that annotate writes beside the dataset
    steps = []
    if command == "features":
        steps.append(["annotate", str(path), "--output-dir", str(tmp_path)])
    steps.append([command, str(path), "--output-dir", str(tmp_path / "out")])
    out = _python(
        f"""
        import sys
        from domcred.cli import main
        for argv in {steps!r}:
            assert main(argv) == 0
        print('numpy' in sys.modules)
        """
    )
    assert out.splitlines()[-1] == "False"


def _traced_counts(tmp_path, *argv) -> dict:
    """The counters of one CLI call run under bench/tracer.py."""
    spans = tmp_path / "spans.json"
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans), argv[0], *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(spans.read_text(encoding="utf-8"))["counts"]


def test_tracer_names_resolve():
    """Each entry of bench/tracer.py's TIMED and COUNTED, read from its source,
    names a module-level function of the module it gives."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    names = {"TIMED", "COUNTED"}
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in names
    }
    assert set(tables) == names
    for module, func, _ in (*tables["TIMED"], *tables["COUNTED"]):
        value = getattr(importlib.import_module(module), func, None)
        assert inspect.isfunction(value), f"{module}.{func}"
        assert (value.__module__, value.__qualname__) == (module, func)


def test_traced_stage_still_runs(tmp_path):
    """bench/tracer.py rebinds names across the loaded domcred modules."""
    dataset = make_dataset(
        [make_user("a"), make_user("b")], [make_tweet("t1", "a")], [make_reply("r1", "t1", "b")]
    )
    save_dataset(dataset.columns, tmp_path / "archive.jsonl")
    counts = _traced_counts(
        tmp_path, "ingest", str(tmp_path / "archive.jsonl"), "--output-dir", str(tmp_path / "out")
    )
    assert counts["archive.load_dataset_calls"] == 1
    out = tmp_path / "out"
    counts = _traced_counts(
        tmp_path, "annotate", str(out / "dataset.jsonl"), "--output-dir", str(out)
    )
    assert counts["archive.load_dataset_calls"] == 1
    assert counts["annotate.annotate_dataset_calls"] == 1


def test_traced_features_times_the_matrix_work(tmp_path):
    """The features command builds and writes its matrix through the two
    functions the tracer times."""
    dataset = make_dataset(
        [make_user("a"), make_user("b")], [make_tweet("t1", "a")], [make_reply("r1", "t1", "b")]
    )
    path = tmp_path / "dataset.jsonl"
    save_dataset(dataset.columns, path)
    assert main(["annotate", str(path), "--output-dir", str(tmp_path)]) == 0
    counts = _traced_counts(tmp_path, "features", str(path), "--output-dir", str(tmp_path / "out"))
    assert counts["features.assemble_matrix_calls"] == 1
    assert counts["features.save_matrix_calls"] == 1
    assert counts["features.accumulate_domain_features_calls"] == 1
    assert counts["features.relativeness_weights_calls"] == 1  # once per distinct domain list
    assert counts["archive.load_dataset_calls"] == 1
