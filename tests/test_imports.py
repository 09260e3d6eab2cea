"""The import diet: each command loads only the layers it uses.

Every check runs in a fresh interpreter, since this test process has long
since imported numpy.  The last one runs a stage under bench/tracer.py,
which rebinds the names each loaded domcred module holds.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from domcred.corpus.archive import save_dataset
from helpers import make_dataset, make_reply, make_tweet, make_user

ROOT = Path(__file__).resolve().parent.parent


def _python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
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


@pytest.mark.parametrize("command", ["ingest", "annotate", "features"])
def test_corpus_commands_load_no_numpy(tmp_path, command):
    dataset = make_dataset(
        [make_user("a"), make_user("b")], [make_tweet("t1", "a")], [make_reply("r1", "t1", "b")]
    )
    path = tmp_path / "dataset.jsonl"
    save_dataset(dataset, path)
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


def test_traced_stage_still_runs(tmp_path):
    """bench/tracer.py rebinds names across the loaded domcred modules."""
    dataset = make_dataset(
        [make_user("a"), make_user("b")], [make_tweet("t1", "a")], [make_reply("r1", "t1", "b")]
    )
    save_dataset(dataset, tmp_path / "archive.jsonl")
    spans = tmp_path / "spans.json"
    result = subprocess.run(
        [
            sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans), "ingest",
            "ingest", str(tmp_path / "archive.jsonl"), "--output-dir", str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    counts = json.loads(spans.read_text(encoding="utf-8"))["counts"]
    assert counts["archive.load_dataset_calls"] == 1
