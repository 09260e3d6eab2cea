"""The import diet: each command loads only the layers it uses.

Every check runs in a fresh interpreter, since this test process has long
since imported numpy.
"""

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


@pytest.mark.parametrize("command", ["ingest", "annotate"])
def test_corpus_commands_load_no_numpy(tmp_path, command):
    dataset = make_dataset(
        [make_user("a"), make_user("b")], [make_tweet("t1", "a")], [make_reply("r1", "t1", "b")]
    )
    save_dataset(dataset, tmp_path / "dataset.jsonl")
    argv = [command, str(tmp_path / "dataset.jsonl"), "--output-dir", str(tmp_path / "out")]
    out = _python(
        f"""
        import sys
        from domcred.cli import main
        assert main({argv!r}) == 0
        print('numpy' in sys.modules)
        """
    )
    assert out.splitlines()[-1] == "False"


def test_every_exported_name_is_the_defining_modules_object():
    out = _python(
        """
        import importlib, types
        import domcred.cli  # binds the corpus submodules first, `cleanse` among them
        import domcred, domcred.corpus

        for package in (domcred, domcred.corpus):
            assert set(package.__all__) <= set(dir(package))
            for name in package.__all__:
                value = getattr(package, name)
                assert not isinstance(value, types.ModuleType), name
                defining = importlib.import_module(f"{package.__name__}.{package._EXPORTS[name]}")
                assert getattr(defining, name) is value, name
                origin = getattr(value, "__module__", None)
                if origin is not None:
                    assert getattr(importlib.import_module(origin), name) is value, name
        print(len(domcred.__all__), len(domcred.corpus.__all__))
        """
    )
    assert out == "58 29\n"


def test_star_import_and_submodule_attributes_still_work():
    out = _python(
        """
        import domcred
        assert domcred.features.FEATURE_COLUMNS == domcred.FEATURE_COLUMNS
        assert domcred.corpus.archive.load_dataset is domcred.load_dataset
        namespace = {}
        exec("from domcred import *", namespace)
        exec("from domcred.corpus import *", namespace)
        missing = set(domcred.__all__) | set(domcred.corpus.__all__)
        print(sorted(missing - set(namespace)))
        """
    )
    assert out == "[]\n"
