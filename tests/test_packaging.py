"""Packaging metadata: the version number lives in the package alone."""

import sys
from pathlib import Path

import pytest

import domcred

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_version_is_read_from_the_package():
    import tomllib

    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    dynamic = pyproject["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "domcred.__version__"}
    assert isinstance(domcred.__version__, str) and domcred.__version__
