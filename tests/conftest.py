"""Puts src/ on the path of every subprocess a test starts.

pytest's ``pythonpath`` setting reaches the test process only; a fresh
interpreter finds the package through PYTHONPATH.
"""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def _src_on_pythonpath(monkeypatch):
    inherited = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, inherited])))
