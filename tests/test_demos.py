"""Every script under demos/ runs to completion against the package."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_exits_0(demo):
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
