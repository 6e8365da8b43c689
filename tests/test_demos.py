"""Every script in demos/ runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_present():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(path):
    proc = subprocess.run([sys.executable, str(path)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
