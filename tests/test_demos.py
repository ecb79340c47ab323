"""Every demo runs end to end and exits 0.

Demo 05 is left out: it is a Monte-Carlo study of 25-30 s, longer than
the other four together, and its harness is covered by the acceptance gate.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SLOW = {"05_monte_carlo_study.py"}
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py") if p.name not in SLOW)


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT,
                       capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip()
