"""Smoke test of the demos: each script in ``demos/`` runs to exit 0
against this checkout's ``src``, so a demo that reads a removed name
fails the suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # TMPDIR points a demo's temp files into pytest's, which must be left
    # empty: a demo cleans up after itself.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
