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
    # TMPDIR keeps the files a demo leaves in its temp dir under pytest's.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
