"""The example scripts run to completion against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["scripts/toy_walkthrough.py"],
    ["scripts/tie_sweep.py", "--trials", "4", "--n", "8", "--seed", "3"],
])
def test_script_exits_cleanly(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not (ROOT / "perfbench").is_dir(),
                    reason="the benchmark harness is not in this checkout")
def test_benchmark_self_check_passes():
    # every workload at n of about 20, metric names and checks; no timings
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "perfbench/selfcheck.py"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-check passed" in proc.stdout
