"""The example scripts run end to end on a tiny configuration."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,header", [
    ("compare_schedulers.py", "algorithm"),
    ("gamma_sweep.py", "gamma"),
])
def test_script_prints_table(script, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script),
         "--n", "6", "--T", "60", "--replicates", "1"],
        capture_output=True, text=True, env=env, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[0] == header
