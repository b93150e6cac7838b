"""The scripts under scripts/ run to completion on small inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["scripts/classify_sweep.py", "--max-degree", "3"],
    ["scripts/oracle_audit.py", "--count", "20"],
])
def test_script_exits_0(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_walk_depth_prints_one_json_line():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "scripts/walk_depth.py", "--depth", "10"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    row, = [json.loads(line) for line in done.stdout.splitlines()]
    assert (row["depth"], row["steps"]) == (10, 9)
    assert row["seconds"] >= 0
