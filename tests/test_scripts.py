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


def test_laplacian_rounds_prints_one_json_line_per_polynomial():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "scripts/laplacian_rounds.py", "y^3-x^4+1/2",
         "y^2-x^5+x^3*y"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [r["polynomial"] for r in rows] == ["y^3-x^4+1/2",
                                               "y^2-x^5+x^3*y"]
    for r in rows:
        # one geometry per round, and Q evaluated once per node reached
        assert r["rounds"] >= 1 and r["build_geometry"] == r["rounds"]
        assert 0 < r["eval_divisorial"] and r["seconds"] >= 0
    assert [r["rounds"] for r in rows] == [4, 3]
    # each node on a dual path is evaluated once over all rounds (36 and
    # 35 calls when each round evaluated its dual paths afresh)
    assert [r["eval_divisorial"] for r in rows] == [15, 17]
