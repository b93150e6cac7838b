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


def walk_depth_rows(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "scripts/walk_depth.py", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_walk_depth_prints_one_json_line():
    row, = walk_depth_rows("--depth", "10")
    assert (row["depth"], row["steps"]) == (10, 9)
    assert row["seconds"] >= 0
    # the exact walk starts at 32 terms, which certify 9 centers
    assert (row["work"], row["raises"]) == (32, 0)


def test_walk_depth_walks_a_truncated_branch():
    rows = walk_depth_rows("--depth", "10", "40", "--truncated", "30")
    assert [r["depth"] for r in rows] == [10, 40]
    # 8 terms certify 9 centers; 30 terms run out before center 40, after
    # rising 8 -> 16 -> 31, the whole truncation
    assert (rows[0]["steps"], rows[0]["work"], rows[0]["raises"]) == \
        (9, 8, 0)
    assert "steps" not in rows[1] and rows[1]["certified"] < 40
    assert (rows[1]["work"], rows[1]["raises"]) == (31, 2)


def test_laplacian_rounds_prints_one_json_line_per_polynomial():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "scripts/laplacian_rounds.py", "y^3-x^4+1/2",
         "y^2-x^5+x^3*y", "(y^2-x^3)*(y^2-x^3-x^2*y)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [r["polynomial"] for r in rows] == [
        "y^3-x^4+1/2", "y^2-x^5+x^3*y", "(y^2-x^3)*(y^2-x^3-x^2*y)"]
    # one divergence per pair of branches at one point of L-infinity and
    # Q never evaluated (the rounds evaluated it 15, 17 and 31 times); the
    # walks and rows are those of the hull of the branches and of one
    # segment search per branch, and neither builds a geometry
    assert [(r["branches"], r["meets"], r["center_steps"],
             r["build_geometry"], r["rows"], r["eval_divisorial"])
            for r in rows] == \
        [(1, 0, 16, 0, 17, 0), (2, 1, 27, 0, 29, 0), (3, 1, 43, 0, 46, 0)]
    assert all(r["seconds"] >= 0 for r in rows)


def test_witness_degrees_counts_the_baseline_solves():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "scripts/witness_degrees.py", "2", "4"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    # no witness exists, so each search solves once per degree 1..D
    assert [(r["D"], r["solves"], r["cells"], r["found"]) for r in rows] \
        == [(2, 2, 102, False), (4, 4, 762, False)]
    assert all(r["seconds"] >= 0 for r in rows)



def test_set_scale_reads_the_matrix_off_the_rows():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "scripts/set_scale.py", "4", "8"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [r["n"] for r in rows] == [4, 8]
    # the antichain is reduced by pairwise compares, then chi is read
    # off the rows of one hull of its 4n + 1 nodes, with no geometry
    assert [(r["chi_of_build_geometry"], r["chi_of_rows"]) for r in rows] \
        == [(0, 17), (0, 33)]
    assert all(r["build_geometry"] > 1 for r in rows)
    assert all(r["rows"] > r["chi_of_rows"] for r in rows)
    assert all(r[k] >= 0 for r in rows for k in
               ("classify_s", "reduce_with_report_s", "chi_of_s",
                "chi_det_s"))


def test_tree_scale_reads_each_form_off_one_hull():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "scripts/tree_scale.py", "4", "8"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [r["n"] for r in rows] == [4, 8]
    # one hull each and no pairwise meet; the measures build at most one
    assert all((r[f]["hulls"], r[f]["meets"]) == (1, 0) and
               r[f]["seconds"] >= 0
               for r in rows for f in ("build_tree", "value", "dirichlet"))
    assert all(r[f]["hulls"] <= 1 and r[f]["meets"] == 0 and
               r[f]["seconds"] >= 0
               for r in rows for f in ("measure", "retract_measure"))


def test_import_cost_prints_one_json_line_per_command():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "scripts/import_cost.py", "--command", "eval",
         "laplacian"], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [r["command"] for r in rows] == ["eval", "laplacian"]
    for r in rows:
        assert (r["exit"], r["sympy"]) == (0, False)
        assert r["seconds"] > 0 and r["maxrss_mb"] > 0


def test_cap_sweep_prints_one_json_line_per_cap():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "scripts/cap_sweep.py", "--m", "20", "--k-m", "5",
         "--k", "40", "--degree", "3", "--power-degree", "8",
         "--power-bits", "512", "--power-work", "1000000", "--chain", "16",
         "--segment-depth", "16",
         "--oracle-count", "5"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(r["cap"], r["value"], r["size"]) for r in rows] == [
        ("MAX_CURVE_M", 10_000, 20), ("MAX_CURVE_K", 1_600, 40),
        ("MAX_DEGREE", 24, 3), ("MAX_POWER_DEGREE", 64, 8),
        ("MAX_POWER_BITS", 1 << 16, 512), ("MAX_POWER_WORK", 1 << 26, 10 ** 6),
        ("MAX_CHAIN_STEPS", 1024, 16),
        ("MAX_SEGMENT_DEPTH", 1024, 16), ("MAX_ORACLE_COUNT", 10_000, 5)]
    outcomes = {(r["cap"], name): i["outcome"]
                for r in rows for name, i in r["inputs"].items()}
    # every input below its cap is answered; no witness exists at D = 3
    assert outcomes == {
        ("MAX_CURVE_M", "meet"): "Divisorial",
        ("MAX_CURVE_K", "meet"): "Divisorial",
        ("MAX_CURVE_K", "eval"): "Ext",
        ("MAX_DEGREE", "find_positive"): "NoneType",
        ("MAX_POWER_DEGREE", "parse"): "dict",
        ("MAX_POWER_BITS", "parse"): "dict",
        ("MAX_POWER_WORK", "trinomial"): "dict",
        ("MAX_POWER_WORK", "wide"): "dict",
        ("MAX_CHAIN_STEPS", "monomial_geometry"): "GeometryTable",
        ("MAX_SEGMENT_DEPTH", "walk"): "list",
        ("MAX_ORACLE_COUNT", "oracle_check"): "tuple"}
    assert all(i["seconds"] >= 0 for r in rows for i in r["inputs"].values())


def test_rss_per_op_prints_one_line_per_op_count_and_a_fit():
    done = subprocess.run(
        [sys.executable, "scripts/rss_per_op.py", "--workload", "geometry",
         "--ops", "2", "4"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    *rows, fit = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(r["ops"], r["attempted"], r["failed"]) for r in rows] == \
        [(2, 2, 0), (4, 4, 0)]
    assert all(r["ops_per_s"] > 0 and r["peak_rss_mb"] > 0 for r in rows)
    # two points fix the line: it passes through both
    for r in rows:
        assert abs(fit["intercept_mb"] + fit["kb_per_op"] / 1024
                   * r["attempted"] - r["peak_rss_mb"]) < 0.05
