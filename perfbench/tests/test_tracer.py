"""Checks of the benchmark harness.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def _attributes():
    """Every attribute of every valinf module and traced class."""
    import tracer

    snap = {}
    for mod in tracer.valinf_modules():
        for key, val in vars(mod).items():
            snap[(mod.__name__, key)] = val
    for name, owner, attr, _ in tracer.targets():
        if isinstance(owner, type):
            snap[(owner.__qualname__, attr)] = owner.__dict__[attr]
    return snap


def _run_in_process(tmp_path, workload, trace):
    import tracer

    wl, *_ = run.setup(workload, 5, tmp_path)
    t = None
    if trace:
        t = tracer.Tracer()
        t.install()
        assert t.patched, "the tracer patched nothing"
    try:
        done, _ = run.run_ops(wl, None, 4, t)
    finally:
        if t is not None:
            t.uninstall()
    assert all(err is None for _, _, _, err in done)
    return t


def test_untraced_run_leaves_every_attribute_identical(tmp_path):
    run.setup("geometry", 5, tmp_path)
    before = _attributes()
    for workload in run.WORKLOAD_NAMES:
        _run_in_process(tmp_path, workload, trace=False)
    after = _attributes()
    assert before.keys() <= after.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed


def test_uninstall_restores_every_patched_attribute(tmp_path):
    run.setup("geometry", 5, tmp_path)
    before = _attributes()
    t = _run_in_process(tmp_path, "geometry", trace=True)
    assert t.calls["randomized.check_cluster_consistency"] == 4
    after = _attributes()
    assert not [k for k in before if after[k] is not before[k]]


def _traced_counts(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "5", "--trace", "1", "--ops", "6"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] in ("count", "ratio") and k != "trace.overhead_ratio"}


def test_two_traced_runs_give_identical_counts():
    for workload in run.WORKLOAD_NAMES:
        first = _traced_counts(workload)
        assert any(first[k] for k in first if k.endswith(".calls"))
        assert _traced_counts(workload) == first


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
