"""Peak RSS of the benchmark against its op count.

Runs ``perfbench/run.py --workload W --ops N --seed S`` once for each
given N, each in a fresh interpreter, and prints one JSON line per run
with the ops attempted, ``ops_per_s`` and ``peak_rss_mb``.  A last line
gives the least-squares line through (attempted, peak_rss_mb): its slope
in KB per op and its intercept in MB.  Two checkouts read at the same
op counts show whether a change in ``peak_rss_mb`` comes from the op
count or from the program.

Usage: python3 scripts/rss_per_op.py --workload classify --ops 300 1200
       [--seed 0]
(runs the benchmark of the checkout that holds it)
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fit(points):
    """(slope, intercept) of the least-squares line through ``points``."""
    n = len(points)
    mx = sum(x for x, _ in points) / n
    my = sum(y for _, y in points) / n
    sxx = sum((x - mx) ** 2 for x, _ in points)
    if sxx == 0:
        raise ValueError("the runs attempted one op count; give two")
    slope = sum((x - mx) * (y - my) for x, y in points) / sxx
    return slope, my - slope * mx


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=("classify", "curves", "geometry"))
    ap.add_argument("--ops", type=int, nargs="+", required=True)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if len(set(args.ops)) < 2:
        ap.error("--ops needs two or more distinct op counts")
    points = []
    for n in args.ops:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--ops", str(n), "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=3600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        res = json.loads(done.stdout.splitlines()[-1])
        m = res["metrics"]
        row = {"ops": n, "attempted": res["attempted"],
               "failed": res["failed"],
               "ops_per_s": round(m["ops_per_s"]["value"], 2),
               "peak_rss_mb": round(m["peak_rss_mb"]["value"], 2)}
        print(json.dumps(row), flush=True)
        points.append((row["attempted"], m["peak_rss_mb"]["value"]))
    slope, intercept = fit(points)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "kb_per_op": round(slope * 1024, 3),
                      "intercept_mb": round(intercept, 2)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
