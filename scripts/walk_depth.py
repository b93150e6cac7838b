"""Time deep branch-center walks on the ROADMAP Baseline branch.

The branch is the exact series PuiseuxSeries.make(6, [(1,1), (3,2),
(5,-1), (7,3)], 40, exact=True) at base y.  For each depth, one fresh
``cluster.branch_steps`` call is timed with ``time.perf_counter`` and
one JSON line is printed: the depth, the seconds and the number of steps.

Usage: python3 scripts/walk_depth.py [--depth D ...]
"""

import argparse
import json
import sys
import time

from valinf.cluster import PointAtInfinity, branch_steps
from valinf.series import PuiseuxSeries

BRANCH = PuiseuxSeries.make(6, [(1, 1), (3, 2), (5, -1), (7, 3)], 40,
                            exact=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--depth", type=int, nargs="+", default=[20, 40, 80])
    args = ap.parse_args()
    for depth in args.depth:
        t0 = time.perf_counter()
        steps = branch_steps(PointAtInfinity("y"), BRANCH, depth)
        seconds = time.perf_counter() - t0
        print(json.dumps({"depth": depth, "seconds": round(seconds, 3),
                          "steps": len(steps)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
