"""Time deep branch-center walks on the ROADMAP Baseline branch.

The branch is the exact series PuiseuxSeries.make(6, [(1,1), (3,2),
(5,-1), (7,3)], 40, exact=True) at base y; with ``--truncated K`` it is
the same series truncated at K (exact=False).  For each depth, one fresh
``cluster.BranchWalk`` is walked on the schedule of ``branch_steps``,
timed with ``time.perf_counter``, and one JSON line is printed: the
depth, the seconds, the number of steps, and the walker's final working
precision and number of precision rises.  A truncated walk that runs out
of terms prints the error and the depth it certified instead of steps.

Usage: python3 scripts/walk_depth.py [--depth D ...] [--truncated K]
"""

import argparse
import json
import sys
import time

from valinf.cluster import BranchWalk
from valinf.errors import InsufficientTruncation
from valinf.series import PuiseuxSeries

TERMS = [(1, 1), (3, 2), (5, -1), (7, 3)]
BRANCH = PuiseuxSeries.make(6, TERMS, 40, exact=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--depth", type=int, nargs="+", default=[20, 40, 80])
    ap.add_argument("--truncated", type=int, metavar="K", default=None,
                    help="walk the branch truncated at K")
    args = ap.parse_args()
    series = BRANCH
    if args.truncated is not None:
        series = PuiseuxSeries.make(6, TERMS, args.truncated)
    for depth in args.depth:
        walk = BranchWalk(series)
        t0 = time.perf_counter()
        try:
            row = {"steps": len(walk.steps(depth))}
        except InsufficientTruncation as e:
            row = {"error": str(e), "certified": walk.depth}
        seconds = time.perf_counter() - t0
        print(json.dumps({"depth": depth, "seconds": round(seconds, 3),
                          **row, "work": walk.work,
                          "raises": walk.raises}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
