"""Time ``classify`` and its phases on antichains of n divisorials.

For each n, the antichain is the n ends of ``merge_paths`` of the paths
(Free(k), Free(1), SatU(), Free(3)) at base y, k = 1..n; its chi is
positive.  One ``classify(S, 1)`` call is timed with
``time.perf_counter`` and one JSON line is printed: n, the seconds of
classify, the seconds spent in its calls of ``reduce_with_report``,
``chi_of`` (the hull of the reduced set, its matrix and ``chi_det``) and
``chi_det`` alone, the ``cluster.build_geometry`` calls of the whole
classify and those made inside ``chi_of``, and likewise the nodes whose
rows (skewness, b, thinness; ``Cluster.rows``) are computed, which
``chi_of`` reads its matrix off.  The time and the counts are taken by
wrappers that this script puts around the library's functions; the
library itself counts nothing.

Usage: python3 scripts/set_scale.py [N ...]
"""

import argparse
import json
import sys
import time
from fractions import Fraction

import valinf.cluster as cluster
import valinf.richness as richness
from valinf.cluster import Free, PointAtInfinity, SatU, merge_paths
from valinf.valuations import Divisorial

PHASES = ("reduce_with_report", "chi_of", "chi_det")


def antichain(n):
    paths = [(PointAtInfinity("y"),
              (Free(Fraction(k)), Free(Fraction(1)), SatU(),
               Free(Fraction(3))))
             for k in range(1, n + 1)]
    merged, ends = merge_paths(paths)
    return richness.ValuationSet.of([Divisorial(merged, e) for e in ends])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("n", type=int, nargs="*", default=[8, 16, 32, 64])
    args = ap.parse_args()

    seconds = dict.fromkeys(PHASES, 0.0)
    builds = {"all": 0, "chi_of": 0}
    rows = {"all": 0, "chi_of": 0}
    running = []

    def timing(name):
        fn = getattr(richness, name)

        def wrapper(*a, **kw):
            running.append(name)
            t0 = time.perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                seconds[name] += time.perf_counter() - t0
                running.pop()

        setattr(richness, name, wrapper)

    for name in PHASES:
        timing(name)
    build_geometry = cluster.build_geometry

    def counting(cl):
        builds["all"] += 1
        if "chi_of" in running:
            builds["chi_of"] += 1
        return build_geometry(cl)

    cluster.build_geometry = counting
    extend_rows = cluster._extend_rows

    def counting_rows(table, xy, cl):
        before = len(table)
        extend_rows(table, xy, cl)
        rows["all"] += len(table) - before
        if "chi_of" in running:
            rows["chi_of"] += len(table) - before

    cluster._extend_rows = counting_rows

    for n in args.n:
        S = antichain(n)
        for k in seconds:
            seconds[k] = 0.0
        for k in builds:
            builds[k] = rows[k] = 0
        t0 = time.perf_counter()
        richness.classify(S, 1)
        total = time.perf_counter() - t0
        print(json.dumps({
            "n": n, "classify_s": round(total, 4),
            **{f"{k}_s": round(v, 4) for k, v in seconds.items()},
            "build_geometry": builds["all"],
            "chi_of_build_geometry": builds["chi_of"],
            "rows": rows["all"], "chi_of_rows": rows["chi_of"]}),
            flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
