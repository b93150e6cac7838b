"""Count the linear solves of an exhaustive witness search.

The set is the four quasimonomials of the ROADMAP polyfinder Baseline,
``quasimonomial(PointAtInfinity("x", c), a, b)`` for (c, a, b) = (0, 1, 3),
(1, 1, 3), (2, 1, 3), (5, 1, 2).  Their skewness sum is 3/2, so no
positive witness exists and ``find_positive`` tries every degree up to
the bound.  For each bound D, one ``polyfinder.find_positive(S, D)`` call
is timed with ``time.perf_counter`` and one JSON line is printed: D, the
calls of ``solve_linear``, the cells of their matrices (rows times
columns, summed over the calls), whether a witness was found, and the
seconds.  The calls are counted by a wrapper that this script puts
around the library's function; the library itself counts nothing.

Usage: python3 scripts/witness_degrees.py [D ...]
"""

import argparse
import json
import sys
import time

import valinf.polyfinder as polyfinder
from valinf.valuations import PointAtInfinity, quasimonomial

QUASIMONOMIALS = [(0, 1, 3), (1, 1, 3), (2, 1, 3), (5, 1, 2)]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("degrees", type=int, nargs="*", default=[6, 10, 14, 18])
    args = ap.parse_args()

    S = [quasimonomial(PointAtInfinity("x", c), a, b)
         for c, a, b in QUASIMONOMIALS]
    counts = {"solves": 0, "cells": 0}
    solve = polyfinder.solve_linear

    def counting_solve(A, b=None):
        counts["solves"] += 1
        counts["cells"] += len(A) * len(A[0]) if A else 0
        return solve(A, b)

    polyfinder.solve_linear = counting_solve
    for D in args.degrees:
        counts.update(solves=0, cells=0)
        t0 = time.perf_counter()
        P = polyfinder.find_positive(S, D)
        seconds = time.perf_counter() - t0
        print(json.dumps({"D": D, **counts, "found": P is not None,
                          "seconds": round(seconds, 3)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
