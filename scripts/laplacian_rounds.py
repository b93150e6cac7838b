"""Count the work of ``logplus_laplacian``.

For each polynomial, one ``puiseux.logplus_laplacian(Q)`` call is timed
with ``time.perf_counter`` and one JSON line is printed: the polynomial,
its branches, the pair divergences of the hull of its branches (calls
of ``cluster.diverging_depths``, one per pair of branches at one point
of L-infinity), the branch center steps, the calls of
``cluster.build_geometry``, the nodes whose rows (skewness, b,
thinness; ``Cluster.rows``) are computed, the calls of
``eval_divisorial``, and the seconds.
The atoms are read off the Green identity, so Q is never evaluated and
``eval_divisorial`` stays at 0.  The branches are expanded
before the clock starts, so the time is that of the log-Laplacian alone.
The calls are counted by wrappers that this script puts around the
library's functions; the library itself counts nothing.

Usage: python3 scripts/laplacian_rounds.py [POLY ...]
"""

import argparse
import json
import sys
import time

import valinf.cluster as cluster
import valinf.puiseux as puiseux
import valinf.valuations as valuations
from valinf import poly

POLYS = ["y^3-x^4+1/2", "y^2-x^5+x^3*y", "y^3-x^5+x*y", "y^4-x^3*y+x^5-2",
         "(y^2-x^3)*(y^2-x^3-x^2*y)"]


def counting(calls, name, module, attr):
    """Wrap module.attr so that each call adds one to calls[name]."""
    fn = getattr(module, attr)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    setattr(module, attr, wrapper)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("polys", nargs="*", default=POLYS)
    args = ap.parse_args()

    calls = {"meets": 0, "center_steps": 0, "build_geometry": 0,
             "rows": 0, "eval_divisorial": 0}
    # the hull calls diverging_depths by the name valuations gives it
    counting(calls, "meets", valuations, "diverging_depths")
    counting(calls, "center_steps", cluster, "_center_step")
    counting(calls, "build_geometry", cluster, "build_geometry")
    extend_rows = cluster._extend_rows

    def counting_rows(table, xy, cl):
        before = len(table)
        extend_rows(table, xy, cl)
        calls["rows"] += len(table) - before

    cluster._extend_rows = counting_rows
    # the one function and both names it is called by
    counting(calls, "eval_divisorial", cluster, "eval_divisorial")
    valuations.eval_divisorial = cluster.eval_divisorial

    for text in args.polys:
        Q = poly.parse(text)
        branches = len(puiseux.weighted_branches(Q))
        for k in calls:
            calls[k] = 0
        t0 = time.perf_counter()
        puiseux.logplus_laplacian(Q)
        seconds = time.perf_counter() - t0
        print(json.dumps({"polynomial": text, "branches": branches,
                          **calls, "seconds": round(seconds, 4)}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
