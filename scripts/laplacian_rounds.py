"""Count the rounds and the geometry work of ``logplus_laplacian``.

For each polynomial, one ``puiseux.logplus_laplacian(Q)`` call is timed
with ``time.perf_counter`` and one JSON line is printed: the polynomial,
the rounds (the deepening passes over its branches), the calls of
``cluster.build_geometry`` and of ``eval_divisorial``, and the seconds.
The branches are expanded before the clock starts, so the time is that
of the log-Laplacian alone.  The calls are counted by wrappers that this
script puts around the library's functions; the library itself counts
nothing.

Usage: python3 scripts/laplacian_rounds.py [POLY ...]
"""

import argparse
import json
import sys
import time

import valinf.cluster as cluster
import valinf.puiseux as puiseux
from valinf import poly

POLYS = ["y^3-x^4+1/2", "y^2-x^5+x^3*y", "y^3-x^5+x*y", "y^4-x^3*y+x^5-2"]


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

    calls = {"build_geometry": 0, "eval_divisorial": 0}
    counting(calls, "build_geometry", cluster, "build_geometry")
    counting(calls, "eval_divisorial", puiseux, "eval_divisorial")
    # a round asks each branch's walk for its steps once, and the
    # log-Laplacian makes its walks before any other; so the rounds are
    # the requests to the first walk made in the call
    walks = []
    init, steps = cluster.BranchWalk.__init__, cluster.BranchWalk.steps

    def recording_init(self, series):
        init(self, series)
        walks.append([self, 0])

    def counting_steps(self, depth, works=None):
        next(w for w in walks if w[0] is self)[1] += 1
        return steps(self, depth, works)

    cluster.BranchWalk.__init__ = recording_init
    cluster.BranchWalk.steps = counting_steps

    for text in args.polys:
        Q = poly.parse(text)
        puiseux.weighted_branches(Q)
        walks.clear()
        for k in calls:
            calls[k] = 0
        t0 = time.perf_counter()
        puiseux.logplus_laplacian(Q)
        seconds = time.perf_counter() - t0
        print(json.dumps({"polynomial": text, "rounds": walks[0][1],
                          **calls, "seconds": round(seconds, 4)}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
