"""Time the potential-theory forms on n seeded tree points.

For each n, ``random.Random(n)`` draws n points: a node of a random
cluster (``randomized.random_cluster``, at one of its four points of
L-infinity) as a divisorial valuation v, moved up its segment
[root, v] to an ``EdgePoint`` half of the time.  rho puts mass 1 on
each point, equal points not merged.  One JSON line per n gives, for
``build_tree(points)``, ``value(rho, points[0])``, ``dirichlet(rho,
rho)``, ``measure`` of rho's atoms (equal points merged) and
``retract_measure(rho, tree)`` onto the tree of the first half of the
points (built before the clock starts), the seconds
(``time.perf_counter``), the ``valuations.Hull`` objects built and the
``valuations.meet`` calls.
The counts are taken by wrappers that this script puts around the
library's functions; the library itself counts nothing.

Usage: python3 scripts/tree_scale.py [N ...]
(run from the root of a checkout with ``src`` on PYTHONPATH)
"""

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from valinf import potential, valuations
from valinf.randomized import random_cluster
from valinf.valuations import Divisorial, skewness

CALLS = {"hulls": 0, "meets": 0}


def count_hulls():
    init = valuations.Hull.__init__

    def counting(self, *args, **kwargs):
        CALLS["hulls"] += 1
        init(self, *args, **kwargs)

    valuations.Hull.__init__ = counting


def count_meets():
    meet = valuations.meet

    def counting(*args, **kwargs):
        CALLS["meets"] += 1
        return meet(*args, **kwargs)

    # under every name a valinf module gives it
    for m in list(sys.modules.values()):
        if getattr(m, "__name__", "").startswith("valinf"):
            for name, obj in list(vars(m).items()):
                if obj is meet:
                    setattr(m, name, counting)


def points(n):
    rng = random.Random(n)
    out = []
    for _ in range(n):
        cl = random_cluster(rng, max_nodes=8, depth_cap=6)
        v = Divisorial(cl, rng.randrange(len(cl)))
        a = skewness(v).q
        if rng.random() < 0.5:
            share = Fraction(rng.randint(1, 3), 4)
            v = potential.point_on_segment(v, a + (1 - a) * share)
        out.append(v)
    return out


def timed(fn, *args):
    for k in CALLS:
        CALLS[k] = 0
    t0 = time.perf_counter()
    fn(*args)
    return {"seconds": round(time.perf_counter() - t0, 4), **CALLS}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("n", type=int, nargs="*", default=[8, 16, 32, 64])
    args = ap.parse_args()
    count_hulls()
    count_meets()
    for n in args.n:
        pts = points(n)
        rho = potential.DiscreteMeasure(tuple((p, 1) for p in pts))
        tree = potential.build_tree(pts[:n // 2])
        print(json.dumps({
            "n": n,
            "build_tree": timed(potential.build_tree, pts),
            "value": timed(potential.value, rho, pts[0]),
            "dirichlet": timed(potential.dirichlet, rho, rho),
            "measure": timed(potential.measure, rho.atoms),
            "retract_measure": timed(potential.retract_measure, rho, tree)}),
            flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
