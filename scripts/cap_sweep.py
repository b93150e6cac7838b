"""Time the worst known input at each size cap of the library.

Each cap bounds an input that costs more as it grows; this script runs
the worst input known for each cap at a given size, by default the cap
itself, and prints one JSON line per cap: its name, its value, the size
run, and the seconds (``time.perf_counter``) and outcome of each input.
An outcome is the type of the answer, or of the ``DomainError`` or
``Undecided`` raised.

- ``MAX_CURVE_M``: the meet of the exact curve x_q^(1/m) at base y with
  the one-step divisorial Free(1) at base y (``--m``).
- ``MAX_CURVE_K``: the meet of the truncated curve
  x_q^(1/m) + 5 x_q^(2/m) (m = ``--k-m``) with that divisorial, and the
  evaluation of x^6 - y^5 + x*y^4 - 2 on the curve at m = 3 whose K
  coefficients are all 1 (``--k``).
- ``MAX_DEGREE``: the exhaustive witness search of
  ``scripts/witness_degrees.py`` at degree bound D (``--degree``).
- ``MAX_POWER_DEGREE``: parsing (x+y+1)^e (``--power-degree``).
- ``MAX_POWER_BITS``: parsing (N*x+N*y+N)^e, e = ``--power-degree``,
  with N = 2^k as large as the bit bound (``--power-bits``) allows.
- ``MAX_POWER_WORK``: parsing (x+y+1)^e with e as large, and
  (N*x+N*y+N)^32 with N = 2^k as large, as the work bound
  (``--power-work``, see ``poly._power_work``) and the bit bound allow.
- ``MAX_CHAIN_STEPS``: the monomial valuation v_{-1,t}, whose weight
  chain takes t blowups, and its cluster geometry (``--chain``).
- ``MAX_SEGMENT_DEPTH``: the branch-center walk of
  ``scripts/walk_depth.py`` to that depth (``--segment-depth``).
- ``MAX_ORACLE_COUNT``: ``oracle-check`` on that many random clusters
  (``--oracle-count``).

Usage: python3 scripts/cap_sweep.py [--m M] [--k-m M] [--k K]
    [--degree D] [--power-degree E] [--power-bits B] [--power-work W]
    [--chain T]
    [--segment-depth D] [--oracle-count N]
(run from the root of a checkout with ``src`` on PYTHONPATH)
"""

import argparse
import json
import sys
import time
from fractions import Fraction

from valinf import cli, poly, polyfinder, puiseux
from valinf.cluster import (MAX_CHAIN_STEPS, MAX_CURVE_K, MAX_CURVE_M,
                            BranchWalk, Free, PointAtInfinity,
                            chain_cluster, monomial_to_node)
from valinf.errors import DomainError, Undecided
from valinf.randomized import oracle_check
from valinf.valuations import (Divisorial, curve_evaluate, curve_of_series,
                               meet, quasimonomial)
from walk_depth import BRANCH
from witness_degrees import QUASIMONOMIALS

PY = PointAtInfinity("y")


def timed(fn, *args):
    """(seconds, outcome) of one call."""
    t0 = time.perf_counter()
    try:
        outcome = type(fn(*args)).__name__
    except (DomainError, Undecided) as e:   # a refusal is an outcome too
        outcome = type(e).__name__
    return round(time.perf_counter() - t0, 3), outcome


def free_one():
    cl = chain_cluster(PY, [Free(Fraction(1))])
    return Divisorial(cl, len(cl) - 1)


def curve_m(m):
    curve = curve_of_series(PY, m, {1: 1}, 1, exact=True)
    return {"meet": timed(meet, curve, free_one())}


def curve_k(K, m):
    truncated = curve_of_series(PY, m, {1: 1, 2: 5}, K)
    dense = curve_of_series(PY, 3, {j: 1 for j in range(1, K + 1)}, K)
    P = poly.parse("x^6-y^5+x*y^4-2")
    return {"meet": timed(meet, truncated, free_one()),
            "eval": timed(curve_evaluate, dense.branch, P)}


def witness_degree(D):
    S = [quasimonomial(PointAtInfinity("x", c), a, b)
         for c, a, b in QUASIMONOMIALS]
    return {"find_positive": timed(polyfinder.find_positive, S, D)}


def power_degree(e):
    return {"parse": timed(poly.parse, f"(x+y+1)^{e}")}


def power_bits(bits, e):
    # the parser bounds the bits of P^e by e times those of 3N
    N = 2 ** max(bits // e - 2, 0)
    return {"parse": timed(poly.parse, f"({N}*x+{N}*y+{N})^{e}")}


def power_work(work):
    # the largest e, and the largest k, whose power the bounds admit
    e = max((e for e in range(1, poly.MAX_POWER_DEGREE + 1)
             if poly._power_work(poly.parse("x+y+1"), e) <= work), default=0)

    def admitted(k):
        P = {m: 2 ** k for m in ((1, 0), (0, 1), (0, 0))}
        return poly._power_work(P, 32) <= work and \
            poly._power_bits(P, 32) <= poly.MAX_POWER_BITS

    N = 2 ** max((k for k in range(poly.MAX_POWER_BITS // 32)
                  if admitted(k)), default=0)
    return {"trinomial": timed(poly.parse, f"(x+y+1)^{e}"),
            "wide": timed(poly.parse, f"({N}*x+{N}*y+{N})^32")}


def chain(t):
    def build():
        cl, _ = monomial_to_node(Fraction(-1), Fraction(t))
        return cl.geometry()
    return {"monomial_geometry": timed(build)}


def segment_depth(depth):
    return {"walk": timed(BranchWalk(BRANCH).steps, depth)}


def oracle_count(count):
    return {"oracle_check": timed(oracle_check, 0, count)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--m", type=int, default=MAX_CURVE_M)
    ap.add_argument("--k-m", type=int, default=300,
                    help="ramification of the truncated curve of the K cap")
    ap.add_argument("--k", type=int, default=MAX_CURVE_K)
    ap.add_argument("--degree", type=int, default=polyfinder.MAX_DEGREE)
    ap.add_argument("--power-degree", type=int, default=poly.MAX_POWER_DEGREE)
    ap.add_argument("--power-bits", type=int, default=poly.MAX_POWER_BITS)
    ap.add_argument("--power-work", type=int, default=poly.MAX_POWER_WORK)
    ap.add_argument("--chain", type=int, default=MAX_CHAIN_STEPS)
    ap.add_argument("--segment-depth", type=int,
                    default=puiseux.MAX_SEGMENT_DEPTH)
    ap.add_argument("--oracle-count", type=int, default=cli.MAX_ORACLE_COUNT)
    args = ap.parse_args()
    sweeps = [
        ("MAX_CURVE_M", MAX_CURVE_M, args.m, lambda: curve_m(args.m)),
        ("MAX_CURVE_K", MAX_CURVE_K, args.k,
         lambda: curve_k(args.k, args.k_m)),
        ("MAX_DEGREE", polyfinder.MAX_DEGREE, args.degree,
         lambda: witness_degree(args.degree)),
        ("MAX_POWER_DEGREE", poly.MAX_POWER_DEGREE, args.power_degree,
         lambda: power_degree(args.power_degree)),
        ("MAX_POWER_BITS", poly.MAX_POWER_BITS, args.power_bits,
         lambda: power_bits(args.power_bits, args.power_degree)),
        ("MAX_POWER_WORK", poly.MAX_POWER_WORK, args.power_work,
         lambda: power_work(args.power_work)),
        ("MAX_CHAIN_STEPS", MAX_CHAIN_STEPS, args.chain,
         lambda: chain(args.chain)),
        ("MAX_SEGMENT_DEPTH", puiseux.MAX_SEGMENT_DEPTH, args.segment_depth,
         lambda: segment_depth(args.segment_depth)),
        ("MAX_ORACLE_COUNT", cli.MAX_ORACLE_COUNT, args.oracle_count,
         lambda: oracle_count(args.oracle_count)),
    ]
    for cap, value, size, run in sweeps:
        inputs = {name: {"seconds": s, "outcome": o}
                  for name, (s, o) in run().items()}
        print(json.dumps({"cap": cap, "value": value, "size": size,
                          "inputs": inputs}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
