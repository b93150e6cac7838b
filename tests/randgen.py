"""Seeded random generators shared by property and acceptance tests."""

import random
from fractions import Fraction

from valinf.cluster import Cluster
from valinf.randomized import incomparable_nodes, random_cluster
from valinf.valuations import Curve, Divisorial, Monomial, ROOT


def random_divisorial_set(rng: random.Random, want=4):
    cl = random_cluster(rng, n_roots=rng.choice([1, 1, 2]))
    return [Divisorial(cl, n) for n in incomparable_nodes(cl, rng, want)]


def _branch_pool():
    from valinf import poly
    from valinf.puiseux import weighted_branches

    out = []
    for s in ["y^2-x^3", "x*y-1", "y-x^2", "y^2-x^3-1"]:
        for b, _ in weighted_branches(poly.parse(s)):
            out.append(Curve(b))
    return out


_CURVES = None


def random_mixed_set(rng: random.Random, max_size=5):
    """Sets mixing comparable monomial pairs, curves, and Root."""
    global _CURVES
    if _CURVES is None:
        _CURVES = _branch_pool()
    out = []
    for _ in range(rng.randint(1, max_size)):
        kind = rng.random()
        if kind < 0.35:
            t = Fraction(rng.randint(-2, 6), rng.choice([1, 2, 3]))
            out.append(Monomial(Fraction(-1), t) if t != -1 else ROOT)
        elif kind < 0.5:
            s = Fraction(rng.randint(0, 6), rng.choice([1, 2, 3]))
            out.append(Monomial(s, Fraction(-1)))
        elif kind < 0.75:
            out.append(rng.choice(_CURVES))
        elif kind < 0.85:
            out.append(ROOT)
        else:
            cl = random_cluster(rng, max_nodes=5)
            out.append(Divisorial(cl, rng.randrange(len(cl))))
    return out


def random_path_batches(rng: random.Random, n_batches=3):
    """Batches of center paths (base, steps) for a ``PathTrie``.

    The paths are node keys of one random cluster, so they are valid and
    share prefixes; later batches repeat, extend and branch off the paths
    of earlier ones, as the rounds of a deepening search do.
    """
    cl = random_cluster(rng, max_nodes=14, n_roots=rng.choice([1, 1, 2]))
    keys = [cl.key(i) for i in range(len(cl))]
    return [[rng.choice(keys) for _ in range(rng.randint(1, 4))]
            for _ in range(n_batches)]
