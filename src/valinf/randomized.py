"""Seeded random clusters and the self-consistency check suite."""

from __future__ import annotations

import random
from fractions import Fraction

from .cluster import (Cluster, Free, Node, PointAtInfinity, SatU, SatV,
                      _extend_axes)

BASES = [PointAtInfinity("y"), PointAtInfinity("x", Fraction(0)),
         PointAtInfinity("x", Fraction(1)), PointAtInfinity("x", Fraction(-2))]


def random_cluster(rng: random.Random, max_nodes=9, depth_cap=8,
                   n_roots=1) -> Cluster:
    """Random valid cluster with mixed free and satellite steps."""
    bases = rng.sample(BASES, n_roots)
    nodes = [Node(parent=-1, base=b, step=None) for b in bases]
    axes = []       # (u-axis, v-axis or None) per node, as validation has them
    _extend_axes(nodes, axes)
    depth = [1] * n_roots
    used = set()
    n_extra = rng.randint(1, max(1, max_nodes - n_roots))
    for _ in range(n_extra):
        p = rng.randrange(len(nodes))
        if depth[p] >= depth_cap:
            continue
        pv = axes[p][1]
        cs = [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
              for _ in range(3)]
        options = [Free(c) for c in cs if c != 0 or pv is None]
        options.append(SatU())
        if pv is not None:
            options.append(SatV())
        step = rng.choice(options)
        if (p, step) in used:
            continue
        used.add((p, step))
        nodes.append(Node(parent=p, base=None, step=step))
        _extend_axes(nodes, axes)
        depth.append(depth[p] + 1)
    return Cluster(nodes)


def incomparable_nodes(cl: Cluster, rng: random.Random, want=4) -> list:
    """Antichain of node indices in the dual-tree order."""
    g = cl.geometry()
    order = list(range(len(cl)))
    rng.shuffle(order)
    kept = []
    for n in order:
        if all(g.lca(n, k) not in (n, k) for k in kept):
            kept.append(n)
        if len(kept) == want:
            break
    return kept


def check_cluster_consistency(cl: Cluster) -> list:
    """Independent geometric identities; returns a list of failures.

    For every node, the skewness on its row must equal the normalized
    dual self-intersection; for every pair, the dual pairing must equal
    b_i b_j times the skewness of the meet; thinness must increase and
    skewness decrease strictly along dual root paths.
    """
    g = cl.geometry()
    rows = g.rows
    bad = []
    n = len(cl)
    for i in range(n):
        if rows[i].alpha != g.check_dual(i, i) / Fraction(rows[i].b ** 2):
            bad.append(f"alpha mismatch at node {i}")
    for i in range(n):
        for j in range(i + 1, n):
            a = rows[g.lca(i, j)].alpha
            if g.check_dual(i, j) != rows[i].b * rows[j].b * a:
                bad.append(f"pairing mismatch at nodes {i},{j}")
    for i in range(n):
        path = g.dual_path(i)
        for a, b in zip(path, path[1:]):
            if not rows[a].thin < rows[b].thin:
                bad.append(f"thinness not increasing at {a}->{b}")
            if not rows[a].alpha > rows[b].alpha:
                bad.append(f"skewness not decreasing at {a}->{b}")
    return bad


def oracle_check(seed: int, count: int, max_nodes=9, depth_cap=8):
    """(passes, failures) over ``count`` random clusters."""
    rng = random.Random(seed)
    passed = 0
    failures = []
    for k in range(count):
        cl = random_cluster(rng, max_nodes=max_nodes, depth_cap=depth_cap,
                            n_roots=rng.choice([1, 1, 2]))
        bad = check_cluster_consistency(cl)
        if bad:
            failures.append((k, bad))
        else:
            passed += 1
    return passed, failures
