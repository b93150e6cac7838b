"""Acceptance gate: one criterion per test, one printed verdict line each.

Every check is exact rational equality unless stated otherwise; the
printed line reports PASS/FAIL and the wall time against the budget.
"""

import random
import sys
import time
from fractions import Fraction

import acceptance_report
from randgen import random_mixed_set
from valinf import poly
from valinf.adelic import AdelicBranch, algebraize
from valinf.cluster import PointAtInfinity, branch_steps, chain_cluster
from valinf.exact import Ext, POS_INF
from valinf.polyfinder import find_nonnegative_nonconstant, find_positive
from valinf.potential import (EdgePoint, FiniteTree, dirichlet,
                              dirichlet_by_parts, extend_certificate, measure,
                              point_on_segment, tree_dirichlet,
                              tree_measure_values, tree_retract_masses,
                              tree_retract_vertex, value)
from valinf.puiseux import divisorial_on_segment, log_value, weighted_branches
from valinf.randomized import incomparable_nodes, oracle_check, random_cluster
from valinf.richness import (ValuationSet, chi_of, classify, kernel_function,
                             reduce, star_system)
from valinf.valuations import (Curve, Divisorial, Monomial, ROOT,
                               curve_of_series, evaluate, skewness, thinness)

F = Fraction
PX0 = PointAtInfinity("x", F(0))


def run_criterion(number, desc, limit, body):
    t0 = time.perf_counter()
    failed = None
    try:
        body()
    except BaseException as e:
        failed = e
        raise
    finally:
        dur = time.perf_counter() - t0
        ok = failed is None and dur < limit
        verdict = "PASS" if ok else "FAIL"
        line = (f"[{verdict}] criterion {number}: {desc} "
                f"({dur:.2f}s / {limit}s budget)")
        acceptance_report.record(line)
        print(line, file=sys.__stdout__, flush=True)   # visible under -s
    assert dur < limit, f"criterion {number} exceeded its {limit}s budget"


def test_criterion_01_fourteen_blowups():
    def body():
        cv = curve_of_series(PX0, 5, {3: 1, 10: 1}, 12, exact=True)
        steps = branch_steps(PX0, cv.branch.series, 16)
        cl = chain_cluster(PX0, steps[:13])     # root node is blowup 1 of 14
        assert len(cl) == 14
        g = cl.geometry()
        v = Divisorial(cl, 13)
        assert g.rows[13].alpha == 0
        assert skewness(v) == Ext(0)
        c = classify(ValuationSet.of([v]), 8)
        assert c.delta != 2
        assert c.delta in (0, "unknown")
        assert c.chi == Ext(0)
        assert c.thinness_integral is not None
        assert c.thinness_integral > Ext(0)
        assert c.witness_nonneg is None

    run_criterion(1, "14-blowup divisor has skewness 0 and is not rich",
                  5, body)


def test_criterion_02_cusp_pencil():
    def body():
        Q = poly.parse("y^2-x^3")
        (b, _), = weighted_branches(Q)
        v = divisorial_on_segment(b, F(0))
        assert skewness(v) == Ext(0)
        assert thinness(v) == Ext(F(1, 3))
        assert evaluate(v, Q) == Ext(0)
        P = find_nonnegative_nonconstant([v], 3)
        assert P is not None and poly.degree(P) == 3
        assert evaluate(v, P) == Ext(0)
        c = classify(ValuationSet.of([v]), 3)
        assert c.delta == 1

    run_criterion(2, "cusp pencil divisor: alpha=0, A=1/3, delta=1", 2, body)


def test_criterion_03_cluster_oracles():
    def body():
        passed, failures = oracle_check(seed=101, count=200, depth_cap=8)
        assert passed == 200, failures

    run_criterion(3, "200 random clusters: skewness, pairing, thinness "
                     "oracles agree", 30, body)


def _random_tree(rng, max_n=12):
    n = rng.randint(1, max_n)
    parent, alpha = [None], [Ext(1)]
    for i in range(1, n):
        p = rng.randrange(i)
        gap = alpha[p].q + 10           # headroom above the floor at -10
        alpha.append(Ext(alpha[p].q - gap * F(rng.randint(1, 3), 4)))
        parent.append(p)
    return FiniteTree(tuple(parent), tuple(alpha),
                      tuple([ROOT] + [None] * (n - 1)))


def _random_masses(rng, t, positive):
    out = {}
    for i in range(len(t)):
        if rng.random() < 0.6:
            m = F(rng.randint(1 if positive else -6, 6), rng.randint(1, 3))
            if m:
                out[i] = m
    if not out:
        out[0] = F(1)
    return out


def test_criterion_04_potential_identities():
    def body():
        rng = random.Random(404)
        for _ in range(500):
            t = _random_tree(rng)
            m1 = _random_masses(rng, t, positive=False)
            m2 = _random_masses(rng, t, positive=False)
            f = tree_measure_values(t, m1)
            g = tree_measure_values(t, m2)
            assert dirichlet_by_parts(f, g) == tree_dirichlet(t, m1, m2)
            assert f.values[0] == Ext(sum(m1.values(), F(0)))
            p1 = _random_masses(rng, t, positive=True)
            p2 = _random_masses(rng, t, positive=True)
            a = sum(p1.values(), F(0))
            b = sum(p2.values(), F(0))
            pab = tree_dirichlet(t, p1, p2).q
            paa = tree_dirichlet(t, p1, p1).q
            pbb = tree_dirichlet(t, p2, p2).q
            assert (a * b - pab) ** 2 <= (a * a - paa) * (b * b - pbb)
            sub = {0} | {i for i in range(len(t)) if rng.random() < 0.5}
            r = tree_retract_masses(t, sub, p1)
            before = tree_dirichlet(t, p1, p1)
            after = tree_dirichlet(t, r, r)
            assert after >= before
            on_hull = all(tree_retract_vertex(t, sub, i) == i for i in p1)
            assert (after == before) == on_hull

    run_criterion(4, "500 random trees: energy, Hodge, mass, retraction "
                     "identities", 30, body)


def test_criterion_05_green_identity():
    def body():
        corpus = ["x", "y", "y-x^2", "y^2-x^3", "y^2-x^3-1", "x*y-1"]
        polys = [poly.parse(s) for s in corpus]
        for Q in polys:
            bs = weighted_branches(Q)
            assert sum(e * b.series.m for b, e in bs) == poly.degree(Q)
        rng = random.Random(505)
        vals = []
        while len(vals) < 20:
            cl = random_cluster(rng, max_nodes=6, depth_cap=5)
            vals.append(Divisorial(cl, rng.randrange(len(cl))))
        for Q in polys:
            for v in vals:
                assert evaluate(v, Q) == -log_value(Q, v)

    run_criterion(5, "Green identity over the corpus at 20 random "
                     "divisorials", 20, body)


def test_criterion_06_mondal_grid():
    def body():
        grid = [F(-1), F(-1, 2), F(0), F(1, 3), F(1, 2), F(1), F(2), F(3)]
        for t in grid:
            v = ROOT if t == -1 else Monomial(F(-1), t)
            a = skewness(v)
            assert a == Ext(-t)
            if -1 < t <= 1:
                cl, node = v.realize()   # cluster oracle for the skewness
                assert cl.rows()[node].alpha == -t
            rich = chi_of(ValuationSet.of([v])) > Ext(0)
            assert rich == (a < Ext(0))
            witness = find_positive([v], 6)
            assert (witness is not None) == rich

    run_criterion(6, "monomial grid: chi>0 iff alpha<0 iff witness found",
                  10, body)


def test_criterion_07_chi_with_curves():
    def body():
        bs = [Curve(b) for b, _ in weighted_branches(poly.parse("x*y-1"))]
        assert bs[0].branch.base != bs[1].branch.base
        S = ValuationSet.of(bs)
        assert chi_of(S) == POS_INF
        P = find_positive(bs, 4)
        assert P is not None
        for v in bs:
            assert evaluate(v, P) > Ext(0)
        rng = random.Random(707)
        for _ in range(100):
            T = ValuationSet.of(random_mixed_set(rng))
            assert (chi_of(T) > Ext(0)) == (chi_of(reduce(T)) > Ext(0))

    run_criterion(7, "curve branches give chi=+inf with a witness; "
                     "reduction preserves the sign", 20, body)


def _chi_zero_instances():
    out = [[Monomial(F(-1), F(p, q)), Monomial(F(q, p), F(-1))]
           for p, q in [(1, 2), (2, 3), (1, 3), (3, 4), (2, 5)]]
    out.append([Monomial(F(-1), 0)])
    return out


def test_criterion_08_star_systems():
    def body():
        rng = random.Random(808)
        done = 0
        while done < 100:
            if rng.random() < 0.15:
                vs = _chi_zero_instances()[rng.randrange(6)]
            else:
                cl = random_cluster(rng, n_roots=rng.choice([1, 1, 2]))
                vs = [Divisorial(cl, n)
                      for n in incomparable_nodes(cl, rng, rng.randint(1, 4))]
                if not vs:
                    continue
            done += 1
            S = ValuationSet.of(vs)
            a, phi = star_system(S)
            assert value(phi, ROOT) == Ext(1)
            for v in vs:
                assert value(phi, v) == Ext(0)
            assert dirichlet(phi, phi) == Ext(a[0])
            chi = chi_of(S)
            assert (a[0] > 0) == (chi > Ext(0))
            assert (a[0] < 0) == (chi < Ext(0))
            if chi == Ext(0):
                k = kernel_function(S)
                assert all(m > 0 for _, m in k.atoms)
                assert dirichlet(k, k) == Ext(0)

    run_criterion(8, "100 star systems: a0 equals the self-pairing and "
                     "tracks the sign of chi", 20, body)


def test_criterion_09_extend_certificate():
    def body():
        rng = random.Random(909)
        branches = [curve_of_series(PX0, 1, {1: F(c)}, 16, exact=True)
                    for c in range(1, 4)]
        for _ in range(50):
            t = F(rng.randint(1, 6), rng.randint(1, 3))
            scale = F(rng.randint(1, 4))
            base = Monomial(F(-1), t)
            phi = measure([(base, scale), (ROOT, scale * t)])
            S = [base]
            r = t / (1 + t)               # self-pairing after normalization
            # the admissible skewness drops by 2k/r per extra point
            floor_alpha = -t - F(18) / r - 5
            extras = []
            for k in range(rng.randint(0, 3)):
                if rng.random() < 0.3:
                    # already above the base set: must be ignored
                    extras.append(Monomial(F(-1), t + rng.randint(1, 3)))
                else:
                    a = floor_alpha - rng.randint(0, 4)
                    extras.append(point_on_segment(branches[k], a))
            out = extend_certificate(phi, S, extras)
            assert dirichlet(out, out) >= Ext(r / 2)
            # vanishing above the base set and the extras, sampled
            assert value(out, base) == Ext(0)
            assert value(out, Monomial(F(-1), t + 7)) == Ext(0)
            for e in extras:
                assert value(out, e) == Ext(0)
                if isinstance(e, EdgePoint):
                    deeper = point_on_segment(e.below, e.alpha - 2)
                    assert value(out, deeper) == Ext(0)

    run_criterion(9, "50 certificate extensions keep at least half the "
                     "self-pairing and vanish upward", 10, body)


def test_criterion_10_algebraize():
    def body():
        (b, _), = weighted_branches(poly.parse("y^2-x^3"))
        ab = AdelicBranch(curve=Curve(b), primes=(2, 3))
        points = [(n * n, n ** 3) for n in range(2, 13)]
        rep = algebraize([ab], points, 6)
        assert rep.values == [0]
        assert poly.normalize(rep.curve) in (poly.parse("x^3-y^2"),
                                             poly.parse("y^2-x^3"))
        assert all(r.included for r in rep.points)
        assert all(poly.eval_at(rep.curve, *r.point) == 0
                   for r in rep.points)
        assert len(rep.branch_verdicts) == 1
        assert rep.branch_verdicts[0][1] == 0

    run_criterion(10, "points (n^2, n^3) algebraize to the cuspidal cubic "
                      "with T={0}", 5, body)
