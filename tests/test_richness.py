import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracles import is_negative_definite, solve_linear_by_fractions
from randgen import (random_cluster, incomparable_nodes,
                     random_divisorial_set, random_mixed_set)
from valinf import poly, richness
from valinf.errors import (DomainError, KernelDimensionNotOne,
                           PreconditionViolated)
from valinf.exact import Ext, NEG_INF, POS_INF
from valinf.potential import dirichlet, value
from valinf.puiseux import logplus_laplacian, weighted_branches
from valinf.richness import (ValuationSet, chi_of, classify, kernel_function,
                             matrix_alpha, reduce, reduce_with_report,
                             star_system, thinness_integral)
from valinf.valuations import (Curve, Divisorial, Monomial, ROOT, evaluate,
                               skewness)

F = Fraction


def mset(*vs):
    return ValuationSet.of(vs)


def pencil_valuation():
    (p, _), = logplus_laplacian(poly.parse("y^2-x^3")).atoms
    return p


class TestReduce:
    def test_comparable_pair_keeps_minimal(self):
        R = reduce(mset(Monomial(F(-1), 0), Monomial(F(-1), 1)))
        assert list(R) == [Monomial(F(-1), 0)] or \
            skewness(list(R)[0]) == Ext(0)
        assert len(R) == 1

    def test_two_curves_reduce_to_empty(self):
        bs = [Curve(b) for b, _ in weighted_branches(poly.parse("x*y-1"))]
        assert len(reduce(mset(*bs))) == 0

    def test_root_alone_survives(self):
        assert list(reduce(mset(ROOT))) == [ROOT]

    def test_root_dominates_everything(self):
        R, report = reduce_with_report(mset(ROOT, Monomial(F(-1), 2)))
        assert list(R) == [ROOT]
        assert report["v1"] == ("dominated-by", "v0")

    def test_duplicates_merged(self):
        v = Monomial(F(-1), F(1, 2))
        d = Divisorial(*v.realize())
        R, report = reduce_with_report(mset(v, d))
        assert len(R) == 1
        assert ("duplicate-of", "v0") in report.values()


class TestMatrixAndChi:
    def test_singletons(self):
        assert matrix_alpha(mset(ROOT)).entries[0][0] == Ext(1)
        assert matrix_alpha(mset(Monomial(F(-1), 1))).entries[0][0] == Ext(-1)

    def test_two_curves_matrix(self):
        bs = [Curve(b) for b, _ in weighted_branches(poly.parse("x*y-1"))]
        M = matrix_alpha(mset(*bs))
        assert M.entries[0][0] == NEG_INF and M.entries[1][1] == NEG_INF
        assert M.entries[0][1] == Ext(1)

    def test_chi_values(self):
        assert chi_of(mset(Monomial(F(-1), 1))) == Ext(1)
        assert chi_of(mset(Monomial(F(-1), 0))) == Ext(0)
        assert chi_of(mset(ROOT)) == Ext(-1)
        assert chi_of(ValuationSet.of([])) == Ext(1)

    def test_chi_two_curves_plus_infinity(self):
        bs = [Curve(b) for b, _ in weighted_branches(poly.parse("x*y-1"))]
        assert chi_of(mset(*bs)) == POS_INF

    def test_chi_positive_iff_negative_definite(self):
        rng = random.Random(11)
        for _ in range(25):
            cl = random_cluster(rng)
            S = mset(*[Divisorial(cl, n)
                       for n in incomparable_nodes(cl, rng, 3)])
            if len(S) == 0:
                continue
            M = matrix_alpha(S)
            assert (chi_of(S) > Ext(0)) == is_negative_definite(M)

    def test_chi_sign_invariant_under_reduction(self):
        rng = random.Random(23)
        for _ in range(30):
            S = mset(*random_mixed_set(rng))
            assert (chi_of(S) > Ext(0)) == (chi_of(reduce(S)) > Ext(0))

    def test_dual_matrix_congruence(self):
        # [(dual_i . dual_j)] = diag(b) M diag(b) for nodes of one cluster
        rng = random.Random(5)
        for _ in range(10):
            cl = random_cluster(rng)
            nodes = incomparable_nodes(cl, rng, 3)
            if not nodes:
                continue
            g = cl.geometry()
            S = mset(*[Divisorial(cl, n) for n in nodes])
            M = matrix_alpha(S)
            for i, ni in enumerate(nodes):
                for j, nj in enumerate(nodes):
                    assert g.check_dual(ni, nj) == \
                        g.rows[ni].b * g.rows[nj].b * M.entries[i][j].q


class TestStarSystem:
    def test_example_negative_alpha(self):
        a, phi = star_system(mset(Monomial(F(-1), 1)))
        assert a == [F(1, 2), F(1, 2)]
        assert dirichlet(phi, phi) == Ext(F(1, 2))

    def test_example_zero_alpha(self):
        a, _ = star_system(mset(Monomial(F(-1), 0)))
        assert a == [F(0), F(1)]

    def test_defining_identities_random(self):
        rng = random.Random(7)
        for _ in range(20):
            cl = random_cluster(rng)
            vs = [Divisorial(cl, n) for n in incomparable_nodes(cl, rng, 3)]
            if not vs:
                continue
            S = mset(*vs)
            a, phi = star_system(S)
            assert value(phi, ROOT) == Ext(1)
            for v in vs:
                assert value(phi, v) == Ext(0)
            assert dirichlet(phi, phi) == Ext(a[0])
            chi = chi_of(S)
            assert (a[0] > 0) == (chi > Ext(0))
            assert (a[0] == 0) == (chi == Ext(0))

    def test_curve_rejected(self):
        (b, _), = weighted_branches(poly.parse("y^2-x^3"))
        with pytest.raises(PreconditionViolated):
            star_system(mset(Curve(b)))


class TestKernelFunction:
    def test_monomial_zero_alpha(self):
        k = kernel_function(mset(Monomial(F(-1), 0)))
        ((p, m),) = k.atoms
        assert m == 1
        assert value(k, ROOT) == Ext(1)
        assert dirichlet(k, k) == Ext(0)

    def test_pencil_divisor(self):
        k = kernel_function(mset(pencil_valuation()))
        ((_, m),) = k.atoms
        assert m == 1
        assert thinness_integral(k) == Ext(F(1, 3))

    def test_nonzero_chi_rejected(self):
        with pytest.raises(KernelDimensionNotOne):
            kernel_function(mset(Monomial(F(-1), 1)))

    def test_comparable_rejected(self):
        with pytest.raises(PreconditionViolated):
            kernel_function(mset(Monomial(F(-1), 0), Monomial(F(-1), F(1, 2))))

    def test_chi_zero_random_instances(self):
        # scale a chi-positive antichain continuously? instead, curated
        # pairs with alpha_1 * alpha_2 = 1 give det == 0 directly
        for p, q in [(1, 2), (2, 3), (1, 3), (3, 5)]:
            v1 = Monomial(F(-1), F(p, q))
            v2 = Monomial(F(q, p), F(-1))
            S = mset(v1, v2)
            assert chi_of(S) == Ext(0)
            k = kernel_function(S)
            assert all(m > 0 for _, m in k.atoms)
            assert dirichlet(k, k) == Ext(0)
            for v in (v1, v2):
                assert value(k, v) == Ext(0)


class TestThinnessIntegral:
    def test_root_atom(self):
        from valinf.potential import dirac

        assert thinness_integral(dirac(ROOT)) == Ext(-2)
        assert thinness_integral(dirac(Monomial(F(-1), 0))) == Ext(-1)


class TestClassify:
    def test_negative_alpha_singleton_is_rich(self):
        c = classify(mset(Monomial(F(-1), 1)), 1)
        assert c.delta == 2
        assert c.witness_positive == {(0, 1): F(1)}
        assert evaluate(Monomial(F(-1), 1), c.witness_positive) > Ext(0)

    def test_zero_alpha_singleton(self):
        c = classify(mset(Monomial(F(-1), 0)), 1)
        assert c.delta == 1
        assert c.thinness_integral == Ext(-1)

    def test_root_is_poor(self):
        assert classify(mset(ROOT), 3).delta == 0

    def test_pencil_delta_one(self):
        c = classify(mset(pencil_valuation()), 3)
        assert c.delta == 1
        assert c.thinness_integral == Ext(F(1, 3))
        assert c.witness_nonneg is not None
        assert evaluate(pencil_valuation(), c.witness_nonneg) == Ext(0)

    def test_two_branches_rich(self):
        bs = [Curve(b) for b, _ in weighted_branches(poly.parse("x*y-1"))]
        c = classify(mset(*bs), 4)
        assert c.delta == 2
        assert c.witness_positive is not None
        for v in bs:
            assert evaluate(v, c.witness_positive) > Ext(0)

    def test_minimal_curve_blocks_delta_one(self):
        # a curve above nothing with chi(S^min_plus) = 0 forces delta 0
        (b, _), = weighted_branches(poly.parse("y^2-x^3"))
        S = mset(Curve(b), Monomial(F(0), F(-1)))
        if chi_of(reduce(S)) == Ext(0):
            assert classify(S, 2).delta == 0

    def test_mondal_equivalence(self):
        from valinf import polyfinder

        for t in [F(-1, 2), F(0), F(1, 3), F(1, 2), F(1), F(2)]:
            v = Monomial(F(-1), t)
            rich = chi_of(mset(v)) > Ext(0)
            assert rich == (skewness(v) < Ext(0)) == (t > 0)
            found = polyfinder.find_positive([v], 6)
            assert (found is not None) == rich


def outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as e:
        return (type(e).__name__, str(e))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 5))
def test_potentials_match_fraction_gauss_jordan(seed, want):
    """star_system and kernel_function give what they gave on the
    Fraction Gauss-Jordan, on antichains and on chi = 0 pairs."""
    rng = random.Random(seed)
    p, q = rng.randint(1, 5), rng.randint(1, 5)
    sets = [mset(*random_divisorial_set(rng, want)),
            mset(Monomial(F(-1), F(p, q)), Monomial(F(q, p), F(-1)))]
    calls = [(f, S) for S in sets for f in (star_system, kernel_function)]
    got = [outcome(f, S) for f, S in calls]
    with mock.patch.object(richness, "solve_linear",
                           solve_linear_by_fractions):
        assert got == [outcome(f, S) for f, S in calls]

