import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import divisorial_rows_by_pullback, solve_linear_by_fractions
from randgen import (random_cluster, incomparable_nodes,
                     random_divisorial_set, random_mixed_set)
from valinf import poly, polyfinder
from valinf.exact import Ext, POS_INF, solve_linear
from valinf.polyfinder import (find_nonnegative_nonconstant, find_positive,
                               monomials_upto, valuation_conditions)
from valinf.puiseux import log_value, logplus_laplacian, weighted_branches
from valinf.valuations import (Curve, Divisorial, Monomial, ROOT, evaluate)

F = Fraction


def kernel_dim(valuations, d, strict, include_constant=True):
    monomials = monomials_upto(d, include_constant)
    rows = []
    for v in valuations:
        rows.extend(valuation_conditions(v, d, strict, monomials).rows)
    if not rows:
        return len(monomials)
    return len(solve_linear(rows).kernel)


class TestConditions:
    def test_monomial_strict_rank(self):
        # at degree 1 the strict system for v_{-1,1} kills x and constants
        cs = valuation_conditions(Monomial(F(-1), 1), 1, strict=True)
        assert len(cs.rows) == 2
        assert kernel_dim([Monomial(F(-1), 1)], 1, True) == 1

    def test_root_strict_infeasible(self):
        assert kernel_dim([ROOT], 1, True) == 0

    def test_curve_system_contains_defining_polynomial(self):
        (b, _), = weighted_branches(poly.parse("y^2-x^3"))
        monomials = monomials_upto(3)
        cs = valuation_conditions(Curve(b), 3, strict=True, monomials=monomials)
        target = poly.parse("y^2-x^3")
        for row in cs.rows:
            s = sum(c * target.get(m, F(0)) for c, m in zip(row, monomials))
            assert s == 0

    def test_divisorial_conditions_match_evaluator(self):
        # the constraint system is feasibility-exact: random polynomials
        # satisfy the rows iff the independently evaluated v(P) clears
        # the threshold
        rng = random.Random(3)
        for _ in range(15):
            cl = random_cluster(rng, max_nodes=6)
            node = rng.randrange(len(cl))
            v = Divisorial(cl, node)
            d = 3
            monomials = monomials_upto(d)
            cs = valuation_conditions(v, d, True, monomials)
            P = {m: F(rng.randint(-2, 2)) for m in monomials
                 if rng.random() < 0.5}
            P = {k: c for k, c in P.items() if c}
            if not P:
                continue
            vec = [P.get(m, F(0)) for m in monomials]
            satisfied = all(
                sum(c * e for c, e in zip(row, vec)) == 0 for row in cs.rows)
            b = cl.rows()[node].b
            assert satisfied == (evaluate(v, P) >= Ext(F(1, b)))


class TestFindPositive:
    def test_monomial_example(self):
        assert find_positive([Monomial(F(-1), 1)], 1) == {(0, 1): F(1)}

    def test_root_not_found(self):
        assert find_positive([ROOT], 5) is None

    def test_curve_witness_vanishes_identically(self):
        (b, _), = weighted_branches(poly.parse("y^2-x^3"))
        P = find_positive([Curve(b)], 3)
        assert P is not None
        assert evaluate(Curve(b), P) == POS_INF

    def test_two_branches(self):
        bs = [Curve(b) for b, _ in weighted_branches(poly.parse("x*y-1"))]
        P = find_positive(bs, 4)
        assert P is not None
        for v in bs:
            assert evaluate(v, P) > Ext(0)

    def test_deterministic(self):
        vs = [Monomial(F(-1), F(1, 2))]
        assert find_positive(vs, 4) == find_positive(vs, 4)


class TestFindNonnegative:
    def test_monomial_example(self):
        assert find_nonnegative_nonconstant([Monomial(F(-1), 0)], 1) \
            == {(0, 1): F(1)}

    def test_pencil_generator(self):
        (p, _), = logplus_laplacian(poly.parse("y^2-x^3")).atoms
        P = find_nonnegative_nonconstant([p], 3)
        assert P is not None
        assert evaluate(p, P) == Ext(0)
        assert poly.degree(P) == 3

    def test_root_not_found(self):
        assert find_nonnegative_nonconstant([ROOT], 4) is None


class TestProperties:
    def test_green_cross_check(self):
        # v(P) for returned witnesses recomputed through the branch
        # decomposition of P
        vs = [Monomial(F(-1), 2), Monomial(F(2, 3), F(-1))]
        P = find_positive(vs, 8)
        assert P is not None
        for v in vs:
            assert evaluate(v, P) == -log_value(P, v)

    def test_dimension_monotone_in_degree(self):
        rng = random.Random(9)
        for _ in range(8):
            cl = random_cluster(rng, max_nodes=6)
            vs = [Divisorial(cl, n) for n in incomparable_nodes(cl, rng, 2)]
            if not vs:
                continue
            dims = [kernel_dim(vs, d, True) for d in (1, 2, 3)]
            assert dims[0] <= dims[1] <= dims[2]

    def test_desk_equivalence_on_monomial_grid(self):
        from valinf.richness import ValuationSet, chi_of

        for t in [F(-1, 2), F(0), F(1, 3), F(1), F(3)]:
            v = Monomial(F(-1), t)
            found = find_positive([v], 6)
            assert (found is not None) == \
                (chi_of(ValuationSet.of([v])) > Ext(0))


# ---------------------------------------------------------------------------
# the fraction-free solver against the Fraction Gauss-Jordan it replaced
# ---------------------------------------------------------------------------


def random_set(seed, mixed):
    rng = random.Random(seed)
    return random_mixed_set(rng) if mixed else random_divisorial_set(rng)


oracle_settings = settings(derandomize=True, max_examples=60, deadline=None)


@oracle_settings
@given(st.integers(0, 10 ** 6), st.booleans(), st.integers(1, 4),
       st.booleans())
def test_condition_systems_solve_like_fraction_gauss_jordan(seed, mixed, d,
                                                            strict):
    monomials = monomials_upto(d)
    rows = []
    for v in random_set(seed, mixed):
        rows += valuation_conditions(v, d, strict, monomials).rows
    assert solve_linear(rows) == solve_linear_by_fractions(rows)


@oracle_settings
@given(st.integers(0, 10 ** 6), st.booleans(), st.integers(1, 4))
def test_witnesses_match_fraction_gauss_jordan(seed, mixed, D):
    S = random_set(seed, mixed)
    searches = (find_positive, find_nonnegative_nonconstant)
    got = [f(S, D) for f in searches]
    with mock.patch.object(polyfinder, "solve_linear",
                           solve_linear_by_fractions):
        assert got == [f(S, D) for f in searches]


@oracle_settings
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(1, 4),
       st.booleans())
@example(seed=16, n_roots=1, d=3, strict=True)    # base x, c = 1
@example(seed=0, n_roots=1, d=2, strict=False)    # base x, c = -2
def test_divisorial_rows_match_the_pullback_of_u(seed, n_roots, d, strict):
    rng = random.Random(seed)
    cl = random_cluster(rng, max_nodes=12, n_roots=n_roots)
    monomials = monomials_upto(d)
    for node in range(len(cl)):
        v = Divisorial(cl, node)
        assert valuation_conditions(v, d, strict, monomials).rows == \
            divisorial_rows_by_pullback(v, monomials, d, strict)

