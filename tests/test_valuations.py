from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import curves_equal_by_fractions
from valinf import poly
from valinf.cluster import PointAtInfinity, PuiseuxBranch, chain_cluster, Free
from valinf.errors import InsufficientTruncation, RootValuation
from valinf.exact import Ext, NEG_INF, POS_INF
from valinf.series import PuiseuxSeries
from valinf.valuations import (Comparison, Curve, Divisorial, Monomial, ROOT,
                               compare, curve_of_series, equal, evaluate,
                               meet, quasimonomial, skewness, thinness)

F = Fraction
PX0 = PointAtInfinity("x", F(0))
PY = PointAtInfinity("y")

X = {(1, 0): F(1)}
Y = {(0, 1): F(1)}
CUSP_POLY = {(0, 2): F(1), (3, 0): F(-1)}  # y^2 - x^3

# branch of y^2 = x^3 at [0:1:0]: x_q = y_q^3, i.e. y_q = x_q^(1/3)
CUSP_BRANCH = curve_of_series(PY, 3, {1: 1}, 3, exact=True)


class TestEvaluate:
    def test_root(self):
        assert evaluate(ROOT, {(2, 1): 1}) == Ext(-3)

    def test_monomial(self):
        v = Monomial(F(-1), F(1))
        assert evaluate(v, Y) == Ext(1)
        assert evaluate(v, X) == Ext(-1)

    def test_monomial_normalizes(self):
        v = Monomial(F(-2), F(2))
        assert (v.s, v.t) == (F(-1), F(1))
        with pytest.raises(RootValuation):
            Monomial(F(-1), F(-1))
        with pytest.raises(RootValuation):
            Monomial(F(1), F(2))

    def test_curve_normalization(self):
        assert evaluate(CUSP_BRANCH, X) == Ext(F(-2, 3))
        assert evaluate(CUSP_BRANCH, Y) == Ext(-1)

    def test_curve_vanishing(self):
        assert evaluate(CUSP_BRANCH, CUSP_POLY) == POS_INF

    def test_curve_truncated_vanishing_needs_minpoly(self):
        trunc = curve_of_series(PY, 3, {1: 1}, 9, exact=False)
        with pytest.raises(InsufficientTruncation):
            evaluate(trunc, CUSP_POLY)
        with_mp = curve_of_series(PY, 3, {1: 1}, 9, exact=False,
                                  minpoly=tuple(CUSP_POLY.items()))
        assert evaluate(with_mp, CUSP_POLY) == POS_INF

    def test_normalization_axiom(self):
        for v in [ROOT, Monomial(F(-1), F(1, 2)), Monomial(F(1, 3), F(-1)),
                  CUSP_BRANCH, Divisorial(*Monomial(F(-1), F(2)).realize())]:
            vals = [evaluate(v, X), evaluate(v, Y)]
            assert min(vals) == Ext(-1)


class TestSkewnessThinness:
    def test_root(self):
        assert skewness(ROOT) == Ext(1)
        assert thinness(ROOT) == Ext(-2)

    def test_curve(self):
        assert skewness(CUSP_BRANCH) == NEG_INF
        assert thinness(CUSP_BRANCH) == POS_INF

    def test_monomial_grid(self):
        for t in [F(-1, 2), F(0), F(1, 3), F(1, 2), F(1), F(2), F(3)]:
            assert skewness(Monomial(F(-1), t)) == Ext(-t)
        assert skewness(Monomial(F(1, 2), F(-1))) == Ext(F(-1, 2))

    def test_thinness_examples(self):
        assert thinness(Monomial(F(-1), F(0))) == Ext(-1)


class TestOrderAndMeet:
    def test_root_minimal(self):
        v = Monomial(F(-1), F(0))
        assert compare(ROOT, v) == Comparison.LT
        assert compare(v, ROOT) == Comparison.GT
        assert meet(ROOT, v) is ROOT

    def test_monomial_chain(self):
        a, b = Monomial(F(-1), F(0)), Monomial(F(-1), F(1))
        assert compare(a, b) == Comparison.LT
        m = meet(a, b)
        assert m is a

    def test_distinct_points_incomparable(self):
        a = Monomial(F(-1), F(1))   # above [1:0:0]
        b = Monomial(F(1), F(-1))   # above [0:1:0]
        assert compare(a, b) == Comparison.INCOMPARABLE
        assert meet(a, b) is ROOT

    def test_meet_idempotent(self):
        v = Monomial(F(-1), F(1, 3))
        assert meet(v, v) is v

    def test_meet_symmetric_skewness(self):
        vals = [Monomial(F(-1), F(0)), Monomial(F(-1), F(2)),
                Monomial(F(1, 2), F(-1)), CUSP_BRANCH]
        for v in vals:
            for w in vals:
                assert skewness(meet(v, w)) == skewness(meet(w, v))

    def test_curve_meet_divisorial_on_branch(self):
        # the cusp branch passes through E0 (alpha=0); their meet is E2
        e0 = Monomial(F(0), F(-1))  # weights (1,1) at [0:1:0]
        m = meet(CUSP_BRANCH, e0)
        assert skewness(m) == Ext(F(2, 3))

    def test_curve_vs_deep_center(self):
        # pencil divisor E8 lies below the branch
        from oracles import branch_to_nodes
        cl, path = branch_to_nodes(PY, CUSP_BRANCH.branch.series, 9)
        e8 = Divisorial(cl, 8)
        assert compare(e8, CUSP_BRANCH) == Comparison.LT
        assert equal(meet(e8, CUSP_BRANCH), e8)

    def test_two_branches_same_point(self):
        # y_q = x_q^3 vs y_q = x_q^3 + x_q^4 separate at depth 4
        b1 = curve_of_series(PX0, 1, {3: 1}, 8, exact=True)
        b2 = curve_of_series(PX0, 1, {3: 1, 4: 1}, 8, exact=True)
        m = meet(b1, b2)
        assert skewness(m) == Ext(-3)
        assert compare(b1, b2) == Comparison.INCOMPARABLE

    def test_equal_curves(self):
        b1 = curve_of_series(PX0, 1, {3: 1}, 8, exact=True)
        b2 = curve_of_series(PX0, 2, {6: 1}, 16, exact=True)
        assert equal(b1, b2)
        assert compare(b1, b2) == Comparison.EQ

    def test_truncated_equal_curves_raise(self):
        b1 = curve_of_series(PX0, 1, {3: 1}, 8)
        b2 = curve_of_series(PX0, 1, {3: 1}, 8)
        with pytest.raises(InsufficientTruncation):
            compare(b1, b2)

    def test_order_soundness_on_corpus(self):
        corpus = [X, Y, CUSP_POLY, poly.parse("x*y-1"), poly.parse("y-x^2")]
        a, b = Monomial(F(-1), F(0)), Monomial(F(-1), F(1))
        for P in corpus:
            assert evaluate(a, P) <= evaluate(b, P)

    def test_distance_form(self):
        vals = [ROOT, Monomial(F(-1), F(0)), Monomial(F(-1), F(1)),
                Monomial(F(1, 2), F(-1))]
        for v in vals:
            for w in vals:
                d = 2 * skewness(meet(v, w)) - skewness(v) - skewness(w)
                assert d >= Ext(0)
                if d == Ext(0):
                    assert equal(v, w)


def test_quasimonomial_alpha():
    p = PointAtInfinity("x", F(2))
    v = quasimonomial(p, 2, 5)
    assert skewness(v) == Ext(1 - F(5, 2))


@st.composite
def curve_pairs(draw):
    """Two curves at one point: a series, and the same one written with a
    k-fold ramification index, truncated anywhere, exact or not, and
    perhaps with one term changed."""
    m = draw(st.integers(1, 3))
    coeffs = draw(st.dictionaries(st.integers(1, 8), st.integers(-2, 2),
                                  max_size=4))
    K = draw(st.integers(max(coeffs, default=1), 10))
    k = draw(st.integers(1, 3))
    other = {j * k: c for j, c in coeffs.items()}
    if draw(st.booleans()):
        other[draw(st.integers(1, 10 * k))] = draw(st.integers(-2, 2))
    K2 = draw(st.integers(max(other, default=1), 10 * k + 2))
    return (curve_of_series(PY, m, coeffs, K, exact=draw(st.booleans())),
            curve_of_series(PY, m * k, other, K2, exact=draw(st.booleans())))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(curve_pairs())
def test_curve_equality_matches_the_fraction_keys(pair):
    def outcome(f):
        try:
            return f(*pair)
        except InsufficientTruncation as e:
            return type(e)

    assert outcome(equal) == outcome(curves_equal_by_fractions)
