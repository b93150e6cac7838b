"""Exact factoring over Z (``valinf.factor``) against sympy, its oracle.

Each check compares the native path with the sympy path that it replaced
(``oracles.*_by_sympy``): factor lists with their order and
normalisation, the ``NeedsFieldExtension`` texts and minimal polynomials
of the Puiseux base points and edge roots, division verdicts, and
rational roots of large integers.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (base_points_by_sympy, char_roots_by_sympy,
                     factor_rational_by_sympy, minpoly_divides_by_sympy,
                     rational_root_by_sympy, to_sympy)
from valinf import factor, poly
from valinf.errors import NeedsFieldExtension
from valinf.exact import rational_root
from valinf.puiseux import _base_points, _char_roots

F = Fraction
derandomized = settings(derandomize=True, max_examples=30, deadline=None)

small = st.integers(-6, 6)
univariate = st.lists(small, min_size=2, max_size=4).filter(lambda f: f[-1])


@st.composite
def univariate_products(draw):
    """Products of up to three small factors, some repeated, some with a
    root at 0, times a content."""
    f = [draw(st.sampled_from([1, -1, 2, -6]))]
    for g in draw(st.lists(univariate, min_size=1, max_size=3)):
        f = factor._mul(f, factor._mul(g, g) if draw(st.booleans()) else g)
    return [0] * draw(st.integers(0, 2)) + f


@derandomized
@given(univariate_products())
def test_univariate_factor_list_matches_sympy(f):
    import sympy

    t = sympy.Symbol("t")
    _, want = sympy.Poly(f[::-1], t, domain="ZZ").factor_list()
    assert factor.factor_list(f) == [
        ([int(c) for c in g.all_coeffs()[::-1]], int(e)) for g, e in want]


@st.composite
def bivariate_products(draw):
    """Products of up to three small dense bivariate polynomials, with
    multiplicities 1-3 and a rational content."""
    P = {(0, 0): draw(st.sampled_from([F(1), F(-2), F(3, 4)]))}
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 3))
        g = poly.normalize({(i, j): draw(small) for i in range(d + 1)
                            for j in range(d + 1 - i)})
        if g:
            P = poly.mul(P, poly.power(g, draw(st.sampled_from([1, 1, 2, 3]))))
    return P


@settings(derandomize=True, max_examples=25, deadline=None)
@given(bivariate_products())
def test_factor_rational_matches_sympy_on_dense_products(P):
    assert poly.factor_rational(P) == factor_rational_by_sympy(P)


def outcome(fn, *args):
    """The value of fn(*args), or its error type, text and minimal
    polynomial."""
    try:
        return fn(*args)
    except NeedsFieldExtension as e:
        return type(e), str(e), e.minimal_polynomial


edge_factor = st.sampled_from([[-1, 1], [2, 1], [1, 3], [-3, 2], [0, 1],
                               [-2, 0, 1], [1, 0, 1], [1, 1, 1],
                               [-2, 0, 0, 1], [-4, 0, 1]])


@derandomized
@given(st.lists(st.tuples(edge_factor, st.integers(1, 3)), min_size=1,
                max_size=3),
       st.sampled_from([1, 2, 3]), st.integers(0, 1),
       st.sampled_from([F(1), F(-1, 2), F(3)]))
def test_char_roots_match_sympy(factors, p, jmin, content):
    # the edge polynomial in c^p, spread over the edge's lattice points
    # (i, jmin + p k) with i falling as k rises
    f = [1]
    for g, e in factors:
        for _ in range(e):
            f = factor._mul(f, g)
    f = factor._trim([0] * (not f[0]) + f)
    G = {(len(f) - k, jmin + p * k): content * c for k, c in enumerate(f)
         if c}
    assert outcome(_char_roots, G, list(G), p, jmin) \
        == outcome(char_roots_by_sympy, G, list(G), p, jmin)


top_factor = st.sampled_from(["x", "y", "x-y", "2*x+3*y", "x^2+y^2",
                              "x^2-2*y^2", "x^2-x*y-y^2", "y^3-2*x^3"])


@derandomized
@given(st.lists(top_factor, min_size=1, max_size=3),
       st.sampled_from(["0", "1", "x", "y-1", "x^2/2-3*y"]))
def test_base_points_match_sympy(tops, lower):
    f = poly.parse(lower)
    top = {(0, 0): F(1)}
    for t in tops:
        top = poly.mul(top, poly.parse(t))
    if max((i + j for i, j in f), default=0) < poly.degree(top):
        f = poly.add(f, top)
        assert outcome(_base_points, f) == outcome(base_points_by_sympy, f)


@derandomized
@given(st.sampled_from(["y^2-x^3-1", "x*y-1", "x^2+y^2", "2*x-3*y+1",
                        "y^4-10*y^2+1", "x^2-2"]),
       st.sampled_from(["1", "x+y", "x^2/3-y", "(x-y)^2"]),
       st.sampled_from(["0", "1", "x", "y^3"]))
def test_divides_matches_sympy(f, g, r):
    f, g, r = poly.parse(f), poly.parse(g), poly.parse(r)
    P = poly.add(poly.mul(f, g), r)
    if P:
        minpoly = tuple(sorted(f.items()))
        assert poly.divides(f, P) == minpoly_divides_by_sympy(minpoly, P)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 40), st.integers(1, 10 ** 12),
       st.integers(1, 7), st.sampled_from([1, -1]), st.integers(-1, 1))
def test_rational_root_matches_sympy(n, d, m, sign, nudge):
    # perfect powers of both signs, and their neighbours
    q = F(sign * (n ** m + nudge * (n > 1)), d ** m)
    assert rational_root(q, m) == rational_root_by_sympy(q, m)


def test_gcd_by_remainders_where_no_evaluation_point_is_tried(monkeypatch):
    pairs = [(factor._mul(a, b), factor._mul(a, c)) for a, b, c in [
        ([2, 4], [1, 0, 1], [3, 1]), ([-1, 0, 1], [5, 2], [5, 2, 7]),
        ([6], [1, 1], [1, -1]), ([1, 2, 3], [4, 5, 6], [7, 8, 9, 1])]]
    want = [factor._gcd(f, g) for f, g in pairs]
    monkeypatch.setattr(factor, "HEU_GCD_TRIES", 0)
    assert [factor._gcd(f, g) for f, g in pairs] == want
    assert want[:2] == [[2, 4], [-1, 0, 1]]


def gcd_pair(rng):
    """(A B, A C) for small dense bivariate A, B and C, A nonconstant."""
    def dense(d):
        return {(i, j): F(rng.randint(-4, 4)) for i in range(d + 1)
                for j in range(d + 1 - i)}

    d = rng.randint(1, 2)
    A = dense(d)
    A[rng.choice([(d, 0), (0, d), (1, d - 1)])] = F(rng.choice([1, -2, 3]))
    B, C = (poly.normalize(dense(rng.randint(0, 2))) or {(0, 0): F(1)}
            for _ in range(2))
    return poly.mul(poly.normalize(A), B), poly.mul(poly.normalize(A), C)


def gcd_by_sympy(P, Q):
    """The gcd in Z[x, y], primitive with a positive coefficient at its
    highest power of x and there of y, as ``factor``'s rows."""
    import sympy

    x, y = sympy.symbols("x y")
    g = sympy.Poly(to_sympy(P), x, y).gcd(
        sympy.Poly(to_sympy(Q), x, y)).primitive()[1]
    if g.LC() < 0:
        g = -g
    return poly._rows({m: F(int(c)) for m, c in g.terms()})


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_bivariate_gcd_by_remainders_matches_sympy(seed):
    """With no evaluation point tried, ``_gcd2`` runs its primitive
    remainder sequence alone, which also takes a common factor in x
    alone that the evaluation points need removed first."""
    pair = gcd_pair(random.Random(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factor, "HEU_GCD_TRIES", 0)
        assert factor._gcd2(*map(poly._rows, pair)) == gcd_by_sympy(*pair)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(bivariate_products())
def test_factor_rational_by_remainders_matches_sympy(P):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factor, "HEU_GCD_TRIES", 0)
        assert poly.factor_rational(P) == factor_rational_by_sympy(P)
