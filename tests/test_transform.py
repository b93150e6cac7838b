"""Oracles for the blowup kernel and the one-pass inverse.

Every chart substitution relabels exponents and then runs the one
Taylor shift, ``cluster.taylor_shift``: ``step_transform``,
``base_strict_series`` and ``puiseux._substitute_edge``.  The generic
composition of polynomials, ``series.compose_series``, is their slow
path, and the chart equations are also checked by evaluation.  The
shift runs over ``exact.integer_numerators``, checked on its own.
``minv`` runs one fraction-free pass, the core of ``solve_linear`` as
well, so its slow path is ``oracles.gauss_jordan``, an elimination over
Fraction.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from oracles import gauss_jordan
from valinf import poly
from valinf.cluster import (Free, PointAtInfinity, SatU, SatV,
                            base_strict_series, blowup_substitute,
                            build_geometry, mult, step_transform)
from valinf.errors import InternalMismatch
from valinf.exact import integer_numerators, invert_matrix
from valinf.puiseux import _substitute_edge
from valinf.randomized import random_cluster
from valinf.series import compose_series

_U = {(1, 0): Fraction(1)}
_V = {(0, 1): Fraction(1)}
_UV = {(1, 1): Fraction(1)}


def composed_step_transform(F, step, m):
    """Strict transform by generic composition (the slow path)."""
    if isinstance(step, SatU):
        G = compose_series(F, _UV, _V)
        if any(j < m for _, j in G):
            raise ValueError("not divisible by v^m")
        return {(i, j - m): c for (i, j), c in G.items()}
    t = step.c if isinstance(step, Free) else 0
    G = compose_series(F, _U, {(1, 1): Fraction(1), (1, 0): t})
    if any(i < m for i, _ in G):
        raise ValueError("not divisible by u^m")
    return {(i - m, j): c for (i, j), c in G.items()}


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return ("ValueError", str(e))


rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
steps = st.one_of(
    st.builds(Free, rationals.filter(lambda c: c != 0)),
    st.just(Free(Fraction(0))), st.just(SatU()), st.just(SatV()))
monomials = st.tuples(st.integers(0, 6), st.integers(0, 6))
# chart equations carry no zero coefficient
polys = st.dictionaries(monomials, rationals.filter(bool), max_size=12)

derandomized = settings(derandomize=True, max_examples=300, deadline=None)


@derandomized
@given(polys, steps, st.integers(0, 3))
def test_step_transform_matches_composition(F, step, extra):
    lo = min((i + j for i, j in F), default=0)
    for m in range(0, lo + extra + 1):
        assert (outcome(step_transform, F, step, m)
                == outcome(composed_step_transform, F, step, m))


@derandomized
@given(polys, steps)
def test_mult_above_multiplicity_raises(F, step):
    if not F:
        with pytest.raises(ValueError, match="zero polynomial"):
            mult(F)
        return
    m = mult(F)
    with pytest.raises(ValueError, match="not divisible"):
        step_transform(F, step, m + 1)
    assert step_transform(F, step, m) == composed_step_transform(F, step, m)


@derandomized
@given(st.dictionaries(monomials, rationals, max_size=12),
       steps, st.one_of(st.none(), st.integers(1, 9)))
def test_substitution_truncates_like_composition(P, step, order):
    # the composition cut below order; zero coefficients in P drop out
    want = {k: c for k, c in composed_step_transform(P, step, 0).items()
            if order is None or k[0] + k[1] < order}
    assert blowup_substitute(P, step, order) == want


def test_substitution_of_each_chart():
    F = {(1, 2): Fraction(3)}
    assert blowup_substitute(F, SatU()) == {(1, 3): 3}
    assert blowup_substitute(F, SatV()) == {(3, 2): 3}
    assert blowup_substitute(F, Free(Fraction(0))) == {(3, 2): 3}
    # u v^2 -> u^3 (v + 2)^2 = u^3 v^2 + 4 u^3 v + 4 u^3
    assert blowup_substitute(F, Free(Fraction(2))) == {
        (3, 0): 12, (3, 1): 12, (3, 2): 3}


bases = st.one_of(st.just(PointAtInfinity("y")),
                  st.builds(PointAtInfinity, st.just("x"), rationals))


@derandomized
@given(polys.filter(bool), bases, st.integers(0, 2),
       st.lists(st.tuples(rationals.filter(bool), rationals), max_size=3))
def test_base_chart_matches_composition(P, base, extra, samples):
    """u^d P in the base chart, d >= deg P: the composition of the
    homogenized P (x^i y^j as u^(d-i-j) w^j with w = y/x in chart x,
    u^(d-i-j) w^i with w = x/y in chart y) with w = v - c, and at
    sample points the value of u^d P(1/u, (v - c)/u) or u^d P(v/u, 1/u)."""
    d = poly.degree(P) + extra
    F = base_strict_series(base, P, d)
    if base.chart == "x":
        H = {(d - i - j, j): a for (i, j), a in P.items()}
        w = {(0, 1): Fraction(1), (0, 0): -base.c}
    else:
        H = {(d - i - j, i): a for (i, j), a in P.items()}
        w = {(0, 1): Fraction(1)}
    assert F == compose_series(H, _U, w)
    for u, v in samples:
        x, y = ((1 / u, (v - base.c) / u) if base.chart == "x"
                else (v / u, 1 / u))
        assert poly.eval_at(F, u, v) == u ** d * poly.eval_at(P, x, y)


@derandomized
@given(polys.filter(bool), st.integers(1, 3), st.integers(1, 3), rationals)
def test_edge_substitution_matches_composition(G, p, q, c):
    """G(u^p, u^q (c + v)) / u^w at the least weight w of G's terms."""
    w = min(p * i + q * j for i, j in G)
    composed = compose_series(G, {(p, 0): Fraction(1)},
                              {(q, 1): Fraction(1), (q, 0): c})
    assert _substitute_edge(G, p, q, w, c) == {
        (i - w, j): a for (i, j), a in composed.items()}


@derandomized
@given(st.lists(st.one_of(rationals, st.integers(-50, 50)), max_size=8))
def test_integer_numerators_share_the_least_denominator(values):
    nums, D = integer_numerators(values)
    assert all(type(n) is int for n in nums) and D >= 1
    assert [Fraction(n, D) for n in nums] == values
    # a prime of D dividing every numerator would leave a smaller one
    assert gcd(D, *nums) == 1


def intersection_matrix(g):
    return [[Fraction(g.inter.get((a, b), 0)) for b in g.comps]
            for a in g.comps]


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3))
def test_minv_matches_fraction_gauss_jordan(seed, n_roots):
    cl = random_cluster(random.Random(seed), max_nodes=20, depth_cap=12,
                        n_roots=n_roots)
    g = build_geometry(cl)
    M = intersection_matrix(g)
    inv = g.minv()
    n = len(M)
    assert inv == gauss_jordan(M)[1]
    for i in range(n):
        for j in range(n):
            assert sum(M[i][k] * inv[k][j] for k in range(n)) == (i == j)


def test_invert_matrix_singular():
    assert invert_matrix([[1, 2], [2, 4]]) is None
    assert invert_matrix([[0, 1], [1, 0]]) == [[0, 1], [1, 0]]
    assert invert_matrix([]) == []


def test_minv_singular_raises():
    g = build_geometry(random_cluster(random.Random(5)))
    g.inter = {}
    with pytest.raises(InternalMismatch, match="singular"):
        g.minv()
