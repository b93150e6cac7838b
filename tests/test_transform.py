"""Oracles for the blowup kernel and the one-pass inverse.

``step_transform`` substitutes monomials directly; the generic
composition of polynomials, ``series.compose_series``, is its slow path.
``minv`` runs one fraction-free pass, the core of ``solve_linear`` as
well, so its slow path is ``oracles.gauss_jordan``, an elimination over
Fraction.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import gauss_jordan
from valinf.cluster import (Free, SatU, SatV, blowup_substitute,
                            build_geometry, mult, step_transform)
from valinf.errors import InternalMismatch
from valinf.exact import invert_matrix
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
