"""Oracles for the blowup kernel and the one-pass inverse.

``step_transform`` substitutes monomials directly; the generic series
composition it replaced is kept here as the slow path.  ``minv`` runs one
fraction-free pass, the core of ``solve_linear`` as well, so its slow path
is ``oracles.gauss_jordan``, an elimination over Fraction.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import gauss_jordan
from valinf.cluster import (Free, SatU, SatV, blowup_substitute,
                            build_geometry, step_transform)
from valinf.errors import InsufficientTruncation, InternalMismatch
from valinf.exact import invert_matrix
from valinf.randomized import random_cluster
from valinf.series import TruncSeries2, compose_series

_U = TruncSeries2.var_u()
_V = TruncSeries2.var_v()


def composed_step_transform(F, step, mult):
    """Strict transform by generic series composition (the slow path)."""
    if isinstance(step, Free):
        sub_v = TruncSeries2({(1, 1): Fraction(1), (1, 0): step.c})
        return compose_series(F, _U, sub_v).divide_u(mult)
    if isinstance(step, SatV):
        sub_v = TruncSeries2({(1, 1): Fraction(1)})
        return compose_series(F, _U, sub_v).divide_u(mult)
    sub_u = TruncSeries2({(1, 1): Fraction(1)})
    return compose_series(F, sub_u, _V).divide_v(mult)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return ("ValueError", str(e))


rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
steps = st.one_of(
    st.builds(Free, rationals.filter(lambda c: c != 0)),
    st.just(Free(Fraction(0))), st.just(SatU()), st.just(SatV()))
series = st.builds(
    TruncSeries2,
    st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                    rationals, max_size=12),
    st.one_of(st.none(), st.integers(2, 9)))

derandomized = settings(derandomize=True, max_examples=300, deadline=None)


@derandomized
@given(series, steps, st.integers(0, 3))
def test_step_transform_matches_composition(F, step, extra):
    lo = F.low_order()
    for mult in range(0, (lo or 0) + extra + 1):
        assert (outcome(step_transform, F, step, mult)
                == outcome(composed_step_transform, F, step, mult))


@derandomized
@given(series, steps)
def test_mult_above_multiplicity_raises(F, step):
    try:
        m = F.mult()
    except (ValueError, InsufficientTruncation):
        return
    if F.order is None:
        with pytest.raises(ValueError, match="not divisible"):
            step_transform(F, step, m + 1)
    assert step_transform(F, step, m) == composed_step_transform(F, step, m)


@derandomized
@given(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                       rationals, max_size=12),
       steps, st.one_of(st.none(), st.integers(1, 9)))
def test_substitution_truncates_like_composition(P, step, order):
    want = composed_step_transform(TruncSeries2(P, order), step, 0)
    assert blowup_substitute(P, step, order) == want.coeffs


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
