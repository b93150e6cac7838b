from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (divisorial_on_segment_by_probes,
                     logplus_laplacian_by_rebuild)
from valinf import poly
from valinf.cluster import (BranchWalk, PointAtInfinity, PuiseuxBranch, SatU,
                            SatV, branch_steps, chain_cluster)
from valinf.errors import (InternalMismatch, NeedsFieldExtension,
                           PrecisionExceeded, ZeroOrConstant)
from valinf.exact import Ext, NEG_INF, POS_INF
from valinf.potential import EdgePoint, point_skewness
from valinf.puiseux import (_crossing, _tail_coeffs, branches_at_infinity,
                            divisorial_on_segment, log_laplacian, log_value,
                            logplus_laplacian, weighted_branches)
from valinf.series import PuiseuxSeries
from valinf.valuations import (Comparison, Curve, Divisorial, Monomial, ROOT,
                               compare, evaluate, meet, path_key, skewness)

F = Fraction
PX0 = PointAtInfinity("x", F(0))
PY = PointAtInfinity("y")

CORPUS = ["x", "y", "y-x^2", "y^2-x^3", "y^2-x^3-1", "x*y-1",
          "y^2-x", "y^3-x*y-1", "y^2-4*x", "x^2*y^3-x-1"]


class TestBranches:
    def test_line_y(self):
        (b, e), = weighted_branches(poly.parse("y"))
        assert e == 1
        assert b.base == PX0
        assert b.series.m == 1 and b.series.coeffs == () and b.series.exact

    def test_line_x(self):
        (b, e), = weighted_branches(poly.parse("x"))
        assert b.base == PY
        assert b.series.m == 1 and b.series.coeffs == ()

    def test_parabola(self):
        # y = x^2 meets the line at infinity at [0:1:0] with x ~ y^(1/2)
        (b, e), = weighted_branches(poly.parse("y-x^2"))
        assert b.base == PY
        assert b.series.m == 2
        assert dict(b.series.coeffs) == {1: F(1)}
        assert b.series.exact

    def test_cusp(self):
        (b, e), = weighted_branches(poly.parse("y^2-x^3"))
        assert b.base == PY
        assert b.series.m == 3
        assert dict(b.series.coeffs) == {1: F(1)}
        assert b.series.exact

    def test_hyperbola_two_branches(self):
        bs = weighted_branches(poly.parse("x*y-1"))
        assert sorted(b.base.chart for b, _ in bs) == ["x", "y"]
        for b, e in bs:
            assert e == 1 and b.series.m == 1
            assert dict(b.series.coeffs) == {2: F(1)}

    def test_perturbed_cusp_tail(self):
        # x = y^(2/3) (1 + y^-2)^(1/3) expanded binomially
        (b, _), = weighted_branches(poly.parse("y^2-x^3-1"))
        assert b.base == PY and b.series.m == 3
        assert not b.series.exact
        cs = dict(b.series.coeffs)
        assert cs[1] == F(1)
        assert cs[7] == F(-1, 3)
        assert cs[13] == F(-1, 9)

    def test_rational_pth_root_coefficient(self):
        (b, _), = weighted_branches(poly.parse("y^2-4*x"))
        assert dict(b.series.coeffs) == {1: F(2)}
        assert b.series.exact
        (b, _), = weighted_branches(poly.parse("y^3-8*x^2"))
        assert b.series.m == 3
        assert dict(b.series.coeffs)[1] == F(2)

    def test_factor_multiplicity(self):
        (b, e), = weighted_branches(poly.parse("(y-x^2)^2"))
        assert e == 2 and b.series.m == 2

    def test_reducible_mixed(self):
        bs = weighted_branches(poly.parse("y*(x*y-1)"))
        assert sum(e * b.series.m for b, e in bs) == 3
        assert len(bs) == 3

    def test_minpoly_recorded(self):
        (b, _), = weighted_branches(poly.parse("y^2-x^3-1"))
        assert b.minpoly is not None
        assert poly.degree(dict(b.minpoly)) == 3
        # truncated branch still certifies vanishing through its factor
        assert evaluate(Curve(b), poly.parse("y^2-x^3-1")) == POS_INF

    def test_irrational_coefficient_raises(self):
        with pytest.raises(NeedsFieldExtension):
            weighted_branches(poly.parse("y^2-2*x"))

    def test_irrational_point_at_infinity_raises(self):
        with pytest.raises(NeedsFieldExtension):
            weighted_branches(poly.parse("y^2-2*x^2"))
        with pytest.raises(NeedsFieldExtension):
            weighted_branches(poly.parse("x^2+y^2-1"))

    def test_constant_raises(self):
        with pytest.raises(ZeroOrConstant):
            weighted_branches({(0, 0): F(3)})

    def test_mass_identity(self):
        for s in CORPUS:
            Q = poly.parse(s)
            bs = weighted_branches(Q)
            assert sum(e * b.series.m for b, e in bs) == poly.degree(Q)

    def test_branches_at_infinity_drops_weights(self):
        assert len(branches_at_infinity(poly.parse("(y-x^2)^2"))) == 1


class TestLogLaplacian:
    def test_atoms_are_curves_with_full_mass(self):
        for s in CORPUS:
            Q = poly.parse(s)
            rho = log_laplacian(Q)
            assert rho.total_mass == poly.degree(Q)
            assert all(isinstance(p, Curve) for p, _ in rho.atoms)

    def test_value_at_root_is_degree(self):
        for s in CORPUS:
            Q = poly.parse(s)
            assert log_value(Q, ROOT) == Ext(poly.degree(Q))

    def test_value_at_own_branch_diverges(self):
        Q = poly.parse("y^2-x^3")
        (b, _), = weighted_branches(Q)
        assert log_value(Q, Curve(b)) == NEG_INF


DIV_GRID = [Monomial(F(-1), t) for t in
            [F(-1, 2), F(0), F(1, 3), F(1, 2), F(2)]] + \
           [Monomial(s, F(-1)) for s in [F(0), F(1, 2), F(3)]]


class TestGreenIdentity:
    """evaluate() works chart by chart; log_value() sums skewnesses of
    meets with the branches.  The two must agree up to sign."""

    def test_monomial_grid(self):
        for s in CORPUS:
            Q = poly.parse(s)
            for v in DIV_GRID:
                assert evaluate(v, Q) == -log_value(Q, v), (s, v)

    def test_divisorial_points(self):
        for s in CORPUS:
            Q = poly.parse(s)
            for v in [Monomial(F(-1), F(1, 3)), Monomial(F(1, 2), F(-1))]:
                d = Divisorial(*v.realize())
                assert evaluate(d, Q) == -log_value(Q, d), (s, v)

    @given(st.fractions(min_value=-3, max_value=3, max_denominator=5))
    @settings(max_examples=40, deadline=None)
    def test_random_monomials(self, t):
        for s in ["y^2-x^3", "x*y-1", "y^2-x"]:
            Q = poly.parse(s)
            vs = [Monomial(F(-1), t)] if t != -1 else []
            if t > -1:
                vs.append(Monomial(t, F(-1)))
            for v in vs:
                assert evaluate(v, Q) == -log_value(Q, v), (s, v)


class TestLogPlusLaplacian:
    def test_atoms_vanish_and_carry_full_mass(self):
        for s in CORPUS:
            Q = poly.parse(s)
            rho = logplus_laplacian(Q)
            assert rho.total_mass == poly.degree(Q)
            for p, m in rho.atoms:
                assert isinstance(p, Divisorial)
                assert m > 0
                assert evaluate(p, Q) == Ext(0), (s, p)
                a = point_skewness(p)
                assert Ext(F(-poly.degree(Q))) < a < Ext(1)

    def test_cusp_single_atom(self):
        rho = logplus_laplacian(poly.parse("y^2-x^3"))
        (p, m), = rho.atoms
        assert m == 3
        assert point_skewness(p) == Ext(0)

    def test_hyperbola_two_atoms(self):
        rho = logplus_laplacian(poly.parse("x*y-1"))
        assert len(rho.atoms) == 2
        for p, m in rho.atoms:
            assert m == 1
            assert point_skewness(p) == Ext(-1)

    def test_line_atom_at_monomial(self):
        rho = logplus_laplacian(poly.parse("y"))
        (p, m), = rho.atoms
        assert m == 1
        assert compare(p, Divisorial(*Monomial(F(-1), F(0)).realize())) \
            == Comparison.EQ

    def test_unmaterialized_atoms_match(self):
        # the atoms have the skewness and mass of the segment points that
        # a run realizing no crossing keeps
        for s in ["y^2-x", "y^3-x*y-1", "x*(x*y-1)", "y*(x*y^2-1)"]:
            Q = poly.parse(s)
            rho = logplus_laplacian(Q)
            lazy = logplus_laplacian_by_rebuild(Q, materialize=False)
            assert rho.total_mass == lazy.total_mass
            assert sorted((point_skewness(p), m) for p, m in rho.atoms) \
                == sorted((point_skewness(p), m) for p, m in lazy.atoms)

    def test_interior_crossing_is_read_off_its_edge(self):
        # the zero level of x*(x*y-1) lies strictly inside a dual edge, at
        # skewness -1/2; its atom is the divisorial there, where v(Q) = 0
        Q = poly.parse("x*(x*y-1)")
        lazy = logplus_laplacian_by_rebuild(Q, materialize=False)
        assert any(isinstance(p, EdgePoint)
                   and point_skewness(p) == Ext(F(-1, 2))
                   for p, _ in lazy.atoms)
        rho = logplus_laplacian(Q)
        assert all(isinstance(p, Divisorial) for p, _ in rho.atoms)
        inner = [p for p, _ in rho.atoms if skewness(p) == Ext(F(-1, 2))]
        assert inner and all(evaluate(p, Q) == Ext(0) for p in inner)

    def test_repeated_factor_scales_atom(self):
        single = logplus_laplacian(poly.parse("y-x^2"))
        double = logplus_laplacian(poly.parse("(y-x^2)^2"))
        assert [(point_skewness(p), 2 * m) for p, m in single.atoms] \
            == [(point_skewness(p), m) for p, m in double.atoms]


class TestDivisorialOnSegment:
    def test_skewness_round_trip(self):
        (b, _), = weighted_branches(poly.parse("y^2-x^3"))
        for a in [F(1, 5), F(-1, 2), F(1, 2), F(-7, 3)]:
            d = divisorial_on_segment(b, a)
            assert skewness(d) == Ext(a)
            # lies on the segment from the root to the branch
            assert compare(d, Curve(b)) == Comparison.LT
            assert compare(meet(d, Curve(b)), d) == Comparison.EQ

    def test_green_along_segment(self):
        Q = poly.parse("y^2-x^3")
        (b, _), = weighted_branches(Q)
        for a in [F(1, 2), F(0), F(-3, 4)]:
            d = divisorial_on_segment(b, a)
            assert evaluate(d, Q) == Ext(-3 * a)

    def test_node_skewness_recovers_known_point(self):
        # skewness 0 on the cusp branch segment is the atom of the
        # logplus measure
        (b, _), = weighted_branches(poly.parse("y^2-x^3"))
        d = divisorial_on_segment(b, F(0))
        (p, _), = logplus_laplacian(poly.parse("y^2-x^3")).atoms
        assert compare(d, p) == Comparison.EQ

    def test_skewness_of_a_center_returns_that_center(self):
        (b, _), = weighted_branches(poly.parse("y^3-x^5+x*y"))
        cl = chain_cluster(b.base, branch_steps(b.base, b.series, 8))
        g = cl.geometry()
        for n in g.dual_path(7)[1:]:
            d = divisorial_on_segment(b, g.rows[n].alpha)
            assert path_key(d) == cl.key(n)
            assert d.node in d.cluster.geometry().dual_path(len(d.cluster) - 1)

    def test_closed_form_answers_where_the_probe_search_runs_out(self):
        # y^2-x^5+x^3*y has an m = 3 and an m = 2 branch at [0 : 1 : 0];
        # their segments share the points above skewness 1/2
        Q = poly.parse("y^2-x^5+x^3*y")
        by_m = {b.series.m: b for b, _ in weighted_branches(Q)}
        assert by_m[3].base == by_m[2].base == PY
        want = (PY, (SatU(), SatU(), SatV(), SatV()))
        # the probe search finds it on the m = 2 branch; on the m = 3 one
        # it raises InsufficientTruncation after about 10 s of probes
        assert path_key(divisorial_on_segment_by_probes(by_m[2], F(4, 7))) \
            == want
        d = divisorial_on_segment(by_m[3], F(4, 7))
        assert path_key(d) == want
        assert evaluate(d, Q) == -log_value(Q, d) == Ext(F(-20, 7))
        d = divisorial_on_segment(by_m[3], F(6, 7))
        assert path_key(d) == (PY, (SatU(),) * 6)
        assert skewness(d) == Ext(F(6, 7))

    def test_a_satellite_run_is_walked_past_before_its_edges_are_read(self):
        # y = x^(1/20) + x^(2/20): 19 SatU centers, then free ones whose
        # skewness falls from 19/20 in steps of 1/400.  The first 8
        # centers end at a divisor of skewness 8/9 off the branch's
        # segment; reading its dual path gave points incomparable with
        # the branch for skewness in (8/9, 19/20)
        b = PuiseuxBranch(PY, PuiseuxSeries.make(20, {1: 1, 2: 1}, 30,
                                                 exact=True))
        for a in [F(37, 40), F(9, 10), F(7, 8)]:
            d = divisorial_on_segment(b, a)
            assert compare(d, Curve(b)) == Comparison.LT
            assert skewness(d) == Ext(a)
            assert path_key(d) == \
                path_key(divisorial_on_segment_by_probes(b, a))

    def test_a_far_skewness_is_reached_in_one_jump(self, monkeypatch):
        asked = []
        steps = BranchWalk.steps
        monkeypatch.setattr(BranchWalk, "steps", lambda self, depth, w=None:
                            asked.append(depth) or steps(self, depth, w))
        Q = poly.parse("y^2-x^3")
        (b, _), = weighted_branches(Q)
        d = divisorial_on_segment(b, -100)
        # the first round's last center left by a free step, node 6, has
        # skewness 2/9 and b = 3, so -100 lies at least 9 (2/9 + 100) = 902
        # centers further, and the second round asks for them at once;
        # past the cusp each free center lowers skewness by exactly 1/9,
        # so node 908 is the answer (+8 rounds asked 8, 16, ..., 912)
        assert asked == [8, 910]
        assert skewness(d) == Ext(-100)
        assert evaluate(d, Q) == Ext(300)
        assert compare(d, Curve(b)) == Comparison.LT

    def test_a_skewness_past_the_depth_cap_raises_at_once(self, monkeypatch):
        asked = []
        steps = BranchWalk.steps
        monkeypatch.setattr(BranchWalk, "steps", lambda self, depth, w=None:
                            asked.append(depth) or steps(self, depth, w))
        (b, _), = weighted_branches(poly.parse("y^2-x^3"))
        # as above, skewness a needs depth 8 + 9 (2/9 - a) at least: 1,018
        # for a = -112, and past the cap of 1,024 for a = -113
        assert skewness(divisorial_on_segment(b, -112)) == Ext(-112)
        for a in [-113, -10 ** 6]:
            asked.clear()
            with pytest.raises(PrecisionExceeded):
                divisorial_on_segment(b, a)
            # the first round shows that a lies past the cap
            assert asked == [8]


def poly_u_coeff(G, s, k_max):
    """Coefficients of G(u, s(u)) as a univariate dict, exact up to u^k_max."""
    jmax = max(j for _, j in G)
    pows = {0: {0: F(1)}}
    for j in range(1, jmax + 1):
        cur = {}
        for e1, c1 in pows[j - 1].items():
            for e2, c2 in s.items():
                if e1 + e2 <= k_max:
                    cur[e1 + e2] = cur.get(e1 + e2, F(0)) + c1 * c2
        pows[j] = cur
    out = {}
    for (i, j), c in G.items():
        for e, cs in pows[j].items():
            if i + e <= k_max:
                out[i + e] = out.get(i + e, F(0)) + c * cs
    return {e: c for e, c in out.items() if c != 0}


def tail_coeffs_by_resubstitution(G, K):
    """The old tail solver: re-substitute the whole series for every k."""
    g01 = G[(0, 1)]
    s = {}
    for k in range(1, K + 1):
        r = poly_u_coeff(G, s, k).get(k, F(0))
        if r:
            s[k] = -r / g01
    return s, not poly_u_coeff(G, s, 1 << 30)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                       st.builds(F, st.integers(-5, 5).filter(bool),
                                 st.integers(1, 3)), max_size=8),
       st.builds(F, st.integers(-3, 3).filter(bool), st.integers(1, 2)),
       st.integers(1, 24))
def test_online_tail_matches_resubstitution(G, g01, K):
    G = {k: c for k, c in G.items() if k != (0, 0)}
    G[(0, 1)] = g01
    assert _tail_coeffs(G, K) == tail_coeffs_by_resubstitution(G, K)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(1, 6), st.integers(-3, 3).filter(bool),
                       min_size=1, max_size=4),
       st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       st.integers(-3, 3), max_size=5),
       st.integers(1, 12))
def test_online_tail_certifies_terminating_roots(p, H, K):
    # G = (v - p(u)) (1 + H): the root is the polynomial p, exact iff
    # its degree is at most K
    G = poly.mul({(0, 1): F(1), **{(e, 0): F(-c) for e, c in p.items()}},
                 poly.add({(0, 0): F(1)}, {k: F(c) for k, c in H.items()
                                           if k != (0, 0)}))
    coeffs, exact = _tail_coeffs(G, K)
    assert (coeffs, exact) == tail_coeffs_by_resubstitution(G, K)
    assert exact == (max(p) <= K)
    if exact:
        assert coeffs == {e: F(c) for e, c in p.items()}


def test_branch_lists_are_shared_tuples():
    Q = poly.parse("x*y-1")
    first = weighted_branches(Q)
    assert isinstance(first, tuple) and weighted_branches(Q) is first


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 12), st.lists(st.tuples(
    st.integers(1, 12),
    st.fractions(min_value=-20, max_value=1, max_denominator=9)),
    max_size=6))
def test_crossing_is_the_zero_of_the_green_sum(w, others):
    a = _crossing(w, others)
    assert a < 1
    assert w * a + sum(wj * max(a, t) for wj, t in others) == 0
