from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from valinf.cluster import PointAtInfinity
from valinf.errors import IndeterminateForm, PreconditionViolated, SkewnessTooHigh
from valinf.exact import Ext, NEG_INF
from valinf.potential import (DiscreteMeasure, EdgePoint, FiniteTree, PLValues,
                              build_tree, dirac, dirichlet, dirichlet_by_parts,
                              extend_certificate, is_subharmonic, laplacian_pl,
                              measure, perturb_certificate, point_equal,
                              point_green, point_leq, point_meet,
                              point_on_segment, point_skewness, retract,
                              retract_measure, shift_up, tree_dirichlet,
                              tree_measure_values, tree_retract_masses, value)
from valinf import potential
from valinf.valuations import (ROOT, Monomial, curve_of_series, meet,
                               quasimonomial, skewness)

F = Fraction
PX0 = PointAtInfinity("x", F(0))

M0 = Monomial(F(-1), F(0))
M1 = Monomial(F(-1), F(1))
N1 = Monomial(F(1), F(-1))
YBRANCH = curve_of_series(PX0, 1, {}, 6, exact=True)         # line y = 0
Y1BRANCH = curve_of_series(PX0, 1, {1: 1}, 6, exact=True)    # line y = 1
HYP = curve_of_series(PX0, 1, {2: 1}, 8, exact=True)         # branch of xy=1


class TestTreePoints:
    def test_segment_normalization(self):
        assert point_on_segment(M1, F(1)) is ROOT
        assert point_on_segment(M1, F(-1)) is M1
        p = point_on_segment(M1, F(-1, 2))
        assert isinstance(p, EdgePoint)
        with pytest.raises(ValueError):
            point_on_segment(M1, F(-2))

    def test_edge_point_identifies_with_vertex(self):
        # the point at skewness 0 on [root, M1] is M0 itself
        assert point_equal(point_on_segment(M1, F(0)), M0)
        assert point_equal(M0, point_on_segment(M1, F(0)))

    def test_leq_chain(self):
        p = point_on_segment(M1, F(-1, 2))
        assert point_leq(ROOT, p)
        assert point_leq(M0, p)
        assert point_leq(p, M1)
        assert not point_leq(M1, p)
        assert point_leq(M1, HYP)

    def test_green_off_a_curve_segment_meets_once(self, monkeypatch):
        # the divisorial is off [root, HYP], so neither point lies on the
        # trunk of their meet, and point_meet returns the meet it read
        # skewness from
        v = quasimonomial(PX0, 1, 3)
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return meet(a, b)

        monkeypatch.setattr(potential, "meet", counting)
        assert point_green(HYP, v) == Ext(-1) > skewness(v)
        assert calls == [(HYP, v)]

    def test_incomparable_edge_points(self):
        p = point_on_segment(M1, F(-1, 2))
        q = point_on_segment(N1, F(-1, 2))
        assert not point_leq(p, q) and not point_leq(q, p)
        assert point_meet(p, q) is ROOT

    def test_meet_on_trunk(self):
        p = point_on_segment(M1, F(-1, 4))
        q = point_on_segment(HYP, F(-3, 4))
        m = point_meet(p, q)
        assert point_equal(m, p)
        assert point_green(p, q) == Ext(F(-1, 4))

    def test_shift_up(self):
        p = shift_up(M1, F(1, 2))
        assert point_skewness(p) == Ext(F(-1, 2))
        assert point_leq(p, M1)


class TestBuildTree:
    def test_path_with_subdivision(self):
        t = build_tree([M1, N1, point_on_segment(M1, F(-1, 2))])
        assert len(t) == 4
        i = t.find(point_on_segment(M1, F(-1, 2)))
        j = t.find(M1)
        assert t.parent[j] == i
        assert t.alpha[i] == Ext(F(-1, 2))

    def test_branch_junction_added(self):
        b1 = curve_of_series(PX0, 1, {3: 1}, 8, exact=True)
        b2 = curve_of_series(PX0, 1, {3: 1, 4: 1}, 8, exact=True)
        t = build_tree([b1, b2])
        assert len(t) == 4
        assert sorted(a == NEG_INF for a in t.alpha) == [False, False, True, True]
        junction = [i for i, a in enumerate(t.alpha)
                    if a.kind == 0 and a != Ext(1)]
        assert t.alpha[junction[0]] == Ext(-3)

    def test_retract(self):
        t = build_tree([M0])
        assert retract(ROOT, t) is ROOT
        assert point_equal(retract(M1, t), M0)
        assert point_equal(retract(N1, t), ROOT)
        assert point_equal(retract(M0, t), M0)


class TestValueAndDirichlet:
    def test_green_values(self):
        assert value(dirac(M1), N1) == Ext(1)
        assert value(dirac(ROOT), M1) == Ext(1)
        rho = measure([(ROOT, F(1, 2)), (M1, F(1, 2))])
        assert value(rho, M1) == Ext(0)
        assert value(rho, ROOT) == Ext(1)

    def test_dirichlet_examples(self):
        assert dirichlet(dirac(M1), dirac(N1)) == Ext(1)
        assert dirichlet(dirac(ROOT), dirac(ROOT)) == Ext(1)
        star = measure([(ROOT, F(1, 2)), (M1, F(1, 2))])
        assert dirichlet(star, star) == Ext(F(1, 2))

    def test_curve_self_pairing(self):
        assert dirichlet(dirac(YBRANCH), dirac(YBRANCH)) == NEG_INF
        signed = measure([(YBRANCH, F(1)), (ROOT, F(-1))])
        with pytest.raises(IndeterminateForm):
            dirichlet(signed, signed)

    def test_tree_pairing_follows_the_endpoint_rule(self):
        """``tree_dirichlet`` on the tree of the curve and the root pairs
        the endpoint atom as ``dirichlet`` does."""
        t = build_tree([YBRANCH])
        k = t.find(YBRANCH)
        assert tree_dirichlet(t, {k: F(1)}, {k: F(1)}) == NEG_INF
        with pytest.raises(IndeterminateForm, match="square-integrable"):
            tree_dirichlet(t, {k: F(1), 0: F(-1)}, {k: F(1), 0: F(-1)})

    def test_mixed_infinite_value(self):
        signed = measure([(YBRANCH, F(1)), (YBRANCH, F(1))])
        assert value(signed, YBRANCH) == NEG_INF


def chain(alphas):
    n = len(alphas) + 1
    return FiniteTree(parent=tuple([None] + list(range(n - 1))),
                      alpha=tuple([Ext(1)] + [Ext(a) for a in alphas]),
                      points=tuple([ROOT] + [None] * (n - 1)))


class TestPL:
    def test_constant_is_root_mass(self):
        t = chain([F(0), F(-1)])
        lap = laplacian_pl(PLValues(t, (Ext(1), Ext(1), Ext(1))))
        assert lap == {0: F(1)}

    def test_green_function_roundtrip(self):
        t = chain([F(-1)])
        f = tree_measure_values(t, {1: F(1)})
        assert f.values == (Ext(1), Ext(-1))
        assert laplacian_pl(f) == {1: F(1)}

    def test_half_sum(self):
        t = chain([F(-1)])
        f = tree_measure_values(t, {0: F(1, 2), 1: F(1, 2)})
        assert laplacian_pl(f) == {0: F(1, 2), 1: F(1, 2)}

    def test_subharmonic(self):
        t = chain([F(-1)])
        g = tree_measure_values(t, {1: F(1)})
        assert is_subharmonic(g)
        neg = PLValues(t, tuple(-v for v in g.values))
        assert not is_subharmonic(neg)

    def test_max_of_green_functions_subharmonic(self):
        t = FiniteTree(parent=(None, 0, 0), alpha=(Ext(1), Ext(-1), Ext(-1)),
                       points=(ROOT, None, None))
        fv = tree_measure_values(t, {1: F(1)})
        fw = tree_measure_values(t, {2: F(1)})
        fmax = PLValues(t, tuple(max(a, b)
                                 for a, b in zip(fv.values, fw.values)))
        assert is_subharmonic(fmax)

    def test_interior_max_not_subharmonic(self):
        t = chain([F(0), F(-1)])
        assert not is_subharmonic(PLValues(t, (Ext(0), Ext(5), Ext(0))))

    def test_by_parts_examples(self):
        t = chain([F(-1)])
        groot = tree_measure_values(t, {0: F(1)})
        gv = tree_measure_values(t, {1: F(1)})
        assert dirichlet_by_parts(groot, groot) == Ext(1)
        assert dirichlet_by_parts(gv, gv) == Ext(-1)
        assert dirichlet_by_parts(groot, gv) == Ext(1)


@st.composite
def random_tree(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    parent, alpha = [None], [Ext(1)]
    for i in range(1, n):
        p = draw(st.integers(0, i - 1))
        drop = draw(st.fractions(min_value=F(1, 4), max_value=F(3),
                                 max_denominator=6))
        parent.append(p)
        alpha.append(alpha[p] - Ext(drop))
    return FiniteTree(tuple(parent), tuple(alpha),
                      tuple([ROOT] + [None] * (n - 1)))


@st.composite
def tree_and_masses(draw, positive=False):
    t = draw(random_tree())
    vals = st.fractions(min_value=F(1, 3) if positive else F(-3),
                        max_value=F(3), max_denominator=6)
    def masses():
        out = {}
        for i in range(len(t)):
            if draw(st.booleans()):
                m = draw(vals)
                if m != 0:
                    out[i] = m
        if not out:
            out[0] = F(1)
        return out
    return t, masses(), masses()


@settings(max_examples=60)
@given(tree_and_masses())
def test_two_dirichlet_formulas_agree(tm):
    t, m1, m2 = tm
    f = tree_measure_values(t, m1)
    g = tree_measure_values(t, m2)
    assert dirichlet_by_parts(f, g) == tree_dirichlet(t, m1, m2)


@settings(max_examples=60)
@given(tree_and_masses())
def test_laplacian_roundtrip(tm):
    t, m1, _ = tm
    assert laplacian_pl(tree_measure_values(t, m1)) == m1


@settings(max_examples=60)
@given(tree_and_masses())
def test_value_at_root_is_total_mass(tm):
    t, m1, _ = tm
    f = tree_measure_values(t, m1)
    assert f.values[0] == Ext(sum(m1.values(), F(0)))


@settings(max_examples=60)
@given(tree_and_masses(positive=True))
def test_hodge_inequality(tm):
    t, m1, m2 = tm
    a = sum(m1.values(), F(0))
    b = sum(m2.values(), F(0))
    pab = tree_dirichlet(t, m1, m2).q
    paa = tree_dirichlet(t, m1, m1).q
    pbb = tree_dirichlet(t, m2, m2).q
    assert (a * b - pab) ** 2 <= (a * a - paa) * (b * b - pbb)


@settings(max_examples=60)
@given(tree_and_masses(positive=True), st.data())
def test_retraction_increases_energy(tm, data):
    t, m1, _ = tm
    sub = {0}
    for i in range(1, len(t)):
        if data.draw(st.booleans()):
            sub.add(i)
    r = tree_retract_masses(t, sub, m1)
    before = tree_dirichlet(t, m1, m1)
    after = tree_dirichlet(t, r, r)
    assert after >= before
    from valinf.potential import tree_retract_vertex
    on_hull = all(tree_retract_vertex(t, sub, i) == i for i in m1)
    assert (after == before) == on_hull


@settings(max_examples=60)
@given(tree_and_masses(positive=True))
def test_max_principle_positive_measure(tm):
    t, m1, _ = tm
    f = tree_measure_values(t, m1)
    assert max(f.values) == f.values[0]


class TestPerturb:
    def test_empty_constraints_retracts_to_root(self):
        psi = perturb_certificate(dirac(M0), [])
        assert psi.atoms == ((ROOT, F(1)),)
        assert dirichlet(psi, psi) == Ext(1)

    def test_retraction_case(self):
        phi = measure([(M1, 1), (N1, 1)])
        assert dirichlet(phi, phi) == Ext(0)
        psi = perturb_certificate(phi, [HYP])
        assert dirichlet(psi, psi) > Ext(0)
        assert value(psi, HYP) == Ext(0)
        assert value(psi, point_on_segment(HYP, F(-3))) == Ext(0)

    def test_split_case(self):
        psi = perturb_certificate(dirac(M0), [YBRANCH])
        assert len(psi.atoms) == 2
        assert dirichlet(psi, psi) > Ext(0)
        assert value(psi, YBRANCH) == Ext(0)
        assert value(psi, point_on_segment(YBRANCH, F(-2))) == Ext(0)

    def test_split_two_directions(self):
        psi = perturb_certificate(dirac(M0), [YBRANCH, Y1BRANCH])
        assert len(psi.atoms) == 3
        assert dirichlet(psi, psi) > Ext(0)
        for w in (YBRANCH, Y1BRANCH):
            assert value(psi, w) == Ext(0)

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            perturb_certificate(dirac(M1), [])          # self-pairing -1
        with pytest.raises(PreconditionViolated):
            perturb_certificate(dirac(M0), [N1])        # not above the atom
        with pytest.raises(PreconditionViolated):
            perturb_certificate(dirac(M0), [M0])        # atoms exhausted
        with pytest.raises(PreconditionViolated):
            perturb_certificate(measure([(M0, -1)]), [])


def base_certificate():
    phi = measure([(M1, 1), (ROOT, 1)])
    return phi, [M1]


class TestExtend:
    def test_empty_extra(self):
        phi, S = base_certificate()
        out = extend_certificate(phi, S, [])
        assert out.total_mass == 1
        assert dirichlet(out, out) == Ext(F(1, 2))

    def test_single_divisorial_extra(self):
        phi, S = base_certificate()
        v = Monomial(F(5), F(-1))
        out = extend_certificate(phi, S, [v])
        assert value(out, v) == Ext(0)
        assert value(out, Monomial(F(6), F(-1))) == Ext(0)
        assert value(out, M1) == Ext(0)
        assert dirichlet(out, out) >= Ext(F(1, 4))

    def test_curve_extra_is_free(self):
        phi, S = base_certificate()
        b = curve_of_series(PX0, 1, {3: 1}, 8, exact=True)
        out = extend_certificate(phi, S, [b])
        assert out.total_mass == 1
        assert dirichlet(out, out) == Ext(F(1, 2))

    def test_skewness_bound(self):
        phi, S = base_certificate()
        with pytest.raises(SkewnessTooHigh):
            extend_certificate(phi, S, [N1])

    def test_pair_merge(self):
        phi, S = base_certificate()
        b1 = curve_of_series(PX0, 1, {3: 1}, 16, exact=True)
        b3 = curve_of_series(PX0, 1, {3: 1, 7: 1}, 16, exact=True)
        g = point_green(b1, b3)
        assert g <= Ext(-5)  # deep junction triggers the merge step
        e1 = point_on_segment(b1, F(-13))
        e3 = point_on_segment(b3, F(-13))
        out = extend_certificate(phi, S, [e1, e3])
        assert value(out, e1) == Ext(0)
        assert value(out, e3) == Ext(0)
        assert value(out, M1) == Ext(0)
        assert dirichlet(out, out) >= Ext(F(1, 4))

    def test_already_covered_extra_ignored(self):
        phi, S = base_certificate()
        out = extend_certificate(phi, S, [Monomial(F(-1), F(3))])
        assert dirichlet(out, out) == Ext(F(1, 2))
