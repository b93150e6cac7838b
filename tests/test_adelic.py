from fractions import Fraction

import pytest

from valinf import poly
from valinf.adelic import (ARCH, AdelicBranch, AlgebraizeReport, abs_value,
                           algebraize, branch_membership, chart_coordinates,
                           ord_p)
from valinf.cluster import PointAtInfinity
from valinf.errors import (DomainError, InternalMismatch, Undecidable,
                           WitnessNotFound)
from valinf.puiseux import weighted_branches
from valinf.valuations import Curve, curve_of_series

F = Fraction
PY = PointAtInfinity("y")


def cusp_branch():
    (b, _), = weighted_branches(poly.parse("y^2-x^3"))
    return b


class TestAbsValue:
    def test_p_adic(self):
        assert abs_value(8, 2) == F(1, 8)
        assert abs_value(F(3, 4), 2) == 4
        assert abs_value(0, 5) == 0
        assert abs_value(F(10, 3), 5) == F(1, 5)

    def test_archimedean(self):
        assert abs_value(-5, ARCH) == 5
        assert abs_value(F(-2, 7), ARCH) == F(2, 7)

    def test_ord(self):
        assert ord_p(F(12), 2) == 2
        assert ord_p(F(1, 9), 3) == -2
        assert ord_p(F(0), 7) is None

    def test_product_formula_samples(self):
        # product over all places is 1; these samples ramify only at 2..7
        for q in [F(6), F(-35, 8), F(100, 63)]:
            prod = abs_value(q, ARCH)
            for p in (2, 3, 5, 7):
                prod *= abs_value(q, p)
            assert prod == 1


class TestMembership:
    def test_chart_coordinates(self):
        u, v = chart_coordinates((9, 27), PY)
        assert (u, v) == (F(1, 27), F(1, 3))
        with pytest.raises(DomainError):
            chart_coordinates((5, 0), PY)

    def test_cusp_points(self):
        b = cusp_branch()
        for n in (2, 3, 5):
            assert branch_membership((n * n, n ** 3), b, ARCH, 1)
            # at p | n the point is p-adically small, not near infinity
            assert not branch_membership((n * n, n ** 3), b, n, 1)
        assert not branch_membership((1, 1), b, ARCH, 1)    # radius gate
        assert not branch_membership((4, 9), b, ARCH, 1)    # off the branch

    def test_radius_gate(self):
        b = cusp_branch()
        assert not branch_membership((4, 8), b, ARCH, F(1, 100))

    def test_truncated_padic_tail_bound(self):
        # y = x^3 + x^5 point tested against the truncated branch y = x^3:
        # at 2-adic places the difference is swallowed by the tail bound
        b = curve_of_series(PY, 1, {3: F(1)}, 4, exact=False).branch
        p = 2
        tau = F(8)                    # 2-adically small chart parameter
        v0 = tau ** 3 + tau ** 6      # deviation beyond the truncation
        # chart coords at the base: u = 1/y = tau, v = x/y = v0
        point = (v0 / tau, 1 / tau)
        assert branch_membership(point, b, p, 1)
        # a deviation inside the certified range is detected
        v1 = tau ** 3 + tau ** 4
        assert not branch_membership(((v1) / tau, 1 / tau), b, p, 1)

    def test_truncated_archimedean_undecidable(self):
        b = curve_of_series(PY, 1, {3: F(1)}, 4, exact=False).branch
        tau = F(1, 8)
        v0 = tau ** 3 + tau ** 6
        point = (v0 / tau, 1 / tau)
        with pytest.raises(Undecidable):
            branch_membership(point, b, ARCH, 1)


class TestAlgebraize:
    def points(self, lo=2, hi=13):
        return [(n * n, n ** 3) for n in range(lo, hi)]

    def test_cusp_family(self):
        ab = AdelicBranch(curve=Curve(cusp_branch()), primes=(2, 3))
        rep = algebraize([ab], self.points(), 6)
        assert rep.values == [0]
        assert poly.normalize(rep.curve) in (
            poly.parse("x^3-y^2"), poly.parse("y^2-x^3"))
        assert all(r.included for r in rep.points)
        assert all(poly.eval_at(rep.curve, *r.point) == 0 for r in rep.points)
        assert rep.branch_verdicts and rep.branch_verdicts[0][1] == 0

    def test_two_level_sets(self):
        ab = AdelicBranch(curve=Curve(cusp_branch()), primes=(2,),
                          bound={ARCH: F(4)})
        # (2, 3) lies on y^2 = x^3 + 1 and within the archimedean bound
        rep = algebraize([ab], self.points(2, 7) + [(2, 3)], 6)
        assert sorted(rep.values) == [F(-1), F(0)]
        prod = poly.mul(poly.parse("x^3-y^2"), poly.parse("x^3-y^2+1"))
        assert poly.normalize(rep.curve) == prod

    def test_violating_point_excluded(self):
        ab = AdelicBranch(curve=Curve(cusp_branch()), primes=(2,))
        rep = algebraize([ab], self.points(2, 5) + [(7, 13)], 6)
        bad = [r for r in rep.points if not r.included]
        assert len(bad) == 1 and bad[0].point == (7, 13)
        assert rep.values == [0]

    def test_empty_family_is_an_error(self):
        ab = AdelicBranch(curve=Curve(cusp_branch()))
        with pytest.raises(DomainError):
            algebraize([ab], [], 6)

    def test_no_qualifying_points_vacuous(self):
        ab = AdelicBranch(curve=Curve(cusp_branch()))
        rep = algebraize([ab], [(7, 13)], 6)
        assert rep.values == []
        assert rep.curve == {(0, 0): F(1)}
        assert rep.notes

    def test_retained_point_off_the_curve_is_an_internal_mismatch(
            self, monkeypatch):
        # a level set that misses its own point can only be a defect: with
        # every level set replaced by the unit, the check must catch it
        monkeypatch.setattr(poly, "sub_const", lambda P, t: {(0, 0): F(1)})
        ab = AdelicBranch(curve=Curve(cusp_branch()), primes=(2, 3))
        with pytest.raises(InternalMismatch,
                           match="retained point misses the curve"):
            algebraize([ab], self.points(2, 5), 6)
