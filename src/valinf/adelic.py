"""Places of Q, branch membership at a place, and algebraization.

A family of rational points that stays bounded or on prescribed branches
at every place lies on an algebraic curve: a witness polynomial P that is
positive on the branch valuations takes finitely many values T on the
family, and the curve is the product of the level sets P = t.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import poly
from .errors import (DomainError, InsufficientTruncation, InternalMismatch,
                     Undecidable, WitnessNotFound)
from .exact import rational_root
from .valuations import Curve, equal

ARCH = "inf"


def ord_p(q: Fraction, p: int):
    """p-adic order; None stands for +infinity (q = 0)."""
    q = Fraction(q)
    if q == 0:
        return None
    n = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        n += 1
    while den % p == 0:
        den //= p
        n -= 1
    return n


def abs_value(q, place) -> Fraction:
    """Exact absolute value at a place of Q ("inf" or a prime)."""
    q = Fraction(q)
    if place == ARCH:
        return abs(q)
    p = int(place)
    if p < 2:
        raise DomainError(f"not a place: {place!r}")
    o = ord_p(q, p)
    if o is None:
        return Fraction(0)
    return Fraction(1, p) ** o


def chart_coordinates(point, base):
    """(u, v) local coordinates at a point of the line at infinity."""
    x, y = Fraction(point[0]), Fraction(point[1])
    if base.chart == "x":
        if x == 0:
            raise DomainError("point not in the chart at infinity")
        return Fraction(1) / x, y / x + base.c
    if y == 0:
        raise DomainError("point not in the chart at infinity")
    return Fraction(1) / y, x / y


def branch_membership(point, branch, place, radius) -> bool:
    """Whether a rational point lies in the branch's domain at a place.

    The test requires |u|_place below min(radius, 1) and the v-coordinate
    to match the truncated series within the certified tail bound; only
    rational values of the ramified parameter are considered.
    """
    radius = Fraction(radius)
    try:
        u0, v0 = chart_coordinates(point, branch.base)
    except DomainError:
        return False
    gate = min(radius, Fraction(1))
    if not abs_value(u0, place) < gate:
        return False
    s = branch.series
    r = rational_root(u0, s.m)
    for tau in [] if r is None else [r, -r] if s.m % 2 == 0 else [r]:
        approx = sum((Fraction(c) * tau ** j for j, c in s.coeffs),
                     Fraction(0))
        diff = v0 - approx
        if s.exact:
            if diff == 0:
                return True
            continue
        if place == ARCH:
            if diff != 0:
                raise Undecidable(
                    "archimedean tail bound inconclusive at this truncation")
            continue
        # integral coefficients at places outside S: the tail is bounded
        # by the first uncertified power of tau
        tail = abs_value(tau, place) ** (s.K + 1)
        if abs_value(diff, place) <= tail:
            return True
    return False


@dataclass
class AdelicBranch:
    """A branch with its declared finite places, radii, and bounds."""

    curve: Curve
    primes: tuple = ()
    radius: dict = field(default_factory=dict)   # place -> Fraction
    bound: dict = field(default_factory=dict)    # place -> Fraction

    def places(self):
        return [ARCH] + [int(p) for p in self.primes]

    def radius_at(self, place) -> Fraction:
        return Fraction(self.radius.get(place, 1))

    def bound_at(self, place) -> Fraction:
        return Fraction(self.bound.get(place, 1))


@dataclass
class PointReport:
    point: tuple
    included: bool
    value: Fraction | None
    detail: dict = field(default_factory=dict)   # place -> explanation


@dataclass
class AlgebraizeReport:
    witness: dict
    values: list
    curve: dict
    points: list
    branch_verdicts: list
    notes: list = field(default_factory=list)


def _point_passes(point, branches, place) -> tuple:
    """(passes, explanation) for the bound-or-membership disjunction."""
    x, y = Fraction(point[0]), Fraction(point[1])
    B = max(ab.bound_at(place) for ab in branches)
    if abs_value(x, place) <= B and abs_value(y, place) <= B:
        return True, "bounded"
    warns = []
    for k, ab in enumerate(branches):
        try:
            if branch_membership(point, ab.curve.branch, place,
                                 ab.radius_at(place)):
                return True, f"on-branch-{k}"
        except Undecidable as e:
            warns.append(str(e))
    if warns:
        return False, "undecidable: " + "; ".join(warns)
    return False, "neither bounded nor on a branch"


def _branches_match(curve_poly: dict, declared) -> list:
    from .puiseux import branches_at_infinity

    verdicts = []
    for b in branches_at_infinity(curve_poly):
        found = None
        for k, ab in enumerate(declared):
            try:
                same = equal(Curve(b), ab.curve)
            except InsufficientTruncation:
                same = True          # agrees through the certified range
            if same:
                found = k
                break
        verdicts.append((b.base, found))
    return verdicts


def algebraize(branches, points, max_degree: int) -> AlgebraizeReport:
    """Fit the smallest level-set curve through an adelically bounded family."""
    from . import polyfinder

    if not branches:
        raise DomainError("at least one branch is required")
    if not points:
        raise DomainError("a nonempty point list is required")
    P = polyfinder.find_positive([ab.curve for ab in branches], max_degree)
    if P is None:
        raise WitnessNotFound(
            f"no positive witness up to degree {max_degree}")
    places = sorted({pl for ab in branches for pl in ab.places()},
                    key=lambda pl: (pl != ARCH, pl if pl != ARCH else 0))
    reports = []
    values = set()
    for pt in points:
        pt = (Fraction(pt[0]), Fraction(pt[1]))
        detail = {}
        ok = True
        for pl in places:
            passes, why = _point_passes(pt, branches, pl)
            detail[pl] = why
            ok = ok and passes
        val = poly.eval_at(P, pt[0], pt[1]) if ok else None
        if ok:
            values.add(val)
        reports.append(PointReport(point=pt, included=ok, value=val,
                                   detail=detail))
    T = sorted(values)
    curve = {(0, 0): Fraction(1)}
    for t in T:
        curve = poly.mul(curve, poly.sub_const(P, t))
    notes = []
    if not T:
        notes.append("no qualifying points; the empty product is 1")
        verdicts = []
    else:
        for r in reports:
            if r.included and poly.eval_at(curve, *r.point) != 0:
                raise InternalMismatch("retained point misses the curve")
        verdicts = _branches_match(curve, branches)
    return AlgebraizeReport(witness=P, values=T, curve=curve,
                            points=reports, branch_verdicts=verdicts,
                            notes=notes)
