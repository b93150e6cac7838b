"""Truncated series types used by chart propagation and branch tracking.

``TruncSeries2`` is a bivariate power series with an optional truncation
order (``None`` means exact polynomial).  ``LaurentSeries`` is univariate
with integer (possibly negative) exponents and a precision bound.
``PuiseuxSeries`` packages branch data y_q = sum a_j x_q^(j/m).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import InsufficientTruncation, TruncationUnderflow
from .exact import _q


def powers(base, one):
    """k -> base^k, each power computed once as base^(k-1) * base."""
    table = [one]

    def power(k: int):
        while len(table) <= k:
            table.append(table[-1] * base)
        return table[k]

    return power


def _min_order(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _integer_terms(coeffs: dict):
    """([(e, n_e)] in increasing e, D) with coeffs[e] = n_e / D, for D
    the least common denominator."""
    den = 1
    for c in coeffs.values():
        den = lcm(den, c.denominator)
    return [(e, coeffs[e].numerator * (den // coeffs[e].denominator))
            for e in sorted(coeffs)], den


class TruncSeries2:
    """Power series in (u, v) over Q, exact below ``order`` (None = exact)."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs=None, order=None):
        cs = {}
        if coeffs:
            for (i, j), c in coeffs.items():
                c = _q(c)
                if c == 0:
                    continue
                if order is not None and i + j >= order:
                    continue
                cs[(i, j)] = c
        self.coeffs = cs
        self.order = order
        if order is not None and order < 1:
            raise TruncationUnderflow("truncation order below 1")

    @staticmethod
    def unchecked(coeffs: dict, order) -> "TruncSeries2":
        """A series from coefficients that are already nonzero Fractions
        of total degree below ``order``; they are not checked again."""
        out = object.__new__(TruncSeries2)
        out.coeffs = coeffs
        out.order = order
        return out

    @staticmethod
    def const(c) -> "TruncSeries2":
        return TruncSeries2({(0, 0): _q(c)})

    @staticmethod
    def var_u() -> "TruncSeries2":
        return TruncSeries2({(1, 0): Fraction(1)})

    @staticmethod
    def var_v() -> "TruncSeries2":
        return TruncSeries2({(0, 1): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def truncate(self, order) -> "TruncSeries2":
        return TruncSeries2(self.coeffs, _min_order(self.order, order))

    def low_order(self):
        """Min total degree of a stored term; None for the zero series."""
        if not self.coeffs:
            return None
        return min(i + j for i, j in self.coeffs)

    def mult(self) -> int:
        """Certified multiplicity at the origin.

        For truncated series the multiplicity is only trusted when strictly
        below the truncation order.
        """
        lo = self.low_order()
        if lo is None:
            if self.order is None:
                raise ValueError("multiplicity of the zero series")
            raise InsufficientTruncation("zero to stored order")
        if self.order is not None and lo >= self.order:
            raise InsufficientTruncation("order not certified")
        return lo

    def __add__(self, other: "TruncSeries2") -> "TruncSeries2":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + c
        return TruncSeries2(out, _min_order(self.order, other.order))

    def __neg__(self) -> "TruncSeries2":
        return TruncSeries2({k: -c for k, c in self.coeffs.items()}, self.order)

    def __sub__(self, other: "TruncSeries2") -> "TruncSeries2":
        return self + (-other)

    def __mul__(self, other: "TruncSeries2") -> "TruncSeries2":
        # terms of f at or above its order are unknown; they meet g's lowest
        # term first, so the product is exact below min(Nf + og, Ng + of)
        order = None
        if self.order is not None:
            og = other.low_order()
            order = self.order + (og if og is not None else 0)
        if other.order is not None:
            of = self.low_order()
            o2 = other.order + (of if of is not None else 0)
            order = _min_order(order, o2)
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                if order is not None and k[0] + k[1] >= order:
                    continue
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return TruncSeries2(out, order)

    def scale(self, c) -> "TruncSeries2":
        c = _q(c)
        if c == 0:
            return TruncSeries2({}, self.order)
        return TruncSeries2({k: c * a for k, a in self.coeffs.items()}, self.order)

    def divide_u(self, m: int) -> "TruncSeries2":
        """Exact division by u^m."""
        out = {}
        for (i, j), c in self.coeffs.items():
            if i < m:
                raise ValueError("not divisible by u^m")
            out[(i - m, j)] = c
        order = None if self.order is None else max(self.order - m, 1)
        return TruncSeries2.unchecked(out, order)

    def divide_v(self, m: int) -> "TruncSeries2":
        out = {}
        for (i, j), c in self.coeffs.items():
            if j < m:
                raise ValueError("not divisible by v^m")
            out[(i, j - m)] = c
        order = None if self.order is None else max(self.order - m, 1)
        return TruncSeries2.unchecked(out, order)

    def __eq__(self, other):
        return (isinstance(other, TruncSeries2)
                and self.coeffs == other.coeffs and self.order == other.order)

    def __repr__(self):
        terms = " + ".join(
            f"{c}*u^{i}*v^{j}" for (i, j), c in sorted(self.coeffs.items()))
        tail = "" if self.order is None else f" + O(deg {self.order})"
        return (terms or "0") + tail


def compose_series(f: TruncSeries2, sub_u: TruncSeries2,
                   sub_v: TruncSeries2) -> TruncSeries2:
    """Substitute u := sub_u, v := sub_v into f.

    Blowup charts use the direct ``cluster.blowup_substitute``; the tests
    keep this generic composition as its oracle.
    Substitutions with nonzero constant term (translations) are allowed
    only when f is an exact polynomial, since re-expansion at the new
    origin mixes all orders.
    """
    cu = sub_u.coeffs.get((0, 0), 0)
    cv = sub_v.coeffs.get((0, 0), 0)
    if (cu != 0 or cv != 0) and f.order is not None:
        raise TruncationUnderflow("translation of a truncated series")

    order = f.order
    if order is not None:
        # substitutions of order >= 1 map degree-N tails into order >= N
        so = min(x for x in (sub_u.low_order() or 1, sub_v.low_order() or 1))
        if so < 1:
            so = 1
        order = _min_order(order * so, _min_order(sub_u.order, sub_v.order))

    # sum of c * sub_u^i * sub_v^j, each power built once
    out = TruncSeries2({}, order)
    upow = powers(sub_u, TruncSeries2.const(1))
    vpow = powers(sub_v, TruncSeries2.const(1))
    for (i, j), c in f.coeffs.items():
        out = out + (upow(i) * vpow(j)).scale(c)
    if order is not None:
        out = out.truncate(order)
    return out


# ---------------------------------------------------------------------------
# univariate Laurent series with precision tracking
# ---------------------------------------------------------------------------


class LaurentSeries:
    """Series sum c_e t^e with integer exponents; exact below ``prec``."""

    __slots__ = ("coeffs", "prec")

    def __init__(self, coeffs=None, prec=None):
        cs = {}
        if coeffs:
            for e, c in coeffs.items():
                c = _q(c)
                if c == 0:
                    continue
                if prec is not None and e >= prec:
                    continue
                cs[e] = c
        self.coeffs = cs
        self.prec = prec

    @staticmethod
    def unchecked(coeffs: dict, prec) -> "LaurentSeries":
        """A series from coefficients that are already nonzero Fractions
        at exponents below ``prec``; they are not checked again."""
        out = object.__new__(LaurentSeries)
        out.coeffs = coeffs
        out.prec = prec
        return out

    @staticmethod
    def monomial(e: int, c=1, prec=None) -> "LaurentSeries":
        return LaurentSeries({e: _q(c)}, prec)

    @staticmethod
    def zero(prec=None) -> "LaurentSeries":
        return LaurentSeries({}, prec)

    def is_zero_known(self) -> bool:
        return not self.coeffs

    def order(self) -> int:
        """Certified order of vanishing; raises when not certifiable."""
        if not self.coeffs:
            if self.prec is None:
                raise ValueError("order of the exact zero series")
            raise InsufficientTruncation("no nonzero coefficient below prec")
        o = min(self.coeffs)
        if self.prec is not None and o >= self.prec:
            raise InsufficientTruncation("order not below precision")
        return o

    def leading(self) -> Fraction:
        return self.coeffs[self.order()]

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return LaurentSeries(out, _min_order(self.prec, other.prec))

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries({e: -c for e, c in self.coeffs.items()}, self.prec)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        """The product, exact below the least of f.prec + ord g and
        g.prec + ord f.

        Cost: the coefficients of each factor are integer numerators over
        that factor's common denominator, and both factors are walked in
        exponent order, stopping at the product's precision.  So it takes
        one integer product per pair of terms whose exponent sum lies
        below the precision, and one normalized Fraction per output
        coefficient.
        """
        prec = None
        if self.prec is not None:
            og = min(other.coeffs) if other.coeffs else 0
            prec = self.prec + og
        if other.prec is not None:
            of = min(self.coeffs) if self.coeffs else 0
            prec = _min_order(prec, other.prec + of)
        if not self.coeffs or not other.coeffs:
            return LaurentSeries.unchecked({}, prec)
        terms1, d1 = _integer_terms(self.coeffs)
        terms2, d2 = _integer_terms(other.coeffs)
        top = terms1[-1][0] + terms2[-1][0] + 1
        if prec is not None and prec < top:
            top = prec
        acc = {}
        low2 = terms2[0][0]
        for e1, n1 in terms1:
            if e1 + low2 >= top:
                break
            for e2, n2 in terms2:
                e = e1 + e2
                if e >= top:
                    break
                acc[e] = acc.get(e, 0) + n1 * n2
        den = d1 * d2
        return LaurentSeries.unchecked(
            {e: Fraction(n, den) for e, n in acc.items() if n}, prec)

    def scale(self, c) -> "LaurentSeries":
        c = _q(c)
        if c == 0:
            return LaurentSeries({}, self.prec)
        return LaurentSeries({e: c * a for e, a in self.coeffs.items()}, self.prec)

    def inverse(self, prec_hint=None) -> "LaurentSeries":
        """Multiplicative inverse; requires a certified leading term.

        The inverse of an exact non-monomial is an infinite series; its
        relative precision is taken from ``prec_hint`` (default 32).

        Cost: 1/f = t^-o / c_o * g, for g = 1 / (1 + sum_j h_j t^j) with
        h_j = c_(o+j) / c_o.  g_k is nonzero only at multiples k of d,
        the gcd of the exponents j, so the recurrence
        g_k = -sum_j h_j g_(k-j) steps through those k alone.  It takes
        one Fraction product per pair of such a k below the working
        precision and a nonzero h_j, j <= k, with g_(k-j) nonzero.
        """
        o = self.order()
        lead = self.coeffs[o]
        if len(self.coeffs) == 1:
            # exact monomial up to stored precision
            prec = None if self.prec is None else self.prec - 2 * o
            return LaurentSeries.unchecked({-o: 1 / lead}, prec)
        if self.prec is None:
            work = prec_hint if prec_hint is not None else 32
        else:
            work = self.prec - o
        h = [(e - o, self.coeffs[e] / lead) for e in sorted(self.coeffs)[1:]]
        d = gcd(*(j for j, _ in h))
        g = {0: Fraction(1)}
        for k in range(d, work, d):
            s = 0
            for j, c in h:
                if j > k:
                    break
                gk = g.get(k - j)
                if gk is not None:
                    s += c * gk
            if s:
                g[k] = -s
        inv = 1 / lead
        return LaurentSeries.unchecked(
            {k - o: c * inv for k, c in g.items() if k < work}, work - o)

    def __truediv__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self * other.inverse()

    def __repr__(self):
        terms = " + ".join(f"{c}*t^{e}" for e, c in sorted(self.coeffs.items()))
        tail = "" if self.prec is None else f" + O(t^{self.prec})"
        return (terms or "0") + tail


# ---------------------------------------------------------------------------
# Puiseux data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PuiseuxSeries:
    """y_q = sum_{j>=1} a_j x_q^(j/m), coefficients known for j <= K."""

    m: int
    coeffs: tuple          # sorted tuple of (j, Fraction), j >= 1
    K: int                 # truncation: all j <= K enumerated
    exact: bool = False    # True when the series terminates at the stored terms

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("ramification index must be >= 1")
        for j, c in self.coeffs:
            if j < 1:
                raise ValueError("exponents must be positive")
            if _q(c) == 0:
                raise ValueError("zero coefficients must be omitted")

    @staticmethod
    def make(m: int, coeffs, K: int, exact: bool = False) -> "PuiseuxSeries":
        items = tuple(sorted((int(j), _q(c)) for j, c in dict(coeffs).items()
                             if _q(c) != 0))
        return PuiseuxSeries(m=m, coeffs=items, K=K, exact=exact)

    def reduced(self) -> "PuiseuxSeries":
        """Divide out a common factor of m and all exponents (exact only)."""
        if not self.exact:
            return self
        g = self.m
        for j, _ in self.coeffs:
            g = gcd(g, j)
        if g == 1:
            return self
        return PuiseuxSeries(
            m=self.m // g,
            coeffs=tuple((j // g, c) for j, c in self.coeffs),
            K=max(self.K // g, max((j // g for j, _ in self.coeffs), default=1)),
            exact=True)

    def tau_series(self) -> LaurentSeries:
        """The series as a LaurentSeries in t = x_q^(1/m)."""
        prec = None if self.exact else self.K + 1
        return LaurentSeries({j: c for j, c in self.coeffs}, prec)

