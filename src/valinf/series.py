"""Series types used by branch tracking.

``LaurentSeries`` is univariate with integer (possibly negative)
exponents and a precision bound.  ``PuiseuxSeries`` packages branch data
y_q = sum a_j x_q^(j/m).  Chart equations are exact polynomials, plain
``poly`` dicts; ``compose_series`` substitutes into one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import poly
from .errors import InsufficientTruncation
from .exact import _q, integer_numerators


def powers(base, one):
    """k -> base^k, each power computed once as base^(k-1) * base."""
    table = [one]

    def power(k: int):
        while len(table) <= k:
            table.append(table[-1] * base)
        return table[k]

    return power


def compose_series(f: dict, sub_u: dict, sub_v: dict) -> dict:
    """Substitute u := sub_u, v := sub_v into the polynomial f.

    All three are {(i, j): Fraction} dicts.  Blowup charts use the direct
    ``cluster.blowup_substitute``; the tests keep this generic composition
    as its oracle.
    """
    out = {}
    for (i, j), c in f.items():
        term = poly.mul(poly.power(sub_u, i), poly.power(sub_v, j))
        out = poly.add(out, poly.scale(term, c))
    return out


def _min_order(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _integer_terms(coeffs: dict):
    """([(e, n_e)] in increasing e, D) with coeffs[e] = n_e / D, for D
    the least common denominator."""
    es = sorted(coeffs)
    nums, den = integer_numerators([coeffs[e] for e in es])
    return list(zip(es, nums)), den


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
            if j > self.K and not self.exact:
                raise ValueError(f"exponent {j} is above the truncation "
                                 f"K = {self.K}")

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

