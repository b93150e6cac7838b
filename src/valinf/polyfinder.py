"""Constructive witnesses by exact linear algebra on coefficient jets.

A generic polynomial of degree <= d is a vector of unknown rational
coefficients.  Each valuation contributes homogeneous linear conditions
expressing v(P) >= threshold; a nonzero kernel element of the stacked
system is a candidate witness, re-verified through the valuations module
before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import poly
from .cluster import base_strict_series, blowup_substitute
from .errors import (InsufficientTruncation, InternalMismatch,
                     PreconditionViolated)
from .exact import Ext, integer_numerators, solve_linear
from .series import LaurentSeries, powers
from .valuations import (Curve, Divisorial, Monomial, Root, Valuation,
                         branch_xy_series, evaluate)


# an exhaustive search grows about as D^5: 22 s at the cap (README, caps)
MAX_DEGREE = 24


def check_degree_bound(D: int) -> None:
    """Refuse a witness degree bound outside 1..MAX_DEGREE."""
    if not 1 <= D <= MAX_DEGREE:
        raise PreconditionViolated(
            f"degree bound must be in 1..{MAX_DEGREE}, got {D}")


def monomials_upto(d: int, include_constant: bool = True):
    """Monomials (i, j) with i + j <= d, graded-lex ascending."""
    out = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)
           if include_constant or (i, j) != (0, 0)]
    out.sort(key=poly.monomial_key)
    return out


@dataclass
class ConstraintSystem:
    """Homogeneous conditions on the coefficients of a generic polynomial."""

    monomials: list
    rows: list


def _kill(monomials, idx) -> list:
    row = [Fraction(0)] * len(monomials)
    row[idx] = Fraction(1)
    return row


def _monomial_rows(v: Monomial, monomials, strict: bool) -> list:
    rows = []
    for k, (i, j) in enumerate(monomials):
        val = v.s * i + v.t * j
        if val < 0 or (strict and val == 0):
            rows.append(_kill(monomials, k))
    return rows


def _root_rows(monomials, strict: bool) -> list:
    rows = []
    for k, (i, j) in enumerate(monomials):
        if strict or (i, j) != (0, 0):
            rows.append(_kill(monomials, k))
    return rows


# ---------------------------------------------------------------------------
# divisorial conditions by total-transform propagation
# ---------------------------------------------------------------------------


def _divisorial_rows(v: Divisorial, monomials, d: int, strict: bool) -> list:
    cl, node = v.realize()
    path = cl.path(node)
    base = cl.nodes[path[0]].base
    steps = [cl.nodes[i].step for i in path[1:]]
    # ord_E(P) = mult(F) - d * ord_E(u) for F the total transform of
    # u^d P at the blown-up center and u the local equation of the line
    # at infinity, whose ord_E(u) = -min(ord_E x, ord_E y) is b_E
    need = d * cl.rows()[node].b + (1 if strict else 0)
    # the total transform is linear in the unknowns: push each monomial
    # through the charts alone, discarding terms at or above the threshold
    # as they appear (total degree never decreases under a blowup)
    cols = {}
    for k, m in enumerate(monomials):
        F = {key: c for key, c
             in base_strict_series(base, {m: Fraction(1)}, d).items()
             if key[0] + key[1] < need}
        for st in steps:
            F = blowup_substitute(F, st, need)
        for key, c in F.items():
            cols.setdefault(key, {})[k] = c
    return [[row.get(k, Fraction(0)) for k in range(len(monomials))]
            for row in cols.values()]


def _curve_rows(v: Curve, monomials, strict: bool) -> list:
    x, y, b = branch_xy_series(v.branch)
    one = LaurentSeries.monomial(0, 1)
    xpow, ypow = powers(x, one), powers(y, one)
    bound = 0 if strict else -1
    cols = {}
    for idx, (i, j) in enumerate(monomials):
        s = xpow(i) * ypow(j)
        if s.prec is not None and s.prec <= bound:
            raise InsufficientTruncation(
                "branch truncation too short for these degrees")
        for e, c in s.coeffs.items():
            if e <= bound:
                cols.setdefault(e, {})[idx] = c
    rows = []
    for e in sorted(cols):
        row = [Fraction(0)] * len(monomials)
        for idx, c in cols[e].items():
            row[idx] = c
        rows.append(row)
    return rows


def valuation_conditions(v: Valuation, d: int, strict: bool,
                         monomials=None) -> ConstraintSystem:
    """Linear conditions on deg <= d coefficients for v(P) >= threshold.

    The threshold is 0 when ``strict`` is false, and the smallest value
    admissible for the valuation's value group otherwise.
    """
    if monomials is None:
        monomials = monomials_upto(d)
    if isinstance(v, Root):
        rows = _root_rows(monomials, strict)
    elif isinstance(v, Monomial):
        rows = _monomial_rows(v, monomials, strict)
    elif isinstance(v, Divisorial):
        rows = _divisorial_rows(v, monomials, d, strict)
    elif isinstance(v, Curve):
        rows = _curve_rows(v, monomials, strict)
    else:
        raise TypeError(f"not a valuation: {v!r}")
    return ConstraintSystem(list(monomials), rows)


# ---------------------------------------------------------------------------
# witness search
# ---------------------------------------------------------------------------


def _canonical(vec, monomials) -> dict:
    """Integer-normalized polynomial with positive graded-lex leading term."""
    P = {m: c for m, c in zip(monomials, vec) if c}
    nums, _ = integer_numerators(P.values())
    g = gcd(*nums)
    if P[max(P, key=poly.monomial_key)] < 0:
        g = -g
    return {m: Fraction(n, g) for m, n in zip(P, nums)}


def _pick_kernel_element(kernel, monomials) -> dict | None:
    """Deterministic choice: smallest leading monomial, then lex on vectors."""
    if not kernel:
        return None
    order = sorted(range(len(monomials)),
                   key=lambda k: poly.monomial_key(monomials[k]))

    def key(vec):
        lead = max((k for k in range(len(vec)) if vec[k]),
                   key=lambda k: poly.monomial_key(monomials[k]))
        unit = [c / vec[lead] for c in vec]
        return (poly.monomial_key(monomials[lead]), [unit[k] for k in order])

    best = min(kernel, key=key)
    return _canonical(best, monomials)


def _search(valuations, D: int, strict: bool, include_constant: bool):
    check_degree_bound(D)
    for d in range(1, D + 1):
        monomials = monomials_upto(d, include_constant)
        rows = []
        for v in valuations:
            rows.extend(valuation_conditions(v, d, strict, monomials).rows)
        if rows:
            kernel = solve_linear(rows).kernel
        else:
            n = len(monomials)
            kernel = [[Fraction(k == i) for k in range(n)] for i in range(n)]
        P = _pick_kernel_element(kernel, monomials)
        if P is not None:
            return P
    return None


def _verify(P: dict, valuations, strict: bool) -> dict:
    for v in valuations:
        val = evaluate(v, P)
        ok = val > Ext(0) if strict else val >= Ext(0)
        if not ok:
            raise InternalMismatch(
                f"witness verification failed: v(P) = {val} for {v!r}")
    return P


def find_positive(S, D: int):
    """Nonzero P of degree <= D with v(P) > 0 for all v in S, or None.

    None never disproves existence; it only exhausts the degree bound.
    A bound outside 1..MAX_DEGREE raises PreconditionViolated.
    """
    valuations = list(S)
    P = _search(valuations, D, strict=True, include_constant=True)
    if P is None:
        return None
    return _verify(P, valuations, strict=True)


def find_nonnegative_nonconstant(S, D: int):
    """Nonconstant P of degree <= D with v(P) >= 0 for all v in S, or None."""
    valuations = list(S)
    P = _search(valuations, D, strict=False, include_constant=False)
    if P is None:
        return None
    return _verify(P, valuations, strict=False)
