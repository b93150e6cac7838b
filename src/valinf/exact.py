"""Exact scalar types and linear algebra.

Everything downstream runs on `fractions.Fraction`.  This module adds the
two-point extension of the rationals (``Ext``), symmetric matrices whose
entries may be -infinity with the limit of their determinant as those
entries go to -infinity (``chi_det``), and one fraction-free elimination
over Z (``_bareiss``) behind linear solves, kernels, determinants and
inverses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Sequence

from .errors import IndeterminateForm


def _q(x) -> Fraction:
    """x as a Fraction, from a Fraction, an int or a string such as
    "3/4"; a float is not an exact rational and raises TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def integer_numerators(values) -> tuple:
    """(numerators, D) with values[k] = numerators[k] / D, for the
    Fractions or ints ``values`` and D their least common denominator
    (1 when there are none)."""
    values = list(values)
    D = lcm(*(a.denominator for a in values))
    return [a.numerator * (D // a.denominator) for a in values], D


def _iroot(n: int, m: int):
    """(r, exact): r = floor(n^(1/m)) for integers n >= 0 and m >= 1,
    exact iff r^m = n; Newton's iteration from above 2^ceil(bits / m)."""
    if n < 2:
        return n, True
    r = 1 << -(-n.bit_length() // m)
    while True:
        s = ((m - 1) * r + n // r ** (m - 1)) // m
        if s >= r:
            return r, r ** m == n
        r = s


def rational_root(q: Fraction, m: int):
    """The rational r with r^m = q, r > 0 for even m, or None if none.

    For even m, -r is the other rational root.
    """
    if m == 1:
        return q
    if q < 0 and m % 2 == 0:
        return None
    rn, okn = _iroot(abs(q.numerator), m)
    rd, okd = _iroot(q.denominator, m)
    if not (okn and okd):
        return None
    return Fraction(-rn if q < 0 else rn, rd)


class Ext:
    """A rational number, or one of the two infinities.

    kind is -1 for -inf, 0 for finite, +1 for +inf.
    """

    __slots__ = ("kind", "q")

    def __init__(self, value=0, *, _kind=0):
        if _kind:
            self.kind = _kind
            self.q = None
        else:
            self.kind = 0
            self.q = _q(value)

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(value) -> "Ext":
        if isinstance(value, Ext):
            return value
        return Ext(value)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Ext":
        other = Ext.of(other)
        if self.kind == 0 and other.kind == 0:
            return Ext(self.q + other.q)
        if self.kind == 0:
            return other
        if other.kind == 0:
            return self
        if self.kind != other.kind:
            raise IndeterminateForm("inf - inf")
        return self

    __radd__ = __add__

    def __neg__(self) -> "Ext":
        if self.kind == 0:
            return Ext(-self.q)
        return NEG_INF if self.kind > 0 else POS_INF

    def __sub__(self, other) -> "Ext":
        return self + (-Ext.of(other))

    def __rsub__(self, other) -> "Ext":
        return Ext.of(other) + (-self)

    def __mul__(self, other) -> "Ext":
        other = Ext.of(other)
        if self.kind == 0 and other.kind == 0:
            return Ext(self.q * other.q)
        a, b = self, other
        if a.kind == 0:
            a, b = b, a
        # a is infinite
        if b.kind == 0:
            if b.q == 0:
                raise IndeterminateForm("0 * inf")
            sign = a.kind * (1 if b.q > 0 else -1)
        else:
            sign = a.kind * b.kind
        return POS_INF if sign > 0 else NEG_INF

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Ext":
        other = Ext.of(other)
        if other.kind != 0:
            if self.kind != 0:
                raise IndeterminateForm("inf / inf")
            return Ext(0)
        if other.q == 0:
            raise ZeroDivisionError("division by zero")
        if self.kind == 0:
            return Ext(self.q / other.q)
        sign = self.kind * (1 if other.q > 0 else -1)
        return POS_INF if sign > 0 else NEG_INF

    # -- order --------------------------------------------------------

    def _key(self):
        if self.kind != 0:
            return (self.kind, Fraction(0))
        return (0, self.q)

    def __lt__(self, other):
        return self._key() < Ext.of(other)._key()

    def __le__(self, other):
        return self._key() <= Ext.of(other)._key()

    def __gt__(self, other):
        return self._key() > Ext.of(other)._key()

    def __ge__(self, other):
        return self._key() >= Ext.of(other)._key()

    def __eq__(self, other):
        if isinstance(other, (Ext, int, Fraction)):
            return self._key() == Ext.of(other)._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.kind > 0:
            return "+inf"
        if self.kind < 0:
            return "-inf"
        return str(self.q)


POS_INF = Ext(_kind=1)
NEG_INF = Ext(_kind=-1)


def ext_sum(terms: Iterable[Ext]) -> Ext:
    """Sum with indeterminate-form detection independent of ordering."""
    finite = Fraction(0)
    pos = neg = False
    for t in terms:
        if t.kind > 0:
            pos = True
        elif t.kind < 0:
            neg = True
        else:
            finite += t.q
    if pos and neg:
        raise IndeterminateForm("inf - inf in sum")
    if pos:
        return POS_INF
    if neg:
        return NEG_INF
    return Ext(finite)


# ---------------------------------------------------------------------------
# symmetric extended matrices
# ---------------------------------------------------------------------------


class SymMatrixExt:
    """Symmetric matrix over Ext; +inf entries are rejected."""

    def __init__(self, entries: Sequence[Sequence]):
        rows = [[Ext.of(e) for e in row] for row in entries]
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("non-square matrix")
        for i in range(n):
            for j in range(n):
                if rows[i][j].kind > 0:
                    raise ValueError("+inf entry not allowed")
                if rows[i][j] != rows[j][i]:
                    raise ValueError("matrix not symmetric")
        self.entries = rows
        self.size = n


def chi_det(M: SymMatrixExt) -> Ext:
    """(-1)^n det(M) in the limit where every -inf entry goes to -infinity.

    With u in place of every -inf entry, det is a polynomial p(u) of
    degree at most r, the number of rows that hold a -inf.  Its Newton
    form p(u) = sum_{j <= r} Delta^j p(0) binomial(u, j) gives p's degree
    k, the last j with Delta^j p(0) != 0, and the sign of its leading
    coefficient, that of Delta^k p(0).  So the limit of p is p(0) when
    k = 0 and sign(Delta^k p(0)) (-1)^k infinity otherwise.
    """
    r = sum(1 for row in M.entries if any(e.kind < 0 for e in row))
    diffs = [det([[u if e.kind < 0 else e.q for e in row]
                  for row in M.entries]) for u in range(r + 1)]
    lead, k = diffs[0], 0
    for j in range(1, r + 1):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        if diffs[0]:
            lead, k = diffs[0], j
    if M.size % 2:
        lead = -lead
    if k == 0:
        return Ext(lead)
    return POS_INF if (lead > 0) == (k % 2 == 0) else NEG_INF


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


@dataclass
class LinSolveResult:
    solution: list | None          # one particular solution, or None
    kernel: list                   # basis of the homogeneous solution space


def _integer_rows(A: Sequence[Sequence]):
    """(rows, scales): each row of A times the lcm of its denominators."""
    rows, scales = [], []
    for row in A:
        if all(type(e) is int for e in row):
            rows.append(list(row))
            scales.append(1)
            continue
        nums, s = integer_numerators(map(_q, row))
        rows.append(nums)
        scales.append(s)
    return rows, scales


def _bareiss(a: list, ncols: int):
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
    1968; Nakos-Turner-Williams, SIGSAM Bull. 31, 1997) of an integer
    matrix in place, with pivots among its first ``ncols`` columns.

    Returns (d, pivot columns).  The first r rows end as d times the
    reduced row echelon form, the rest zero in those columns; d is the
    last pivot (1 if none), the determinant on a nonsingular square
    block.  A column with no pivot is skipped.  Every division is exact:
    each entry stays, up to sign, a minor of a on the pivot rows and
    columns and the entry's own row and column (Sylvester's identity),
    and a skipped column, zero below the pivot rows, enters no later
    minor.  Cost: O(r m n) products of integers no longer than a minor.
    """
    prev, pivots = 1, []
    for c in range(ncols):
        k = len(pivots)
        s = next((i for i in range(k, len(a)) if a[i][c]), None)
        if s is None:
            continue
        if s != k:
            # a swap with one row negated keeps the determinant's sign
            a[k], a[s] = [-e for e in a[s]], a[k]
        top = a[k]
        p = top[c]
        for i, row in enumerate(a):
            if i != k:
                f = row[c]
                a[i] = [(p * e - f * t) // prev for e, t in zip(row, top)]
        prev = p
        pivots.append(c)
    return prev, pivots


def solve_linear(A: Sequence[Sequence], b: Sequence | None = None) -> LinSolveResult:
    """Solve A x = b over Q (b defaults to 0), with a kernel basis.

    One ``_bareiss`` pass over [A | b], its rows scaled to integers,
    gives d times the reduced row echelon form.  That form is unique, so
    the answer is any Gauss-Jordan's: x = last column / d at the pivots,
    the kernel vector of a free column has -(that column) / d there, and
    a nonzero last entry past the rank means no solution.  Cost: O(r m n)
    integer operations for m equations in n unknowns of rank r.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")
    if b is None:
        b = [0] * m
    elif len(b) != m:
        raise ValueError("dimension mismatch")
    rows, _ = _integer_rows([list(row) + [e] for row, e in zip(A, b)])
    d, pivots = _bareiss(rows, n)
    solution = None
    if not any(row[n] for row in rows[len(pivots):]):
        solution = [Fraction(0)] * n
        for row, c in zip(rows, pivots):
            solution[c] = Fraction(row[n], d)
    kernel = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for row, c in zip(rows, pivots):
            vec[c] = Fraction(-row[fc], d)
        kernel.append(vec)
    return LinSolveResult(solution=solution, kernel=kernel)


def det(A: Sequence[Sequence]) -> Fraction:
    """Determinant of a square matrix over Q, 0 when a column has no
    pivot; one ``_bareiss`` pass, O(n^3) integer operations."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("non-square matrix")
    rows, scales = _integer_rows(A)
    d, pivots = _bareiss(rows, n)
    return Fraction(d, prod(scales)) if len(pivots) == n else Fraction(0)


def invert_matrix(A: Sequence[Sequence]) -> list | None:
    """Inverse of a square matrix over Q, or None if it is singular.

    One ``_bareiss`` pass over [S A | I], where the diagonal S scales A's
    rows to integers, gives A^-1 = (S A)^-1 S, or a column with no pivot
    when A is singular.  Cost: O(n^3) integer operations.
    """
    n = len(A)
    rows, scales = _integer_rows(A)
    for i, row in enumerate(rows):
        row.extend(int(i == k) for k in range(n))
    d, pivots = _bareiss(rows, n)
    if len(pivots) < n:
        return None
    return [[Fraction(row[n + j] * scales[j], d) for j in range(n)]
            for row in rows]
