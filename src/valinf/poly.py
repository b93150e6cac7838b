"""Bivariate polynomials over Q as sparse dicts {(i, j): Fraction}."""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

from .errors import PolynomialSyntaxError, ZeroPolynomial
from .exact import _q, integer_numerators


def normalize(P: dict) -> dict:
    out = {}
    for (i, j), c in P.items():
        c = _q(c)
        if c != 0:
            out[(int(i), int(j))] = c
    return out


def require_nonzero(P: dict) -> dict:
    P = normalize(P)
    if not P:
        raise ZeroPolynomial("zero polynomial")
    return P


def degree(P: dict) -> int:
    P = require_nonzero(P)
    return max(i + j for i, j in P)


def add(P: dict, Q: dict) -> dict:
    out = dict(P)
    for k, c in Q.items():
        out[k] = out.get(k, Fraction(0)) + c
    return normalize(out)


def scale(P: dict, c) -> dict:
    c = _q(c)
    return normalize({k: c * a for k, a in P.items()})


def mul(P: dict, Q: dict) -> dict:
    out = {}
    for (i1, j1), c1 in P.items():
        for (i2, j2), c2 in Q.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, Fraction(0)) + c1 * c2
    return normalize(out)


def sub_const(P: dict, t) -> dict:
    out = dict(normalize(P))
    out[(0, 0)] = out.get((0, 0), Fraction(0)) - _q(t)
    return normalize(out)


def eval_at(P: dict, x, y) -> Fraction:
    x, y = _q(x), _q(y)
    return sum((c * x ** i * y ** j for (i, j), c in P.items()), Fraction(0))


def monomial_key(term):
    """Graded-lex sort key for a monomial (i, j)."""
    i, j = term
    return (i + j, -i)


def to_string(P: dict) -> str:
    P = normalize(P)
    if not P:
        return "0"
    parts = []
    for (i, j) in sorted(P, key=monomial_key, reverse=True):
        c = P[(i, j)]
        mono = []
        if i:
            mono.append("x" if i == 1 else f"x^{i}")
        if j:
            mono.append("y" if j == 1 else f"y^{j}")
        body = "*".join(mono)
        if not body:
            piece = str(c)
        elif c == 1:
            piece = body
        elif c == -1:
            piece = f"-{body}"
        else:
            piece = f"{c}*{body}"
        if parts and not piece.startswith("-"):
            parts.append("+" + piece)
        else:
            parts.append(piece)
    return " ".join(parts)


_TOKEN = re.compile(r"\s*(\d+|\*\*|[-+*/^()xy])")

# P^e is refused before any expansion when e * max(deg P, 1) exceeds
# this: (x+y+1)^160 has 13,041 terms and 9^3000000 has 2.9 million digits
MAX_POWER_DEGREE = 64
# ... or when its coefficients may exceed this many bits: nested powers
# grow as 64^k, and (((9^64)^64)^64)^64 has 53 million bits
MAX_POWER_BITS = 1 << 16
# ... or when expanding it may cost more than this (``_power_work``): on 2
# vCPUs (x+y+1)^64 took 2.6 s, and (N*x+N*y+N)^64 with N = 2^1022 77 s
MAX_POWER_WORK = 1 << 26


def _power_bits(P: dict, e: int) -> int:
    """A bound on the bits of the numerators and the denominator of P^e:
    with D the common denominator of P, the coefficients of (D P)^e sum to
    at most (sum |D c|)^e in absolute value."""
    nums, D = integer_numerators(P.values())
    N = sum(map(abs, nums))
    return e * max(N.bit_length(), D.bit_length())


def _power_work(P: dict, e: int) -> int:
    """terms^2 * bits of the last product of the repeated squaring of P^e:
    two powers P^h, h <= ceil(e/2), of at most T terms and
    ``_power_bits(P, h)`` bits, 1,024 at least (a Fraction product)."""
    h = (e + 1) // 2
    d = h * max((i + j for i, j in P), default=0)
    T = min(comb(h + len(P), h), (d + 1) * (d + 2) // 2)
    return T * T * max(_power_bits(P, h), 1024)


def _integer(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:      # more digits than sys.get_int_max_str_digits()
        raise PolynomialSyntaxError(f"integer of {len(tok)} digits") from None


def parse(text: str) -> dict:
    """Parse a polynomial in x, y with rational coefficients.

    The grammar, with whitespace allowed between tokens:

        expr   := term (("+" | "-") term)*
        term   := factor (("*" | "/") factor)*
        factor := ("+" | "-") factor | atom [("^" | "**") integer]
        atom   := integer | "x" | "y" | "(" expr ")"

    A divisor must be a nonzero constant, and P^e obeys the caps
    ``MAX_POWER_DEGREE`` on e max(deg P, 1), ``MAX_POWER_BITS`` on its
    coefficients and ``MAX_POWER_WORK`` on its expansion.  Any other text
    raises PolynomialSyntaxError; nothing in it is evaluated as code.
    """
    if not isinstance(text, str):
        raise PolynomialSyntaxError(f"a polynomial must be a string, "
                                    f"got {text!r}")
    toks, pos = [], 0
    while (m := _TOKEN.match(text, pos)) is not None:
        toks.append(m.group(1))
        pos = m.end()
    if text[pos:].strip():
        raise PolynomialSyntaxError(
            f"unexpected {text[pos:].lstrip()[:12]!r} at position {pos}")
    at = 0

    def peek():
        return toks[at] if at < len(toks) else None

    def take():
        nonlocal at
        at += 1
        return toks[at - 1] if at <= len(toks) else None

    def expr():
        out = term()
        while peek() in ("+", "-"):
            op, rhs = take(), term()
            out = add(out, rhs if op == "+" else scale(rhs, -1))
        return out

    def term():
        out = factor()
        while peek() in ("*", "/"):
            op, rhs = take(), factor()
            if op == "*":
                out = mul(out, rhs)
            elif set(rhs) == {(0, 0)}:
                out = scale(out, 1 / rhs[(0, 0)])
            else:
                raise PolynomialSyntaxError(
                    "division by zero or by a non-constant polynomial")
        return out

    def factor():
        if peek() in ("+", "-"):
            return factor() if take() == "+" else scale(factor(), -1)
        base = atom()
        if peek() not in ("^", "**"):
            return base
        take()
        e = take()
        if e is None or not e.isdigit():
            raise PolynomialSyntaxError(
                "an exponent must be a non-negative integer")
        e = _integer(e)
        if max(max((i + j for i, j in base), default=0), 1) * e \
                > MAX_POWER_DEGREE:
            raise PolynomialSyntaxError(
                f"power of degree above {MAX_POWER_DEGREE} (exponent {e})")
        if _power_bits(base, e) > MAX_POWER_BITS:
            raise PolynomialSyntaxError(
                f"power with coefficients above {MAX_POWER_BITS} bits "
                f"(exponent {e})")
        if _power_work(base, e) > MAX_POWER_WORK:
            raise PolynomialSyntaxError(
                f"power of {len(base)} terms too costly to expand "
                f"(exponent {e})")
        return power(base, e)

    def atom():
        tok = take()
        if tok == "(":
            out = expr()
            if take() != ")":
                raise PolynomialSyntaxError("missing ')'")
            return out
        if tok == "x" or tok == "y":
            return {(1, 0) if tok == "x" else (0, 1): Fraction(1)}
        if tok is not None and tok.isdigit():
            return normalize({(0, 0): _integer(tok)})
        raise PolynomialSyntaxError(
            f"unexpected {'end' if tok is None else repr(tok)}")

    try:
        out = expr()
    except RecursionError:
        raise PolynomialSyntaxError("nesting too deep") from None
    if at < len(toks):
        raise PolynomialSyntaxError(f"unexpected {toks[at]!r}")
    return out


def power(P: dict, e: int) -> dict:
    """P^e for an integer e >= 0, by repeated squaring."""
    out = {(0, 0): Fraction(1)}
    while e:
        if e & 1:
            out = mul(out, P)
        e >>= 1
        if e:
            P = mul(P, P)
    return out


def _rows(P: dict) -> list:
    """An integer multiple of P as ``factor``'s rows: by powers of x, the
    coefficients of the powers of y."""
    rows = [[] for _ in range(max(i for i, _ in P) + 1)]
    for (i, j), n in zip(P, integer_numerators(P.values())[0]):
        row = rows[i]
        row.extend([0] * (j + 1 - len(row)))
        row[j] = n
    return rows


def divides(f: dict, P: dict) -> bool:
    """Whether the nonzero f divides P in Q[x, y]."""
    from . import factor     # loaded by the first session that factors

    f, P = require_nonzero(f), normalize(P)
    return not P or factor.quo2(_rows(P), _rows(f)) is not None


def factor_rational(P: dict):
    """Irreducible factors over Q with multiplicities, content dropped.

    Each factor has coprime integer coefficients and a positive leading
    coefficient in the lexicographic order with x before y.  The
    monomial x^a y^b dividing P splits into its powers, and the rest is
    factored in the variables it involves (``factor``).  The factors are
    sorted by the key (dense length, number of variables, multiplicity,
    dense coefficients), where the dense coefficients run from the top
    power of the first variable down, and x comes before y on a tie:
    the order of ``sympy.factor_list`` on the expression of P.
    """
    from . import factor     # loaded by the first session that factors

    P = require_nonzero(P)
    a = min(i for i, _ in P)
    b = min(j for _, j in P)
    keyed = [((2, 1, e, [1, 0]), {m: Fraction(1)}, e)
             for m, e in (((1, 0), a), ((0, 1), b)) if e]
    rest = _rows({(i - a, j - b): c for (i, j), c in P.items()})
    xs, ys = len(rest) > 1, max(map(len, rest)) > 1
    for F, e in factor.factor_list2(rest) if xs or ys else ():
        fd = {(i, j): Fraction(c) for i, row in enumerate(F)
              for j, c in enumerate(row) if c}
        if xs and ys:
            rep = [row[::-1] for row in F[::-1]]
        elif xs:
            rep = [row[0] if row else 0 for row in F[::-1]]
        else:
            rep = F[0][::-1]
        keyed.append(((len(rep), xs + ys, e, rep), fd, e))
    keyed.sort(key=lambda t: t[0])
    return [(fd, e) for _, fd, e in keyed]
