"""The native polynomial parser and the factoring entry point.

``poly.parse`` is a recursive-descent parser; the sympify-based parser it
replaced is kept here as its oracle.  ``factor_rational`` builds a
``sympy.Poly`` from the coefficients; factoring the expression tree is its
oracle.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import valinf
from valinf import poly
from valinf.errors import DomainError, PolynomialSyntaxError

F = Fraction
derandomized = settings(derandomize=True, max_examples=200, deadline=None)


def sympify_parse(text):
    """The old parser: sympify the text (evaluating it as Python)."""
    import sympy

    x, y = sympy.symbols("x y")
    expr = sympy.sympify(text.replace("^", "**"), locals={"x": x, "y": y})
    return _from_sympy(expr)


def _from_sympy(expr):
    import sympy

    x, y = sympy.symbols("x y")
    p = sympy.Poly(sympy.expand(expr), x, y, domain="QQ")
    return poly.normalize({(int(i), int(j)): F(int(c.numerator),
                                                int(c.denominator))
                           for (i, j), c in p.terms()})


def factor_by_expression(P):
    """The old factoring path: an expression tree through factor_list."""
    import sympy

    _, factors = sympy.factor_list(poly.to_sympy(P))
    out = []
    for f, e in factors:
        fd = _from_sympy(f)
        if poly.degree(fd) >= 1:
            out.append((fd, int(e)))
    return out


def _spaced(draw, parts):
    sep = st.sampled_from(["", "", " "])
    return "".join(draw(sep) + p for p in parts) + draw(sep)


@st.composite
def expressions(draw, depth=3):
    """Text in the grammar of ``poly.parse``, built to stay small."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(st.sampled_from(["x", "y", "0", "1", "2", "3", "12"]))
    a = draw(expressions(depth - 1))
    kind = draw(st.integers(0, 6))
    if kind == 0:
        return _spaced(draw, [a, draw(st.sampled_from(["+", "-"])),
                              draw(expressions(depth - 1))])
    if kind == 1:
        return _spaced(draw, [a, "*", draw(expressions(depth - 1))])
    if kind == 2:
        return _spaced(draw, [draw(st.sampled_from(["-", "+"])), a])
    if kind == 3:
        return _spaced(draw, ["(", a, ")", draw(st.sampled_from(["^", "**"])),
                              str(draw(st.integers(0, 3)))])
    if kind == 4:
        return _spaced(draw, ["(", a, ")/", str(draw(st.integers(1, 6)))])
    if kind == 5:
        return _spaced(draw, ["(", a, ")"])
    return _spaced(draw, [a, "-(", draw(expressions(depth - 1)), ")"])


rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 5))
polynomials = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), rationals, max_size=8)


@derandomized
@given(expressions())
def test_parse_matches_sympify(text):
    assert poly.parse(text) == sympify_parse(text)


@derandomized
@given(polynomials)
def test_to_string_round_trip(P):
    text = poly.to_string(P)
    assert poly.parse(text) == poly.normalize(P) == sympify_parse(text)


@pytest.mark.parametrize("text", [
    "__import__('sys').stdout.write('EVALUATED ') and x",
    "x^y", "x/y", "x+", "x/0", "2x", "x^-1", "1.5*x", "(x", "x)", "2^3^2",
    "z", "", "(" * 5000 + "x" + ")" * 5000, 7,
    "x^65", "(x*y)^33", "9^3000000", "9" * 5000, "x^" + "1" * 5000,
    "(((9^64)^64)^64)^64", "((2^64)^64)^64",
])
def test_parse_rejects(text, capsys):
    with pytest.raises(PolynomialSyntaxError):
        poly.parse(text)
    assert issubclass(PolynomialSyntaxError, DomainError)
    assert capsys.readouterr().out == ""


def test_power_degree_cap():
    assert poly.parse("x^64") == {(64, 0): 1}
    assert poly.parse("(x*y)^32 + 2^64") == {(32, 32): 1, (0, 0): 2 ** 64}
    start = time.perf_counter()
    with pytest.raises(PolynomialSyntaxError, match="degree above 64"):
        poly.parse("(x+y+1)^160")
    assert time.perf_counter() - start < 0.5


def test_power_bits_cap():
    assert poly.parse("(9^64)^64") == {(0, 0): 9 ** 4096}
    assert poly.parse("(x/3+2*y)^8") == poly.power(
        {(1, 0): Fraction(1, 3), (0, 1): Fraction(2)}, 8)
    start = time.perf_counter()
    with pytest.raises(PolynomialSyntaxError, match="bits"):
        poly.parse("(((9^64)^64)^64)^64")
    assert time.perf_counter() - start < 0.5


factor_pool = st.sampled_from([
    "x", "y", "x-1", "y+2", "x*y-1", "y^2+1", "x^2-y", "2*x+3*y", "x^2+1",
    "y^3-x^2", "x+y", "2*y-1", "x^2*y+1", "3*x-2", "y^2-2"])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.lists(st.tuples(factor_pool, st.integers(1, 3)), min_size=1,
                max_size=4),
       rationals.filter(bool))
def test_factor_rational_matches_expression_factoring(factors, content):
    P = {(0, 0): content}
    for f, e in factors:
        P = poly.mul(P, poly.power(poly.parse(f), e))
    assert poly.factor_rational(P) == factor_by_expression(P)


def test_divisorial_evaluation_never_imports_sympy(tmp_path):
    # a geometry-only session (parse, divisorials, evaluate) must not pay
    # for importing sympy
    path = tmp_path / "sc.json"
    path.write_text(json.dumps({
        "format": 1,
        "valuations": {"d": {"kind": "divisorial", "base": {"chart": "x"},
                             "steps": [{"type": "free", "c": "1/2"},
                                       {"type": "satellite-u"}]}},
        "polynomials": {"P": "(y - x^2)^2/3 - x*y + 1"}}))
    code = ("import sys\n"
            "from valinf import cli\n"
            f"rc = cli.main(['eval', '-f', {str(path)!r}, 'd', 'P'])\n"
            "print(rc, 'sympy' in sys.modules)\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(valinf.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 False"
