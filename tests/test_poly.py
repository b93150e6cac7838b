"""The native polynomial parser and the factoring entry point.

``poly.parse`` is a recursive-descent parser; the sympify-based parser it
replaced is kept here as its oracle.  ``factor_rational`` runs on
``valinf.factor``; sympy's ``Poly.factor_list`` path that it replaced
(``oracles.factor_rational_by_sympy``) and factoring the expression tree
are its oracles.  No run-time path imports sympy.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import valinf
import valinf.cli
from oracles import factor_rational_by_sympy, to_sympy
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

    _, factors = sympy.factor_list(to_sympy(P))
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


# within the degree and bit caps, but on 2 vCPUs these took 77 s and
# 2.6 s to expand before the work cap
COSTLY_POWERS = [f"({2 ** 1022}*x+{2 ** 1022}*y+{2 ** 1022})^64",
                 "(x+y+1)^64"]


@pytest.mark.parametrize("text", COSTLY_POWERS, ids=["wide", "trinomial"])
def test_power_work_cap(text, tmp_path):
    start = time.perf_counter()
    with pytest.raises(PolynomialSyntaxError, match="too costly"):
        poly.parse(text)
    assert time.perf_counter() - start < 0.5
    path = tmp_path / "sc.json"
    path.write_text(json.dumps({"format": 1, "polynomials": {"Q": text},
                                "valuations": {}}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert valinf.cli.main(["log-laplacian", "-f", str(path), "Q"]) == 2
    assert err.getvalue().startswith("error: ")


def test_power_work_cap_admits_its_largest_trinomial_power():
    assert len(poly.parse("(x+y+1)^42")) == 946
    with pytest.raises(PolynomialSyntaxError, match="too costly"):
        poly.parse("(x+y+1)^43")


# x^4+1 and y^4-10*y^2+1 are irreducible over Q but split modulo every
# prime; x^2+y^2 and x^2-2*y^2 are irreducible but split over a number
# field
factor_pool = st.sampled_from([
    "x", "y", "x-1", "y+2", "x*y-1", "y^2+1", "x^2-y", "2*x+3*y", "x^2+1",
    "y^3-x^2", "x+y", "2*y-1", "x^2*y+1", "3*x-2", "y^2-2", "x^4+1",
    "y^4-10*y^2+1", "x^2+y^2", "x^2-2*y^2"])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.lists(st.tuples(factor_pool, st.integers(1, 3)), min_size=1,
                max_size=4),
       rationals.filter(bool))
def test_factor_rational_matches_expression_factoring(factors, content):
    P = {(0, 0): content}
    for f, e in factors:
        P = poly.mul(P, poly.power(poly.parse(f), e))
    assert poly.factor_rational(P) == factor_rational_by_sympy(P) \
        == factor_by_expression(P)


# One scenario for the runs with sympy blocked: curves in a classified
# set, Laplacians of a curve with truncated branches, algebraize, and a
# polynomial with an irrational point at infinity.
BLOCKED_SCENARIO = {
    "format": 1,
    "valuations": {
        "d": {"kind": "divisorial", "base": {"chart": "x"},
              "steps": [{"type": "free", "c": "1/2"},
                        {"type": "satellite-u"}]},
        "m1": {"kind": "monomial", "s": "-1", "t": "1"},
        "c1": {"kind": "curve", "base": {"chart": "y"}, "m": 3,
               "coefficients": {"1": "1"}, "K": 4, "exact": True}},
    "polynomials": {"P": "(y - x^2)^2/3 - x*y + 1", "Q": "y^2-x^3-1",
                    "I": "x^2+y^2-1"},
    "algebraize": {
        "branches": [{"polynomial": "y^2-x^3", "primes": [2, 3]}],
        "points": [[str(n * n), str(n ** 3)] for n in range(2, 13)],
        "max_degree": 6}}


def cli_code(*argv):
    """Code that runs the CLI on the scenario and prints its exit code."""
    return f"print('exit', cli.main({list(argv)!r} + ['-f', PATH]))"


# (name, code, exit code): the code prints what the test compares
BLOCKED_CASES = [
    ("classify", cli_code("classify", "--max-degree", "4"), 0),
    ("laplacian", cli_code("laplacian", "Q"), 0),
    ("log-laplacian", cli_code("log-laplacian", "Q"), 0),
    ("algebraize", cli_code("algebraize"), 0),
    ("eval-divisorial", cli_code("eval", "d", "P"), 0),
    ("needs-field-extension", cli_code("laplacian", "I"), 2),
    ("eval-minpoly", "from valinf import poly, puiseux, valuations\n"
     "Q = poly.parse('y^2-x^3-1')\n"
     "b, = puiseux.branches_at_infinity(Q)\n"
     "assert not b.series.exact and b.minpoly is not None\n"
     "P = poly.mul(Q, poly.parse('x+y'))\n"
     "print('exit', 0, valuations.evaluate(valuations.Curve(b), P))", 0)]


@pytest.mark.parametrize("code,exit_code",
                         [case[1:] for case in BLOCKED_CASES],
                         ids=[case[0] for case in BLOCKED_CASES])
def test_runs_with_sympy_blocked(tmp_path, code, exit_code):
    # with sys.modules["sympy"] = None any import of sympy fails; each run
    # must answer as it does here, where sympy can be imported
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(BLOCKED_SCENARIO))
    code = f"from valinf import cli\nPATH = {str(path)!r}\n{code}\n"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        exec(code, {})
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(valinf.__file__)))
    blocked = subprocess.run(
        [sys.executable, "-c", "import sys\nsys.modules['sympy'] = None\n"
         + code], env=env, capture_output=True, text=True, timeout=60)
    assert blocked.returncode == 0, blocked.stderr
    assert (blocked.stdout, blocked.stderr) == (out.getvalue(), err.getvalue())
    assert blocked.stdout.splitlines()[-1].split()[:2] == ["exit",
                                                          str(exit_code)]
