"""JSON scenario files: named valuations, polynomials, and options.

All rationals are strings "p/q" (or "p"); no floating point anywhere.
The canonical serialization round-trips through parse exactly.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

from . import poly
from .adelic import ARCH, AdelicBranch
from .cluster import (MAX_CURVE_K, MAX_CURVE_M, Free, PointAtInfinity, SatU,
                      SatV, chain_cluster)
from .errors import PolynomialSyntaxError, ScenarioError
from .exact import Ext, NEG_INF, POS_INF
from .puiseux import branches_at_infinity
from .valuations import (Curve, Divisorial, Monomial, ROOT, Root, Valuation,
                         curve_of_series)

FORMAT = 1


def parse_rational(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if not isinstance(s, str):
        raise ScenarioError(f"rational must be a string, got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise ScenarioError(f"bad rational {s!r}: {e}") from e


@contextmanager
def _at(*keys):
    """Put ``keys`` in front of the JSON path of a ScenarioError raised
    inside."""
    try:
        yield
    except ScenarioError as e:
        e.path = keys + e.path
        raise


_KINDS = {dict: "an object", list: "a list", bool: "true or false"}


def _field(obj, key, *default, kind=None, parse=None):
    """obj[key] of a JSON object, checked to be a ``kind`` (dict, list,
    bool or int) if given and passed through ``parse`` if given; a
    ScenarioError about the field has ``key`` on its JSON path."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"expected an object with field {key!r}, "
                            f"got {obj!r}")
    with _at(key):
        if key not in obj and not default:
            raise ScenarioError(f"missing field {key!r}")
        out = obj.get(key, *default)
        if kind is int:
            out = _int(out, key)
        elif kind is not None and key in obj and not isinstance(out, kind):
            raise ScenarioError(
                f"field {key!r} must be {_KINDS[kind]}, got {out!r}")
        return out if parse is None else parse(out)


def _polynomial(text) -> dict:
    """poly.parse(text), with a syntax error as a ScenarioError."""
    try:
        return poly.parse(text)
    except PolynomialSyntaxError as e:
        raise ScenarioError(str(e)) from None


def _int(x, key) -> int:
    """A JSON integer, or a string of one (exponents are JSON keys); a
    float or a bool is not one."""
    try:
        if isinstance(x, (int, str)) and not isinstance(x, bool):
            return int(x)
    except ValueError:
        pass
    raise ScenarioError(f"field {key!r} must be an integer, got {x!r}")


def format_rational(q: Fraction) -> str:
    return str(Fraction(q))


def format_ext(x: Ext) -> str:
    if x == POS_INF:
        return "+inf"
    if x == NEG_INF:
        return "-inf"
    return format_rational(x.q)


@dataclass
class Scenario:
    valuations: dict = field(default_factory=dict)
    polynomials: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)
    algebraize: dict | None = None


def _parse_base(obj) -> PointAtInfinity:
    chart = _field(obj, "chart")
    if chart == "y":
        return PointAtInfinity("y")
    if chart == "x":
        return PointAtInfinity("x",
                               _field(obj, "c", "0", parse=parse_rational))
    raise ScenarioError(f"base chart must be 'x' or 'y', got {chart!r}",
                        path=("chart",))


def _format_base(base: PointAtInfinity) -> dict:
    if base.chart == "y":
        return {"chart": "y"}
    return {"chart": "x", "c": format_rational(base.c)}


def _parse_step(obj):
    t = _field(obj, "type")
    if t == "free":
        return Free(_field(obj, "c", "0", parse=parse_rational))
    if t == "satellite-u":
        return SatU()
    if t == "satellite-v":
        return SatV()
    raise ScenarioError(f"unknown step type {t!r}", path=("type",))


def _format_step(step) -> dict:
    if isinstance(step, Free):
        return {"type": "free", "c": format_rational(step.c)}
    if isinstance(step, SatU):
        return {"type": "satellite-u"}
    return {"type": "satellite-v"}


def parse_valuation(obj) -> Valuation:
    kind = _field(obj, "kind")
    if kind == "root":
        return ROOT
    if kind == "monomial":
        return Monomial(_field(obj, "s", parse=parse_rational),
                        _field(obj, "t", parse=parse_rational))
    if kind == "divisorial":
        base = _field(obj, "base", parse=_parse_base)
        steps = []
        for i, s in enumerate(_field(obj, "steps", [], kind=list)):
            with _at("steps", i):
                steps.append(_parse_step(s))
        cl = chain_cluster(base, steps)
        return Divisorial(cl, len(cl) - 1)
    if kind == "curve":
        base = _field(obj, "base", parse=_parse_base)
        m = _field(obj, "m", kind=int)
        if m > MAX_CURVE_M:
            raise ScenarioError(f"ramification m = {m} is above the cap "
                                f"{MAX_CURVE_M}", path=("m",))
        coeffs = {}
        for k, v in _field(obj, "coefficients", {}, kind=dict).items():
            with _at("coefficients", k):
                coeffs[_int(k, "coefficients")] = parse_rational(v)
        K = _field(obj, "K", max(coeffs, default=0) + 1, kind=int)
        exact = _field(obj, "exact", False, kind=bool)
        if not exact and K > MAX_CURVE_K:
            raise ScenarioError(f"truncation K = {K} of a curve that is not "
                                f"exact is above the cap {MAX_CURVE_K}",
                                path=("K",))
        try:
            return curve_of_series(base, m, coeffs, K, exact=exact)
        except ValueError as e:
            raise ScenarioError(f"curve series: {e}") from None
    raise ScenarioError(f"unknown valuation kind {kind!r}", path=("kind",))


def format_valuation(v: Valuation) -> dict:
    if isinstance(v, Root):
        return {"kind": "root"}
    if isinstance(v, Monomial):
        return {"kind": "monomial", "s": format_rational(v.s),
                "t": format_rational(v.t)}
    if isinstance(v, Divisorial):
        path = v.cluster.path(v.node)
        base = v.cluster.nodes[path[0]].base
        return {"kind": "divisorial", "base": _format_base(base),
                "steps": [_format_step(v.cluster.nodes[i].step)
                          for i in path[1:]]}
    if isinstance(v, Curve):
        s = v.branch.series
        out = {"kind": "curve", "base": _format_base(v.branch.base),
               "m": s.m, "K": s.K,
               "coefficients": {str(j): format_rational(c)
                                for j, c in s.coeffs}}
        if s.exact:
            out["exact"] = True
        return out
    raise ScenarioError(f"cannot serialize {v!r}")


def parse_scenario(text: str) -> Scenario:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(
            f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    if not isinstance(obj, dict):
        raise ScenarioError("the top level of a scenario must be an object, "
                            f"got {type(obj).__name__}")
    if obj.get("format") != FORMAT:
        raise ScenarioError(f"unsupported format {obj.get('format')!r}; "
                            f"expected {FORMAT}")
    sc = Scenario()
    for name, spec in _field(obj, "valuations", {}, kind=dict).items():
        with _at("valuations", name):
            sc.valuations[name] = parse_valuation(spec)
    for name, text_p in _field(obj, "polynomials", {}, kind=dict).items():
        with _at("polynomials", name):
            sc.polynomials[name] = _polynomial(text_p)
    sc.options = dict(_field(obj, "options", {}, kind=dict))
    if "max_degree" in sc.options:
        with _at("options"):
            _field(sc.options, "max_degree", kind=int)
    sc.algebraize = _field(obj, "algebraize", None, kind=dict)
    return sc


def parse_algebraize(spec: dict):
    """(branches, points, max_degree) of an ``algebraize`` section.

    A branch given by a polynomial stands for each of its branches at
    infinity, all with the declared primes, radii and bounds.
    """
    def places(obj, key):
        out = {}
        for k, r in _field(obj, key, {}, kind=dict).items():
            with _at(key, k):
                out[ARCH if k == ARCH else _int(k, key)] = parse_rational(r)
        return out

    with _at("algebraize"):
        branches = []
        for i, bs in enumerate(_field(spec, "branches", [], kind=list)):
            with _at("branches", i):
                text = _field(bs, "polynomial", None)
                if text is not None:
                    with _at("polynomial"):
                        P = _polynomial(text)
                    curves = [Curve(b) for b in branches_at_infinity(P)]
                else:
                    curves = [_field(bs, "curve", parse=parse_valuation)]
                primes = []
                for j, p in enumerate(_field(bs, "primes", [], kind=list)):
                    with _at("primes", j):
                        primes.append(_int(p, "primes"))
                branches += [AdelicBranch(curve=cv, primes=tuple(primes),
                                          radius=places(bs, "radius"),
                                          bound=places(bs, "bound"))
                             for cv in curves]
        points = []
        for i, pt in enumerate(_field(spec, "points", [], kind=list)):
            with _at("points", i):
                if not (isinstance(pt, list) and len(pt) == 2):
                    raise ScenarioError(
                        f"a point must be a pair [x, y], got {pt!r}")
                points.append((parse_rational(pt[0]), parse_rational(pt[1])))
        return branches, points, _field(spec, "max_degree", 6, kind=int)


def serialize_scenario(sc: Scenario) -> str:
    obj = {"format": FORMAT}
    if sc.valuations:
        obj["valuations"] = {n: format_valuation(v)
                             for n, v in sorted(sc.valuations.items())}
    if sc.polynomials:
        obj["polynomials"] = {n: poly.to_string(p)
                              for n, p in sorted(sc.polynomials.items())}
    if sc.options:
        obj["options"] = dict(sorted(sc.options.items()))
    if sc.algebraize is not None:
        obj["algebraize"] = sc.algebraize
    return json.dumps(obj, indent=2, sort_keys=True)


def load_scenario(path: str) -> Scenario:
    with open(path) as f:
        return parse_scenario(f.read())
