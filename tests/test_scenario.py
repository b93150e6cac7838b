import json
from fractions import Fraction

import pytest

from valinf import poly
from valinf.cluster import PointAtInfinity
from valinf.exact import Ext, NEG_INF, POS_INF
from valinf.scenario import (ScenarioError, format_ext, format_valuation,
                             parse_rational, parse_scenario, parse_valuation,
                             serialize_scenario)
from valinf.valuations import (Curve, Divisorial, Monomial, ROOT, equal,
                               skewness)

F = Fraction

SAMPLE = {
    "format": 1,
    "valuations": {
        "m": {"kind": "monomial", "s": "-1", "t": "1/2"},
        "r": {"kind": "root"},
        "d": {"kind": "divisorial", "base": {"chart": "x", "c": "2"},
              "steps": [{"type": "free", "c": "1/3"},
                        {"type": "satellite-u"}]},
        "c": {"kind": "curve", "base": {"chart": "y"}, "m": 3,
              "coefficients": {"1": "1"}, "K": 5, "exact": True},
    },
    "polynomials": {"Q": "y^2 - x^3"},
    "options": {"max_degree": 4},
}


def test_parse_kinds():
    sc = parse_scenario(json.dumps(SAMPLE))
    assert isinstance(sc.valuations["m"], Monomial)
    assert sc.valuations["m"].t == F(1, 2)
    assert sc.valuations["r"] is ROOT
    assert isinstance(sc.valuations["d"], Divisorial)
    assert isinstance(sc.valuations["c"], Curve)
    assert sc.polynomials["Q"] == poly.parse("y^2-x^3")
    assert sc.options["max_degree"] == 4


def test_round_trip_is_identity_on_canonical_form():
    sc = parse_scenario(json.dumps(SAMPLE))
    text = serialize_scenario(sc)
    sc2 = parse_scenario(text)
    assert serialize_scenario(sc2) == text
    for n in sc.valuations:
        assert equal(sc.valuations[n], sc2.valuations[n])
    assert sc.polynomials == sc2.polynomials


def test_valuation_round_trip_preserves_identity():
    for spec in SAMPLE["valuations"].values():
        v = parse_valuation(spec)
        w = parse_valuation(format_valuation(v))
        assert equal(v, w)
        assert skewness(v) == skewness(w)


def test_rationals_are_strings():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-2") == F(-2)
    with pytest.raises(ScenarioError):
        parse_rational("0.5x")
    with pytest.raises(ScenarioError):
        parse_rational(0.5)


def test_format_ext():
    assert format_ext(POS_INF) == "+inf"
    assert format_ext(NEG_INF) == "-inf"
    assert format_ext(Ext(F(-1, 3))) == "-1/3"


def test_bad_format_version():
    with pytest.raises(ScenarioError):
        parse_scenario(json.dumps({"format": 2}))


def test_bad_json_reports_position():
    with pytest.raises(ScenarioError, match="line"):
        parse_scenario("{oops")


def test_unknown_kind():
    with pytest.raises(ScenarioError):
        parse_valuation({"kind": "mystery"})


def test_bad_polynomial():
    bad = {"format": 1, "polynomials": {"P": "y**"}}
    with pytest.raises(ScenarioError):
        parse_scenario(json.dumps(bad))


CURVE = SAMPLE["valuations"]["c"]


def _curve(**fields):
    return dict(CURVE, **fields)


@pytest.mark.parametrize("spec, field", [
    (_curve(m=2.5), "'m'"),
    (_curve(m=3.0), "'m'"),
    (_curve(m=True), "'m'"),
    (_curve(K=5.0), "'K'"),
    (_curve(K=False), "'K'"),
    (_curve(exact="false"), "'exact'"),
    (_curve(exact=1), "'exact'"),
    (_curve(exact=None), "'exact'"),
], ids=["m-float", "m-integral-float", "m-bool", "K-float", "K-bool",
        "exact-string", "exact-integer", "exact-null"])
def test_field_of_the_wrong_json_type(spec, field):
    doc = {"format": 1, "valuations": {"c": spec}}
    with pytest.raises(ScenarioError, match=field) as e:
        parse_scenario(json.dumps(doc))
    assert e.value.path[:2] == ("valuations", "c")


@pytest.mark.parametrize("options", [{"max_degree": 4.5},
                                     {"max_degree": True}])
def test_option_of_the_wrong_json_type(options):
    doc = {"format": 1, "options": options}
    with pytest.raises(ScenarioError, match="'max_degree'"):
        parse_scenario(json.dumps(doc))


def test_integer_strings_are_integers():
    # coefficient exponents are JSON keys, so strings of integers are read
    v = parse_valuation(_curve(m="3", K="5"))
    assert (v.branch.series.m, v.branch.series.K) == (3, 5)
    assert v.branch.series.exact is True
    assert parse_valuation(_curve(exact=False)).branch.series.exact is False


def test_curve_size_caps():
    from valinf.cluster import MAX_CURVE_K, MAX_CURVE_M

    assert MAX_CURVE_M >= 3000
    assert parse_valuation(_curve(m=MAX_CURVE_M)).branch.series.m == \
        MAX_CURVE_M
    with pytest.raises(ScenarioError, match="cap") as e:
        parse_valuation(_curve(m=MAX_CURVE_M + 1))
    assert e.value.path == ("m",)
    truncated = _curve(exact=False, K=MAX_CURVE_K)
    assert parse_valuation(truncated).branch.series.K == MAX_CURVE_K
    with pytest.raises(ScenarioError, match="cap") as e:
        parse_valuation(dict(truncated, K=MAX_CURVE_K + 1))
    assert e.value.path == ("K",)
    # without "K", a truncated curve is cut past its last exponent
    with pytest.raises(ScenarioError, match="cap"):
        parse_valuation({"kind": "curve", "base": {"chart": "y"}, "m": 1,
                         "coefficients": {str(MAX_CURVE_K): "1"}})
    # K bounds no work of an exact curve
    exact = parse_valuation(_curve(K=MAX_CURVE_K + 1))
    assert exact.branch.series.K == MAX_CURVE_K + 1
