import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from valinf import cli
from valinf.cli import main
from valinf.cluster import MAX_CURVE_K, MAX_CURVE_M
from valinf.polyfinder import MAX_DEGREE

SCENARIO = {
    "format": 1,
    "valuations": {
        "m1": {"kind": "monomial", "s": "-1", "t": "1"},
        "m0": {"kind": "monomial", "s": "-1", "t": "0"},
        "root": {"kind": "root"},
        "c1": {"kind": "curve", "base": {"chart": "y"}, "m": 3,
               "coefficients": {"1": "1"}, "K": 4, "exact": True},
    },
    "polynomials": {"Q": "y^2-x^3", "H": "x*y-1"},
    "options": {"max_degree": 6},
}

ALGEBRAIZE = {
    "format": 1,
    "algebraize": {
        "branches": [{"polynomial": "y^2-x^3", "primes": [2, 3]}],
        "points": [[str(n * n), str(n ** 3)] for n in range(2, 13)],
        "max_degree": 6,
    },
}


@pytest.fixture
def scfile(tmp_path):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(SCENARIO))
    return str(p)


@pytest.fixture
def algfile(tmp_path):
    p = tmp_path / "alg.json"
    p.write_text(json.dumps(ALGEBRAIZE))
    return str(p)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_skewness(scfile, capsys):
    rc, out, _ = run(capsys, "skewness", "-f", scfile)
    assert rc == 0
    assert "m1: alpha = -1" in out
    assert "c1: alpha = -inf" in out
    assert "root: alpha = 1" in out


def test_thinness_json(scfile, capsys):
    rc, out, _ = run(capsys, "thinness", "-f", scfile, "--json", "m0", "root")
    assert rc == 0
    data = json.loads(out)
    assert data["thinness"] == {"m0": "-1", "root": "-2"}


def test_meet(scfile, capsys):
    rc, out, _ = run(capsys, "meet", "-f", scfile, "m1", "m0")
    assert rc == 0
    assert "alpha = 0" in out


def test_eval(scfile, capsys):
    rc, out, _ = run(capsys, "eval", "-f", scfile, "c1", "Q")
    assert rc == 0
    assert "+inf" in out


def test_matrix(scfile, capsys):
    rc, out, _ = run(capsys, "matrix", "-f", scfile, "--json", "m1", "m0")
    assert rc == 0
    data = json.loads(out)
    assert data["matrix"] == [["-1", "0"], ["0", "0"]]


def test_chi_verdicts(scfile, capsys):
    rc, out, _ = run(capsys, "chi", "-f", scfile, "m1")
    assert rc == 0 and "rich" in out
    rc, out, _ = run(capsys, "chi", "-f", scfile, "root")
    assert rc == 0 and "not rich" in out
    rc, out, _ = run(capsys, "chi", "-f", scfile, "m0")
    assert rc == 0 and "borderline" in out


C2 = {"kind": "curve", "base": {"chart": "y"}, "m": 2,
      "coefficients": {"1": "1"}, "exact": True}


@pytest.fixture
def curvefile(tmp_path):
    p = tmp_path / "curves.json"
    p.write_text(json.dumps(dict(
        SCENARIO, valuations=dict(SCENARIO["valuations"], c2=C2))))
    return str(p)


@pytest.mark.parametrize("names, chi, verdict", [
    # det [[u, 1], [1, 0]] = -1: one row holds u, yet the degree is 0
    (["c1", "m0"], "-1", "not rich"),
    (["c1", "root"], "-inf", "not rich"),
    (["c1", "c2"], "+inf", "rich"),
], ids=["degree-drop", "minus-inf", "plus-inf"])
def test_chi_of_sets_with_curves(curvefile, capsys, names, chi, verdict):
    rc, out, err = run(capsys, "chi", "-f", curvefile, *names)
    assert (rc, out, err) == (0, f"chi = {chi} ({verdict})\n", "")
    rc, out, err = run(capsys, "chi", "-f", curvefile, "--json", *names)
    assert (rc, err) == (0, "")
    assert json.loads(out) == {"chi": chi, "verdict": verdict}


def test_matrix_of_two_curves(curvefile, capsys):
    rc, out, _ = run(capsys, "matrix", "-f", curvefile, "--json", "c1", "c2")
    assert rc == 0
    assert json.loads(out)["matrix"] == [["-inf", "2/3"], ["2/3", "-inf"]]


def test_classify(scfile, capsys):
    rc, out, _ = run(capsys, "classify", "-f", scfile, "--json", "m0")
    assert rc == 0
    data = json.loads(out)
    assert data["delta"] == 1
    assert data["thinness_integral"] == "-1"


def test_find_positive(scfile, capsys):
    rc, out, _ = run(capsys, "find-positive", "-f", scfile, "m1")
    assert rc == 0 and out.strip() == "y"
    rc, out, _ = run(capsys, "find-positive", "-f", scfile, "root")
    assert rc == 0 and "NOT FOUND" in out


def test_laplacians(scfile, capsys):
    rc, out, _ = run(capsys, "laplacian", "-f", scfile, "Q")
    assert rc == 0 and "total mass 3" in out
    rc, out, _ = run(capsys, "log-laplacian", "-f", scfile, "--json", "H")
    assert rc == 0
    data = json.loads(out)
    assert data["total_mass"] == "2"
    assert all(a["alpha"] == "-1" for a in data["atoms"])


def test_dirichlet(scfile, capsys):
    rc, out, _ = run(capsys, "dirichlet", "-f", scfile, "m1")
    assert rc == 0 and "1/2" in out


def test_oracle_check(capsys):
    rc, out, _ = run(capsys, "oracle-check", "--seed", "7", "--count", "25")
    assert rc == 0
    assert "25/25 alpha-consistency" in out


def test_algebraize(algfile, capsys):
    rc, out, _ = run(capsys, "algebraize", "-f", algfile, "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["values"] == ["0"]
    assert data["curve"] in ("x^3 -y^2", "y^2 -x^3")
    assert all(p["included"] for p in data["points"])
    assert data["branch_verdicts"][0]["matched"] == 0


def test_determinism(scfile, capsys):
    a = run(capsys, "classify", "-f", scfile, "--json")
    b = run(capsys, "classify", "-f", scfile, "--json")
    assert a == b


def test_missing_name_exits_2(scfile, capsys):
    rc, _, err = run(capsys, "eval", "-f", scfile, "nope", "Q")
    assert rc == 2 and "nope" in err


def test_missing_file_exits_2(capsys):
    rc, _, err = run(capsys, "chi", "-f", "/nonexistent.json")
    assert rc == 2 and err


def test_domain_error_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"format": 3}))
    rc, _, err = run(capsys, "chi", "-f", str(p))
    assert rc == 2 and "format" in err


@pytest.mark.parametrize("doc, field", [
    ([SCENARIO], "object"),
    ({"format": 1, "valuations": {"m": {"kind": "monomial", "s": "-1"}}},
     "'t'"),
    ({"format": 1, "valuations": {"c": dict(SCENARIO["valuations"]["c1"],
                                            m="two")}}, "'m'"),
], ids=["top-level-list", "monomial-without-t", "curve-m-not-integer"])
def test_bad_scenario_field_exits_2(tmp_path, capsys, doc, field):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "skewness", "-f", str(p))
    assert rc == 2 and err.startswith("error:") and field in err


def _with(**sections):
    return dict(SCENARIO, **sections)


def _algebraize(**fields):
    return {"format": 1,
            "algebraize": dict(ALGEBRAIZE["algebraize"], **fields)}

def _curve(**fields):
    return {"format": 1, "valuations": {
        "c": dict(SCENARIO["valuations"]["c1"], **fields)}}


@pytest.mark.parametrize("doc, argv, path", [
    (_curve(coefficients={"1": "1", "3": "x"}), ["skewness"],
     "valuations.c.coefficients.3: "),
    (_curve(m="two"), ["skewness"], "valuations.c.m: "),
    (_curve(base={"chart": "z"}), ["skewness"], "valuations.c.base.chart: "),
    ({"format": 1, "valuations": {"d": {
        "kind": "divisorial", "base": {"chart": "x"},
        "steps": [{"type": "free", "c": "1"}, {"type": "bogus"}]}}},
     ["skewness"], "valuations.d.steps.1.type: "),
    ({"format": 1, "polynomials": {"Q": "x^"}}, ["skewness"],
     "polynomials.Q: "),
    (_with(options={"max_degree": "six"}), ["classify"],
     "options.max_degree: "),
    (_algebraize(branches=[{"polynomial": "y^2-x^3", "primes": [2, "two"]}]),
     ["algebraize"], "algebraize.branches.0.primes.1: "),
    (_algebraize(branches=[{"polynomial": "y^"}]), ["algebraize"],
     "algebraize.branches.0.polynomial: "),
    (_algebraize(points=[["1", "2"], ["1"]]), ["algebraize"],
     "algebraize.points.1: "),
], ids=["coefficient", "m", "chart", "step-type", "polynomial",
        "max-degree", "prime", "algebraize-polynomial", "point"])
def test_bad_field_error_names_its_json_path(tmp_path, capsys, doc, argv,
                                             path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    rc, out, err = run(capsys, argv[0], "-f", str(p), *argv[1:])
    assert rc == 2 and err.startswith("error: " + path)
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("doc, argv, field", [
    ({"format": 1, "valuations": []}, ["skewness"], "'valuations'"),
    ({"format": 1, "polynomials": ["x"]}, ["skewness"], "'polynomials'"),
    (_with(options={"max_degree": "six"}), ["classify"], "'max_degree'"),
    (_with(options={"max_degree": "six"}), ["find-positive", "m1"],
     "'max_degree'"),
    (_algebraize(max_degree="six"), ["algebraize"], "'max_degree'"),
    (_algebraize(branches=[{"polynomial": "__import__('os')"}]),
     ["algebraize"], "unexpected"),
    (_algebraize(branches=[{"polynomial": 5}]), ["algebraize"], "string"),
    (_algebraize(branches=[{"polynomial": "y^2-x^3", "primes": ["two"]}]),
     ["algebraize"], "'primes'"),
    (_algebraize(points=[["1"]]), ["algebraize"], "pair"),
    (_algebraize(branches="y^2-x^3"), ["algebraize"], "'branches'"),
], ids=["valuations-list", "polynomials-list", "classify-max-degree",
        "find-positive-max-degree", "algebraize-max-degree",
        "algebraize-code-as-polynomial", "algebraize-polynomial-not-string",
        "algebraize-prime-not-integer", "algebraize-point-not-pair",
        "algebraize-branches-not-list"])
def test_bad_input_exits_2(tmp_path, capsys, doc, argv, field):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    rc, out, err = run(capsys, argv[0], "-f", str(p), *argv[1:])
    assert rc == 2 and err.startswith("error:") and field in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("D", [0, -1, MAX_DEGREE + 1])
@pytest.mark.parametrize("command", ["classify", "find-positive",
                                     "algebraize"])
@pytest.mark.parametrize("as_flag", [True, False], ids=["flag", "option"])
def test_degree_bound_outside_1_to_cap_exits_2(tmp_path, capsys, D, command,
                                               as_flag):
    # {v_{-1,2}, v_{3,-1}} has the degree-2 witness x*y, which a bound of 0
    # once found as if no bound were given
    bound = 6 if as_flag else D
    if command == "algebraize":
        doc = _algebraize(max_degree=bound)
    else:
        doc = {"format": 1, "options": {"max_degree": bound}, "valuations": {
            "a": {"kind": "monomial", "s": "-1", "t": "2"},
            "b": {"kind": "monomial", "s": "3", "t": "-1"}}}
    p = tmp_path / "degree.json"
    p.write_text(json.dumps(doc))
    flag = [f"--max-degree={D}"] if as_flag else []
    rc, out, err = run(capsys, command, "-f", str(p), *flag)
    assert (rc, out) == (2, "")
    assert err == f"error: degree bound must be in 1..{MAX_DEGREE}, got {D}\n"


def test_successive_calls_share_no_state(scfile, capsys):
    # the argument parser is built once per process; flags and
    # subcommands of one call must not leak into the next
    rc, out, _ = run(capsys, "classify", "-f", scfile, "--json",
                     "--max-degree", "3", "m1", "m0")
    assert rc == 0 and json.loads(out)["degree_bound"] == 3
    rc, out, _ = run(capsys, "skewness", "-f", scfile, "m1")
    assert rc == 0 and out.startswith("m1: alpha = ")
    rc, out, _ = run(capsys, "classify", "-f", scfile, "--json", "m1", "m0")
    assert rc == 0 and json.loads(out)["degree_bound"] == 6


def ramified_meet(tmp_path, capsys, m):
    """CLI meet of the curve y = x^(1/m) (chart y) with a one-step
    divisorial; the curve's satellite run is m - 1 centers long."""
    doc = {"format": 1, "valuations": {
        "c": {"kind": "curve", "base": {"chart": "y"}, "m": m,
              "coefficients": {"1": "1"}, "exact": True},
        "d": {"kind": "divisorial", "base": {"chart": "y"},
              "steps": [{"type": "free", "c": "1"}]}}}
    p = tmp_path / "ramified.json"
    p.write_text(json.dumps(doc))
    return run(capsys, "meet", "-f", str(p), "c", "d")


def test_meet_of_a_highly_ramified_curve(tmp_path, capsys):
    rc, out, _ = ramified_meet(tmp_path, capsys, 1000)
    assert rc == 0 and "alpha = 999/1000" in out


def test_meet_merges_a_deep_path_in_linear_time(tmp_path, capsys):
    # each round of the meet merges the curve's path, 3,000 centers deep
    # at the end, with the divisorial's
    rc, out, _ = ramified_meet(tmp_path, capsys, 3000)
    assert rc == 0 and "alpha = 2999/3000" in out


@pytest.mark.parametrize("fields, field", [
    ({"m": 2.5}, "valuations.c.m: "),
    ({"m": True}, "valuations.c.m: "),
    ({"m": MAX_CURVE_M + 1}, "valuations.c.m: "),
    ({"K": MAX_CURVE_K + 1, "exact": False}, "valuations.c.K: "),
    ({"exact": "false"}, "valuations.c.exact: "),
], ids=["m-float", "m-bool", "m-above-cap", "K-above-cap", "exact-string"])
def test_bad_curve_field_in_a_meet_exits_2(tmp_path, capsys, fields, field):
    # "m": 2.5 was read as m = 2, and the meet answered alpha = 1/2
    doc = {"format": 1, "valuations": {
        "c": {"kind": "curve", "base": {"chart": "y"}, "m": 3,
              "coefficients": {"1": "1"}, "exact": True, **fields},
        "d": {"kind": "divisorial", "base": {"chart": "y"},
              "steps": [{"type": "free", "c": "1"}]}}}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "meet", "-f", str(p), "c", "d")
    assert rc == 2 and out == "" and err.startswith("error: " + field)


def test_truncated_curve_with_a_term_past_k_exits_2(tmp_path, capsys):
    # the t^3 term lies past K = 2; it was dropped, and the meet below
    # read t^1 alone and exited 3.  At K = 4 the meet answers.
    def meet(K):
        doc = {"format": 1, "valuations": {
            "c": {"kind": "curve", "base": {"chart": "y"}, "m": 2,
                  "coefficients": {"1": "1", "3": "2"}, "K": K},
            "d": {"kind": "divisorial", "base": {"chart": "y"},
                  "steps": [{"type": "satellite-u"},
                            {"type": "free", "c": "1"}]}}}
        p = tmp_path / f"k{K}.json"
        p.write_text(json.dumps(doc))
        return run(capsys, "meet", "-f", str(p), "c", "d")

    rc, out, err = meet(2)
    assert (rc, out) == (2, "")
    assert err.startswith("error: valuations.c: ") and "K = 2" in err
    rc, out, _ = meet(4)
    assert rc == 0 and "alpha = 1/4" in out


def test_duplicate_name_exits_2(scfile, capsys):
    rc, out, err = run(capsys, "classify", "-f", scfile, "m1", "m1")
    assert rc == 2 and err.startswith("error:") and "'m1'" in err
    assert "Traceback" not in err and out == ""


def test_undecided_exits_3(tmp_path, capsys):
    # c1 cut at K = 4: Q = y^2 - x^3 vanishes on it to the stored order
    c1 = dict(SCENARIO["valuations"]["c1"], exact=False)
    p = tmp_path / "truncated.json"
    p.write_text(json.dumps(_with(valuations={"c1": c1})))
    rc, out, err = run(capsys, "eval", "-f", str(p), "c1", "Q")
    assert rc == 3 and err.startswith("error:") and "certified" in err
    assert "Traceback" not in err and out == ""


def test_internal_error_exits_1(scfile, capsys, monkeypatch):
    def broken(args, sc):
        raise RuntimeError("broken invariant")

    monkeypatch.setitem(cli.COMMANDS, "skewness", broken)
    rc, out, err = run(capsys, "skewness", "-f", scfile)
    assert rc == 1 and out == ""
    assert err == "internal error: RuntimeError: broken invariant\n"


# scenario mutations: the fuzz base adds a divisorial so that steps are
# mutated too
FUZZ_BASE = _with(valuations=dict(SCENARIO["valuations"], d1={
    "kind": "divisorial", "base": {"chart": "x", "c": "1"},
    "steps": [{"type": "free", "c": "2"}, {"type": "satellite-u"}]}))
RETYPED = [None, True, 0, -1, 7, 1.5, "abc", [], {}]
# "1e400" is a rational, but v_{-1,1e400} asks for 10^400 blowups
BAD_RATIONALS = ["1/0", "", "2/3/4", "0x10", "1e400"]
# JSON values that are not the integer or boolean a field claims to be, and
# sizes past the curve caps
BAD_INTEGERS = [2.5, 3.0, True, False, "false", "3", MAX_CURVE_M + 1,
                MAX_CURVE_K + 1]
BAD_STEPS = [{"type": "bogus"}, {"type": "satellite-v"},
             {"type": "free", "c": "0"}, {"type": "free", "c": [1]}, {}]
BAD_POLYNOMIALS = ["x^", "x/y", "0", "x^65", "(x+y+1)^160",
                   "__import__('os')", "9" * 5000]
FUZZ_COMMANDS = [["skewness"], ["thinness"], ["eval", "c1", "Q"],
                 ["eval", "d1", "H"], ["eval", "m1", "Q"], ["meet", "d1", "c1"],
                 ["meet", "m1", "d1"], ["chi", "m1", "d1", "root"],
                 ["chi", "c1", "m0"]]


def _leaves(doc, path=()):
    """Every (path, value) inside a JSON document, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for k, v in items:
        yield path + (k,), v
        if isinstance(v, (dict, list)):
            yield from _leaves(v, path + (k,))


def _targets(doc, kind):
    """The paths where a mutation of this kind applies."""
    paths = [p for p, _ in _leaves(doc)]
    if kind == "rational":
        return [p for p in paths
                if p[-1] in ("s", "t", "c") or p[-2:-1] == ("coefficients",)]
    if kind == "step":
        return [p for p in paths if p[-2:-1] == ("steps",)]
    if kind == "polynomial":
        return [p for p in paths if len(p) == 2 and p[0] == "polynomials"]
    if kind == "integer":
        return [p for p in paths if p[-1] in ("m", "K", "exact", "max_degree")]
    return paths


@st.composite
def mutated_scenarios(draw):
    doc = copy.deepcopy(FUZZ_BASE)
    swaps = {"retype": RETYPED, "rational": BAD_RATIONALS,
             "step": BAD_STEPS, "polynomial": BAD_POLYNOMIALS,
             "integer": BAD_INTEGERS}
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", *swaps]))
        paths = _targets(doc, kind)
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        owner = doc
        for k in path[:-1]:
            owner = owner[k]
        if kind == "drop":
            del owner[path[-1]]
        else:
            owner[path[-1]] = copy.deepcopy(draw(st.sampled_from(swaps[kind])))
    return doc


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(doc=mutated_scenarios(), argv=st.sampled_from(FUZZ_COMMANDS))
def test_mutated_scenario_exits_with_a_documented_code(tmp_path, doc, argv):
    p = tmp_path / "fuzz.json"
    p.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main([argv[0], "-f", str(p), *argv[1:]])
    assert rc in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


# command line fuzz: every command with flags of every command, and flag
# values that are 0, negative, huge or not integers
ARGV_DOC = dict(SCENARIO, algebraize=ALGEBRAIZE["algebraize"])
ARGV_BASE = {"skewness": [], "thinness": ["m1"], "matrix": ["m1", "m0"],
             "chi": ["m1", "m0"], "classify": ["m1", "m0"],
             "find-positive": ["m1"], "dirichlet": ["m1"],
             "meet": ["m1", "m0"], "eval": ["m1", "Q"], "laplacian": ["Q"],
             "log-laplacian": ["Q"], "oracle-check": [], "algebraize": []}
ARGV_FLAGS = ["--max-degree", "--seed", "--count", "-f", "--json"]
ARGV_VALUES = ["0", "-1", "-7", "3", str(10 ** 30), str(2 ** 64), "1.5",
               "abc", "", "1e3", "0x10", "9" * 5000, "@file"]


@st.composite
def fuzzed_flags(draw, command):
    argv = list(ARGV_BASE[command])
    if command != "oracle-check" and draw(st.integers(0, 4)):
        argv += ["-f", "@file"]
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(ARGV_FLAGS))
        argv += [flag] if flag == "--json" else \
            [flag, draw(st.sampled_from(ARGV_VALUES))]
    return argv


@pytest.mark.parametrize("command", sorted(ARGV_BASE))
@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_command_line_exits_with_a_documented_code(tmp_path, command,
                                                          data):
    p = tmp_path / "argv.json"
    p.write_text(json.dumps(ARGV_DOC))
    argv = [str(p) if a == "@file" else a
            for a in data.draw(fuzzed_flags(command))]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main([command, *argv])
    err = err.getvalue()
    assert rc in (0, 2, 3), err
    assert "Traceback" not in err
    if rc == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["oracle-check", "--count", "-2"],
    ["oracle-check", "--count", "0"],
    ["oracle-check", "--count", str(cli.MAX_ORACLE_COUNT + 1)],
    ["oracle-check", "--count", "2.5"],
    ["oracle-check", "--seed", "x"],
    ["oracle-check", "-f", "s.json"],
    ["oracle-check", "--max-degree", "3"],
    ["skewness", "-f", "s.json", "--max-degree", "-5", "--count", "-3",
     "--seed", "7"],
    ["skewness", "-f", "s.json", "--seed", "7"],
    ["laplacian", "-f", "s.json", "--max-degree", "6", "Q"],
    ["eval", "m1", "Q"],
], ids=["count-negative", "count-zero", "count-above-cap", "count-float",
        "seed-text", "oracle-check-file", "oracle-check-degree",
        "skewness-foreign-flags", "skewness-seed", "laplacian-degree",
        "eval-without-file"])
def test_flags_a_command_does_not_take_exit_2(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: valinf") and err.count("\n") == 1


def test_benchmark_command_lines_parse(scfile, algfile, capsys):
    for argv in (["classify", "-f", scfile, "--json", "--max-degree", "3"],
                 ["laplacian", "-f", scfile, "--json", "Q"],
                 ["log-laplacian", "-f", scfile, "--json", "Q"],
                 ["algebraize", "-f", algfile, "--json"]):
        rc, out, _ = run(capsys, *argv)
        assert rc == 0 and json.loads(out)
