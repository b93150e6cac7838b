"""Command line interface: scenario files in, reports out.

Exit codes, one per family of ``valinf.errors``; a failure prints one
``error: ...`` line (``internal error: <Type>: ...`` for code 1):

- 0, success;
- 1, internal error: ``InternalMismatch``, ``IndeterminateForm``, any
  other exception, and an ``oracle-check`` that finds a failure;
- 2, bad input: ``DomainError`` (``ScenarioError`` included), a
  scenario file that cannot be read, or a bad command line;
- 3, undecided at this truncation, precision or cap: ``Undecided``
  (``InsufficientTruncation``, ``Undecidable``, ``PrecisionExceeded``).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import poly
from .adelic import algebraize
from .errors import DomainError, ScenarioError, Undecided
from .exact import Ext
from .potential import point_skewness
from .scenario import (Scenario, format_ext, format_rational,
                       format_valuation, load_scenario, parse_algebraize)
from .valuations import (Curve, Divisorial, Monomial, Root, evaluate, meet,
                         skewness, thinness)


def _describe_point(p) -> str:
    if isinstance(p, Root):
        return "-deg"
    if isinstance(p, Monomial):
        return f"v_{{{p.s},{p.t}}}"
    if isinstance(p, Divisorial):
        return (f"divisorial at alpha="
                f"{format_rational(p.cluster.rows()[p.node].alpha)}")
    if isinstance(p, Curve):
        return f"curve branch at {p.branch.base}"
    return repr(p)


def _need(sc: Scenario, kind: str, name: str):
    table = sc.valuations if kind == "valuation" else sc.polynomials
    if name not in table:
        raise ScenarioError(f"no {kind} named {name!r} in the scenario")
    return table[name]


def _selected(sc: Scenario, names):
    if names:
        for k, n in enumerate(names):
            if n in names[:k]:
                raise ScenarioError(f"valuation {n!r} is named twice")
        return [(n, _need(sc, "valuation", n)) for n in names]
    return sorted(sc.valuations.items())


def _emit(args, human: str, machine: dict):
    if args.json:
        print(json.dumps(machine, indent=2, sort_keys=True))
    else:
        print(human)


def _valuation_set(sc: Scenario, names):
    from .richness import ValuationSet

    pairs = _selected(sc, names)
    return ValuationSet(tuple(n for n, _ in pairs),
                        tuple(v for _, v in pairs))


def cmd_skewness(args, sc):
    lines, out = [], {}
    for n, v in _selected(sc, args.names):
        a = format_ext(skewness(v))
        lines.append(f"{n}: alpha = {a}")
        out[n] = a
    _emit(args, "\n".join(lines), {"skewness": out})
    return 0


def cmd_thinness(args, sc):
    lines, out = [], {}
    for n, v in _selected(sc, args.names):
        a = format_ext(thinness(v))
        lines.append(f"{n}: A = {a}")
        out[n] = a
    _emit(args, "\n".join(lines), {"thinness": out})
    return 0


def cmd_meet(args, sc):
    v = _need(sc, "valuation", args.left)
    w = _need(sc, "valuation", args.right)
    m = meet(v, w)
    a = format_ext(skewness(m))
    _emit(args, f"{args.left} ^ {args.right}: {_describe_point(m)} "
                f"(alpha = {a})",
          {"meet": format_valuation(m), "alpha": a})
    return 0


def cmd_eval(args, sc):
    v = _need(sc, "valuation", args.valuation)
    P = _need(sc, "polynomial", args.polynomial)
    val = format_ext(evaluate(v, P))
    _emit(args, f"{args.valuation}({args.polynomial}) = {val}",
          {"value": val})
    return 0


def cmd_matrix(args, sc):
    from .richness import matrix_alpha

    S = _valuation_set(sc, args.names)
    M = matrix_alpha(S)
    rows = [[format_ext(e) for e in row] for row in M.entries]
    human = "\n".join("  ".join(r) for r in rows)
    _emit(args, human, {"names": list(S.names), "matrix": rows})
    return 0


def cmd_chi(args, sc):
    from .richness import chi_of

    S = _valuation_set(sc, args.names)
    chi = chi_of(S)
    verdict = "rich" if chi > Ext(0) else \
        ("not rich" if chi < Ext(0) else "borderline")
    _emit(args, f"chi = {format_ext(chi)} ({verdict})",
          {"chi": format_ext(chi), "verdict": verdict})
    return 0


def _degree_bound(args, default: int) -> int:
    """--max-degree if given at all (0 too), else the scenario's bound."""
    return default if args.max_degree is None else args.max_degree


def cmd_classify(args, sc):
    from .richness import classify

    D = _degree_bound(args, int(sc.options.get("max_degree", 6)))
    S = _valuation_set(sc, args.names)
    c = classify(S, D)
    lines = [f"delta = {c.delta}", f"chi = {format_ext(c.chi)}"]
    out = {"delta": c.delta, "chi": format_ext(c.chi),
           "degree_bound": D,
           "reduction": {n: list(tag) for n, tag in
                         c.reduction_report.items()}}
    if c.witness_positive is not None:
        lines.append(f"positive witness: {poly.to_string(c.witness_positive)}")
        out["witness_positive"] = poly.to_string(c.witness_positive)
    if c.witness_nonneg is not None:
        lines.append(f"nonnegative witness: {poly.to_string(c.witness_nonneg)}")
        out["witness_nonneg"] = poly.to_string(c.witness_nonneg)
    if c.thinness_integral is not None:
        lines.append(f"thinness integral = {format_ext(c.thinness_integral)}")
        out["thinness_integral"] = format_ext(c.thinness_integral)
    if c.delta == "unknown":
        lines.append(f"undecided at degree bound {D}; "
                     "absence of a witness is not a disproof")
    _emit(args, "\n".join(lines), out)
    return 0


def cmd_find_positive(args, sc):
    from . import polyfinder

    D = _degree_bound(args, int(sc.options.get("max_degree", 6)))
    S = [v for _, v in _selected(sc, args.names)]
    P = polyfinder.find_positive(S, D)
    if P is None:
        _emit(args, f"NOT FOUND up to degree {D} "
                    "(the bound is not a disproof)",
              {"found": False, "degree_bound": D})
    else:
        _emit(args, poly.to_string(P),
              {"found": True, "witness": poly.to_string(P)})
    return 0


def _emit_measure(args, rho, with_alpha: bool) -> int:
    """Print the atoms of ``rho`` (with their skewness if ``with_alpha``)
    and its total mass."""
    lines, atoms = [], []
    for p, m in rho.atoms:
        lines.append(f"mass {format_rational(m)} at {_describe_point(p)}")
        atom = {"mass": format_rational(m)}
        if with_alpha:
            atom["alpha"] = format_ext(point_skewness(p))
        atoms.append(dict(atom, point=format_valuation(p)))
    lines.append(f"total mass {format_rational(rho.total_mass)}")
    _emit(args, "\n".join(lines),
          {"atoms": atoms, "total_mass": format_rational(rho.total_mass)})
    return 0


def cmd_laplacian(args, sc):
    from .puiseux import log_laplacian

    Q = _need(sc, "polynomial", args.polynomial)
    return _emit_measure(args, log_laplacian(Q), False)


def cmd_log_laplacian(args, sc):
    from .puiseux import logplus_laplacian

    Q = _need(sc, "polynomial", args.polynomial)
    return _emit_measure(args, logplus_laplacian(Q), True)


def cmd_dirichlet(args, sc):
    from .potential import dirichlet
    from .richness import star_system

    S = _valuation_set(sc, args.names)
    a, phi = star_system(S)
    pairing = dirichlet(phi, phi)
    human = (f"weights: {[format_rational(c) for c in a]}\n"
             f"self-pairing = {format_ext(pairing)}")
    _emit(args, human, {"weights": [format_rational(c) for c in a],
                        "self_pairing": format_ext(pairing)})
    return 0


def cmd_oracle_check(args, sc):
    from .randomized import oracle_check

    passed, failures = oracle_check(args.seed, args.count)
    human = f"{passed}/{args.count} alpha-consistency"
    for k, bad in failures:
        human += f"\ncluster {k}: " + "; ".join(bad)
    _emit(args, human, {"passed": passed, "count": args.count,
                        "failures": [{"index": k, "problems": bad}
                                     for k, bad in failures]})
    return 0 if passed == args.count else 1


def cmd_algebraize(args, sc):
    spec = sc.algebraize
    if not spec:
        raise ScenarioError("scenario has no algebraize section")
    branches, points, D = parse_algebraize(spec)
    D = _degree_bound(args, D)
    rep = algebraize(branches, points, D)
    lines = [f"witness P = {poly.to_string(rep.witness)}",
             "T = {" + ", ".join(format_rational(t) for t in rep.values) + "}",
             f"curve: {poly.to_string(rep.curve)} = 0"]
    included = sum(1 for r in rep.points if r.included)
    lines.append(f"points: {included}/{len(rep.points)} included")
    for r in rep.points:
        if not r.included:
            why = "; ".join(f"{pl}: {d}" for pl, d in r.detail.items())
            lines.append(f"  excluded ({format_rational(r.point[0])}, "
                         f"{format_rational(r.point[1])}): {why}")
    for base, matched in rep.branch_verdicts:
        verdict = "matches declared branch" if matched is not None \
            else "NO declared branch matches"
        lines.append(f"curve branch at {base}: {verdict}")
    lines.extend(rep.notes)
    machine = {
        "witness": poly.to_string(rep.witness),
        "values": [format_rational(t) for t in rep.values],
        "curve": poly.to_string(rep.curve),
        "points": [{"point": [format_rational(r.point[0]),
                              format_rational(r.point[1])],
                    "included": r.included,
                    "value": None if r.value is None
                    else format_rational(r.value),
                    "detail": {str(pl): d for pl, d in r.detail.items()}}
                   for r in rep.points],
        "branch_verdicts": [{"base": str(base), "matched": matched}
                            for base, matched in rep.branch_verdicts],
        "notes": rep.notes,
    }
    _emit(args, "\n".join(lines), machine)
    return 0


COMMANDS = {
    "skewness": cmd_skewness,
    "thinness": cmd_thinness,
    "meet": cmd_meet,
    "eval": cmd_eval,
    "matrix": cmd_matrix,
    "chi": cmd_chi,
    "classify": cmd_classify,
    "find-positive": cmd_find_positive,
    "laplacian": cmd_laplacian,
    "log-laplacian": cmd_log_laplacian,
    "dirichlet": cmd_dirichlet,
    "oracle-check": cmd_oracle_check,
    "algebraize": cmd_algebraize,
}

# the largest --count of oracle-check; on 2 vCPUs a check at the cap
# takes about 5 s
MAX_ORACLE_COUNT = 10_000
# the positional arguments of each command that does not take names
POSITIONALS = {"meet": ("left", "right"), "eval": ("valuation", "polynomial"),
               "laplacian": ("polynomial",), "log-laplacian": ("polynomial",),
               "oracle-check": (), "algebraize": ()}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ``DomainError``, so that ``main``
    prints one ``error:`` line and exits 2."""

    def error(self, message):
        raise DomainError(f"{self.prog}: {message}")


def _count(text: str) -> int:
    """The --count of oracle-check: an integer in 1..MAX_ORACLE_COUNT."""
    try:
        if 1 <= int(text) <= MAX_ORACLE_COUNT:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"must be an integer in 1..{MAX_ORACLE_COUNT}, got {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process.  Each command
    takes only the flags it reads: --json all of them, -f all but
    oracle-check, --max-degree the witness searches, and --seed and
    --count oracle-check."""
    ap = _Parser(prog="valinf",
                 description="exact computations with valuations at infinity")
    sub = ap.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd)
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        if cmd == "oracle-check":
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--count", type=_count, default=50,
                           help=f"clusters to check, 1..{MAX_ORACLE_COUNT}")
            continue
        p.add_argument("-f", "--file", required=True,
                       help="scenario JSON file")
        if cmd in ("classify", "find-positive", "algebraize"):
            p.add_argument("--max-degree", type=int, default=None,
                           help="witness degree bound (default: the "
                                "scenario's)")
        if cmd not in POSITIONALS:
            p.add_argument("names", nargs="*", help="valuation names "
                           "(default: all in the scenario)")
        for name in POSITIONALS.get(cmd, ()):
            p.add_argument(name)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        sc = load_scenario(args.file) if "file" in args else None
        return COMMANDS[args.command](args, sc)
    except (DomainError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Undecided as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except Exception as e:      # the boundary: one line, never a traceback
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
