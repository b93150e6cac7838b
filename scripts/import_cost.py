"""Start-up cost of each CLI command, one fresh interpreter per command.

Each command runs on a small built-in scenario (monomial, divisorial and
curve valuations, the cusp y^2 - x^3 with truncated and exact branches,
and an algebraize section) in a new ``python`` process that imports
``valinf.cli`` and calls ``cli.main`` once.  One JSON line is printed per
command: its exit code, the wall seconds of the whole process (start-up,
imports and the command), its peak RSS (``ru_maxrss``) in MB, and whether
``sympy`` was imported.

Usage: python3 scripts/import_cost.py [--command NAME ...]
(run from the root of a checkout with ``src`` on PYTHONPATH)
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

SCENARIO = {
    "format": 1,
    "valuations": {
        "m1": {"kind": "monomial", "s": "-1", "t": "1"},
        "m0": {"kind": "monomial", "s": "-1", "t": "1/2"},
        "d": {"kind": "divisorial", "base": {"chart": "x"},
              "steps": [{"type": "free", "c": "1/2"},
                        {"type": "satellite-u"}]},
        "c1": {"kind": "curve", "base": {"chart": "y"}, "m": 3,
               "coefficients": {"1": "1"}, "K": 4, "exact": True}},
    "polynomials": {"Q": "y^2-x^3-1", "P": "(y - x^2)^2/3 - x*y + 1"},
    "algebraize": {
        "branches": [{"polynomial": "y^2-x^3", "primes": [2, 3]}],
        "points": [[str(n * n), str(n ** 3)] for n in range(2, 13)],
        "max_degree": 6},
    "options": {"max_degree": 4},
}

# the arguments of each command after its name; FILE is the scenario
COMMANDS = {
    "skewness": ["-f", "FILE"],
    "thinness": ["-f", "FILE"],
    "meet": ["-f", "FILE", "d", "c1"],
    "eval": ["-f", "FILE", "d", "P"],
    "matrix": ["-f", "FILE", "m1", "m0", "d"],
    "chi": ["-f", "FILE", "m1", "m0", "c1"],
    "classify": ["-f", "FILE"],
    "find-positive": ["-f", "FILE", "m1"],
    "laplacian": ["-f", "FILE", "Q"],
    "log-laplacian": ["-f", "FILE", "Q"],
    "dirichlet": ["-f", "FILE", "m1", "m0"],
    "oracle-check": ["--count", "5"],
    "algebraize": ["-f", "FILE"],
}

CHILD = """\
import contextlib, io, json, resource, sys
from valinf import cli
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    rc = cli.main(sys.argv[1:])
print(json.dumps({"exit": rc, "maxrss_mb": round(resource.getrusage(
    resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "sympy": "sympy" in sys.modules}))
"""


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--command", nargs="+", choices=sorted(COMMANDS),
                    default=list(COMMANDS))
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w") as f:
            json.dump(SCENARIO, f)
        for cmd in args.command:
            argv = [cmd] + [path if a == "FILE" else a for a in COMMANDS[cmd]]
            t0 = time.perf_counter()
            done = subprocess.run([sys.executable, "-c", CHILD, *argv],
                                  capture_output=True, text=True, timeout=300)
            seconds = time.perf_counter() - t0
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            row = json.loads(done.stdout.splitlines()[-1])
            print(json.dumps({"command": cmd, "exit": row["exit"],
                              "seconds": round(seconds, 3),
                              "maxrss_mb": row["maxrss_mb"],
                              "sympy": row["sympy"]}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
