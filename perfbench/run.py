#!/usr/bin/env python3
"""valinf benchmark: one closed-loop caller drives valinf's public entry
points on a seeded workload and prints the metrics as JSON.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 30

Run from the root of a checkout; the library is imported from ``src``.
The workloads are ``classify``, ``curves`` and ``geometry`` (see
``workloads.py`` and ``README.md``).  One process, one thread: each op
starts when the previous one has answered.

With ``--trace 0`` the ops run for ``--seconds`` seconds of op time and
the end-to-end metrics are reported.  Times are scaled to a reference
host speed: a fixed calibration loop (``probe``) runs between the ops,
and each op time is multiplied by ``REF_PROBE_S`` over the time the
probe took around it, so that the host's own drift in speed cancels
(the wall-clock figures are in the ``info`` line).  With ``--trace 1`` a
fixed number of ops runs with every layer's public functions wrapped
(``tracer.py``), so that counts repeat exactly, and the per-layer
metrics are reported; the same ops then run untraced in a child process
to give the tracing overhead.  Every answer is checked after the timed
phase: against the committed reference answers on the default seed, and
by the oracle checks on every seed.  The last line of standard output is
the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
DEFAULT_SEED = 0
# Extra set-ups in child processes; setup_s is the median over these and
# the run's own set-up.
SETUP_REPEATS = 2
# Ops per traced run: whole schedule blocks, about --seconds of work at
# the commit that added the benchmark (2 vCPUs at 2.1 GHz).
TRACE_OPS = {"classify": 90, "curves": 100, "geometry": 90}
WORKLOAD_NAMES = ("classify", "curves", "geometry")
# Times are reported as on a host where ``probe`` takes this long.  On
# a shared host the speed of one core drifts by up to half within a
# minute as other tenants come and go; the probe runs between the ops and
# tracks that drift, so an op time scaled by it measures the program.
REF_PROBE_S = 0.001
# Probes on each side of an op that its scale is taken over.
PROBE_WINDOW = 2
END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_p90_ms": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None,
                    help="run exactly this many ops instead of timing")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print the set-up time and exit")
    ap.add_argument("--write-reference", action="store_true",
                    help="store the answers as the reference (with --ops)")
    args = ap.parse_args(argv)
    if args.ops is not None and args.ops < 2:
        ap.error("--ops needs at least 2 ops for the latency quantiles")
    return args


def _import_library():
    """Import valinf from this checkout's ``src``, or exit with code 2."""
    sys.path.insert(0, str(SRC))
    import valinf
    if Path(valinf.__file__).resolve().parent != SRC / "valinf":
        print(f"error: imported valinf from {valinf.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def probe():
    """Seconds taken by a fixed pure-Python loop of Fraction sums, the
    arithmetic valinf spends its time in.  The garbage collector is off
    meanwhile, so that the time reflects the host and not the size of
    the program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    t = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 400):
        s += Fraction(1, i)
    dt = time.perf_counter() - t
    if enabled:
        gc.enable()
    return dt


def setup(workload, seed, workdir):
    """Import valinf, build the workload from its seed, run one untimed
    warm-up op; (workload object, seconds taken, median probe seconds
    around it)."""
    probes = [probe() for _ in range(3)]
    t0 = time.perf_counter()
    _import_library()
    import workloads
    wl = workloads.WORKLOADS[workload](seed, str(workdir))
    wl.warmup()
    seconds = time.perf_counter() - t0
    probes += [probe() for _ in range(3)]
    return wl, seconds, statistics.median(probes)


def run_ops(wl, seconds, n_ops, tracer=None):
    """Closed loop over ``n_ops`` ops, or else over whole schedule blocks
    until ``seconds`` of op time have passed, so that every run sees the
    same mix of sizes; returns ([(op, latency s, answer as JSON text or
    None, error or None)], [probe s]) with a probe before the first op
    and after each op.

    Each output becomes its answer text at once, untimed, so that the run
    does not keep the program's objects alive: a heap that grows with the
    run makes the interpreter's garbage collection, and so every later
    op, slower.
    """
    done = []
    probes = [probe()]
    busy = 0.0
    while (len(done) < n_ops) if n_ops is not None else \
            (busy < seconds or len(done) % wl.block_len):
        op = wl.next_op()
        if tracer is not None:
            tracer.active = True
        t = time.perf_counter()
        try:
            raw, err = wl.run(op), None
        except Exception as e:          # the op failed; counted below
            raw, err = None, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t
        if tracer is not None:
            tracer.active = False
        probes.append(probe())
        busy += dt
        ans = None
        if err is None:
            try:
                ans = json.dumps(wl.answer(op, raw), sort_keys=True)
            except Exception as e:      # a malformed output is a failure
                err = f"{type(e).__name__}: {e}"
        done.append((op, dt, ans, err))
    return done, probes


def scaled_latencies(done, probes):
    """Each op's latency times ``REF_PROBE_S`` over the median of the
    probes within ``PROBE_WINDOW`` of it on either side."""
    out = []
    for i, (_, dt, *_) in enumerate(done):
        near = probes[max(0, i + 1 - PROBE_WINDOW):i + 1 + PROBE_WINDOW]
        out.append(dt * REF_PROBE_S / statistics.median(near))
    return out


def load_reference(workload):
    path = REFERENCE / f"{workload}.jsonl"
    if not path.is_file():
        return []
    with open(path) as f:
        return [json.loads(line) for line in f]


def check_all(wl, done, reference):
    """Answers and oracle verdicts; returns (answers, failures)."""
    answers, failures = [], []
    for op, _, text, err in done:
        ans, bad = None, []
        if err is not None:
            bad = [err]
        else:
            ans = json.loads(text)
            try:
                bad = wl.check(op, ans)
            except Exception as e:      # an oracle that raises is a failure
                bad = [f"{type(e).__name__}: {e}"]
        if ans is not None and op.index < len(reference):
            if json.dumps(reference[op.index]["answer"],
                          sort_keys=True) != text:
                bad.append("answer differs from the reference answer")
        answers.append(ans)
        if bad:
            failures.append({"op": op.index, "kind": op.kind,
                             "inputs": _describe(op), "problems": bad})
    return answers, failures


def _describe(op):
    keep = {k: v for k, v in op.inputs.items() if k != "nodes"}
    if "nodes" in op.inputs:
        keep["nodes"] = [repr(n) for n in op.inputs["nodes"]]
    return keep


def shares(done):
    keys = sorted({k for op, *_ in done for k in op.props})
    n = len(done)
    return {k: sum(1 for op, *_ in done if op.props.get(k)) / n
            for k in keys}


def metadata(workload, n_ops):
    import sympy
    lines = {}
    for path in sorted((SRC / "valinf").glob("*.py")):
        with open(path) as f:
            lines[path.name] = sum(1 for _ in f)
    return {"commit": _commit(), "python": platform.python_version(),
            "sympy": sympy.__version__, "nproc": os.cpu_count(),
            "workload": workload, "ops": n_ops,
            "src_lines": lines, "src_lines_total": sum(lines.values())}


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _child(args, extra):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload",
           args.workload, "--seed", str(args.seed)] + extra
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(extra)} child exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "valinf" / "__init__.py").is_file():
        print(f"error: valinf sources not found under {SRC}",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _main(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:                 # another run still uses it
            pass


def _main(args, workdir):
    wl, setup_wall_s, setup_probe_s = setup(args.workload, args.seed, workdir)
    setup_s = setup_wall_s * REF_PROBE_S / setup_probe_s
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "wall_s": setup_wall_s}))
        return 0
    tracer = None
    n_ops = args.ops
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        if n_ops is None:
            n_ops = TRACE_OPS[args.workload]
    try:
        done, probes = run_ops(wl, args.seconds, n_ops, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    busy = sum(dt for _, dt, *_ in done)
    reference = [] if args.seed != DEFAULT_SEED or args.write_reference \
        else load_reference(args.workload)
    answers, failures = check_all(wl, done, reference)

    if args.write_reference:
        REFERENCE.mkdir(exist_ok=True)
        with open(REFERENCE / f"{args.workload}.jsonl", "w") as f:
            for (op, *_), ans in zip(done, answers):
                f.write(json.dumps({"op": op.index, "kind": op.kind,
                                    "answer": ans}, sort_keys=True) + "\n")

    attempted = len(done)
    lat_ms = sorted(x * 1000 for x in scaled_latencies(done, probes))
    scaled_busy = sum(lat_ms) / 1000
    q = statistics.quantiles(lat_ms, n=10)
    wall_q = statistics.quantiles([dt * 1000 for _, dt, *_ in done], n=10)
    info = {"metadata": metadata(args.workload, attempted),
            "seed": args.seed, "trace": args.trace,
            "op_seconds": busy, "samples": attempted,
            "probe_ms": {"median": statistics.median(probes) * 1000,
                         "min": min(probes) * 1000,
                         "max": max(probes) * 1000,
                         "reference": REF_PROBE_S * 1000},
            "wall": {"ops_per_s": attempted / busy,
                     "latency_p50_ms": wall_q[4],
                     "latency_p90_ms": wall_q[8]},
            "samples_beyond_p90": sum(1 for x in lat_ms if x > q[8]),
            "error_rate": len(failures) / attempted,
            "reference_ops_checked": min(attempted, len(reference)),
            "input_shares": shares(done), "failures": failures}
    if tracer is None:
        setups = [{"setup_s": setup_s, "wall_s": setup_wall_s}]
        if args.ops is None:
            setups += [_child(args, ["--setup-only"])
                       for _ in range(SETUP_REPEATS)]
        values = {"ops_per_s": attempted / scaled_busy,
                  "latency_p50_ms": q[4], "latency_p90_ms": q[8],
                  "setup_s": statistics.median(s["setup_s"] for s in setups),
                  "peak_rss_mb": peak_rss_mb}
        info["wall"]["setup_s"] = statistics.median(
            s["wall_s"] for s in setups)
        info["setup_samples"] = setups
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    else:
        untraced = _child(args, ["--trace", "0", "--ops", str(attempted)])
        layer = tracer.metrics(busy)
        layer["trace.overhead_ratio"] = (
            untraced["metrics"]["ops_per_s"]["value"] * scaled_busy
            / attempted, "ratio")
        layer["trace.op_s"] = (busy, "s")
        layer["trace.ops"] = (attempted, "count")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        if untraced["failed"]:
            failures.append({"op": None, "kind": "untraced rerun",
                             "inputs": {}, "problems": [
                                 f"{untraced['failed']} ops failed"]})

    print(json.dumps({"info": info}, sort_keys=True))
    for f in failures:
        print(f"failed op {f['op']} ({f['kind']}): "
              + "; ".join(f["problems"]), file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
