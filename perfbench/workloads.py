"""Seeded inputs, ops and answer checks for the three benchmark workloads.

Each workload turns a seed into an unbounded, deterministic stream of ops.
An op is one user query: the timed part (``run``) calls valinf's public
entry points, mostly ``valinf.cli.main`` on a scenario file written
beforehand; the untimed part (``answer`` and ``check``) turns the output
into a canonical answer and runs the oracle checks on it.

Sizes follow a fixed schedule that repeats in blocks, and only the
contents are drawn from the seed, so that two seeds put the same mix of
input sizes through the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

# The timed code calls valinf through module attributes (cli.main,
# valuations.evaluate, ...), so that the tracer's patches see the calls.
from valinf import cli, poly, puiseux, randomized, valuations
from valinf.cluster import Cluster, PointAtInfinity
from valinf.exact import Ext
from valinf.randomized import incomparable_nodes, random_cluster
from valinf.richness import ValuationSet, star_system
from valinf.scenario import (format_ext, format_valuation, parse_rational,
                             parse_valuation)
from valinf.valuations import ROOT, Curve, Divisorial, Monomial, quasimonomial

F = Fraction


class Op:
    """One query: its inputs, the properties the shares are taken over,
    and whatever the untimed checks need to know about how it was made."""

    def __init__(self, index, kind, inputs, props, facts=None):
        self.index = index
        self.kind = kind
        self.inputs = inputs
        self.props = props
        self.facts = facts or {}


def _call_cli(argv):
    """``valinf`` in-process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_json(argv, what):
    code, out, err = _call_cli(argv)
    if code != 0:
        raise RuntimeError(f"{what} exited {code}: {err.strip()}")
    return json.loads(out)


def _write_scenario(path, valuations=None, polynomials=None,
                    algebraize=None):
    obj = {"format": 1}
    if valuations:
        obj["valuations"] = valuations
    if polynomials:
        obj["polynomials"] = polynomials
    if algebraize:
        obj["algebraize"] = algebraize
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True)


def _small_rational(rng):
    return F(rng.choice([-2, -1, 1, 2]), rng.choice([1, 1, 1, 2]))


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

# Distinct points of L-infinity for quasimonomial sets of up to 14 elements.
QM_BASES = [PointAtInfinity("y")] + [
    PointAtInfinity("x", F(c)) for c in
    ("0", "1", "-1", "2", "-2", "1/2", "-1/2", "3", "-3", "1/3", "-1/3",
     "3/2", "-3/2")]

# Curves with terminating expansions: equality of two of them is decided
# exactly, so duplicates in a set are allowed.  Truncated branches are
# left out because ``equal`` on two of them agreeing to their truncation
# raises by design.
CURVE_POOL_POLYS = ("y^2-x^3", "x*y-1", "x^2*y-1", "y^3-x^2", "y^2-x^5",
                    "y^3-x^4", "(y-x^2)*(x-y^2)")

# One block of classify ops as (kind, size, rich target), repeated in
# this fixed order; the seed draws only the contents.  A latency quantile
# is steady only where many ops cost about the same, so the block is
# built around cost classes, timed on 2 vCPUs at 2.1 GHz: 12 cheap sets
# (under 0.07 s), 9 quasimonomial sets of 7 (0.12 s, spread 12%) that
# hold the median, 3 sets between, 5 quasimonomial sets of 9 (0.27 s,
# spread 13%) that hold p90, and one set of 12 on top, where the chi
# determinant and the O(n^2) meets dominate.  Rich quasimonomial sets
# spread in cost with the witness search (2 to 5 times), so only the
# cheap ones are used.
CLASSIFY_BLOCK = (
    ("quasi", 7, False), ("quasi", 2, True), ("quasi", 9, False),
    ("mixed", 6, None), ("quasi", 7, False), ("antichain", 3, None),
    ("quasi", 8, False), ("quasi", 3, False), ("quasi", 7, False),
    ("quasi", 9, False), ("mixed", 14, None), ("quasi", 4, False),
    ("quasi", 7, False), ("antichain", 4, None), ("quasi", 12, False),
    ("quasi", 7, False), ("quasi", 2, True), ("quasi", 9, False),
    ("mixed", 10, None), ("quasi", 7, False), ("quasi", 5, True),
    ("quasi", 5, False), ("quasi", 9, False), ("quasi", 7, False),
    ("mixed", 12, None), ("quasi", 8, False), ("quasi", 6, False),
    ("quasi", 7, False), ("quasi", 9, False), ("quasi", 7, False))
CLASSIFY_D = 6


class Classify:
    name = "classify"
    block_len = len(CLASSIFY_BLOCK)

    def __init__(self, seed, workdir):
        self.rng = random.Random(f"classify:{seed}")
        self.workdir = workdir
        self.count = 0
        self.curves = []
        for s in CURVE_POOL_POLYS:
            for b, _ in puiseux.weighted_branches(poly.parse(s)):
                if not b.series.exact:
                    raise RuntimeError(f"pool branch of {s} is not exact")
                self.curves.append(format_valuation(Curve(b)))

    def warmup(self):
        path = os.path.join(self.workdir, "warmup-classify.json")
        _write_scenario(path, valuations={
            "a": format_valuation(Monomial(-1, F(1, 2))),
            "b": format_valuation(Monomial(F(1, 3), -1)),
            "c": self.curves[0]})
        _cli_json(["classify", "-f", path, "--json", "--max-degree",
                   str(CLASSIFY_D)], "warm-up classify")

    def _quasi(self, n, rich):
        rng = self.rng
        total = rng.uniform(0.6, 0.95) if rich else rng.uniform(1.05, 1.6)
        shares = [rng.uniform(0.5, 1.5) for _ in range(n)]
        scale = total / sum(shares)
        vals, ratio = [], F(0)
        for base, share in zip(rng.sample(QM_BASES, n), shares):
            a = rng.randint(1, 2)
            b = max(1, round(a / (share * scale)))
            vals.append(format_valuation(quasimonomial(base, a, b)))
            ratio += F(a, b)
        return vals, {"ratio_sum": str(ratio)}

    def _antichain(self, n, rich):
        rng = self.rng
        best = []
        for _ in range(40):
            cl = random_cluster(rng, max_nodes=3 * n + 3, depth_cap=8,
                                n_roots=rng.choice([1, 2]))
            nodes = incomparable_nodes(cl, rng, n)
            if len(nodes) > len(best):
                best = [format_valuation(Divisorial(cl, k)) for k in nodes]
            if len(best) == n:
                break
        return best, {}

    def _mixed(self, n, rich):
        rng = self.rng
        vals = []
        while len(vals) < n:
            r = rng.random()
            if vals and r < 0.12:
                vals.append(rng.choice(vals))              # duplicate
            elif r < 0.3:
                t = F(rng.randint(0, 6), rng.choice([1, 2, 3]))
                vals.append(format_valuation(Monomial(-1, t)))
            elif r < 0.42:
                s = F(rng.randint(0, 6), rng.choice([1, 2, 3]))
                vals.append(format_valuation(Monomial(s, -1)))
            elif r < 0.62:
                vals.append(rng.choice(self.curves))
            elif r < 0.64:
                vals.append(format_valuation(ROOT))
            else:
                cl = random_cluster(rng, max_nodes=6)
                k = rng.randrange(len(cl))
                vals.append(format_valuation(Divisorial(cl, k)))
                if r > 0.9 and len(vals) < n:
                    # an ancestor: the deeper element is dominated
                    vals.append(format_valuation(
                        Divisorial(cl, cl.path(k)[0])))
        return vals, {}

    def next_op(self):
        kind, n, rich = CLASSIFY_BLOCK[self.count % len(CLASSIFY_BLOCK)]
        vals, facts = getattr(self, "_" + kind)(n, rich)
        names = [f"v{i:02d}" for i in range(len(vals))]
        path = os.path.join(self.workdir, f"classify-{self.count}.json")
        _write_scenario(path, valuations=dict(zip(names, vals)))
        has_curve = any(v["kind"] == "curve" for v in vals)
        op = Op(self.count, kind, {"file": path, "valuations": vals},
                {"size_ge_12": len(vals) >= 12, "has_curve": has_curve},
                facts)
        self.count += 1
        return op

    def run(self, op):
        return _call_cli(["classify", "-f", op.inputs["file"], "--json",
                          "--max-degree", str(CLASSIFY_D)])

    def answer(self, op, raw):
        code, out, err = raw
        if code != 0:
            raise RuntimeError(f"classify exited {code}: {err.strip()}")
        return json.loads(out)

    def check(self, op, ans):
        bad = []
        chi = parse_rational(ans["chi"]) if ans["chi"] not in (
            "+inf", "-inf") else None
        rich = ans["chi"] == "+inf" or (chi is not None and chi > 0)
        op.props["rich"] = rich
        if "ratio_sum" in op.facts:
            closed = F(op.facts["ratio_sum"]) < 1
            if closed != rich:
                bad.append(f"chi = {ans['chi']} but sum a/b = "
                           f"{op.facts['ratio_sum']}")
        specs = dict(zip((f"v{i:02d}" for i in range(len(
            op.inputs["valuations"]))), op.inputs["valuations"]))
        kept = sorted(n for n, tag in ans["reduction"].items()
                      if tag[0] == "kept")
        # the star system puts value 1 at -deg, so it needs -deg outside R
        if kept and all(specs[n]["kind"] != "root" for n in kept):
            R = ValuationSet(tuple(kept),
                             tuple(parse_valuation(specs[n]) for n in kept))
            a, _ = star_system(R)
            if chi is None or (a[0] > 0) != (chi > 0) or \
                    (a[0] < 0) != (chi < 0):
                bad.append(f"star system a0 = {a[0]} against chi = {chi}")
        return bad


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

# y^a = x^b plus terms below the Newton edge, with gcd(a, b) = 1 and the
# x^b coefficient 1: the curve has one point at infinity and one branch
# there, ramified of order max(a, b), whose first coefficient is a root
# of unity in Q (so +-1), and the terms below the edge only change the
# tail, which is solved over Q.  So NeedsFieldExtension cannot occur.  A
# coefficient other than 1 on x^b can make the first coefficient
# irrational (c^5 = 1/8 for y^3 - 8x^5), so it stays 1.  Lower terms are
# used only on y^2 = x^3: on the edges of degree 4 and 5 a single one
# makes the cost of an op range from 0.3 s to several seconds in the
# tail expansion and the log-Laplacian (y^2 - x^5 + x^3*y takes 12 s).
# With or without a constant term the cost differs 4 times on y^3 = x^4,
# so the shape fixes that choice.
def _edge_poly(rng, a, b, n_lower, const):
    P = {(0, a): F(1), (b, 0): F(-1)}
    lower = [(i, j) for i in range(b) for j in range(a)
             if a * i + b * j < a * b and (i, j) != (0, 0)]
    for m in rng.sample(lower, n_lower):
        P[m] = _small_rational(rng)
    if const:
        P[(0, 0)] = _small_rational(rng)
    if rng.random() < 0.5:
        P = {(j, i): c for (i, j), c in P.items()}
    return P


def _graph_poly(rng, d=3):
    """y = x^d + lower terms: one branch at infinity, ramified of order d.

    Only d = 3 is used: at d = 4 an op costs 0.4 s to 1.3 s."""
    P = {(0, 1): F(1), (d, 0): F(-1)}
    for i in rng.sample(range(d), rng.randint(0, 2)):
        P[(i, 0)] = _small_rational(rng)
    return P


def _product_poly(rng):
    """A curve with terminating branches times a line or a hyperbola,
    degree 4 to 6."""
    f = rng.choice(["y^2-x^3", "y^3-x^2", "x^2*y-1", "y^2-x^5"])
    c = _small_rational(rng)
    lines = [{(0, 1): F(1), (1, 0): -c}, {(1, 0): F(1), (0, 0): c}]
    if f != "y^2-x^5":
        lines.append({(1, 1): F(1), (0, 0): -c})
    return poly.mul(poly.parse(f), rng.choice(lines))


# Shapes of the curves ops: name -> (maker, arguments).  The cost of one
# op on 2 vCPUs at 2.1 GHz is given per shape.
CURVE_SHAPES = {
    "y2x3": (_edge_poly, (2, 3, 0, True)),     # 0.02-0.05 s
    "y2x3+1": (_edge_poly, (2, 3, 1, True)),   # 0.05-0.33 s
    "y3x4": (_edge_poly, (3, 4, 0, False)),    # 0.04-0.07 s
    "y3x4+c": (_edge_poly, (3, 4, 0, True)),   # 0.13-0.23 s
    "y3x5+c": (_edge_poly, (3, 5, 0, True)),   # 0.23-0.36 s
    "graph": (_graph_poly, ()),                # 0.01-0.15 s
    "product": (_product_poly, ()),            # 0.04-0.19 s
}

# One block of curves ops, repeated in this fixed order.  "new" ops draw a
# fresh polynomial of the named shape; "repeat" ops reuse an earlier one
# of that shape, so that 5 of every 17 Laplacian ops hit the branch
# cache; "algebraize" ops fit a curve through a point family instead.
# As in the classify block, cost classes hold the quantiles: 6 cheap ops,
# 7 ops on y^3 = x^4 + c around the median, 3 ops that spread widely,
# and 4 ops on y^3 = x^5 + c around p90.
CURVES_BLOCK = (
    ("new", "y2x3"), ("new", "y3x4"), ("new", "y3x4+c"), ("algebraize", None),
    ("new", "y3x5+c"), ("repeat", "y3x4+c"), ("new", "product"),
    ("new", "y3x4"), ("new", "y3x4+c"), ("algebraize", None),
    ("repeat", "y3x5+c"), ("new", "y2x3+1"), ("repeat", "y3x4+c"),
    ("new", "y3x4+c"), ("new", "y3x5+c"), ("algebraize", None),
    ("repeat", "y3x4+c"), ("new", "y3x4+c"), ("repeat", "y3x5+c"),
    ("new", "graph"))
GREEN_POINTS = 3
ALGEBRAIZE_D = 6


def _family_points(rng):
    """A pure binomial y^a = x^b and integer points (s^a, s^b) on it."""
    a, b = rng.choice(((2, 3), (3, 2), (2, 5), (3, 4)))
    ss = sorted(rng.sample(range(2, 12), rng.randint(4, 7)))
    pts = [[str(s ** a), str(s ** b)] for s in ss]
    return {(0, a): F(1), (b, 0): F(-1)}, pts


class Curves:
    name = "curves"
    block_len = len(CURVES_BLOCK)

    def __init__(self, seed, workdir):
        self.rng = random.Random(f"curves:{seed}")
        self.workdir = workdir
        self.count = 0
        self.seen = {shape: [] for shape in CURVE_SHAPES}

    def warmup(self):
        path = os.path.join(self.workdir, "warmup-curves.json")
        _write_scenario(path, polynomials={"Q": "x*y+x-1"})
        for cmd in ("laplacian", "log-laplacian"):
            _cli_json([cmd, "-f", path, "--json", "Q"], "warm-up " + cmd)

    def _algebraize(self, path):
        rng = self.rng
        Q, pts = _family_points(rng)
        if rng.random() < 0.5:
            # off the curve and beyond every bound, so excluded; a bounded
            # point off the curve adds a level set, and matching the
            # branches of that degree-10 product takes seconds
            pts.append([str(rng.randint(7, 12)), str(rng.randint(7, 12))])
        primes = sorted(rng.sample([2, 3, 5], rng.randint(1, 2)))
        branch = {"polynomial": poly.to_string(Q), "primes": primes}
        if rng.random() < 0.5:
            branch["bound"] = {"inf": str(rng.randint(2, 6))}
        spec = {"branches": [branch], "points": pts,
                "max_degree": ALGEBRAIZE_D}
        _write_scenario(path, algebraize=spec)
        return {"file": path, "spec": spec}

    def next_op(self):
        rng = self.rng
        index = self.count
        self.count += 1
        path = os.path.join(self.workdir, f"curves-{index}.json")
        slot, shape = CURVES_BLOCK[index % len(CURVES_BLOCK)]
        if slot == "algebraize":
            return Op(index, slot, self._algebraize(path),
                      {"repeat": False, "algebraize": True})
        if slot == "repeat":
            text = rng.choice(self.seen[shape])
        else:
            make, args = CURVE_SHAPES[shape]
            text = poly.to_string(make(rng, *args))
            self.seen[shape].append(text)
        vals = []
        for _ in range(GREEN_POINTS):
            cl = random_cluster(rng, max_nodes=6, depth_cap=5)
            vals.append(format_valuation(
                Divisorial(cl, rng.randrange(len(cl)))))
        _write_scenario(path, polynomials={"Q": text})
        return Op(index, "laplacian",
                  {"file": path, "Q": text, "green_at": vals},
                  {"repeat": slot == "repeat", "algebraize": False})

    def run(self, op):
        if op.kind == "algebraize":
            return _call_cli(["algebraize", "-f", op.inputs["file"],
                              "--json"])
        outs = [_call_cli([cmd, "-f", op.inputs["file"], "--json", "Q"])
                for cmd in ("laplacian", "log-laplacian")]
        Q = poly.parse(op.inputs["Q"])
        green = []
        for spec in op.inputs["green_at"]:
            v = parse_valuation(spec)
            green.append((valuations.evaluate(v, Q),
                          puiseux.log_value(Q, v)))
        return outs, green

    def answer(self, op, raw):
        if op.kind == "algebraize":
            code, out, err = raw
            if code != 0:
                raise RuntimeError(
                    f"algebraize exited {code}: {err.strip()}")
            return json.loads(out)
        outs, green = raw
        ans = {}
        for cmd, (code, out, err) in zip(("laplacian", "log-laplacian"),
                                         outs):
            if code != 0:
                raise RuntimeError(f"{cmd} exited {code}: {err.strip()}")
            ans[cmd] = json.loads(out)
        ans["green"] = [[format_ext(e), format_ext(g)] for e, g in green]
        return ans

    def check(self, op, ans):
        bad = []
        if op.kind == "algebraize":
            curve = poly.parse(ans["curve"])
            for r in ans["points"]:
                if r["included"] and poly.eval_at(
                        curve, F(r["point"][0]), F(r["point"][1])) != 0:
                    bad.append(
                        f"included point {r['point']} is off the curve")
            return bad
        Q = poly.parse(op.inputs["Q"])
        d = poly.degree(Q)
        op.props["ramified"] = any(
            a["point"]["m"] > 1 for a in ans["laplacian"]["atoms"])
        for cmd in ("laplacian", "log-laplacian"):
            if F(ans[cmd]["total_mass"]) != d:
                bad.append(f"{cmd} total mass {ans[cmd]['total_mass']} "
                           f"!= deg Q = {d}")
        for atom in ans["log-laplacian"]["atoms"]:
            v = parse_valuation(atom["point"])
            value = valuations.evaluate(v, Q)
            if value != Ext(0):
                bad.append(f"log-laplacian atom at alpha {atom['alpha']} "
                           f"has v(Q) = {value}")
        for e, g in ans["green"]:
            if e == "-inf" or g == "-inf" or F(e) != -F(g):
                bad.append(f"Green identity: v(Q) = {e}, log value {g}")
        return bad


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

# Cluster sizes of one block of geometry ops, in this fixed order.  minv
# solves one dense n x n system per column, about O(n^4): a 20-node
# cluster costs some 5 times a 12-node one.  As in the classify block,
# cost classes hold the quantiles: 10 clusters of 9-10 nodes, 9 of 13
# around the median, 4 of 15, 6 of 18 around p90 and one of 20.  Larger
# clusters are left out because one 40-node cluster costs about 5 s on
# 2 vCPUs at 2.1 GHz, which would leave too few ops in a run for a steady
# p90.
GEOMETRY_BLOCK = (13, 9, 18, 10, 13, 15, 9, 13, 18, 10,
                  13, 9, 20, 13, 10, 18, 15, 13, 9, 13,
                  18, 10, 15, 13, 9, 18, 10, 15, 13, 18)
EVAL_POLYS = ("x", "y-x^2", "y^2-x^3-1", "x*y-1", "x^3+x*y^2-y+2")


class Geometry:
    name = "geometry"
    block_len = len(GEOMETRY_BLOCK)

    def __init__(self, seed, workdir):
        self.rng = random.Random(f"geometry:{seed}")
        self.count = 0
        self.polys = [poly.parse(s) for s in EVAL_POLYS]

    def _cluster(self, n):
        rng = self.rng
        while True:
            cl = random_cluster(rng, max_nodes=n + 6, depth_cap=12,
                                n_roots=rng.choice([1, 1, 2]))
            if len(cl) == n:
                return cl

    def warmup(self):
        cl = random_cluster(random.Random(0), max_nodes=8)
        self.run(Op(-1, "cluster", {"nodes": cl.nodes}, {}))

    def next_op(self):
        cl = self._cluster(GEOMETRY_BLOCK[self.count % len(GEOMETRY_BLOCK)])
        op = Op(self.count, "cluster", {"nodes": cl.nodes},
                {"nodes_ge_20": len(cl) >= 20})
        self.count += 1
        return op

    def run(self, op):
        cl = Cluster(op.inputs["nodes"])
        bad = randomized.check_cluster_consistency(cl)
        values = [[valuations.evaluate(Divisorial(cl, k), P)
                   for P in self.polys] for k in range(len(cl))]
        return bad, values

    def answer(self, op, raw):
        bad, values = raw
        return {"consistency": bad,
                "values": [[format_ext(e) for e in row] for row in values]}

    def check(self, op, ans):
        return list(ans["consistency"])


WORKLOADS = {w.name: w for w in (Classify, Curves, Geometry)}
