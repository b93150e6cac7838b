"""Uniform interface over the points of the valuation tree at infinity.

Variants: the root -deg, monomial valuations v_{s,t}, divisorial
valuations given by a cluster node, and curve valuations given by a
Puiseux branch.  Comparison and meets are decided structurally inside
merged clusters; branch truncations are deepened adaptively.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import poly
from .cluster import (BranchWalk, Cluster, PathTrie, PuiseuxBranch,
                      PointAtInfinity, diverging_steps, eval_divisorial,
                      merge_paths, monomial_to_node, weight_chain, LINF)
from .errors import InsufficientTruncation, RootValuation
from .exact import Ext, NEG_INF, POS_INF, _q, ext_min
from .series import LaurentSeries, PuiseuxSeries, powers


class Valuation:
    """Base class; concrete variants below."""


@dataclass(frozen=True)
class Root(Valuation):
    def __repr__(self):
        return "Root"


ROOT = Root()


class Monomial(Valuation):
    """v_{s,t}(P) = min si + tj over the support, min(s,t) = -1."""

    __slots__ = ("s", "t", "_realized")

    def __init__(self, s, t):
        s, t = _q(s), _q(t)
        m = min(s, t)
        if m >= 0:
            raise RootValuation("monomial weights must have a negative entry")
        if m != -1:
            s, t = s / -m, t / -m
        if s == -1 and t == -1:
            raise RootValuation("v_{-1,-1} is -deg; use Root")
        self.s = s
        self.t = t
        self._realized = None

    def realize(self):
        if self._realized is None:
            self._realized = monomial_to_node(self.s, self.t)
        return self._realized

    def __repr__(self):
        return f"Monomial({self.s},{self.t})"


class Divisorial(Valuation):
    __slots__ = ("cluster", "node")

    def __init__(self, cluster: Cluster, node: int):
        if not (0 <= node < len(cluster)):
            raise ValueError("node index out of range")
        self.cluster = cluster
        self.node = node

    def realize(self):
        return self.cluster, self.node

    def __repr__(self):
        return f"Divisorial(node {self.node} of {len(self.cluster)})"


class Curve(Valuation):
    __slots__ = ("branch",)

    def __init__(self, branch: PuiseuxBranch):
        self.branch = branch

    def __repr__(self):
        s = self.branch.series
        return f"Curve(base={self.branch.base}, m={s.m}, K={s.K})"


class Comparison(Enum):
    LT = "LT"
    GT = "GT"
    EQ = "EQ"
    INCOMPARABLE = "Incomparable"


def path_key(v: Valuation):
    """Canonical (base, steps) identity of a realizable valuation."""
    cl, node = v.realize()
    return cl.key(node)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def branch_xy_series(branch: PuiseuxBranch):
    """(x, y, b) restricted to the branch as Laurent series in t = x_q^(1/m).

    b is the tau-normalization -min(ord x, ord y); v_s(P) = ord(P|_s)/b.
    """
    s = branch.series
    u_inv = LaurentSeries.monomial(-s.m)      # 1/u, exact
    V = s.tau_series()
    if branch.base.chart == "x":
        # x = 1/u, y = (v - c)/u
        x = u_inv
        y = (V - LaurentSeries.monomial(0, branch.base.c)) * u_inv
    else:
        # x = v/u, y = 1/u
        x = V * u_inv
        y = u_inv
    # a coordinate may restrict to the exact zero series (branch of a line)
    ords = [s.order() for s in (x, y)
            if not (s.prec is None and s.is_zero_known())]
    b = -min(ords)
    if b <= 0:
        raise InsufficientTruncation("branch normalization not certified")
    return x, y, b


def _minpoly_divides(minpoly: tuple, P: dict) -> bool:
    import sympy

    x, y = sympy.symbols("x y")
    f = poly.to_sympy(dict(minpoly))
    g = poly.to_sympy(P)
    _, rem = sympy.div(g, f, x, y, domain="QQ")
    return sympy.expand(rem) == 0


def curve_evaluate(branch: PuiseuxBranch, P: dict) -> Ext:
    P = poly.require_nonzero(P)
    x, y, b = branch_xy_series(branch)
    xpow = powers(x, LaurentSeries.monomial(0, 1))
    ypow = powers(y, LaurentSeries.monomial(0, 1))
    acc = LaurentSeries.zero()
    for (i, j), c in P.items():
        acc = acc + (xpow(i) * ypow(j)).scale(c)
    if acc.is_zero_known():
        if acc.prec is None:
            return POS_INF
        if branch.minpoly is not None and _minpoly_divides(branch.minpoly, P):
            return POS_INF
        raise InsufficientTruncation(
            "restriction vanishes to the certified order")
    return Ext(Fraction(acc.order(), b))


def evaluate(v: Valuation, P: dict) -> Ext:
    P = poly.require_nonzero(P)
    if isinstance(v, Root):
        return Ext(-poly.degree(P))
    if isinstance(v, Monomial):
        return ext_min(Ext(v.s * i + v.t * j) for (i, j) in P)
    if isinstance(v, Divisorial):
        return Ext(eval_divisorial(v.cluster, v.node, P))
    if isinstance(v, Curve):
        return curve_evaluate(v.branch, P)
    raise TypeError(f"not a valuation: {v!r}")


# ---------------------------------------------------------------------------
# equality, meet, comparison
# ---------------------------------------------------------------------------


def _curves_equal(a: Curve, b: Curve) -> bool:
    """Equality of curve valuations; raises when truncation cannot decide."""
    if a.branch.base != b.branch.base:
        return False
    sa = a.branch.series.reduced()
    sb = b.branch.series.reduced()
    if sa.exact and sb.exact:
        return sa.m == sb.m and sa.coeffs == sb.coeffs
    # compare over the common certified range of exponents j/m
    ca = {Fraction(j, sa.m): c for j, c in sa.coeffs}
    cb = {Fraction(j, sb.m): c for j, c in sb.coeffs}
    bound_a = POS_INF if sa.exact else Ext(Fraction(sa.K, sa.m))
    bound_b = POS_INF if sb.exact else Ext(Fraction(sb.K, sb.m))
    bound = min(bound_a, bound_b)
    for e in set(ca) | set(cb):
        if Ext(e) <= bound and ca.get(e) != cb.get(e):
            return False
    raise InsufficientTruncation("branches agree to their stored truncation")


def equal(v: Valuation, w: Valuation) -> bool:
    if v is w:
        return True
    rv = isinstance(v, Root)
    rw = isinstance(w, Root)
    if rv or rw:
        return rv and rw
    cv = isinstance(v, Curve)
    cw = isinstance(w, Curve)
    if cv or cw:
        if cv and cw:
            return _curves_equal(v, w)
        return False
    return path_key(v) == path_key(w)


def _wrap_lca(lca, merged: Cluster, v: Valuation, w: Valuation) -> Valuation:
    if lca == LINF:
        return ROOT
    key = merged.key(lca)
    for cand in (v, w):
        if not isinstance(cand, (Curve, Root)) and path_key(cand) == key:
            return cand
    return Divisorial(merged, lca)


def _meet_realizable(v: Valuation, w: Valuation) -> Valuation:
    merged, ends = merge_paths([path_key(v), path_key(w)])
    lca = merged.geometry().lca(ends[0], ends[1])
    return _wrap_lca(lca, merged, v, w)


def _meet_curve_realizable(c: Curve, v: Valuation) -> Valuation:
    target = path_key(v)
    if c.branch.base != target[0]:
        return ROOT
    walk = BranchWalk(c.branch.series)
    # the probes only deepen c's path, so they grow one trie: each center
    # is transformed once, and the nodes are numbered as in a one-shot
    # merge at the last depth
    trie = PathTrie()

    def meet_at(depth):
        """The meet read off the first ``depth`` centers of c, or None
        while their end is on the dual path of v's divisor."""
        merged, (et, ec) = trie.add(
            [target, (c.branch.base, tuple(walk.steps(depth)))])
        lca = merged.geometry().lca(et, ec)
        return None if lca == ec else _wrap_lca(lca, merged, v, c)

    # from two centers past v's path on, once the branch end leaves v's
    # dual path it stays off it and gives the same meet, so the depth
    # grows in doubling strides.  A walk that cannot be certified sends
    # the search back to the deepest depth of the +2 grid from the last
    # depth checked that the walk certified: its meet is the one a search
    # in +2 strides finds, and if its end is still on the path, the next
    # grid depth raises where that search raises
    last, depth, stride, grow = None, len(target[1]) + 2, 2, True
    while True:
        try:
            out = meet_at(depth)
        except InsufficientTruncation:
            if last is None or depth == last + 2:
                raise
            deepest = min(walk.depth, depth - 2)
            depth = last + 2 * max(1, (deepest - last) // 2)
            stride, grow = 2, False
            continue
        if out is not None:
            return out
        last, depth = depth, depth + stride
        if grow:
            stride *= 2


def _meet_curves(a: Curve, b: Curve) -> Valuation:
    """The meet of two distinct curves."""
    if a.branch.base != b.branch.base:
        return ROOT
    # walk both center paths together to their first divergence; a shared
    # truncation says nothing because its end may sit off the dual path
    # of the deeper curve
    sa, sb = diverging_steps(a.branch.series, b.branch.series)
    merged, (ea, eb) = merge_paths([
        (a.branch.base, tuple(sa)), (b.branch.base, tuple(sb))])
    lca = merged.geometry().lca(ea, eb)
    return _wrap_lca(lca, merged, a, b)


def meet(v: Valuation, w: Valuation) -> Valuation:
    if isinstance(v, Root) or isinstance(w, Root):
        return ROOT
    if equal(v, w):
        return v
    cv = isinstance(v, Curve)
    cw = isinstance(w, Curve)
    if cv and cw:
        return _meet_curves(v, w)
    if cv:
        return _meet_curve_realizable(v, w)
    if cw:
        return _meet_curve_realizable(w, v)
    return _meet_realizable(v, w)


def compare(v: Valuation, w: Valuation) -> Comparison:
    if equal(v, w):
        return Comparison.EQ
    m = meet(v, w)
    if equal(m, v):
        return Comparison.LT
    if equal(m, w):
        return Comparison.GT
    return Comparison.INCOMPARABLE


# ---------------------------------------------------------------------------
# skewness and thinness
# ---------------------------------------------------------------------------


def skewness(v: Valuation) -> Ext:
    if isinstance(v, Root):
        return Ext(1)
    if isinstance(v, Curve):
        return NEG_INF
    cl, node = v.realize()
    return Ext(cl.geometry().alpha[node])


def thinness(v: Valuation) -> Ext:
    if isinstance(v, Root):
        return Ext(-2)
    if isinstance(v, Curve):
        return POS_INF
    cl, node = v.realize()
    return Ext(cl.geometry().thin[node])


def quasimonomial(base: PointAtInfinity, a: int, b: int) -> Divisorial:
    """Divisorial valuation with local weights (a, b) at an arbitrary base.

    Its skewness is 1 - b/a.  Generalizes monomial_to_node to base points
    other than the two coordinate points of L-infinity.
    """
    cl = weight_chain(base, a, b)
    return Divisorial(cl, len(cl) - 1)


def curve_of_series(base: PointAtInfinity, m: int, coeffs, K: int,
                    exact: bool = False, minpoly=None) -> Curve:
    series = PuiseuxSeries.make(m, coeffs, K, exact)
    return Curve(PuiseuxBranch(base=base, series=series, minpoly=minpoly))
