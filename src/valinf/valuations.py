"""Uniform interface over the points of the valuation tree at infinity.

Variants: the root -deg, monomial valuations v_{s,t}, divisorial
valuations given by a cluster node, and curve valuations given by a
Puiseux branch.  Comparison and meets are decided structurally inside
merged clusters; branch truncations are deepened adaptively.  A ``Hull``
puts a whole finite set into one cluster and answers the meets, equality
and comparisons of its elements from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import poly
from .cluster import (BranchWalk, Cluster, PathTrie, PuiseuxBranch,
                      PointAtInfinity, diverging_depths, diverging_steps,
                      eval_divisorial, extend_dual_tree, merge_paths,
                      monomial_to_node, weight_chain, LINF)
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

    return _exit_search(walk, len(target[1]), meet_at)


def _exit_search(walk: BranchWalk, length: int, meet_at):
    """The first answer of ``meet_at(depth)`` that is not None, for a
    curve walked on ``walk`` against a target of ``length`` steps.

    From two centers past the target's path on, once the branch end
    leaves the target's dual path it stays off it and gives the same
    meet, so the depth grows in doubling strides.  A walk that cannot be
    certified sends the search back to the deepest depth of the +2 grid
    from the last depth checked that the walk certified: its meet is the
    one a search in +2 strides finds, and if its end is still on the
    path, the next grid depth raises where that search raises.
    """
    last, depth, stride, grow = None, length + 2, 2, True
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
# one hull per finite set
# ---------------------------------------------------------------------------


def _curve_class(c: Curve):
    """A key that two curves share exactly when ``equal`` finds them
    equal without raising: the same exact branch, or the same object."""
    s = c.branch.series
    if not s.exact:
        return id(c)
    s = s.reduced()
    return c.branch.base, s.m, s.coeffs


class _CurveClass:
    """Equal curves of a hull: one walk, the depth their end must reach,
    and the trie node of each depth the walk was probed at."""

    __slots__ = ("walk", "base", "depth", "probed")

    def __init__(self, c: Curve):
        self.walk = BranchWalk(c.branch.series)
        self.base = c.branch.base
        self.depth = 1
        self.probed = {}


def _above(parent: dict, a, b) -> bool:
    """Whether ``a`` is on the path from LINF to ``b`` in the dual tree
    given by its ``parent`` map."""
    while b is not None:
        if b == a:
            return True
        b = parent[b]
    return False


class Hull:
    """One cluster that holds every element of a finite set of valuations.

    The path keys of the monomial and divisorial elements go into one
    ``PathTrie``.  Each class of equal curves is walked on one
    ``BranchWalk`` and deepened in the same trie: past the dual path of
    every element at its point of L-infinity, by the search of the
    pairwise curve meet (``_exit_search``, here with a dual-tree check
    and no geometry per probe), and past its divergence from every other
    curve there (``diverging_depths``).  From those depths on the end of
    a curve meets every element where the pairwise meet does.  ``ROOT``
    ends at LINF.

    Queries read the ends.  Two elements are equal when they share an
    end, and comparable when one end is a dual-tree ancestor of the
    other.  alpha(v_i ^ v_j) is the skewness at the lowest common
    ancestor of their ends (``matrix``); for ROOT and for elements at
    different points of L-infinity that is LINF, of skewness 1.

    The pairs are decided in the row-major order of the pairwise
    skewness matrix, each pair of a curve class with a class or a path
    once; where a pairwise ``meet`` of two elements raises, building the
    hull raises the same error type.

    Cost: one trie, one walk per curve class (each depth it is probed
    at is added to the trie once, for all targets), and the geometry of
    the one cluster, built by the first ``matrix``; then O(1) per matrix
    entry.  ``equal`` is O(1), and ``comparable`` walks up one dual path
    of the tree that the trie's nodes give without a strict transform
    (``extend_dual_tree``).
    """

    def __init__(self, valuations):
        vs = self.valuations = tuple(valuations)
        trie = PathTrie()
        ends = [LINF] * len(vs)
        keys = {i: path_key(v) for i, v in enumerate(vs)
                if not isinstance(v, (Root, Curve))}
        cl, found = trie.add(keys.values())
        for i, e in zip(keys, found):
            ends[i] = e
        parent = extend_dual_tree({LINF: None}, cl)

        classes = {}
        of = {}
        for i, v in enumerate(vs):
            if isinstance(v, Curve):
                key = _curve_class(v)
                if key not in classes:
                    classes[key] = _CurveClass(v)
                of[i] = classes[key]

        def exit_depth(c, target, length):
            def off(depth):
                """``depth``, or None while the curve's end at that depth
                is on the dual path of ``target``."""
                if depth not in c.probed:
                    cl, (c.probed[depth],) = trie.add(
                        [(c.base, tuple(c.walk.steps(depth)))])
                    extend_dual_tree(parent, cl)
                return None if _above(parent, c.probed[depth], target) \
                    else depth

            return _exit_search(c.walk, length, off)

        decided = set()
        for i in range(len(vs) if of else 0):   # curve-free: nothing to do
            for j in range(i + 1, len(vs)):
                a, b = of.get(i), of.get(j)
                if a is b:
                    continue            # two paths, roots, or equal curves
                if a is not None and b is not None:
                    if a.base != b.base or frozenset((a, b)) in decided:
                        continue
                    decided.add(frozenset((a, b)))
                    # raises where the pairwise ``equal`` raises; curves of
                    # distinct classes are never equal
                    _curves_equal(vs[i], vs[j])
                    da, db = diverging_depths((a.walk, b.walk))
                    a.depth, b.depth = max(a.depth, da), max(b.depth, db)
                    continue
                c, t = (a, j) if b is None else (b, i)
                if t not in keys or keys[t][0] != c.base or \
                        (c, ends[t]) in decided:
                    continue
                decided.add((c, ends[t]))
                c.depth = max(c.depth,
                              exit_depth(c, ends[t], len(keys[t][1])))

        cls = list(classes.values())
        cl, found = trie.add([(c.base, tuple(c.walk.steps(c.depth)))
                              for c in cls])
        end_of = dict(zip(cls, found))
        for i, c in of.items():
            ends[i] = end_of[c]
        self.cluster = cl
        self.ends = ends
        self._parent = extend_dual_tree(parent, cl)

    def equal(self, i: int, j: int) -> bool:
        return self.ends[i] == self.ends[j]

    def comparable(self, i: int, j: int) -> bool:
        a, b = self.ends[i], self.ends[j]
        return _above(self._parent, a, b) or _above(self._parent, b, a)

    def matrix(self) -> list:
        """The rows of [alpha(v_i ^ v_j)] as ``Ext``: -inf on the diagonal
        of a curve and between equal curves.

        One pass up the dual tree, deepest component first: elements at
        a component, or below two of its children, meet there.  Each
        entry is written once.
        """
        vs = self.valuations
        at = {}
        for i, e in enumerate(self.ends):
            at.setdefault(e, []).append(i)
        rows = [[None] * len(vs) for _ in vs]
        if not rows:
            return rows
        g = self.cluster.geometry()
        below = {}                      # component -> parts under it
        for u in sorted(g.depth, key=g.depth.__getitem__, reverse=True):
            parts = below.pop(u, [])
            own = at.get(u)
            if own:
                parts.append(own)
            if not parts:
                continue
            a = Ext(g.alpha[u])
            seen = []
            for part in parts:
                for i in part:
                    for j in seen:
                        rows[i][j] = rows[j][i] = a
                seen += part
            if own:
                d = NEG_INF if isinstance(vs[own[0]], Curve) else a
                for x, i in enumerate(own):
                    for j in own[x:]:
                        rows[i][j] = rows[j][i] = d
            if u != LINF:
                below.setdefault(g.parent[u], []).append(seen)
        return rows


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
