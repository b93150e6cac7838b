"""Uniform interface over the points of the valuation tree at infinity.

Variants: the root -deg, monomial valuations v_{s,t}, divisorial
valuations given by a cluster node, and curve valuations given by a
Puiseux branch.  A ``Hull`` puts a finite set into one cluster, whose
branch walks are deepened adaptively, and answers the meets, equality
and comparisons of its elements from it; ``meet`` and ``compare`` read
a pair off a two-element hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import lcm

from . import poly
from .cluster import (BranchWalk, Cluster, PathTrie, PuiseuxBranch,
                      PointAtInfinity, diverging_depths, eval_divisorial,
                      extend_dual_tree, monomial_to_node, tree_lca,
                      weight_chain, LINF)
from .errors import InsufficientTruncation, RootValuation
from .exact import Ext, NEG_INF, POS_INF, _q
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

    __slots__ = ("s", "t", "_realized", "_key")

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
        self._key = None

    def realize(self):
        if self._realized is None:
            self._realized = monomial_to_node(self.s, self.t)
        return self._realized

    def __repr__(self):
        return f"Monomial({self.s},{self.t})"


class Divisorial(Valuation):
    __slots__ = ("cluster", "node", "_key")

    def __init__(self, cluster: Cluster, node: int):
        if not (0 <= node < len(cluster)):
            raise ValueError("node index out of range")
        self.cluster = cluster
        self.node = node
        self._key = None

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
    """Canonical (base, steps) identity of a realizable valuation: read
    off its cluster on the first call, then kept on the valuation."""
    if v._key is None:
        cl, node = v.realize()
        v._key = cl.key(node)
    return v._key


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
        if branch.minpoly is not None \
                and poly.divides(dict(branch.minpoly), P):
            return POS_INF
        raise InsufficientTruncation(
            "restriction vanishes to the certified order")
    return Ext(Fraction(acc.order(), b))


def evaluate(v: Valuation, P: dict) -> Ext:
    # P is normalized once: here, or by the evaluation it is handed to
    if isinstance(v, Divisorial):
        return Ext(eval_divisorial(v.cluster, v.node, P))
    if isinstance(v, Curve):
        return curve_evaluate(v.branch, P)
    P = poly.require_nonzero(P)
    if isinstance(v, Root):
        return Ext(-max(map(sum, P)))
    if isinstance(v, Monomial):
        return Ext(min(v.s * i + v.t * j for (i, j) in P))
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
    # compare over the common certified range of exponents j/m, each
    # written as an integer over the common denominator L
    L = lcm(sa.m, sb.m)
    ca = {j * (L // sa.m): c for j, c in sa.coeffs}
    cb = {j * (L // sb.m): c for j, c in sb.coeffs}
    bound = min(s.K * (L // s.m) for s in (sa, sb) if not s.exact)
    for e in ca.keys() | cb.keys():
        if e <= bound and ca.get(e) != cb.get(e):
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


def _base(v: Valuation) -> PointAtInfinity:
    """The point of L-infinity of a curve or of a realizable valuation."""
    return v.branch.base if isinstance(v, Curve) else path_key(v)[0]


def meet(v: Valuation, w: Valuation) -> Valuation:
    """The meet in the valuation tree, read off a two-element ``Hull``.

    A curve and an element at a different point of L-infinity meet at
    ``ROOT`` before any hull is built, with no walk.
    """
    if isinstance(v, Root) or isinstance(w, Root):
        return ROOT
    if equal(v, w):
        return v
    if (isinstance(v, Curve) or isinstance(w, Curve)) and \
            _base(v) != _base(w):
        return ROOT
    return Hull((v, w)).meet(0, 1)


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
    """Equal curves of a hull: one walk, started when first asked for,
    the depth their end must reach, and the trie node of each depth that
    was added to the trie."""

    def __init__(self, c: Curve):
        self.series = c.branch.series
        self.base = c.branch.base
        self.depth = 1
        self.probed = {}

    @cached_property
    def walk(self) -> BranchWalk:
        return BranchWalk(self.series)


class Hull:
    """One cluster that holds every element of a finite set of valuations.

    The path keys of the monomial and divisorial elements go into one
    ``PathTrie``.  Each class of equal curves is walked on one
    ``BranchWalk`` and deepened in the same trie: past the dual path of
    every element at its point of L-infinity (a stride search with a
    dual-tree check and no geometry per probe), and past its divergence
    from every other curve there (``diverging_depths``).  From those
    depths on the end of a curve meets every element where a search to
    any greater depth would.  A class alone at its point of L-infinity is
    not walked and ends at its base node.  ``ROOT`` ends at LINF.

    Queries read the ends.  Two elements are equal when they share an
    end, and comparable when one end is a dual-tree ancestor of the
    other.  Their meet is the lowest common ancestor of their ends
    (``meet``), and alpha(v_i ^ v_j) its skewness (``matrix``); for ROOT
    and for elements at different points of L-infinity that is LINF, of
    skewness 1.  The pairs are decided in the row-major order of the
    pairwise skewness matrix, so where the ``meet`` of two elements
    raises, building the hull raises the same error type.

    Cost: one trie, whose paths are validated once for a curve-free set;
    one walk per curve class that shares its point of L-infinity, each
    depth it is probed at added to the trie once for all targets.  The
    dual tree is read off the trie's nodes without a strict transform
    (``extend_dual_tree``), so ``equal`` is O(1) and ``comparable`` walks
    up two dual paths.  ``meet`` builds the geometry of the one cluster
    and walks up two dual paths; ``matrix`` is one pass over the dual
    tree, O(1) per entry, with the skewness on the rows of the cluster
    (``Cluster.rows``).
    """

    def __init__(self, valuations):
        vs = self.valuations = tuple(valuations)
        keys = {}
        classes = {}
        of = {}
        for i, v in enumerate(vs):
            if isinstance(v, Curve):
                key = _curve_class(v)
                if key not in classes:
                    classes[key] = _CurveClass(v)
                of[i] = classes[key]
            elif not isinstance(v, Root):
                keys[i] = path_key(v)
        trie = PathTrie()
        ends = [LINF] * len(vs)
        # the first probe or the last add validates the paths
        for i, e in zip(keys, trie.insert(keys.values())):
            ends[i] = e
        self.ends = ends
        if not classes:
            # one add; the dual tree is built when a query needs it
            self.cluster, self._parent = trie.add(())[0], None
            return
        parent = {LINF: None}
        cl = None

        def exit_depth(c, target, length):
            """The first depth of c's end off the dual path of ``target``,
            a node whose path has ``length`` steps.

            From two centers past the target's path on, once the branch
            end leaves the target's dual path it stays off it and gives
            the same meet, so the depth grows in doubling strides.  A walk
            that cannot be certified sends the search back to the deepest
            depth of the +2 grid from the last depth checked that the walk
            certified: its answer is the one a search in +2 strides finds,
            and if its end is still on the path, the next grid depth
            raises where that search raises.
            """
            nonlocal cl
            last, depth, stride, grow = None, length + 2, 2, True
            while True:
                try:
                    if depth not in c.probed:
                        cl, (c.probed[depth],) = trie.add(
                            [(c.base, tuple(c.walk.steps(depth)))])
                        extend_dual_tree(parent, cl)
                except InsufficientTruncation:
                    if last is None or depth == last + 2:
                        raise
                    deepest = min(c.walk.depth, depth - 2)
                    depth = last + 2 * max(1, (deepest - last) // 2)
                    stride, grow = 2, False
                    continue
                end = c.probed[depth]
                if tree_lca(parent, target, end) != end:
                    return depth
                last, depth = depth, depth + stride
                if grow:
                    stride *= 2

        decided = set()
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                a, b = of.get(i), of.get(j)
                if a is b:
                    continue            # two paths, roots, or equal curves
                if a is not None and b is not None:
                    if a.base != b.base or frozenset((a, b)) in decided:
                        continue
                    decided.add(frozenset((a, b)))
                    # raises where ``equal`` raises; curves of distinct
                    # classes are never equal
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

        # the last probes usually give the ends, in the trie's last cluster
        todo = [c for c in classes.values() if c.depth not in c.probed]
        if todo or cl is None:          # a class at depth 1 is not walked
            cl, found = trie.add([(c.base, tuple(
                c.walk.steps(c.depth)) if c.depth > 1 else ()) for c in todo])
            for c, e in zip(todo, found):
                c.probed[c.depth] = e
        for i, c in of.items():
            ends[i] = c.probed[c.depth]
        self.cluster = cl
        self._parent = extend_dual_tree(parent, cl)

    def equal(self, i: int, j: int) -> bool:
        return self.ends[i] == self.ends[j]

    def _dual_tree(self) -> dict:
        if self._parent is None:
            self._parent = extend_dual_tree({LINF: None}, self.cluster)
        return self._parent

    def comparable(self, i: int, j: int) -> bool:
        a, b = self.ends[i], self.ends[j]
        return tree_lca(self._dual_tree(), a, b) in (a, b)

    def meet(self, i: int, j: int) -> Valuation:
        """The meet of elements i and j: ``ROOT`` at LINF, either of
        them whose path ends at the lowest common ancestor of their
        ends, or else the divisorial valuation of that node."""
        lca = self.cluster.geometry().lca(self.ends[i], self.ends[j])
        return _wrap_lca(lca, self.cluster, self.valuations[i],
                         self.valuations[j])

    def matrix(self) -> list:
        """The rows of [alpha(v_i ^ v_j)] as ``Ext``: -inf on the diagonal
        of a curve and between equal curves.

        One pass up the dual tree, children before parents: elements at
        a component, or below two of its children, meet there.  Each
        entry is written once, with the skewness on the component's row;
        the rows are computed only if an entry reads a skewness other
        than LINF's.
        """
        vs = self.valuations
        at = {}
        for i, e in enumerate(self.ends):
            at.setdefault(e, []).append(i)
        rows = [[None] * len(vs) for _ in vs]
        parent = self._dual_tree()
        children = {}
        for u, p in parent.items():
            children.setdefault(p, []).append(u)
        order = [LINF]                  # breadth first from LINF
        for u in order:
            order += children.get(u, ())
        below = {}                      # component -> parts under it
        for u in reversed(order):
            parts = below.pop(u, [])
            own = at.get(u)
            if own:
                parts.append(own)
            if not parts:
                continue
            curve = own is not None and isinstance(vs[own[0]], Curve)
            if len(parts) > 1 or (own and not curve):
                a = Ext(1) if u == LINF else \
                    Ext(self.cluster.rows()[u].alpha)
            seen = []
            for part in parts:
                for i in part:
                    for j in seen:
                        rows[i][j] = rows[j][i] = a
                seen += part
            if own:
                d = NEG_INF if curve else a
                for x, i in enumerate(own):
                    for j in own[x:]:
                        rows[i][j] = rows[j][i] = d
            if u != LINF:
                below.setdefault(parent[u], []).append(seen)
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
    return Ext(cl.rows()[node].alpha)


def thinness(v: Valuation) -> Ext:
    if isinstance(v, Root):
        return Ext(-2)
    if isinstance(v, Curve):
        return POS_INF
    cl, node = v.realize()
    return Ext(cl.rows()[node].thin)


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
