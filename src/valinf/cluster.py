"""Infinitely near points above the line at infinity.

A ``Cluster`` is a rooted forest of blowup centers.  Each root node is a
point of L-infinity in one of two affine charts; each further node is a
point on the exceptional divisor of its parent, tagged free or satellite.
Each node's ``Row`` holds what its own center path fixes: b_E, ord_E(x),
ord_E(y), ord_E(dx^dy), skewness and thinness (``Cluster.rows``).
``build_geometry`` adds what depends on the whole cluster: the boundary
intersection matrix and the dual tree.

Chart conventions.  At every node we use local coordinates (u, v) in
which the point is the origin.  Blowing up gives chart 1 with
(u, v) = (u1, u1*v1) and chart 2 with (u, v) = (u2*v2, v2).  The new
exceptional divisor is the u-axis of chart 1 and the v-axis of chart 2.
Free children are parametrized by the v1-coordinate in chart 1; the
chart-2 origin is reachable only as a satellite on the previous u-axis.
The base charts are encoded once, in ``base_strict_series``, and every
chart substitution relabels exponents, then runs ``taylor_shift``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from typing import NamedTuple

from . import poly
from .errors import (InsufficientTruncation, InvalidCluster,
                     InternalMismatch, PreconditionViolated, RootValuation)
from .exact import _q, integer_numerators, invert_matrix
from .series import LaurentSeries, PuiseuxSeries

LINF = "linf"


@dataclass(frozen=True, slots=True)
class PointAtInfinity:
    """A point of L-infinity.

    chart "x": u = 1/x, v = y/x + c (the point [1 : -c : 0]).
    chart "y": u = 1/y, v = x/y (the point [0 : 1 : 0]); no c allowed.
    """

    chart: str
    c: Fraction = Fraction(0)

    def __post_init__(self):
        if self.chart not in ("x", "y"):
            raise InvalidCluster(f"unknown chart {self.chart!r}")
        object.__setattr__(self, "c", _q(self.c))
        if self.chart == "y" and self.c != 0:
            raise InvalidCluster("the y-chart point admits no parameter")

    def __hash__(self):
        return hash((self.chart, *self.c.as_integer_ratio()))


@dataclass(frozen=True, slots=True)
class Free:
    """A free center: the point v1 = c on the new exceptional divisor.

    Equality is by value, and the hash is that of c's numerator and
    denominator: centers are hashed on every trie lookup and with every
    path key, and a ``Fraction``'s own hash takes a modular inverse on
    each call.  Nothing is stored for it, since a stored hash would be
    one more int object per center that a cluster holds."""

    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", _q(self.c))

    def __hash__(self):
        return hash(self.c.as_integer_ratio())


@dataclass(frozen=True, slots=True)
class SatU:
    """Satellite on the strict transform of the previous u-axis."""


@dataclass(frozen=True, slots=True)
class SatV:
    """Satellite on the strict transform of the previous v-axis."""


@dataclass(frozen=True, slots=True)
class Node:
    parent: int                      # -1 for roots
    base: PointAtInfinity | None     # set iff root
    step: Free | SatU | SatV | None  # None iff root


@dataclass(frozen=True, slots=True)
class PuiseuxBranch:
    """A branch at infinity: y_q = sum a_j x_q^(j/m) at a base point.

    ``minpoly`` optionally records an irreducible polynomial in (x, y)
    vanishing on the branch, as a tuple of ((i, j), coefficient) pairs;
    it lets evaluation certify +infinity for truncated algebraic branches.
    """

    base: PointAtInfinity
    series: PuiseuxSeries
    minpoly: tuple | None = None

    @property
    def multiplicity(self) -> int:
        # local intersection number with L-infinity
        return self.series.m


def _extend_axes(nodes, axes, roots=None, children=None):
    """Append to ``axes`` the boundary axes (u, v) of nodes[len(axes):],
    raising InvalidCluster at the first malformed node.  Repeated base
    points and centers are looked up in ``roots`` and ``children`` when
    given; a ``PathTrie``'s index rules them out."""
    for i in range(len(axes), len(nodes)):
        nd = nodes[i]
        if nd.parent == -1:
            if nd.base is None or nd.step is not None:
                raise InvalidCluster(f"malformed root node {i}")
            if roots is not None:
                if nd.base in roots:
                    raise InvalidCluster(f"duplicate base point at node {i}")
                roots.add(nd.base)
            axes.append((LINF, None))
            continue
        if not (0 <= nd.parent < i):
            raise InvalidCluster(f"parent of node {i} must precede it")
        if nd.base is not None or nd.step is None:
            raise InvalidCluster(f"malformed child node {i}")
        if children is not None:
            key = (nd.parent, nd.step)
            if key in children:
                raise InvalidCluster(f"node {i} repeats an existing center")
            children[key] = i
        pu, pv = axes[nd.parent]
        st = nd.step
        if isinstance(st, Free):
            if st.c == 0 and pv is not None:
                raise InvalidCluster(
                    f"node {i}: center lies on a boundary; use a satellite")
            axes.append((nd.parent, None))
        elif isinstance(st, SatV):
            if pv is None:
                raise InvalidCluster(
                    f"node {i}: no v-axis boundary at the parent")
            axes.append((nd.parent, pv))
        elif isinstance(st, SatU):
            axes.append((pu, nd.parent))
        else:
            raise InvalidCluster(f"unknown step {st!r}")


class Row(NamedTuple):
    """What the center path of a boundary component E fixes: ord_E(x),
    ord_E(y), ord_E(dx^dy), b_E = -min(ord_E x, ord_E y), the skewness
    alpha_E and the thinness A_E = (1 + ord_E(dx^dy)) / b_E."""

    ord_x: int
    ord_y: int
    ord_w: int
    b: int
    alpha: Fraction
    thin: Fraction


LINF_ROW = Row(-1, -1, -3, 1, Fraction(1), Fraction(-2))


class Cluster:
    """An immutable forest of infinitely near points.

    It caches its geometry and, for the last ``STRICT_MEMO_POLYS``
    polynomials evaluated on it, the strict transform and ord at every
    node reached so far (see ``ord_along_path``).  A cluster made by a
    ``PathTrie`` shares its rows, and the strict transforms of x and y
    that they are computed from, with the trie's other clusters; once
    its rows cover its nodes it drops the transforms.
    """

    STRICT_MEMO_POLYS = 8

    def __init__(self, nodes, _axes=None):
        self.nodes = tuple(nodes)
        self._geometry = None
        self._rows = {LINF: LINF_ROW}
        self._xy = []
        self._strict = {}
        if _axes is None:
            _axes = []
            _extend_axes(self.nodes, _axes, set(), {})
        self.axes = tuple(_axes)

    def __len__(self):
        return len(self.nodes)

    def path(self, i: int):
        """Ancestor chain root..i within the forest."""
        out = []
        while i != -1:
            out.append(i)
            i = self.nodes[i].parent
        return out[::-1]

    def key(self, i: int):
        """Canonical identity of the point blown up at node i."""
        p = self.path(i)
        return (self.nodes[p[0]].base, tuple(self.nodes[j].step for j in p[1:]))

    def rows(self) -> dict:
        """The ``Row`` of LINF and of each node.  The first call puts in
        the rows that the ones shared with the cluster's ``PathTrie``
        lack (see ``_extend_rows``), and then drops the transforms."""
        if self._xy is not None:
            if len(self._rows) <= len(self.nodes):
                _extend_rows(self._rows, self._xy, self)
            self._xy = None
        return self._rows

    def geometry(self) -> "GeometryTable":
        if self._geometry is None:
            self._geometry = build_geometry(self)
        return self._geometry


class PathTrie:
    """A union of center paths that grows, one cluster per ``add``.

    It owns the node list and its index keyed by (parent index, step),
    with the roots keyed by (-1, base).  Each ``add(paths)`` puts in the
    nodes not yet there, numbered in order of first appearance, and
    returns ``(Cluster, ends)``: the new cluster's nodes extend those of
    the previous one with the same indices.

    The row of a node and the strict transforms of x and y at its center
    depend only on its own center path, so they are computed once per
    trie and shared by all its clusters.  A caller that deepens its paths
    round by round transforms each node once, and each round's geometry
    only redoes the intersection matrix and the dual tree.

    Cost: ``add`` is one dict lookup per step of the given paths, plus a
    check of the nodes put in since the last ``add`` (the trie keeps the
    axes of the nodes it has checked) and a copy of the node list; the
    cluster's rows then cost the transforms of the nodes that no earlier
    cluster of the trie reached, and its geometry O(n) more for n nodes.
    A one-shot trie (``merge_paths``, ``chain_cluster``) costs what a
    single merge and build cost, and its cluster keeps no transform once
    its rows are computed.
    """

    __slots__ = ("nodes", "_index", "_rows", "_xy", "_axes")

    def __init__(self):
        self.nodes = []
        self._index = {}
        self._rows = {LINF: LINF_ROW}
        self._xy = []
        self._axes = []

    def add(self, paths):
        """Merge ``paths``, each (base, steps); returns (Cluster, node
        index per path end).  An add raises InvalidCluster where
        ``Cluster`` of the whole node list would; the trie then holds the
        invalid nodes, so it is not to be used again."""
        ends = self.insert(paths)
        _extend_axes(self.nodes, self._axes)
        cl = Cluster(self.nodes, self._axes)
        cl._rows, cl._xy = self._rows, self._xy
        return cl, ends

    def insert(self, paths) -> list:
        """``add`` without the cluster: the node index per path end.  The
        next ``add`` validates the nodes put in."""
        nodes, index = self.nodes, self._index
        ends = []
        for base, steps in paths:
            i = index.get((-1, base))
            if i is None:
                i = index[(-1, base)] = len(nodes)
                nodes.append(Node(parent=-1, base=base, step=None))
            for st in steps:
                child = index.get((i, st))
                if child is None:
                    child = index[(i, st)] = len(nodes)
                    nodes.append(Node(parent=i, base=None, step=st))
                i = child
            ends.append(i)
        return ends


def chain_cluster(base: PointAtInfinity, steps) -> Cluster:
    """The chain of centers ``steps`` above ``base``: node k + 1 is the
    center after step k."""
    return PathTrie().add([(base, steps)])[0]


def merge_paths(paths):
    """Union of center paths; returns (Cluster, node index per path end).

    Each path is (base, steps).  Paths sharing a prefix share nodes.  A
    one-shot ``PathTrie``: the cost is linear in the total path length,
    and nodes are numbered in order of first appearance.  Callers that
    deepen their paths hold a ``PathTrie`` instead.
    """
    return PathTrie().add(paths)


# ---------------------------------------------------------------------------
# strict transform propagation
# ---------------------------------------------------------------------------


def taylor_shift(F: dict, c, order=None) -> dict:
    """F(u, v + c) for F = {(i, j): coefficient} and a rational c, less
    zero sums and terms of total degree >= ``order`` (when given).

    In integers over the denominator D q^J, for F's least common
    denominator D, c = p/q and degrees j <= J in v: q^J (v + c)^j is the
    sum over t of C(j, t) p^(j-t) q^(J-j+t) v^t.
    """
    if not c:
        return {k: a for k, a in F.items()
                if a and (order is None or k[0] + k[1] < order)}
    p, q = c.numerator, c.denominator
    nums, D = integer_numerators(F.values())
    J = max((j for _, j in F), default=0)
    out = {}
    rows = {}               # j -> q^J times the coefficients of (v + c)^j
    for (i, j), n in zip(F, nums):
        row = rows.get(j)
        if row is None:
            row = rows[j] = [comb(j, t) * p ** (j - t) * q ** (J - j + t)
                             for t in range(j + 1)]
        top = j + 1 if order is None else min(j + 1, order - i)
        for t in range(top):
            key = (i, t)
            out[key] = out.get(key, 0) + n * row[t]
    den = D * q ** J
    return {k: Fraction(n, den) for k, n in out.items() if n}


def base_strict_series(base: PointAtInfinity, P: dict, deg: int) -> dict:
    """Local equation u^deg * P at the base point, as an exact polynomial.

    P is {(i, j): coefficient} for x^i y^j; deg its total degree.  In
    chart x, x = 1/u and y = (v - c)/u, so u^deg x^i y^j is
    u^(deg-i-j) (v - c)^j; in chart y, x = v/u and y = 1/u give
    u^(deg-i-j) v^i.
    """
    if base.chart == "x":
        return taylor_shift({(deg - i - j, j): a for (i, j), a in P.items()},
                            -base.c)
    return taylor_shift({(deg - i - j, i): a for (i, j), a in P.items()}, 0)


def blowup_substitute(F: dict, step, order=None) -> dict:
    """Total transform of {(i, j): c} into the chart of a child center.

    Free(c) sends u^i v^j to u^(i+j) (v+c)^j, SatV to u^(i+j) v^j and
    SatU to u^i v^(i+j).  Zero sums and terms of total degree >= ``order``
    (when given) are dropped; total degree never decreases.
    """
    if isinstance(step, SatU):
        return taylor_shift({(i, i + j): a for (i, j), a in F.items()}, 0,
                            order)
    if not isinstance(step, (Free, SatV)):
        raise InvalidCluster(f"unknown step {step!r}")
    return taylor_shift({(i + j, j): a for (i, j), a in F.items()},
                        step.c if isinstance(step, Free) else 0, order)


def mult(F: dict) -> int:
    """Multiplicity of F at the origin: the least total degree of a term."""
    if not F:
        raise ValueError("multiplicity of the zero polynomial")
    return min(i + j for i, j in F)


def step_transform(F: dict, step, m: int) -> dict:
    """Strict transform of F into the coordinates of a child node: the
    total transform divided by u^m, or by v^m after SatU."""
    out = {}
    if isinstance(step, SatU):
        for (i, j), c in blowup_substitute(F, step).items():
            if j < m:
                raise ValueError("not divisible by v^m")
            out[(i, j - m)] = c
    else:
        for (i, j), c in blowup_substitute(F, step).items():
            if i < m:
                raise ValueError("not divisible by u^m")
            out[(i - m, j)] = c
    return out


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


def root_path(parent, c) -> list:
    """The path from the root down to ``c`` in the tree of ``parent``,
    a map from each vertex to its parent and from the root to None."""
    out = []
    while c is not None:
        out.append(c)
        c = parent[c]
    out.reverse()
    return out


def tree_lca(parent, a, b):
    """The lowest common ancestor of ``a`` and ``b`` in the tree of
    ``parent``: the first vertex above ``b`` on the root path of ``a``."""
    above = set()
    while a is not None:
        above.add(a)
        a = parent[a]
    while b not in above:
        b = parent[b]
    return b


class GeometryTable:
    """Boundary intersection data for a cluster.

    Components are named by LINF and node indices.  The dual graph of the
    boundary is a tree rooted at LINF, given by its ``parent`` map.  The
    ``rows`` are the cluster's (``Cluster.rows``).  The table keeps no
    reference to its cluster, which caches it: without a cycle, both are
    freed as soon as the last reference goes, not at the next full
    garbage collection.
    """

    def __init__(self, comps, inter, rows, parent):
        self.comps = comps
        self.inter = inter
        self.rows = rows
        self.parent = parent
        self._minv = None

    def _index(self, comp):
        # comps is [LINF, 0, ..., n - 1] (see build_geometry)
        return 0 if comp == LINF else comp + 1

    def minv(self):
        """Inverse of the intersection matrix, computed once."""
        if self._minv is None:
            self._minv = invert_matrix(
                [[self.inter.get((a, b2), 0) for b2 in self.comps]
                 for a in self.comps])
            if self._minv is None:
                raise InternalMismatch("singular intersection matrix")
        return self._minv

    def check_dual(self, i, j) -> Fraction:
        """(E_i-dual . E_j-dual), the (i,j) entry of the inverse matrix."""
        m = self.minv()
        return m[self._index(i)][self._index(j)]

    def lca(self, a, b):
        """Lowest common ancestor in the dual tree (root LINF)."""
        return tree_lca(self.parent, a, b)

    def dual_path(self, comp):
        """Path LINF..comp in the dual tree."""
        return root_path(self.parent, comp)


@lru_cache(maxsize=64)
def _root_xy(base: PointAtInfinity) -> tuple:
    """u x and u y at a base point (``base_strict_series``), kept since
    each new ``PathTrie`` starts from them; no caller changes them."""
    return tuple(base_strict_series(base, {e: Fraction(1)}, 1)
                 for e in ((1, 0), (0, 1)))


def _extend_rows(rows: dict, xy: list, cl: Cluster):
    """Put in ``rows`` the ``Row`` of each node of ``cl`` past it, and in
    ``xy`` the strict transforms of x and y at its center.

    A row depends only on the node's own center path (its parent and
    axes are on that path), so clusters whose node lists extend one
    another share one ``rows`` and one ``xy``.  ord_x and ord_y add the
    multiplicity of the strict transform to the ords of the axes, and
    ord_w adds 1 to theirs.  The skewness is alpha_u - 1/(b_u b) for the
    u-axis u, the node's dual-tree parent when it is added (see
    ``extend_dual_tree``); no later node changes it (Favre-Jonsson, *The
    Valuative Tree*, LNM 1853).
    """
    for i in range(len(rows) - 1, len(cl)):
        nd = cl.nodes[i]
        if nd.parent == -1:
            fx, fy = _root_xy(nd.base)
        else:
            pfx, pfy = xy[nd.parent]
            fx = step_transform(pfx, nd.step, mult(pfx))
            fy = step_transform(pfy, nd.step, mult(pfy))
        ua, va = cl.axes[i]
        u = rows[ua]
        ox, oy, ow = u.ord_x, u.ord_y, u.ord_w + 1
        if va is not None:
            v = rows[va]
            ox, oy, ow = ox + v.ord_x, oy + v.ord_y, ow + v.ord_w
        ox += mult(fx)
        oy += mult(fy)
        b = -min(ox, oy)
        if b <= 0:
            raise InternalMismatch(f"non-positive b at node {i}")
        xy.append((fx, fy))
        rows[i] = Row(ox, oy, ow, b, u.alpha - Fraction(1, u.b * b),
                      Fraction(1 + ow, b))


def extend_dual_tree(parent: dict, cl: Cluster) -> dict:
    """The dual tree of the boundary of ``cl``, rooted at LINF, as a map
    from each component to its parent (LINF to None).

    ``parent`` is that map for the first nodes of ``cl``, say of an
    earlier cluster of the same ``PathTrie``; it is extended in place to
    all nodes and returned.  Blowing up a center adds its divisor E as a
    leaf under the one boundary component through a free point, its
    u-axis, and on the edge between the two through a satellite point,
    which runs from its u-axis down to its v-axis.  That order holds by
    induction: the blowup makes an edge from E's u-axis down to E and,
    at a satellite point, one from E down to its v-axis; the point where
    the ends of the first meet is E's SatU child, of axes (u-axis, E),
    that of the second is E's SatV child, of axes (E, v-axis), and two
    components meet at one point at most.  So each node takes O(1) and
    needs no strict transform.  The ancestors of a node stay its
    ancestors as nodes are added.
    """
    for i in range(len(parent) - 1, len(cl)):
        ua, va = cl.axes[i]
        parent[i] = ua
        if va is not None:
            parent[va] = i
    return parent


def build_geometry(cl: Cluster) -> GeometryTable:
    """The boundary geometry of a cluster.

    Cost: the cluster's rows (``Cluster.rows``), then a pass linear in
    the n nodes for the intersection matrix and the dual tree.  The
    identity alpha = (dual . dual) / b^2 is not re-verified here: it
    needs the O(n^3) inverse of the intersection matrix, and
    ``randomized.check_cluster_consistency`` checks it.
    """
    n = len(cl)
    rows = cl.rows()
    comps = [LINF] + list(range(n))
    inter = {(LINF, LINF): 1}
    for i in range(n):
        ua, va = cl.axes[i]
        through = [ua] + ([va] if va is not None else [])
        inter[(i, i)] = -1
        for bcomp in through:
            inter[(bcomp, bcomp)] -= 1
            inter[(bcomp, i)] = inter[(i, bcomp)] = 1
        if len(through) == 2:
            a, b2 = through
            inter[(a, b2)] = inter[(b2, a)] = 0
    return GeometryTable(comps, inter, rows,
                         extend_dual_tree({LINF: None}, cl))


# ---------------------------------------------------------------------------
# evaluation of divisorial valuations
# ---------------------------------------------------------------------------


def _strict_memo(cl: Cluster, P: dict):
    """(P normalized, {LINF or node: (strict transform, its mult, ord)}).

    The memo lives on the cluster, holds at most
    ``Cluster.STRICT_MEMO_POLYS`` polynomials and evicts the oldest.
    """
    P = poly.require_nonzero(P)
    key = frozenset((k, c.numerator, c.denominator) for k, c in P.items())
    memo = cl._strict.get(key)
    if memo is None:
        if len(cl._strict) >= Cluster.STRICT_MEMO_POLYS:
            del cl._strict[next(iter(cl._strict))]
        memo = cl._strict[key] = {LINF: (None, None, -max(map(sum, P)))}
    return P, memo


def ord_along_path(cl: Cluster, node: int, P: dict) -> dict:
    """ord_E(P) for every divisor E on the center path of ``node``.

    Independent of the rows' x/y bookkeeping: propagates the strict
    transform of P itself through the charts.  The transforms are kept on
    the cluster, so a query continues from the deepest node already
    reached, and P costs one transform per node of the cluster however
    many nodes it is evaluated at.
    """
    P, memo = _strict_memo(cl, P)
    path = cl.path(node)
    k = len(path)
    while k and path[k - 1] not in memo:
        k -= 1
    for i in path[k:]:
        nd = cl.nodes[i]
        if nd.parent == -1:
            F = base_strict_series(nd.base, P, -memo[LINF][2])
        else:
            F, m, _ = memo[nd.parent]
            F = step_transform(F, nd.step, m)
        m = mult(F)
        ua, va = cl.axes[i]
        # axes of a path node are themselves on the path (or LINF)
        memo[i] = (F, m, memo[ua][2] + m
                   + (memo[va][2] if va is not None else 0))
    return {c: memo[c][2] for c in [LINF] + path}


def eval_divisorial(cl: Cluster, node: int, P: dict) -> Fraction:
    """v_E(P) = ord_E(P)/b_E for the divisor of ``node``.

    Chart propagation of polynomials is exact, so no adaptive precision is
    needed; the answer is an exact rational.
    """
    ords = ord_along_path(cl, node, P)
    return Fraction(ords[node], cl.rows()[node].b)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


# longest weight chain built: (1, 10^400) would fill memory for ever
MAX_CHAIN_STEPS = 1024
# largest ramification index m of a curve read from a scenario, and
# largest truncation K of one that is not exact.  On 2 vCPUs a meet with
# the one-step divisorial Free(1) at base y takes about 1 s for the exact
# curve x_q^(1/m) at the cap on m.  A walk reads only the terms its
# centers need, so the same meet of the truncated curve
# x_q^(1/3) + 5 x_q^(2/3) takes about 1 ms at any K.  The cap on K bounds
# what still costs K: a walk that runs out of terms rises to all K of them
# before it raises (that meet with m = 300 at the cap takes about 10 s),
# and a curve's evaluation multiplies series to K terms (1.6 s for a
# polynomial of degree 6 on a curve with all 1,600 terms)
MAX_CURVE_M = 10_000
MAX_CURVE_K = 1_600


def weight_chain_steps(a: int, b: int, v_present: bool = False):
    """Center steps of the toric chain for coprime positive weights (a, b).

    (a, b) are the orders of the target divisor on the local coordinates
    (u, v) of the base point; ``v_present`` says that the v-axis there is
    already a boundary curve, as at a satellite point.  A chain longer
    than ``MAX_CHAIN_STEPS`` raises InvalidCluster.
    """
    weights = (a, b)
    steps = []
    while a != b:
        if len(steps) == MAX_CHAIN_STEPS:
            raise InvalidCluster(f"local weights {weights} need more than "
                                 f"{MAX_CHAIN_STEPS} blowups")
        if a > b:
            steps.append(SatU())
            a -= b
            v_present = True
        else:
            steps.append(SatV() if v_present else Free(Fraction(0)))
            b -= a
    return steps


def weight_chain(base: PointAtInfinity, a: int, b: int) -> Cluster:
    """Chain cluster ending at the divisor with positive local weights
    (a, b) at ``base``, after dividing out their gcd."""
    g = gcd(a, b)
    return chain_cluster(base, weight_chain_steps(a // g, b // g))


def segment_point_key(cl: Cluster, hi, lo, alpha):
    """Path key of the divisorial of skewness ``alpha`` on the dual edge
    from ``hi`` down to its child ``lo`` in the dual tree of ``cl``, for
    alpha[hi] > alpha > alpha[lo].

    Adjacent divisors meet at one satellite point, whose u-axis is hi and
    v-axis lo (see ``extend_dual_tree``): lo's SatU child when hi is lo's
    u-axis, and else hi's SatV child.  The divisorials on the edge are
    the monomial valuations at that point (Favre-Jonsson, *The Valuative
    Tree*, LNM 1853): with coprime local weights w_hi, w_lo on the
    equations of E_hi and E_lo, b = w_hi b_hi + w_lo b_lo,
    alpha_hi - alpha = w_lo / (b_hi b) and alpha - alpha_lo = w_hi / (b_lo b).
    So w_lo / w_hi = b_hi (alpha_hi - alpha) / (b_lo (alpha - alpha_lo)),
    and the centers past the satellite point are the weight chain of
    those weights with its v-axis already a boundary, capped by
    ``MAX_CHAIN_STEPS``.
    """
    alpha = _q(alpha)
    r = cl.rows()
    if lo == LINF or extend_dual_tree({LINF: None}, cl)[lo] != hi or \
            not r[hi].alpha > alpha > r[lo].alpha:
        raise PreconditionViolated("skewness must lie strictly inside a "
                                   "dual edge")
    ratio = (r[hi].b * (r[hi].alpha - alpha)) / \
        (r[lo].b * (alpha - r[lo].alpha))
    node, sat = (lo, SatU()) if cl.axes[lo][0] == hi else (hi, SatV())
    base, steps = cl.key(node)
    return base, steps + (sat,) + tuple(weight_chain_steps(
        ratio.denominator, ratio.numerator, True))


def monomial_to_node(s, t):
    """Cluster realization of the monomial valuation v_{s,t}.

    Requires min(s, t) = -1.  Returns (cluster, node index).
    """
    s, t = _q(s), _q(t)
    if min(s, t) != -1:
        raise InvalidCluster("monomial weights must satisfy min(s,t) = -1")
    if s == -1 and t == -1:
        raise RootValuation("v_{-1,-1} is -deg")
    if s == -1:
        base = PointAtInfinity("x", Fraction(0))
        w = t + 1
    else:
        base = PointAtInfinity("y")
        w = s + 1
    # local weights (1, w), scaled to integers
    cl = weight_chain(base, w.denominator, w.numerator)
    return cl, len(cl) - 1


def _apply_step(state, step, work):
    """The walk state after the center ``step``, which ``state`` decides.

    A SatU step divides U by V and leaves V unchanged; a free or SatV
    step divides V by U and leaves U unchanged.  So each coordinate is
    inverted once per change of it, not once per center, and a run of
    SatU centers inverts V once.  Once V is exactly zero the branch is
    the curve v = 0: every further center is Free(0), and the state
    stays as it is.
    """
    U, V, v_present, Ui, Vi = state
    if V.prec is None and V.is_zero_known():
        return state
    if isinstance(step, SatU):
        if Vi is None:
            Vi = V.inverse(work)
        return (U * Vi, V, True, None, Vi)
    if Ui is None:
        Ui = U.inverse(work)
    if isinstance(step, Free) and step.c:
        return (U, V * Ui - LaurentSeries.monomial(0, step.c), False, Ui,
                None)
    return (U, V * Ui, v_present, Ui, None)


def _center_step(state, work):
    """One center of a branch: (step, next state).

    The state is (U, V, v_present, U^-1, V^-1), where an inverse is None
    until a step divides by it.  This decides the step from the orders
    and leading terms of U and V, and ``_apply_step`` makes the next
    state.  A center that the state cannot certify raises
    InsufficientTruncation.

    Cost: one series product, plus one inverse on the first step of a
    run that divides by a coordinate that changed.  At working precision
    p each of them spans at most about p terms, whatever the truncation
    or the length of the series.
    """
    U, V, v_present = state[:3]
    if V.is_zero_known():
        if V.prec is not None:
            raise InsufficientTruncation(
                "branch series vanishes to its stored order")
        if v_present:
            raise InvalidCluster("branch coincides with a boundary curve")
        return Free(Fraction(0)), state
    a = U.order()
    b = V.order()
    if a > b:
        step = SatU()
    elif b > a:
        step = SatV() if v_present else Free(Fraction(0))
    else:
        step = Free(V.leading() / U.leading())
    return step, _apply_step(state, step, work)


def _certifies(state) -> bool:
    """Whether ``_center_step`` decides the next center of ``state``
    without raising InsufficientTruncation: V is exactly zero, or U and V
    both have a term below their precision."""
    U, V = state[0], state[1]
    if V.prec is None and V.is_zero_known():
        return True
    return all(s.coeffs and (s.prec is None or min(s.coeffs) < s.prec)
               for s in (U, V))


def _branch_state(series: PuiseuxSeries, work: int):
    """The walk state at the base point: U = t^m, and V the series, a
    truncated one read to its terms below t^work."""
    V = series.tau_series()
    if V.prec is not None and work < V.prec:
        V = LaurentSeries.unchecked(
            {e: c for e, c in V.coeffs.items() if e < work}, work)
    return (LaurentSeries.monomial(series.m), V, False, None, None)


# the first working precision of a walk, for a truncated series and below
# the schedules of an exact one (see BranchWalk).  Chosen by timing: of
# 4, 8 and 16 for a truncated series and 16, 32 and 64 for an exact one,
# these gave the least op time on the curves benchmark at seed 0
TRUNCATED_START = 8
EXACT_START = 32


def _doubling(work: int, cap: int, start: int | None = None) -> tuple:
    """Working precisions tried for an exact series: ``work``, doubled
    after each failure, up to the first one past ``cap``, which is the
    last.  With ``start``, the rungs start, 2 start, ... below ``work``
    come first."""
    works = []
    while start is not None and start < work:
        works.append(start)
        start *= 2
    works.append(work)
    while works[-1] <= cap:
        works.append(2 * works[-1])
    return tuple(works)


def _branch_works(series: PuiseuxSeries, depth: int) -> tuple:
    top = max((j for j, _ in series.coeffs), default=1)
    return _doubling(4 * (series.m * (depth + 2) + top + 8), 1 << 16,
                     EXACT_START)


# the working precisions of diverging_steps; the last also bounds its depth
DIVERGING_WORKS = _doubling(256, 1 << 17, EXACT_START)


class BranchWalk:
    """The sequence of centers of one branch, walked once and resumed.

    It holds the steps certified so far, the working precision ``work``
    and the live state after the steps at that precision, so a deeper
    request continues where the last one stopped.  A certified step is
    the branch's true center at any precision.

    The working precision is what the centers need.  A truncated series
    is read to its terms below t^work, at most its own K + 1; an exact
    one is inverted to ``work`` terms.  The walk starts at the first rung
    of its schedule: ``TRUNCATED_START`` doubled up to K + 1 for a
    truncated series, and for an exact one the caller's schedule (that of
    ``branch_steps`` or ``DIVERGING_WORKS``, whose rungs start at
    ``EXACT_START``).  When the state cannot certify the next center, the
    precision rises to the next rung of the schedule and the recorded
    steps are applied again at it, with ``_apply_step``, the helper that
    ``_center_step`` applies a decided step with: no center is decided
    twice, and ``raises`` counts the rises.  At the top rung an
    uncertifiable center raises InsufficientTruncation, and a certified
    step at any lower precision is certified at the top, so a walk raises
    exactly where a walk from the root at the top rung raises: for a
    truncated series, at its full truncation.  A request whose schedule
    tops out below the current precision walks again from the root, for
    the same reason.

    Cost: a center step is one series product (U / V for a SatU step,
    V / U for a free or SatV step), plus one series inverse on the first
    step of a run after the divisor changed; the state keeps U^-1 and
    V^-1, so a run of SatU centers inverts V once, and a run of free and
    SatV centers inverts U once.  Each spans about ``work`` terms, so a
    truncated walk costs what the centers need, not what K is.  The
    rises double the precision, and the cost of a walk grows at least
    linearly in it, so all re-applications together cost no more than
    one walk at the final precision.
    """

    __slots__ = ("series", "work", "raises", "_steps", "_state", "_works")

    def __init__(self, series: PuiseuxSeries):
        self.series = series
        self.work = None
        self.raises = 0
        self._steps = []
        self._state = None
        self._works = None

    @property
    def depth(self) -> int:
        """The deepest depth certified so far: the steps into centers
        2..depth are recorded."""
        return len(self._steps) + 1

    def steps(self, depth: int, works=None) -> list:
        """Steps of the first ``depth`` centers (depth >= 1), as a new list.

        ``works`` is the schedule of working precisions for an exact
        series; by default that of ``branch_steps`` at this depth.
        """
        n = max(depth - 1, 0)
        if n > len(self._steps):
            self._reach(n, works or _branch_works(self.series, depth))
        return self._steps[:n]

    def step(self, i: int, works):
        """The step into center i + 1, on the schedule ``works``."""
        if i >= len(self._steps):
            self._reach(i + 1, works)
        return self._steps[i]

    def _reach(self, n: int, works):
        """Certify n steps on ``works``, or on a truncated series' own
        rungs.  A walk past the top of ``works`` starts again from the
        root, since it may hold centers that the top cannot certify."""
        if not self.series.exact:
            works = _doubling(self.series.K + 1, self.series.K,
                              TRUNCATED_START)
        self._works = works
        if self.work is None or self.work > works[-1]:
            self._steps = []
            self.work = works[0]
            self._state = _branch_state(self.series, self.work)
        self._walk(n)

    def _walk(self, n: int):
        works = self._works
        while len(self._steps) < n:
            if self.work < works[-1] and not _certifies(self._state):
                self._rise(next(w for w in works if w > self.work))
                continue
            step, self._state = _center_step(self._state, self.work)
            self._steps.append(step)

    def _rise(self, work: int):
        """Apply the recorded steps again at working precision ``work``."""
        self.work = work
        self.raises += 1
        state = _branch_state(self.series, work)
        for step in self._steps:
            state = _apply_step(state, step, work)
        self._state = state


def branch_steps(base: PointAtInfinity, series: PuiseuxSeries, depth: int):
    """Steps of the first ``depth`` centers of a branch (depth >= 1).

    A fresh ``BranchWalk``.  For an exact (terminating) series the
    schedule of working precisions is ``EXACT_START`` doubled below
    4 * (m * (depth + 2) + top + 8), for the top exponent ``top``, then
    that doubled up to the first past 2^16, where an uncertifiable
    center raises InsufficientTruncation; a truncated series is read to
    ``TRUNCATED_START`` terms, doubled up to its K + 1, where it raises.

    Cost: the walk at the least rung of the schedule that certifies
    every center, plus the re-applications of the rises below it, which
    cost less than that walk; not the walk at the top rung or at the
    full truncation.  Callers that deepen one branch hold a
    ``BranchWalk`` instead.
    """
    return BranchWalk(series).steps(depth)


def diverging_steps(s1, s2):
    """Step prefixes of two branches, each a ``PuiseuxSeries``, that pin
    down their separation: the first ``diverging_depths`` centers of
    each, on fresh walks.
    """
    walks = (BranchWalk(s1), BranchWalk(s2))
    return tuple(w.steps(d) for w, d in zip(walks, diverging_depths(walks)))


def diverging_depths(walks) -> tuple:
    """The depths at which two ``BranchWalk``s of distinct branches pin
    down their separation.

    Walks both expansions in lockstep to the first differing center,
    then extends each side through its first free center from there on.
    A satellite center after the divergence still slides the branch
    along a dual edge of the shared cluster; the first free center
    fixes the limb, so the dual position of the path ends at these
    depths is final and no work is spent deeper.

    Each branch is walked on the schedule ``DIVERGING_WORKS``
    (``EXACT_START`` doubled up to 2^18; a truncated branch reads its own
    terms, see ``BranchWalk``).  The last precision W of that schedule
    bounds the search: no divergence within W/4 centers, or a side
    still satellite after W/2, raises InsufficientTruncation.

    Cost: the walks of both branches to the returned depths, each at
    the precision its centers need (see ``BranchWalk``), not at W; the
    centers that the walks already hold are not walked again.
    """
    works = DIVERGING_WORKS
    k = 0
    while True:
        if k == works[-1] // 4:
            raise InsufficientTruncation("branches agree beyond the "
                                         "exploration depth")
        a = walks[0].step(k, works)
        b = walks[1].step(k, works)
        k += 1
        if a != b:
            break
    out = []
    for walk in walks:
        n = k
        while not isinstance(walk.step(n - 1, works), Free):
            walk.step(n, works)
            n += 1
            if n > works[-1] // 2:
                raise InsufficientTruncation(
                    "satellite cascade beyond the exploration depth")
        out.append(n + 1)
    return tuple(out)
