"""Potential theory on finite subtrees of the valuation tree.

Points of the tree are either constructed valuations or interior points
of a segment [root, v], given by the anchor v and a skewness value.
Every comparison of points in a call reads one ``Hull`` of their anchors
(``_Points``): whether two are equal, whether one lies on the other's
segment, their meet and its skewness.  Functions are represented by
finitely supported signed measures; their values are sums of Green
kernels alpha(v ^ w).  The Dirichlet pairing is computed both from the
measure (double sum) and by integration by parts along edges, and the
two must agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cluster import root_path, tree_lca
from .errors import (IndeterminateForm, InternalMismatch, PreconditionViolated,
                     SkewnessTooHigh)
from .exact import Ext, NEG_INF, _q, ext_sum
from .valuations import ROOT, Hull, Root, Valuation, skewness
from .valuations import _base as base_point


# ---------------------------------------------------------------------------
# tree points
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EdgePoint:
    """Interior point of the segment [root, below] with the given skewness.

    Never needs a cluster realization: only its position and skewness
    enter the formulas.
    """

    below: Valuation
    alpha: Fraction


def point_on_segment(v: Valuation, alpha) -> "TreePoint":
    alpha = _q(alpha)
    if alpha == 1:
        return ROOT
    a_v = skewness(v)
    if Ext(alpha) == a_v:
        return v
    if not (a_v < Ext(alpha) < Ext(1)):
        raise ValueError("skewness outside the segment [root, v]")
    return EdgePoint(below=v, alpha=alpha)


TreePoint = object  # Valuation | EdgePoint


def _anchor(p) -> Valuation:
    """The valuation v of a tree point on [root, v]: its own, or p."""
    return p.below if isinstance(p, EdgePoint) else p


def point_skewness(p) -> Ext:
    return Ext(p.alpha) if isinstance(p, EdgePoint) else skewness(p)


# ---------------------------------------------------------------------------
# finite trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteTree:
    """Rooted tree with strictly decreasing skewness along each path.

    Vertex 0 is the root (skewness 1).  points[i] is the tree point
    realizing vertex i, or None for trees built abstractly in tests.
    Closure under meets holds by construction: the meet of two vertices
    is their lowest common ancestor, itself a vertex.
    """

    parent: tuple
    alpha: tuple
    points: tuple

    def __post_init__(self):
        n = len(self.parent)
        if n == 0 or self.parent[0] is not None or self.alpha[0] != Ext(1):
            raise ValueError("vertex 0 must be the root with skewness 1")
        for i in range(1, n):
            p = self.parent[i]
            if p is None or not 0 <= p < n or p == i:
                raise ValueError("every non-root vertex needs a parent")
            # strict decrease rules out parent cycles as well
            if not self.alpha[i] < self.alpha[p]:
                raise ValueError("skewness must decrease from the root")

    def __len__(self):
        return len(self.parent)

    def children(self, i):
        return [j for j in range(len(self)) if self.parent[j] == i]

    def root_path(self, i):
        return root_path(self.parent, i)

    def lca(self, i, j):
        return tree_lca(self.parent, i, j)

    def green(self, i, j) -> Ext:
        """alpha of the meet of vertices i and j (allows -inf leaves)."""
        return self.alpha[i] if i == j else self.alpha[self.lca(i, j)]

    def find(self, p):
        """The vertex at p, or None (one ``_Points``)."""
        at = [i for i, x in enumerate(self.points) if x is not None]
        pts = _Points([p] + [self.points[i] for i in at])
        return next((i for k, i in enumerate(at, 1) if pts.equal(0, k)), None)


class _Points:
    """Tree points p_i: anchors v_i, or points of skewness a_i on [root, v_i].
    With G_ij = alpha(v_i ^ v_j), p_i ^ p_j is the point of skewness
    max(a_i, a_j, G_ij) on [root, v_i] (``green``).  G_ij = 1 at the root
    and across points of L-infinity, so one ``Hull`` holds the anchors
    that share theirs (with v_0 for a ``star``, which answers only the
    pairs of p_0), and none is built if none do.  Three queries compare
    two points: ``equal``, p_i = p_j, when a_i = a_j >= G_ij; ``leq``, p_i
    on [root, p_j], when a_i >= max(a_j, G_ij); and ``meet``, p_i or p_j
    where one lies on the other's segment, else the hull's meet of their
    anchors (``ROOT`` across points of L-infinity).  a and G are read off
    the hull's matrix when first asked for, but ``equal`` of two
    valuations reads their ends in the hull, with no skewness."""

    def __init__(self, points, star=False):
        self.points = points = tuple(points)
        vs = self.anchors = [_anchor(p) for p in points]
        bases = [None if isinstance(v, Root) else base_point(v) for v in vs]
        at = self.index = {i: x for x, i in enumerate(
            i for i, b in enumerate(bases) if b is not None
            and bases.count(b) > 1 and (b == bases[0] or not star))}
        self.hull = Hull([vs[i] for i in at]) if at else None

    @cached_property
    def G(self) -> list:
        at, vs = self.index, self.anchors
        rows, n = self.hull.matrix() if at else [], len(vs)
        return [[rows[at[i]][at[j]] if i in at and j in at
                 else skewness(vs[i]) if i == j else Ext(1)
                 for j in range(n)] for i in range(n)]

    @cached_property
    def a(self) -> list:
        return [Ext(p.alpha) if isinstance(p, EdgePoint) else self.G[i][i]
                for i, p in enumerate(self.points)]

    def green(self, i, j) -> Ext:
        return max(self.a[i], self.a[j], self.G[i][j])

    def leq(self, i, j) -> bool:
        return self.a[i] >= max(self.a[j], self.G[i][j])

    def equal(self, i, j) -> bool:
        p, q, at = self.points[i], self.points[j], self.index
        if isinstance(p, EdgePoint) or isinstance(q, EdgePoint):
            return self.a[i] == self.a[j] >= self.G[i][j]
        if i in at and j in at:
            return self.hull.equal(at[i], at[j])
        return i == j or isinstance(p, Root) and isinstance(q, Root)

    def meet(self, i, j):
        g = self.G[i][j]
        if self.leq(i, j):
            return self.points[i]
        if self.a[j] >= g:
            return self.points[j]
        return ROOT if g == Ext(1) else \
            self.hull.meet(self.index[i], self.index[j])


def build_tree(points) -> FiniteTree:
    """Convex hull of {root} and the given tree points (``_Points``): its
    vertices are the points and the meets of their anchors above both,
    and the parent of each is the deepest vertex above it."""
    t = _Points((ROOT,) + tuple(points))
    a, G, verts, at = t.a, t.G, [], {}  # (anchor, skewness, point); by s

    def add(k, s, point):
        if all(s < G[k][verts[x][0]] for x in at.setdefault(s, [])):
            at[s].append(len(verts))
            verts.append((k, s, point()))

    for i, p in enumerate(t.points):
        add(i, a[i], lambda: p)
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            if G[i][j] > max(a[i], a[j]):
                add(i, G[i][j], lambda: t.meet(i, j))
    parent = [None] + [min(
        (x for x, (l, r, _) in enumerate(verts) if r > s and r >= G[k][l]),
        key=lambda x: verts[x][1]) for k, s, _ in verts[1:]]
    _, alpha, found = zip(*verts)
    return FiniteTree(tuple(parent), alpha, found)


def retract(p, tree: FiniteTree):
    """Nearest point of the tree on [root, p] (``retract_measure``)."""
    return retract_measure(dirac(p), tree).atoms[0][0]


# ---------------------------------------------------------------------------
# measures and Green-function values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported signed measure; atoms are (tree point, mass)."""

    atoms: tuple

    @property
    def total_mass(self) -> Fraction:
        return sum((m for _, m in self.atoms), Fraction(0))

    def is_positive(self) -> bool:
        return all(m > 0 for _, m in self.atoms)

    def scale(self, c) -> "DiscreteMeasure":
        c = _q(c)
        return measure([(p, c * m) for p, m in self.atoms])

    def __add__(self, other) -> "DiscreteMeasure":
        return measure(list(self.atoms) + list(other.atoms))


def measure(pairs) -> DiscreteMeasure:
    """The measure of (point, mass) pairs, equal points merged at the
    first of them (one ``_Points`` of all the points)."""
    pairs = [(p, _q(m)) for p, m in pairs]
    pts, mass = _Points(p for p, _ in pairs), {}
    for i, (_, m) in enumerate(pairs):
        k = next((k for k in mass if pts.equal(k, i)), i)
        mass[k] = mass.get(k, Fraction(0)) + m
    return DiscreteMeasure(tuple((pairs[k][0], m)
                                 for k, m in mass.items() if m != 0))


def dirac(p, mass=1) -> DiscreteMeasure:
    return measure([(p, mass)])


def value(rho: DiscreteMeasure, w) -> Ext:
    """Sum of mass * alpha(atom ^ w); the function represented by rho."""
    pts = _Points([w] + [p for p, _ in rho.atoms], star=True)
    return ext_sum(Ext(m) * pts.green(0, k)
                   for k, (_, m) in enumerate(rho.atoms, 1))


def dirichlet(rho: DiscreteMeasure, sigma: DiscreteMeasure) -> Ext:
    pts, n = _Points([p for p, _ in rho.atoms + sigma.atoms]), len(rho.atoms)
    terms = [Ext(rho.atoms[i][1] * m) * pts.green(i, j) for i in range(n)
             for j, (_, m) in enumerate(sigma.atoms, n)]
    return _pairing(terms, rho.is_positive() and sigma.is_positive())


def _pairing(terms: list, positive: bool) -> Ext:
    """The sum of the mass-weighted Green ``terms`` of two measures.  An
    infinite term is an endpoint self-pairing: -inf when both measures
    are ``positive``, and IndeterminateForm otherwise."""
    if all(t.kind == 0 for t in terms):
        return ext_sum(terms)
    if positive:
        return NEG_INF
    raise IndeterminateForm(
        "signed pairing with an endpoint atom is not square-integrable")


def retract_measure(rho: DiscreteMeasure, tree: FiniteTree) -> DiscreteMeasure:
    """Each atom moved to its nearest point of the tree on [root, atom]:
    its deepest meet with a leaf, the point of that skewness on the
    leaf's path, which is the vertex there or else lies inside the edge
    above the first vertex below it.  One ``_Points`` of the atoms and
    the leaves; atoms that land on one point merge there."""
    if any(x is None for x in tree.points):
        raise ValueError("retraction needs realized tree points")
    leaves = [i for i in range(len(tree)) if i not in tree.parent]
    n = len(rho.atoms)
    pts = _Points([p for p, _ in rho.atoms] + [tree.points[i] for i in leaves])
    mass = {}           # (first vertex at or below the point, its skewness)
    for k, (_, m) in enumerate(rho.atoms):
        g, leaf = min((pts.green(k, x), i) for x, i in enumerate(leaves, n))
        key = next(i for i in tree.root_path(leaf) if tree.alpha[i] <= g), g
        mass[key] = mass.get(key, Fraction(0)) + m
    return DiscreteMeasure(tuple(
        (tree.points[i] if tree.alpha[i] == g else
         point_on_segment(_anchor(tree.points[i]), g.q), m)
        for (i, g), m in mass.items() if m != 0))


# ---------------------------------------------------------------------------
# piecewise-affine functions on a finite tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PLValues:
    """One value per tree vertex, interpreted affinely in skewness."""

    tree: FiniteTree
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.tree):
            raise ValueError("one value per vertex required")


def tree_measure_values(tree: FiniteTree, masses: dict) -> PLValues:
    """Values at all vertices of the function with the given vertex masses."""
    vals = []
    for i in range(len(tree)):
        vals.append(ext_sum(Ext(m) * tree.green(i, j)
                            for j, m in masses.items()))
    return PLValues(tree, tuple(vals))


def tree_dirichlet(tree: FiniteTree, m1: dict, m2: dict) -> Ext:
    terms = [Ext(a) * Ext(b) * tree.green(i, j)
             for i, a in m1.items() for j, b in m2.items()]
    return _pairing(terms, all(a > 0 for a in m1.values())
                    and all(b > 0 for b in m2.values()))


def laplacian_pl(f: PLValues) -> dict:
    """Vertex masses of the Laplacian of a piecewise-affine function.

    The atom at a vertex is the sum of directional derivatives (in the
    parameter t = -skewness) toward its neighbors, plus the value itself
    at the root.  Inverse of tree_measure_values.
    """
    tree, vals = f.tree, f.values
    for v in vals:
        if not isinstance(v, Ext) or v.kind != 0:
            raise ValueError("finite values required at every vertex")
    n = len(tree)
    out = {}
    for i in range(n):
        acc = Fraction(0)
        if i == 0:
            acc += vals[0].q
        else:
            p = tree.parent[i]
            length = (tree.alpha[p] - tree.alpha[i]).q
            acc += (vals[p] - vals[i]).q / length
        for c in tree.children(i):
            length = (tree.alpha[i] - tree.alpha[c]).q
            acc += (vals[c] - vals[i]).q / length
        if acc != 0:
            out[i] = acc
    return out


def is_subharmonic(f: PLValues) -> bool:
    return all(m >= 0 for m in laplacian_pl(f).values())


def dirichlet_by_parts(f: PLValues, g: PLValues) -> Ext:
    """f(root)g(root) minus the integral of the product of edge slopes."""
    if f.tree is not g.tree:
        raise ValueError("both functions must live on the same tree")
    tree = f.tree
    acc = f.values[0] * g.values[0]
    for i in range(1, len(tree)):
        p = tree.parent[i]
        length = (tree.alpha[p] - tree.alpha[i]).q
        sf = (f.values[i] - f.values[p]).q / length
        sg = (g.values[i] - g.values[p]).q / length
        acc = acc - Ext(sf * sg * length)
    return acc


def tree_retract_vertex(tree: FiniteTree, subtree, i) -> int:
    """Retraction of vertex i onto the hull of the given vertices.

    The hull contains every vertex on a path between members, so the
    result may be a vertex outside the given set.
    """
    best = 0
    for j in subtree:
        m = tree.lca(i, j)
        if tree.alpha[m] < tree.alpha[best]:
            best = m
    return best


def tree_retract_masses(tree: FiniteTree, subtree, masses: dict) -> dict:
    out = {}
    for i, m in masses.items():
        j = tree_retract_vertex(tree, subtree, i)
        out[j] = out.get(j, Fraction(0)) + m
    return {i: m for i, m in out.items() if m != 0}


# ---------------------------------------------------------------------------
# certificate constructions
# ---------------------------------------------------------------------------


def perturb_certificate(phi: DiscreteMeasure, S) -> DiscreteMeasure:
    """Positive measure vanishing above S with positive self-pairing.

    phi must be positive with zero self-pairing and vanish at its own
    atoms; S must consist of points lying above atoms of phi, without
    exhausting them.  Either retracts phi away from an unconstrained
    atom, or splits the mass of a constrained atom symmetrically around
    it, one lower point per direction toward S.
    """
    if not phi.is_positive() or not phi.atoms:
        raise PreconditionViolated("a nonzero positive measure is required")
    if dirichlet(phi, phi) != Ext(0):
        raise PreconditionViolated("self-pairing must vanish")
    atoms = [p for p, _ in phi.atoms]
    for p in atoms:
        if value(phi, p) != Ext(0):
            raise PreconditionViolated("the function must vanish at its atoms")
    n = len(atoms)
    pts, ws = _Points(atoms + list(S)), range(n, n + len(S))
    if any(pts.leq(i, j) for i in range(n) for j in range(n) if i != j):
        raise PreconditionViolated("atoms must be incomparable")
    if not all(any(pts.leq(i, w) for i in range(n)) for w in ws):
        raise PreconditionViolated("constraints must lie above the atoms")

    free = next((i for i in range(n)
                 if not any(pts.leq(i, w) for w in ws)), None)
    if free is not None:
        # unconstrained atom: drop it by retracting onto the hull of the rest
        psi = retract_measure(phi, build_tree(atoms[:free] + atoms[free + 1:]))
    else:
        # every atom constrained: pick one not itself in S, split its mass
        k = next((i for i in range(n)
                  if not any(pts.equal(i, w) for w in ws)), None)
        if k is None:
            raise PreconditionViolated(
                "some atom must stay out of the constraints")
        a1 = pts.a[k]
        # directions below p_k: the constraints by their common segment
        classes = {}
        for w in ws:
            if pts.leq(k, w):
                u = next((u for u in classes if pts.green(u, w) < a1), w)
                classes.setdefault(u, []).append(w)
        # the gaps to the root, the other atoms and each direction's meet
        gaps = [Ext(1) - a1] + [pts.green(k, i) - a1 for i in range(n)
                                if i != k]
        gaps += [a1 - max(pts.green(u, w) for u in c for w in c)
                 for c in classes.values()]
        eps = min(g.q for g in gaps if g.kind == 0) / 2
        share = Fraction(phi.atoms[k][1], len(classes) + 1)
        pairs = [x for i, x in enumerate(phi.atoms) if i != k]
        pairs.append((point_on_segment(pts.anchors[k], a1.q + eps), share))
        pairs += [(point_on_segment(pts.anchors[u], a1.q - eps), share)
                  for u in classes]
        psi = measure(pairs)
        if any(value(psi, w) != Ext(0) for w in S):
            raise InternalMismatch("perturbed measure misses a constraint")
    if not (dirichlet(psi, psi) > Ext(0)):
        raise InternalMismatch("certificate lost its positive self-pairing")
    return psi


def extend_certificate(phi: DiscreteMeasure, S, extra,
                       l=None) -> DiscreteMeasure:
    """Extend a certificate to vanish above finitely many extra points.

    phi is rescaled to total mass 1.  Each extra point of low enough
    skewness contributes a dipole between itself and the point of
    skewness M_{l-1} on its root segment; the self-pairing drops by at
    most half.  Points whose skewness exceeds the admissible bound M_l
    are rejected.
    """
    mass = phi.total_mass
    if mass <= 0:
        raise PreconditionViolated("positive total mass required")
    phi = phi.scale(Fraction(1) / mass)
    r = dirichlet(phi, phi)
    if not (r > Ext(0)):
        raise PreconditionViolated("positive self-pairing required")
    for v in S:
        if value(phi, v) != Ext(0):
            raise PreconditionViolated("phi must vanish above the base set")
    S, extra = list(S), list(extra)
    pts, n = _Points(S + extra), len(S)
    extra = [v for k, v in enumerate(extra, n)
             if not any(pts.leq(s, k) for s in range(n))]
    if l is None:
        l = len(extra)
    if l < len(extra):
        raise PreconditionViolated("the budget must cover the extra points")

    bounds = [min([Ext(1)] + [a for a in pts.a[:n] if a.kind == 0]).q]
    for k in range(1, l + 1):
        bounds.append(bounds[k - 1] - Fraction(2 * k) / r.q)
    for a in map(point_skewness, extra):
        if a.kind == 0 and a.q > bounds[l]:
            raise SkewnessTooHigh(
                f"skewness {a.q} exceeds the admissible bound {bounds[l]}")

    def go(vs, k):
        if not vs:
            return phi
        if len(vs) <= k - 1:
            return go(vs, k - 1)
        b, t = bounds[k - 1], _Points(vs)
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                if t.green(i, j) <= Ext(b):
                    rest = [v for x, v in enumerate(vs) if x not in (i, j)]
                    return go(rest + [t.meet(i, j)], k - 1)
        pairs = list(phi.atoms)
        for v, a, anchor in zip(vs, t.a, t.anchors):
            if a.kind == 0 and (x := value(phi, v).q / (b - a.q)):
                pairs += [(v, x), (point_on_segment(anchor, b), -x)]
        return measure(pairs)

    return go(extra, l)
