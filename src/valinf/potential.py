"""Potential theory on finite subtrees of the valuation tree.

Points of the tree are either constructed valuations or interior points
of a segment [root, v], given by the anchor v and a skewness value.
Functions are represented by finitely supported signed measures; their
values are sums of Green kernels alpha(v ^ w).  The Dirichlet pairing
is computed both from the measure (double sum) and by integration by
parts along edges, and the two must agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cluster import root_path, tree_lca
from .errors import (IndeterminateForm, InternalMismatch, PreconditionViolated,
                     SkewnessTooHigh)
from .exact import Ext, NEG_INF, _q, ext_sum
from .valuations import ROOT, Hull, Root, Valuation, equal, meet, skewness
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


def _split(p) -> tuple:
    """(anchor valuation, skewness along [root, anchor]) of a tree point."""
    if isinstance(p, EdgePoint):
        return p.below, Ext(p.alpha)
    return p, skewness(p)


def point_skewness(p) -> Ext:
    return _split(p)[1]


def point_meet(p, q):
    """Meet of two tree points.  Its skewness is the largest of theirs and
    that of the meet m of their anchors: p or q where that one lies on
    the other's root segment, and m otherwise."""
    (v, a), (w, b) = _split(p), _split(q)
    m = ROOT if isinstance(v, Root) or isinstance(w, Root) else meet(v, w)
    g = skewness(m)
    return p if a >= max(b, g) else q if b >= g else m


def point_leq(p, q) -> bool:
    return point_skewness(p) >= point_green(p, q)


def point_equal(p, q) -> bool:
    if p is q:
        return True
    (v, a), (w, b) = _split(p), _split(q)
    if a != b:
        return False
    # curves are compared without a meet; else p = q when p <= q
    return equal(v, w) if a == NEG_INF else point_leq(p, q)


def shift_up(p, eps: Fraction):
    """The point on [root, p] lying eps above p in skewness."""
    v, a = _split(p)
    if a == NEG_INF:
        raise ValueError("no skewness coordinate at an endpoint")
    return point_on_segment(v, a.q + eps)


def point_green(p, q) -> Ext:
    return point_skewness(point_meet(p, q))


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
        for i, x in enumerate(self.points):
            if x is not None and point_equal(x, p):
                return i
        return None


class _Points:
    """Tree points p_i: anchors v_i, or points of skewness a_i on [root, v_i].
    With G_ij = alpha(v_i ^ v_j), p_i ^ p_j is the point of skewness
    max(a_i, a_j, G_ij) on [root, v_i] (``green``); p_i lies on [root, p_j]
    when a_i >= max(a_j, G_ij).  G_ij = 1 at the root and across points of
    L-infinity, so one ``Hull`` holds the anchors that share theirs (with
    v_0 for a ``star``), and none is built if none do."""

    def __init__(self, points, star=False):
        self.points = points = tuple(points)
        vs = [p.below if isinstance(p, EdgePoint) else p for p in points]
        bases = [None if isinstance(v, Root) else base_point(v) for v in vs]
        at = self.index = {i: x for x, i in enumerate(
            i for i, b in enumerate(bases) if b is not None
            and bases.count(b) > 1 and (b == bases[0] or not star))}
        self.hull = Hull([vs[i] for i in at]) if at else None
        rows, n = self.hull.matrix() if at else [], len(vs)
        self.G = [[rows[at[i]][at[j]] if i in at and j in at
                   else skewness(vs[i]) if i == j else Ext(1)
                   for j in range(n)] for i in range(n)]
        self.a = [Ext(p.alpha) if isinstance(p, EdgePoint) else self.G[i][i]
                  for i, p in enumerate(points)]

    def green(self, i, j) -> Ext:
        return max(self.a[i], self.a[j], self.G[i][j])


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
                add(i, G[i][j], lambda: t.hull.meet(t.index[i], t.index[j]))
    parent = [None] + [min(
        (x for x, (l, r, _) in enumerate(verts) if r > s and r >= G[k][l]),
        key=lambda x: verts[x][1]) for k, s, _ in verts[1:]]
    _, alpha, found = zip(*verts)
    return FiniteTree(tuple(parent), alpha, found)


def retract(p, tree: FiniteTree):
    """Nearest point of the tree on [root, p]: the deepest meet of p with
    a leaf (``_Points``), the vertex of its skewness on the leaf's path."""
    if any(x is None for x in tree.points):
        raise ValueError("retraction needs realized tree points")
    leaves = [i for i in range(len(tree)) if i not in tree.parent]
    pts = _Points([p] + [tree.points[i] for i in leaves])
    g, leaf = min((pts.green(0, k), i) for k, i in enumerate(leaves, 1))
    i = next((i for i in tree.root_path(leaf) if tree.alpha[i] == g), None)
    if i is None:
        raise InternalMismatch("retraction landed outside the tree")
    return tree.points[i]


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
    atoms = []
    for p, m in pairs:
        m = _q(m)
        for k, (q, mq) in enumerate(atoms):
            if point_equal(p, q):
                atoms[k] = (q, mq + m)
                break
        else:
            atoms.append((p, m))
    return DiscreteMeasure(tuple((p, m) for p, m in atoms if m != 0))


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
    return measure([(retract(p, tree), m) for p, m in rho.atoms])


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
    for i, p in enumerate(atoms):
        for q in atoms[i + 1:]:
            if point_leq(p, q) or point_leq(q, p):
                raise PreconditionViolated("atoms must be incomparable")
    for w in S:
        if not any(point_leq(p, w) for p in atoms):
            raise PreconditionViolated("constraints must lie above the atoms")

    # unconstrained atom: drop it by retracting onto the hull of the rest
    for i, p in enumerate(atoms):
        if not any(point_leq(p, w) for w in S):
            rest = atoms[:i] + atoms[i + 1:]
            psi = retract_measure(phi, build_tree(rest))
            _check_certificate(psi)
            return psi

    # every atom constrained: pick one not itself in S and split its mass
    for k, (p1, r1) in enumerate(phi.atoms):
        if not any(point_equal(p1, w) for w in S):
            break
    else:
        raise PreconditionViolated("some atom must stay out of the constraints")
    a1 = point_skewness(p1)
    above = [w for w in S if point_leq(p1, w)]
    # directions below p1: group the constraints by their common segment
    classes = []
    for w in above:
        for cls in classes:
            if point_skewness(point_meet(cls[0], w)) < a1:
                cls.append(w)
                break
        else:
            classes.append([w])
    gaps = [Ext(1) - a1]
    for q, _ in phi.atoms:
        if q is not p1:
            gaps.append(point_green(p1, q) - a1)
    for cls in classes:
        m = cls[0]
        for w in cls[1:]:
            m = point_meet(m, w)
        gaps.append(a1 - point_skewness(m))
    eps = min(g.q for g in gaps if g.kind == 0) / 2
    k = len(classes)
    share = Fraction(r1, k + 1)
    pairs = [(q, m) for q, m in phi.atoms if q is not p1]
    pairs.append((shift_up(p1, eps), share))
    for cls in classes:
        anchor, _ = _split(cls[0])
        pairs.append((point_on_segment(anchor, a1.q - eps), share))
    psi = measure(pairs)
    _check_certificate(psi)
    for w in S:
        if value(psi, w) != Ext(0):
            raise InternalMismatch("perturbed measure misses a constraint")
    return psi


def _check_certificate(psi: DiscreteMeasure):
    if not (dirichlet(psi, psi) > Ext(0)):
        raise InternalMismatch("certificate lost its positive self-pairing")


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
    extra = [v for v in extra
             if not any(point_leq(s, v) for s in S)]
    if l is None:
        l = len(extra)
    if l < len(extra):
        raise PreconditionViolated("the budget must cover the extra points")

    finite_alphas = [point_skewness(s) for s in S]
    m0 = min([Ext(1)] + [a for a in finite_alphas if a.kind == 0])
    bounds = [m0.q]
    for k in range(1, l + 1):
        bounds.append(bounds[k - 1] - Fraction(2 * k) / r.q)
    for v in extra:
        a = point_skewness(v)
        if a.kind == 0 and a.q > bounds[l]:
            raise SkewnessTooHigh(
                f"skewness {a.q} exceeds the admissible bound {bounds[l]}")

    def go(vs, k):
        if not vs:
            return phi
        if len(vs) <= k - 1:
            return go(vs, k - 1)
        cutoff = Ext(bounds[k - 1])
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                if point_green(vs[i], vs[j]) <= cutoff:
                    rest = [v for t, v in enumerate(vs) if t not in (i, j)]
                    rest.append(point_meet(vs[i], vs[j]))
                    return go(rest, k - 1)
        pairs = list(phi.atoms)
        for v in vs:
            a = point_skewness(v)
            if a.kind != 0:
                continue
            x = value(phi, v).q / (bounds[k - 1] - a.q)
            if x == 0:
                continue
            pairs.append((v, x))
            pairs.append((point_on_segment(_split(v)[0], bounds[k - 1]), -x))
        return measure(pairs)

    return go(list(extra), l)
