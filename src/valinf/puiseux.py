"""Branch expansions of plane curves at infinity and their Laplacians.

Branches are computed per irreducible factor over Q, chart by chart over
the finitely many points of the curve closure on the line at infinity.
The Newton polygon recursion keeps all arithmetic rational and raises
NeedsFieldExtension as soon as an irrational coefficient would appear.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil

from . import poly
from .cluster import (LINF, BranchWalk, Free, PathTrie, PointAtInfinity,
                      PuiseuxBranch, base_strict_series, chain_cluster,
                      extend_dual_tree, root_path, segment_point_key,
                      taylor_shift)
from .errors import (InsufficientTruncation, InternalMismatch,
                     NeedsFieldExtension, PreconditionViolated,
                     PrecisionExceeded, ZeroOrConstant)
from .exact import Ext, _q, integer_numerators, rational_root
from .potential import DiscreteMeasure, _Points, measure, value
from .series import PuiseuxSeries
from .valuations import Curve, Divisorial


# ---------------------------------------------------------------------------
# Newton polygon expansion
# ---------------------------------------------------------------------------


def _tail_coeffs(G: dict, K: int):
    """Series v(u) solving G(u, v) = 0 at a simple root v = 0.

    Returns (coeffs, exact); requires a nonzero linear coefficient at the
    origin and no constant term.
    """
    g01 = G.get((0, 1))
    if not g01:
        raise InternalMismatch("tail solving needs a simple root")
    if G.get((0, 0)):
        raise InternalMismatch("tail solving needs a root at the origin")
    # pows[j][k] is the coefficient of u^k in s^j.  s has order >= 1, so
    # for j >= 2 it needs only s_1..s_(k-1), and so does every term of
    # the u^k coefficient of G(u, s) except g01 * s_k: one pass per k
    # fixes s_k, O(jmax K^2) in all.
    jmax = max(j for _, j in G)
    pows = [[Fraction(int(j == 0))] for j in range(jmax + 1)]
    s = {}

    def residual(k):
        """The u^k coefficient of G(u, s) with s_k and beyond taken as 0."""
        pows[0].append(Fraction(0))
        pows[1].append(Fraction(0))
        for j in range(2, jmax + 1):
            lower = pows[j - 1]
            pows[j].append(sum(c * lower[k - t] for t, c in s.items()
                               if lower[k - t]))
        return sum(c * pows[j][k - i] for (i, j), c in G.items() if i <= k)

    for k in range(1, K + 1):
        r = residual(k)
        if r:
            s[k] = pows[1][k] = -r / g01
    # G(u, s) vanishes to order K; the series is exact iff it vanishes up
    # to its degree, and a series that goes on fails at its next term
    top = max(i + j * max(s, default=0) for i, j in G)
    return s, not any(residual(k) for k in range(K + 1, top + 1))


def _lower_edges(G: dict):
    """Newton polygon edges with v of positive order: (p, q, weight, points).

    Slope q/p means v grows like u^(q/p); points are the support points on
    the edge.
    """
    best = {}
    for (i, j) in G:
        if j not in best or i < best[j]:
            best[j] = i
    pts = sorted(best.items())            # (j, i) with minimal i per j
    hull = []
    for j, i in pts:
        while len(hull) >= 2:
            (j1, i1), (j2, i2) = hull[-2], hull[-1]
            # keep the lower-convex chain in (j, i)
            if (i2 - i1) * (j - j1) >= (i - i1) * (j2 - j1):
                hull.pop()
            else:
                break
        hull.append((j, i))
    edges = []
    for (j1, i1), (j2, i2) in zip(hull, hull[1:]):
        if i1 <= i2:
            continue                      # slope not positive
        mu = Fraction(i1 - i2, j2 - j1)
        p, q = mu.denominator, mu.numerator
        w = p * i1 + q * j1
        on_edge = [(i, j) for (i, j) in G if p * i + q * j == w]
        edges.append((p, q, w, on_edge))
    return edges


def _rational_roots(coeffs: dict, what: str):
    """The rational roots, with multiplicity, of the polynomial in t with
    the rational coefficients {exponent: c}, one per linear factor in
    ``factor.factor_list`` order; at the first factor of higher degree,
    NeedsFieldExtension("<what>: <factor>")."""
    from . import factor     # loaded by the first session that factors

    f = [0] * (max(coeffs) + 1)
    for e, n in zip(coeffs, integer_numerators(coeffs.values())[0]):
        f[e] = n
    for g, e in factor.factor_list(f):
        if len(g) > 2:
            text = factor.expr_str(g, "t")
            raise NeedsFieldExtension(f"{what}: {text}",
                                      minimal_polynomial=text)
        yield Fraction(-g[0], g[1]), e


def _char_roots(G: dict, on_edge, p: int, jmin: int):
    """Rational first coefficients c (with multiplicity) on an edge.

    The edge polynomial only involves c through c^p; conjugate branches
    share the same c^p, so each rational root of the polynomial in c^p
    gives one branch orbit, provided its p-th root is rational.
    """
    roots = []
    for t0, e in _rational_roots(
            {(j - jmin) // p: G[(i, j)] for (i, j) in on_edge},
            "edge polynomial has an irrational root"):
        if t0 == 0:
            continue
        c = rational_root(t0, p)
        if c is None:
            raise NeedsFieldExtension(
                f"branch coefficient c with c^{p} = {t0} is irrational",
                minimal_polynomial=f"c^{p} - ({t0})")
        roots.append((c, e))
    return roots


def _substitute_edge(G: dict, p: int, q: int, w: int, c: Fraction) -> dict:
    """G(u^p, u^q (c + v)) / u^w as a polynomial dict: each a u^i v^j
    becomes a u^(p i + q j - w) (v + c)^j."""
    return taylor_shift({(p * i + q * j - w, j): a for (i, j), a in G.items()},
                        c)


def _np_branches(G: dict, K: int, depth: int = 0):
    """Branches v(u) of G with positive order: list of (m, coeffs, exact).

    coeffs maps tau exponents to coefficients with u = tau^m.
    """
    if depth > 64:
        raise PrecisionExceeded("Newton polygon recursion too deep")
    out = []
    jmin = min(j for _, j in G)
    if jmin > 0:
        for _ in range(jmin):
            out.append((1, {}, True))
        G = {(i, j - jmin): c for (i, j), c in G.items()}
    if (0, 0) in G:
        # unit at the origin: no further branches through this point
        return out
    for p, q, w, on_edge in _lower_edges(G):
        ejmin = min(j for _, j in on_edge)
        for c, mult in _char_roots(G, on_edge, p, ejmin):
            G1 = _substitute_edge(G, p, q, w, c)
            if mult == 1:
                coeffs1, exact = _tail_coeffs(G1, K)
                subs = [(1, coeffs1, exact)]
            else:
                subs = _np_branches(G1, K, depth + 1)
            for m1, cs1, exact in subs:
                cs = {q * m1: c}
                for e, ce in cs1.items():
                    k = q * m1 + e
                    cs[k] = cs.get(k, Fraction(0)) + ce
                out.append((p * m1, {k: v for k, v in cs.items() if v != 0},
                            exact))
    return out


# ---------------------------------------------------------------------------
# branches at infinity
# ---------------------------------------------------------------------------


def _base_points(f: dict):
    """Points of the closure of {f=0} on the line at infinity."""
    d = poly.degree(f)
    top = {j: c for (i, j), c in f.items() if i + j == d}
    return [PointAtInfinity("y")] * (max(top) < d) + [
        PointAtInfinity("x", -t0) for t0, _ in
        _rational_roots(top, "irrational point at infinity")]


def weighted_branches(Q: dict, K=None):
    """All branches of {Q=0} at infinity as (PuiseuxBranch, weight) pairs.

    The weight is the multiplicity of the irreducible factor carrying the
    branch; the sum of weight * ramification over all pairs is deg Q.
    Returns a tuple, shared with later calls on the same Q and K.
    """
    Q = poly.require_nonzero(Q)
    d = poly.degree(Q)
    if d == 0:
        raise ZeroOrConstant("constant polynomial has no branches")
    return _branches(tuple(sorted(Q.items())), 4 * d * d if K is None else K)


@lru_cache(maxsize=1024)
def _branches(terms: tuple, K: int):
    Q = dict(terms)
    d = poly.degree(Q)
    out = []
    mass = 0
    for f, e in poly.factor_rational(Q):
        df = poly.degree(f)
        minpoly = tuple(sorted(f.items()))
        fmass = 0
        for base in _base_points(f):
            G = base_strict_series(base, f, df)
            for m, cs, exact in _np_branches(G, K):
                kept = {j: c for j, c in cs.items() if j <= K}
                series = PuiseuxSeries.make(
                    m, kept, K,
                    exact=exact and len(kept) == len(cs))
                out.append((PuiseuxBranch(base=base, series=series,
                                          minpoly=minpoly), e))
                fmass += m
        if fmass != df:
            raise InternalMismatch(
                f"branch ramifications sum to {fmass}, expected {df}")
        mass += e * fmass
    if mass != d:
        raise InternalMismatch("total branch mass must equal the degree")
    return tuple(out)


def branches_at_infinity(Q: dict, K=None):
    """Branches of the reduced curve {Q=0} at infinity."""
    return [b for b, _ in weighted_branches(Q, K)]


def log_laplacian(Q: dict, K=None) -> DiscreteMeasure:
    """Measure with one atom per branch at infinity, weighted by its
    intersection multiplicity with the line at infinity."""
    return measure([(Curve(b), e * b.multiplicity)
                    for b, e in weighted_branches(Q, K)])


def log_value(Q: dict, v, K=None) -> Ext:
    """Green-function side of the chart identity: sum of weight *
    skewness(meet with each branch); equals minus the valuation of Q."""
    return value(DiscreteMeasure(tuple((Curve(b), e * b.multiplicity) for b, e
                                       in weighted_branches(Q, K))), v)


# ---------------------------------------------------------------------------
# realizing interior points of a branch segment
# ---------------------------------------------------------------------------


# deepest center that divisorial_on_segment walks to: on 2 vCPUs the walk
# of the exact branch of scripts/walk_depth.py there takes about 3.5 s
MAX_SEGMENT_DEPTH = 1024


def divisorial_on_segment(branch: PuiseuxBranch, alpha) -> Divisorial:
    """The divisorial valuation of given skewness on [root, branch].

    The branch passes through a free point of the divisor E of each
    center that a free step leaves, so E and its dual path lie on
    [root, branch], where skewness decreases.  The centers are walked
    until such an E lies at or below alpha; then alpha is a center on
    E's dual path, or lies inside one edge of it and is read off that
    edge in closed form (``cluster.segment_point_key``).  The
    multiplicity b does not decrease along [root, branch], so below E
    each dual edge lowers skewness by at most 1/b_E^2: a round deepens
    by 8 centers, or at once by the (alpha_E - alpha) b_E^2 that alpha
    needs at least, and raises PrecisionExceeded past
    ``MAX_SEGMENT_DEPTH``.  A truncated branch raises
    InsufficientTruncation if the centers it certifies fall short.

    Cost: one walk of the branch, on one ``BranchWalk`` and one
    ``PathTrie`` whose rounds transform only their new nodes, and no
    geometry, since the rows and the dual tree suffice; an answer
    inside an edge adds a chain cluster of the younger end's path, the
    edge's satellite point and at most ``MAX_CHAIN_STEPS`` centers more.
    """
    alpha = _q(alpha)
    if alpha >= 1:
        raise PreconditionViolated("segment skewness must be below 1")
    walk = BranchWalk(branch.series)
    trie = PathTrie()
    depth = 8
    while True:
        if depth > MAX_SEGMENT_DEPTH:
            raise PrecisionExceeded(f"skewness {alpha} lies more than "
                                    f"{MAX_SEGMENT_DEPTH} centers deep")
        try:
            steps, short = walk.steps(depth), False
        except InsufficientTruncation:
            steps, short = walk.steps(walk.depth), True
        # one chain: node k is the center after k steps
        cl, _ = trie.add([(branch.base, steps)])
        rows = cl.rows()
        end = max((k for k, st in enumerate(steps) if isinstance(st, Free)),
                  default=None)
        if end is not None and rows[end].alpha <= alpha:
            break
        if short:
            walk.steps(depth)           # raises the walk's error again
        depth += 8
        if end is not None:
            depth = max(depth, end + 2 + ceil(
                (rows[end].alpha - alpha) * rows[end].b ** 2))
    path = root_path(extend_dual_tree({LINF: None}, cl), end)
    for hi, lo in zip(path, path[1:]):
        if rows[lo].alpha == alpha:
            return Divisorial(cl, lo)
        if rows[lo].alpha < alpha:
            base, steps = segment_point_key(cl, hi, lo, alpha)
            return Divisorial(chain_cluster(base, steps), len(steps))


# ---------------------------------------------------------------------------
# Laplacian of log^+
# ---------------------------------------------------------------------------


def _crossing(w, others) -> Fraction:
    """The a < 1 with w a + sum_j w_j max(a, t_j) = 0, over the pairs
    (w_j > 0, t_j <= 1) of ``others`` and for w > 0; the sum increases
    and is linear between the t_j, which are passed from the largest."""
    held, free = Fraction(0), w + sum(wj for wj, _ in others)
    for wj, t in sorted(others, key=lambda p: -p[1]):
        if t <= -held / free:
            break
        held, free = held + wj * t, free - wj
    return -held / free


def logplus_laplacian(Q: dict, K=None) -> DiscreteMeasure:
    """Atoms where the valuation of Q first reaches zero on the way from
    the root to each branch at infinity, weighted by the branch masses.

    By the Green identity v(Q) = -sum_j w_j alpha(v ^ b_j) over the
    branches b_j with masses w_j = e_j m_j (Favre-Jonsson, *The Valuative
    Tree*, LNM 1853), and since the point of skewness a on [root, b_i]
    meets b_j at itself while a >= alpha(b_i ^ b_j) and at b_i ^ b_j
    below, the atom of b_i sits at the skewness a* with
        w_i a* + sum_{j != i} w_j max(a*, alpha(b_i ^ b_j)) = 0.
    The left side is increasing and piecewise linear in a, and positive
    at a = 1, so a* < 1; the atom is ``divisorial_on_segment(b_i, a*)``.

    Cost: one ``Hull`` of the branches that share their point of
    L-infinity (``potential._Points``), each walked to its divergences,
    and one ``divisorial_on_segment`` per branch; Q is never transformed.
    """
    pairs = [(b, e * b.multiplicity) for b, e in weighted_branches(Q, K)]
    t = _Points([Curve(b) for b, _ in pairs]).G     # alpha(b_i ^ b_j)
    return measure((divisorial_on_segment(b, _crossing(
        w, [(wj, t[i][j].q) for j, (_, wj) in enumerate(pairs) if j != i])),
        w) for i, (b, w) in enumerate(pairs))
