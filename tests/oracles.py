"""Slow reference computations kept only as test oracles."""

from fractions import Fraction
from math import floor, gcd
from typing import Sequence

from valinf import poly
from valinf.cluster import (DIVERGING_WORKS, LINF, BranchWalk, Cluster, Free,
                            PointAtInfinity, PuiseuxBranch, SatU, SatV,
                            base_strict_series, blowup_substitute,
                            branch_steps, build_geometry, chain_cluster,
                            eval_divisorial, merge_paths, ord_along_path)
from valinf.errors import (IndeterminateForm, InsufficientTruncation,
                           InternalMismatch, InvalidCluster,
                           NeedsFieldExtension, PreconditionViolated)
from valinf.exact import (NEG_INF, POS_INF, Ext, LinSolveResult, SymMatrixExt,
                          _q, ext_sum)
from valinf.potential import (DiscreteMeasure, EdgePoint, FiniteTree, measure,
                              point_equal, point_green, point_meet,
                              point_skewness)
from valinf.puiseux import weighted_branches
from valinf.series import LaurentSeries, PuiseuxSeries
from valinf.valuations import (ROOT, Comparison, Curve, Divisorial, Root,
                               _wrap_lca, equal, path_key, skewness)


def upoly(coeffs) -> tuple:
    """A polynomial in u as its coefficients from u^0 up, trailing zeros
    dropped; () is the zero polynomial."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def upoly_add(a: tuple, b: tuple) -> tuple:
    n = max(len(a), len(b))
    return upoly([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def upoly_mul(a: tuple, b: tuple) -> tuple:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return upoly(out)


def upoly_limit(p: tuple) -> Ext:
    """lim p(u) as u -> -infinity."""
    if len(p) <= 1:
        return Ext(p[0] if p else 0)
    return POS_INF if (p[-1] > 0) == (len(p) % 2 == 1) else NEG_INF


def upoly_rows(M: SymMatrixExt, k=None) -> list:
    """The leading k x k block of M with u in place of every -inf."""
    k = M.size if k is None else k
    return [[upoly([0, 1]) if e.kind < 0 else upoly([e.q]) for e in row[:k]]
            for row in M.entries[:k]]


def upoly_det(rows) -> tuple:
    """Determinant of a square matrix of polynomials in u by minor
    expansion along the rows, memoized on the columns left: 2^n minors,
    each a sum over its columns."""
    n = len(rows)
    memo = {}

    def minor(row, cols):
        if row == n:
            return upoly([1])
        if (row, cols) not in memo:
            acc = ()
            for pos, col in enumerate(cols):
                entry = rows[row][col]
                if not entry:
                    continue
                term = upoly_mul(entry, minor(row + 1,
                                              cols[:pos] + cols[pos + 1:]))
                acc = upoly_add(acc, term if pos % 2 == 0
                                else tuple(-c for c in term))
            memo[(row, cols)] = acc
        return memo[(row, cols)]

    return minor(0, tuple(range(n)))


def is_negative_definite(M: SymMatrixExt) -> bool:
    """Sylvester criterion evaluated in the u -> -inf limit: the k-th
    leading minor, by ``upoly_det``, tends to a value of sign (-1)^k."""
    for k in range(1, M.size + 1):
        lim = upoly_limit(upoly_det(upoly_rows(M, k)))
        if (lim > 0) != (k % 2 == 0) or lim == 0:
            return False
    return True


def curves_equal_by_fractions(a, b):
    """``valuations._curves_equal`` with each exponent j/m kept as a
    Fraction: equality of curve valuations, raising when their
    truncations cannot decide."""
    if a.branch.base != b.branch.base:
        return False
    sa = a.branch.series.reduced()
    sb = b.branch.series.reduced()
    if sa.exact and sb.exact:
        return sa.m == sb.m and sa.coeffs == sb.coeffs
    ca = {Fraction(j, sa.m): c for j, c in sa.coeffs}
    cb = {Fraction(j, sb.m): c for j, c in sb.coeffs}
    bound_a = POS_INF if sa.exact else Ext(Fraction(sa.K, sa.m))
    bound_b = POS_INF if sb.exact else Ext(Fraction(sb.K, sb.m))
    bound = min(bound_a, bound_b)
    for e in set(ca) | set(cb):
        if Ext(e) <= bound and ca.get(e) != cb.get(e):
            return False
    raise InsufficientTruncation("branches agree to their stored truncation")


def meet_by_merges(v, w):
    """``valuations.meet`` by the pairwise routines that the hull replaced:
    two paths merge at once; a curve meets a path at the same point of
    L-infinity by the one-shot search ``meet_curve_by_one_shot_merges``;
    two curves there are walked to their divergence by the loop of
    ``diverging_walk_steps`` and merged.  Each builds the geometry of its
    merge and reads the lca off it."""
    if isinstance(v, Root) or isinstance(w, Root):
        return ROOT
    if equal(v, w):
        return v
    cv, cw = isinstance(v, Curve), isinstance(w, Curve)
    if cv and cw:
        if v.branch.base != w.branch.base:
            return ROOT
        sv, sw = diverging_walk_steps((BranchWalk(v.branch.series),
                                       BranchWalk(w.branch.series)),
                                      DIVERGING_WORKS)
        paths = [(v.branch.base, tuple(sv)), (w.branch.base, tuple(sw))]
    elif cv or cw:
        return meet_curve_by_one_shot_merges(*((v, w) if cv else (w, v)))
    else:
        paths = [path_key(v), path_key(w)]
    merged, (ev, ew) = merge_paths(paths)
    return _wrap_lca(merged.geometry().lca(ev, ew), merged, v, w)


def compare_by_merges(v, w):
    """``valuations.compare`` on ``meet_by_merges``."""
    if equal(v, w):
        return Comparison.EQ
    m = meet_by_merges(v, w)
    if equal(m, v):
        return Comparison.LT
    if equal(m, w):
        return Comparison.GT
    return Comparison.INCOMPARABLE


def matrix_alpha_by_meets(S) -> SymMatrixExt:
    """``richness.matrix_alpha`` by one pairwise ``meet_by_merges`` per
    entry, each merging two paths and building their geometry."""
    vs = list(S)
    n = len(vs)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = skewness(vs[i])
        for j in range(i + 1, n):
            a = skewness(meet_by_merges(vs[i], vs[j]))
            rows[i][j] = rows[j][i] = a
    return SymMatrixExt(rows)


def dual_tree_by_adjacency(g) -> dict:
    """The parent map of the dual tree of a ``GeometryTable``, by a
    breadth-first search from LINF over the nonzero off-diagonal entries
    of its intersection matrix, as ``build_geometry`` found it before
    ``cluster.extend_dual_tree``."""
    adj = {c: [] for c in g.comps}
    for (a, b), v in g.inter.items():
        if a != b and v != 0:
            adj[a].append(b)
    parent = {LINF: None}
    queue = [LINF]
    for c in queue:
        for nb in adj[c]:
            if nb not in parent:
                parent[nb] = c
                queue.append(nb)
    if len(parent) != len(g.comps):
        raise InternalMismatch("dual graph is not connected")
    return parent


def alpha_by_edge_recursion(cl: Cluster) -> dict:
    """{component: (alpha, b, thinness)} of a cluster, as ``build_geometry``
    found them before the rows held skewness.

    b = -min(ord_E x, ord_E y) is read off ``ord_along_path``, and
    ord_E(dx^dy) is that of the node's axes plus 1.  The skewness then
    follows by the edge recursion alpha_c = alpha_p - 1/(b_p b_c) along
    the dual tree of the intersection matrix, breadth first, so that a
    parent's alpha is known before its children's."""
    x, y = {(1, 0): Fraction(1)}, {(0, 1): Fraction(1)}
    b, ord_w = {LINF: 1}, {LINF: -3}
    for i in range(len(cl)):
        ua, va = cl.axes[i]
        ord_w[i] = ord_w[ua] + (ord_w[va] if va is not None else 0) + 1
        b[i] = -min(ord_along_path(cl, i, x)[i], ord_along_path(cl, i, y)[i])
    parent = dual_tree_by_adjacency(build_geometry(Cluster(cl.nodes)))
    children = {}
    for c, p in parent.items():
        children.setdefault(p, []).append(c)
    alpha = {LINF: Fraction(1)}
    queue = [LINF]
    for c in queue:
        for nb in children.get(c, ()):
            alpha[nb] = alpha[c] - Fraction(1, b[c] * b[nb])
            queue.append(nb)
    return {c: (alpha[c], b[c], Fraction(1 + ord_w[c], b[c])) for c in alpha}


def lca_by_depth(parent: dict, a, b):
    """The lowest common ancestor in the tree of ``parent`` by the depth
    walk ``GeometryTable.lca`` made before it shared the parent-map walk:
    the depths from a breadth-first pass, the deeper end lifted to the
    other's depth, then both lifted together."""
    children = {}
    for c, p in parent.items():
        children.setdefault(p, []).append(c)
    root, = children[None]
    depth = {root: 0}
    queue = [root]
    for c in queue:
        for nb in children.get(c, ()):
            depth[nb] = depth[c] + 1
            queue.append(nb)
    da, db = depth[a], depth[b]
    while da > db:
        a = parent[a]
        da -= 1
    while db > da:
        b = parent[b]
        db -= 1
    while a != b:
        a = parent[a]
        b = parent[b]
    return a


def solve_linear_by_fractions(A: Sequence[Sequence],
                              b: Sequence | None = None) -> LinSolveResult:
    """``exact.solve_linear`` by Gauss-Jordan elimination over Fraction.

    Solves A x = b (b defaults to 0) and also returns a kernel basis.
    """
    rows = [[_q(e) for e in row] for row in A]
    m = len(rows)
    n = len(rows[0]) if m else 0
    for row in rows:
        if len(row) != n:
            raise ValueError("ragged matrix")
    if b is None:
        rhs = [Fraction(0)] * m
    else:
        rhs = [_q(e) for e in b]
        if len(rhs) != m:
            raise ValueError("dimension mismatch")

    aug = [rows[i] + [rhs[i]] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [e / pv for e in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [e - f * p for e, p in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break

    consistent = all(aug[i][n] == 0 for i in range(r, m))
    free_cols = [c for c in range(n) if c not in pivots]

    solution = None
    if consistent:
        solution = [Fraction(0)] * n
        for i, c in enumerate(pivots):
            solution[c] = aug[i][n]

    kernel = []
    for fc in free_cols:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -aug[i][fc]
        kernel.append(vec)

    return LinSolveResult(solution=solution, kernel=kernel)


def gauss_jordan(A):
    """(det, inverse or None) by Gauss-Jordan elimination over Fraction."""
    n = len(A)
    aug = [[Fraction(e) for e in row]
           + [Fraction(int(i == k)) for k in range(n)]
           for i, row in enumerate(A)]
    d = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != c:
            aug[c], aug[pivot] = aug[pivot], aug[c]
            d = -d
        pv = aug[c][c]
        d *= pv
        aug[c] = [e / pv for e in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [e - f * p for e, p in zip(aug[i], aug[c])]
    return d, [row[n:] for row in aug]


def divisorial_rows_by_pullback(v: Divisorial, monomials, d: int,
                                strict: bool) -> list:
    """``polyfinder._divisorial_rows`` with ord_E(u) read off the pullback
    of the local equation u of the line at infinity, not off b_E."""
    cl, node = v.realize()
    path = cl.path(node)
    base = cl.nodes[path[0]].base
    steps = [cl.nodes[i].step for i in path[1:]]
    # pull back the local equation u of the line at infinity first;
    # ord_E(P) = mult(F) - d * mult(u) at the blown-up center
    U = {(1, 0): Fraction(1)}
    for st in steps:
        U = blowup_substitute(U, st)
    # multiplicity at a point is the minimal total degree of the local
    # expansion; ord along the divisor of the blown-up point equals it
    need = d * min(a + b for (a, b) in U) + (1 if strict else 0)
    # the total transform is linear in the unknowns: push each monomial
    # through the charts alone, discarding terms at or above the threshold
    # as they appear (total degree never decreases under a blowup)
    cols = {}
    for k, m in enumerate(monomials):
        F = {key: c for key, c
             in base_strict_series(base, {m: Fraction(1)}, d).items()
             if key[0] + key[1] < need}
        for st in steps:
            F = blowup_substitute(F, st, need)
        for key, c in F.items():
            cols.setdefault(key, {})[k] = c
    return [[row.get(k, Fraction(0)) for k in range(len(monomials))]
            for row in cols.values()]


def branch_to_nodes(base, series, depth: int):
    """Cluster through the first ``depth`` centers of a branch.

    Returns (cluster, node path); depth 0 gives (empty cluster, []).
    """
    if depth <= 0:
        return Cluster([]), []
    steps = branch_steps(base, series, depth)
    cl = chain_cluster(base, steps)
    return cl, list(range(depth))


def _perturbed_curve(branch, xi: Fraction) -> Curve:
    """A terminating branch agreeing with the given one strictly below
    exponent xi (in x_q^(1/m) units) and diverging exactly there."""
    s = branch.series
    mp = (s.m * xi.denominator) // gcd(s.m, xi.denominator)
    scale = mp // s.m
    jstar = int(xi * mp)
    coeffs = {}
    cstar = Fraction(1)
    for j, c in s.coeffs:
        if Fraction(j, s.m) < xi:
            coeffs[j * scale] = c
        elif Fraction(j, s.m) == xi:
            cstar = c + 1
    coeffs[jstar] = cstar
    series = PuiseuxSeries.make(mp, coeffs, max(jstar, 1), exact=True)
    return Curve(PuiseuxBranch(base=branch.base, series=series, minpoly=None))


def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The smallest-denominator rational strictly inside (lo, hi)."""
    il = floor(lo)
    if il + 1 < hi:
        return Fraction(il + 1)
    if lo == il:
        return il + Fraction(1, floor(1 / (hi - il)) + 1)
    return il + 1 / _simplest_between(1 / (hi - il), 1 / (lo - il))


def divisorial_on_segment_by_probes(branch, alpha):
    """``puiseux.divisorial_on_segment`` as a secant-and-bisection search
    over curves perturbed off the branch, with its profile rebuilt: each
    +8 round of the dual-path profile builds a fresh chain cluster, and
    its whole geometry, from the root.

    The divisorial valuation of given skewness on [root, branch].

    If the skewness matches a center of the branch the node is returned
    directly.  Otherwise the point is the junction with a branch
    perturbed at the right contact exponent.  The contact-to-skewness
    map is affine between consecutive dual-path centers with slope
    -m / (b_i b_j) read off the edge, so each probe is projected to the
    target with the exact local slope and lands one edge closer at
    worst; simplest-rational bisection is the fallback that keeps probe
    denominators small.  Each probe meets the branch's one walk,
    continued, with a fresh walk of the perturbed curve.
    """
    alpha = Ext(_q(alpha))
    if alpha >= Ext(1):
        raise PreconditionViolated("segment skewness must be below 1")
    cv = Curve(branch)
    ram = branch.series.m

    # dual-path profile [(skewness, multiplicity)] from the root down,
    # extended on demand
    state = {"depth": 8, "profile": None, "cl": None, "path": None}
    walk = BranchWalk(branch.series)

    def extend_profile(below: Ext):
        if state["profile"] is not None and state["profile"][-1][0] < below:
            return
        while True:
            cl = chain_cluster(branch.base, walk.steps(state["depth"]))
            g = cl.geometry()
            dp = g.dual_path(len(cl) - 1)
            prof = [(Ext(g.rows[n].alpha), g.rows[n].b) for n in dp]
            state.update(profile=prof, cl=cl, path=dp)
            if prof[-1][0] < below:
                return
            state["depth"] += 8

    extend_profile(alpha)
    for (av, _), n in zip(state["profile"], state["path"]):
        if av == alpha:
            return Divisorial(state["cl"], n)

    def slope_denominator(a_from: Ext) -> Fraction:
        """b_i * b_j of the edge on the target side of a_from."""
        extend_profile(min(a_from, alpha))
        prof = state["profile"]
        for i in range(len(prof) - 1):
            hi_a, lo_a = prof[i][0], prof[i + 1][0]
            on_edge = hi_a > a_from > lo_a
            at_top = a_from == hi_a and alpha < a_from
            at_bottom = a_from == lo_a and alpha > a_from
            if on_edge or at_top or at_bottom:
                return Fraction(prof[i][1] * prof[i + 1][1])
        raise InternalMismatch("probe skewness fell off the dual profile")

    def probe(xi):
        # meet(cv, other), continuing the walk of cv's own branch
        other = _perturbed_curve(branch, xi)
        if equal(cv, other):
            return skewness(cv), cv
        sa, sb = diverging_walk_steps(
            (walk, BranchWalk(other.branch.series)), DIVERGING_WORKS)
        merged, (ea, eb) = merge_paths([(branch.base, tuple(sa)),
                                        (branch.base, tuple(sb))])
        m = _wrap_lca(merged.geometry().lca(ea, eb), merged, cv, other)
        return skewness(m), m

    lo = Fraction(1, 2 * ram)
    a_lo, m_lo = probe(lo)
    while a_lo < alpha:
        lo /= 2
        a_lo, m_lo = probe(lo)
    if a_lo == alpha:
        return m_lo
    hi = Fraction(2)
    a_hi, m_hi = probe(hi)
    while a_hi > alpha:
        hi *= 2
        a_hi, m_hi = probe(hi)
    if a_hi == alpha:
        return m_hi

    for _ in range(500):
        if (a_lo - alpha) <= (alpha - a_hi):
            x_p, a_p = lo, a_lo
        else:
            x_p, a_p = hi, a_hi
        extend_profile(min(a_p, a_hi))
        xc = x_p + (a_p - alpha).q * slope_denominator(a_p) / ram
        if not lo < xc < hi:
            xc = _simplest_between(lo, hi)
        a_c, m_c = probe(xc)
        if a_c == alpha:
            return m_c
        if a_c > alpha:
            lo, a_lo = xc, a_c
        else:
            hi, a_hi = xc, a_c
    raise InternalMismatch("segment point search did not converge")


def logplus_laplacian_by_rebuild(Q, K=None, materialize=True):
    """The round-based search that the Green identity of
    ``puiseux.logplus_laplacian`` replaced, with every round rebuilt: each
    +4 round merges every path afresh, builds the whole geometry and
    evaluates Q again at every dual-path node.

    Atoms where the valuation of Q first reaches zero on the way from
    the root to each branch at infinity, weighted by the branch masses.

    With materialize=True interior atoms are realized by the probe search
    ``divisorial_on_segment_by_probes``; otherwise they stay segment
    points.  An atom at the end of a branch's path is read only once the
    branch's next center is known to be free, as in
    ``puiseux.divisorial_on_segment``; a truncation that does not certify
    it raises InsufficientTruncation.
    """
    pairs = weighted_branches(Q, K)
    walks = [BranchWalk(b.series) for b, _ in pairs]
    depths = [6] * len(pairs)
    while True:
        paths = [(b.base, tuple(walks[i].steps(depths[i])))
                 for i, (b, _) in enumerate(pairs)]
        merged, ends = merge_paths(paths)
        g = merged.geometry()
        vals = {LINF: Fraction(-poly.degree(Q))}
        atoms = []
        redo = False
        for i, (b, e) in enumerate(pairs):
            path = g.dual_path(ends[i])
            for n in path:
                if n not in vals:
                    vals[n] = eval_divisorial(merged, n, Q)
            crossing = None
            for prev, n in zip(path, path[1:]):
                if vals[n] == 0:
                    if n == ends[i] and not isinstance(
                            walks[i].steps(depths[i] + 1)[-1], Free):
                        # E_n is on [root, branch] only if the branch
                        # leaves its center by a free step; a truncation
                        # that does not certify that step raises here
                        break
                    crossing = Divisorial(merged, n)
                    break
                if vals[n] > 0:
                    a0, a1 = g.rows[prev].alpha, g.rows[n].alpha
                    astar = a0 + (-vals[prev]) * (a1 - a0) / \
                        (vals[n] - vals[prev])
                    if materialize:
                        crossing = divisorial_on_segment_by_probes(b, astar)
                    else:
                        crossing = EdgePoint(Curve(b), astar)
                    break
            if crossing is None:
                depths[i] += 4
                redo = True
                break
            atoms.append((crossing, e * b.multiplicity))
        if not redo:
            return measure(atoms)


def meet_curve_by_one_shot_merges(c, v):
    """The meet of a curve and a path, by the stride search of the hull's
    curve deepening with every probe rebuilt: each probe merges both
    paths afresh and builds the whole geometry.  After a doubling stride
    that the walk cannot certify, it steps back in +2 strides from the
    last depth checked."""
    target = path_key(v)
    if c.branch.base != target[0]:
        return ROOT
    walk = BranchWalk(c.branch.series)

    def meet_at(depth):
        """The meet read off the first ``depth`` centers of c, or None
        while their end is on the dual path of v's divisor."""
        merged, (et, ec) = merge_paths(
            [target, (c.branch.base, tuple(walk.steps(depth)))])
        lca = merged.geometry().lca(et, ec)
        return None if lca == ec else _wrap_lca(lca, merged, v, c)

    # from two centers past v's path on, once the branch end leaves v's
    # dual path it stays off it and gives the same meet, so the depth
    # grows in doubling strides; a walk that cannot be certified sends the
    # search back to +2 strides from the last depth checked, so that it
    # raises only where a search in +2 strides raises
    last, depth, stride, grow = None, len(target[1]) + 2, 2, True
    while True:
        try:
            out = meet_at(depth)
        except InsufficientTruncation:
            if last is None or depth == last + 2:
                raise
            depth, stride, grow = last + 2, 2, False
            continue
        if out is not None:
            return out
        last, depth = depth, depth + stride
        if grow:
            stride *= 2


# ---------------------------------------------------------------------------
# the branch walker at full precision
# ---------------------------------------------------------------------------


def _full_center_step(state, work):
    """One center of a branch, keeping U^-1 and V^-1 in the state."""
    U, V, v_present, Ui, Vi = state
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
        if Vi is None:
            Vi = V.inverse(work)
        return SatU(), (U * Vi, V, True, None, Vi)
    if Ui is None:
        Ui = U.inverse(work)
    if b > a:
        step = SatV() if v_present else Free(Fraction(0))
        return step, (U, V * Ui, v_present, Ui, None)
    c = V.leading() / U.leading()
    return Free(c), (U, V * Ui - LaurentSeries.monomial(0, c), False, Ui,
                     None)


def _full_branch_state(series):
    return (LaurentSeries.monomial(series.m), series.tau_series(), False,
            None, None)


def full_doubling(work, cap):
    """``work`` doubled up to the first past ``cap``, which is the last."""
    works = [work]
    while works[-1] <= cap:
        works.append(2 * works[-1])
    return tuple(works)


def full_branch_works(series, depth):
    top = max((j for j, _ in series.coeffs), default=1)
    return full_doubling(4 * (series.m * (depth + 2) + top + 8), 1 << 16)


FULL_DIVERGING_WORKS = full_doubling(256, 1 << 17)


class FullPrecisionWalk:
    """The sequence of centers of one branch, walked once and resumed,
    as ``cluster.BranchWalk`` walked it before precision on demand: a
    truncated series at its whole truncation K + 1, and an exact one at
    the first rung of the caller's schedule that certifies every center,
    redoing the walk from the root at each rung.  Its schedules start at
    their old first rungs; their tops are those of ``cluster``.
    """

    def __init__(self, series):
        self.series = series
        self._steps = []
        self._state = _full_branch_state(series)
        self._work = None

    def steps(self, depth, works=None):
        n = max(depth - 1, 0)
        if n > len(self._steps):
            self._reach(n, works or full_branch_works(self.series, depth))
        return self._steps[:n]

    def step(self, i, works):
        if i >= len(self._steps):
            self._reach(i + 1, works)
        return self._steps[i]

    def _walk(self, n):
        while len(self._steps) < n:
            step, self._state = _full_center_step(self._state, self._work)
            self._steps.append(step)

    def _reach(self, n, works):
        if not self.series.exact:
            self._walk(n)
            return
        failed = 0
        if self._work is not None and self._work <= works[-1]:
            try:
                self._walk(n)
                return
            except InsufficientTruncation:
                failed = self._work
        # a walk that failed at one precision fails at every lower one
        for work in [w for w in works[:-1] if w > failed] + [works[-1]]:
            self._steps, self._state = [], _full_branch_state(self.series)
            self._work = work
            try:
                self._walk(n)
                return
            except InsufficientTruncation:
                if work == works[-1]:
                    raise


def diverging_walk_steps(walks, works):
    """``cluster.diverging_steps`` on two given walks, ``BranchWalk``s or
    ``FullPrecisionWalk``s, continued on the schedule ``works``."""
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
        out.append(walk.steps(n + 1))
    return tuple(out)


def full_diverging_steps(walks):
    """``cluster.diverging_steps`` on two ``FullPrecisionWalk``s."""
    return diverging_walk_steps(walks, FULL_DIVERGING_WORKS)


# ---------------------------------------------------------------------------
# factoring and division through sympy, the engine before valinf.factor
# ---------------------------------------------------------------------------


def to_sympy(P: dict):
    import sympy

    x, y = sympy.symbols("x y")
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator) * x ** i * y ** j
        for (i, j), c in P.items()])


def _univariate(coeffs: dict):
    """sympy.Poly in t over QQ with the coefficients {exponent: c}."""
    import sympy

    return sympy.Poly.from_dict(
        {(e,): sympy.Rational(c.numerator, c.denominator)
         for e, c in coeffs.items()}, sympy.Symbol("t"), domain="QQ")


def rational_root_by_sympy(q: Fraction, m: int):
    """``exact.rational_root`` on sympy's ``integer_nthroot``."""
    from sympy import integer_nthroot

    if m == 1:
        return q
    if q < 0 and m % 2 == 0:
        return None
    rn, okn = integer_nthroot(abs(q.numerator), m)
    rd, okd = integer_nthroot(q.denominator, m)
    if not (okn and okd):
        return None
    return Fraction(-int(rn) if q < 0 else int(rn), int(rd))


def factor_rational_by_sympy(P: dict):
    """``poly.factor_rational`` on ``sympy.Poly.factor_list``."""
    P = poly.require_nonzero(P)
    a = min(i for i, _ in P)
    b = min(j for _, j in P)
    keyed = [((2, 1, e, [1, 0]), {m: Fraction(1)}, e)
             for m, e in (((1, 0), a), ((0, 1), b)) if e]
    rest = {(i - a, j - b): c for (i, j), c in P.items()}
    used = [k for k in (0, 1) if any(m[k] for m in rest)]
    if used:
        import sympy

        xy = sympy.symbols("x y")
        p = sympy.Poly.from_dict(
            {tuple(m[k] for k in used):
             sympy.Rational(c.numerator, c.denominator)
             for m, c in rest.items()}, *[xy[k] for k in used], domain="QQ")
        for f, e in p.factor_list()[1]:
            fd = {}
            for mono, c in f.terms():
                ij = [0, 0]
                for k, d in zip(used, mono):
                    ij[k] = int(d)
                fd[tuple(ij)] = Fraction(int(c.numerator), int(c.denominator))
            rep = f.rep.to_list()
            keyed.append(((len(rep), len(used), int(e), rep), fd, int(e)))
    keyed.sort(key=lambda t: t[0])
    return [(fd, e) for _, fd, e in keyed]


def char_roots_by_sympy(G: dict, on_edge, p: int, jmin: int):
    """``puiseux._char_roots`` on ``sympy.factor_list``."""
    import sympy

    pol = _univariate({(j - jmin) // p: G[(i, j)] for (i, j) in on_edge})
    _, factors = sympy.factor_list(pol)
    roots = []
    for f, e in factors:
        if f.degree() == 0:
            continue
        if f.degree() > 1:
            raise NeedsFieldExtension(
                f"edge polynomial has an irrational root: {f.as_expr()}",
                minimal_polynomial=str(f.as_expr()))
        a1, a0 = f.all_coeffs()
        r = sympy.Rational(-a0) / sympy.Rational(a1)
        t0 = Fraction(int(r.p), int(r.q))
        if t0 == 0:
            continue
        c = rational_root_by_sympy(t0, p)
        if c is None:
            raise NeedsFieldExtension(
                f"branch coefficient c with c^{p} = {t0} is irrational",
                minimal_polynomial=f"c^{p} - ({t0})")
        roots.append((c, int(e)))
    return roots


def base_points_by_sympy(f: dict):
    """``puiseux._base_points`` on ``sympy.factor_list``."""
    import sympy

    d = poly.degree(f)
    bases = []
    pol = _univariate({j: c for (i, j), c in f.items() if i + j == d})
    if pol.degree() < d:
        bases.append(PointAtInfinity("y"))
    _, factors = sympy.factor_list(pol)
    for g, _ in factors:
        if g.degree() == 0:
            continue
        if g.degree() > 1:
            raise NeedsFieldExtension(
                f"irrational point at infinity: {g.as_expr()}",
                minimal_polynomial=str(g.as_expr()))
        a1, a0 = g.all_coeffs()
        t0 = -Fraction(int(sympy.Rational(a0).p), int(sympy.Rational(a0).q)) \
            / Fraction(int(sympy.Rational(a1).p), int(sympy.Rational(a1).q))
        bases.append(PointAtInfinity("x", -t0))
    return bases


def minpoly_divides_by_sympy(minpoly: tuple, P: dict) -> bool:
    """``valuations._minpoly_divides`` on ``sympy.div``."""
    import sympy

    x, y = sympy.symbols("x y")
    f = to_sympy(dict(minpoly))
    g = to_sympy(P)
    _, rem = sympy.div(g, f, x, y, domain="QQ")
    return sympy.expand(rem) == 0


# ---------------------------------------------------------------------------
# potential theory by pairwise meets
# ---------------------------------------------------------------------------


def build_tree_by_meets(points) -> FiniteTree:
    """``potential.build_tree`` by the pairwise routine that the hull
    replaced: each point is located by ``point_equal`` and spliced in by
    ``point_meet`` with every vertex so far."""
    verts = [ROOT]
    parent = [None]

    def locate(p):
        for i, x in enumerate(verts):
            if point_equal(x, p):
                return i
        return None

    def splice(leaf, m):
        # insert m, known to lie on [root, verts[leaf]], along that path
        am = point_skewness(m)
        path = [leaf]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        path.reverse()
        for k, i in enumerate(path):
            if point_skewness(verts[i]) == am:
                return i
            if point_skewness(verts[i]) < am:
                verts.append(m)
                parent.append(path[k - 1])
                parent[i] = len(verts) - 1
                return len(verts) - 1
        raise InternalMismatch("splice point below its own anchor path")

    def insert(p):
        i = locate(p)
        if i is not None:
            return i
        best, leaf = ROOT, 0
        for i, x in enumerate(verts):
            m = point_meet(p, x)
            if point_skewness(m) < point_skewness(best):
                best, leaf = m, i
        if point_equal(best, p):
            return splice(leaf, p)
        anchor = locate(best)
        if anchor is None:
            anchor = splice(leaf, best)
        verts.append(p)
        parent.append(anchor)
        return len(verts) - 1

    for p in points:
        insert(p)
    return FiniteTree(parent=tuple(parent),
                      alpha=tuple(point_skewness(x) for x in verts),
                      points=tuple(verts))


def retract_by_meets(p, tree: FiniteTree):
    """``potential.retract`` by one ``point_meet`` per tree point."""
    best = ROOT
    for x in tree.points:
        if x is None:
            raise ValueError("retraction needs realized tree points")
        m = point_meet(p, x)
        if point_skewness(m) < point_skewness(best):
            best = m
    i = tree.find(best)
    if i is None:
        raise InternalMismatch("retraction landed outside the tree")
    return tree.points[i]


def value_by_meets(rho: DiscreteMeasure, w) -> Ext:
    """``potential.value`` by one ``point_green`` per atom."""
    return ext_sum(Ext(m) * point_green(p, w) for p, m in rho.atoms)


def dirichlet_by_meets(rho: DiscreteMeasure, sigma: DiscreteMeasure) -> Ext:
    """``potential.dirichlet`` by one ``point_green`` per atom pair."""
    terms = [Ext(mp) * Ext(mq) * point_green(p, q)
             for p, mp in rho.atoms for q, mq in sigma.atoms]
    if all(t.kind == 0 for t in terms):
        return ext_sum(terms)
    if rho.is_positive() and sigma.is_positive():
        # endpoint self-pairings of a positive measure: -inf is allowed
        return NEG_INF
    raise IndeterminateForm(
        "signed pairing with an endpoint atom is not square-integrable")


def log_value_by_meets(Q: dict, v, K=None) -> Ext:
    """``puiseux.log_value`` by one ``point_green`` per branch."""
    return ext_sum(Ext(e * b.multiplicity) * point_green(Curve(b), v)
                   for b, e in weighted_branches(Q, K))
