"""Slow reference computations kept only as test oracles."""

from fractions import Fraction

from valinf import poly
from valinf.cluster import (LINF, BranchWalk, Cluster, branch_steps,
                            chain_cluster, eval_divisorial, merge_paths)
from valinf.errors import (InsufficientTruncation, InternalMismatch,
                           PreconditionViolated)
from valinf.exact import Ext, SymMatrixExt, _q, sign_at_neg_infinity
from valinf.potential import EdgePoint, measure
from valinf.puiseux import (_perturbed_curve, _simplest_between,
                            weighted_branches)
from valinf.valuations import (ROOT, Curve, Divisorial, _meet_curves,
                               _wrap_lca, equal, path_key, skewness)


def is_negative_definite(M: SymMatrixExt) -> bool:
    """Sylvester criterion evaluated in the u -> -inf limit: one
    determinant per leading block."""
    for k in range(1, M.size + 1):
        sign, _ = sign_at_neg_infinity(M.det_tpoly(k))
        want = 1 if k % 2 == 0 else -1
        if sign != want:
            return False
    return True


def branch_to_nodes(base, series, depth: int):
    """Cluster through the first ``depth`` centers of a branch.

    Returns (cluster, node path); depth 0 gives (empty cluster, []).
    """
    if depth <= 0:
        return Cluster([]), []
    steps = branch_steps(base, series, depth)
    cl = chain_cluster(base, steps)
    return cl, list(range(depth))


def divisorial_on_segment_by_rebuild(branch, alpha):
    """``puiseux.divisorial_on_segment`` with its profile rebuilt: each +8
    round of the dual-path profile builds a fresh chain cluster, and its
    whole geometry, from the root.

    The divisorial valuation of given skewness on [root, branch].

    If the skewness matches a center of the branch the node is returned
    directly.  Otherwise the point is the junction with a branch
    perturbed at the right contact exponent.  The contact-to-skewness
    map is affine between consecutive dual-path centers with slope
    -m / (b_i b_j) read off the edge, so each probe is projected to the
    target with the exact local slope and lands one edge closer at
    worst; simplest-rational bisection is the fallback that keeps probe
    denominators small.
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
            prof = [(Ext(g.alpha[n]), g.b[n]) for n in dp]
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
        m = cv if equal(cv, other) else _meet_curves(cv, other, walk)
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
    """``puiseux.logplus_laplacian`` with every round rebuilt: each +4 round
    merges every path afresh, builds the whole geometry and evaluates Q
    again at every dual-path node.

    Atoms where the valuation of Q first reaches zero on the way from
    the root to each branch at infinity, weighted by the branch masses.

    With materialize=True interior atoms are realized as divisorial
    valuations; otherwise they stay segment points, which is cheaper.
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
                    crossing = Divisorial(merged, n)
                    break
                if vals[n] > 0:
                    a0, a1 = g.alpha[prev], g.alpha[n]
                    astar = a0 + (-vals[prev]) * (a1 - a0) / \
                        (vals[n] - vals[prev])
                    if materialize:
                        crossing = divisorial_on_segment_by_rebuild(b, astar)
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
    """``valuations._meet_curve_realizable`` with every probe rebuilt: each
    probe merges both paths afresh and builds the whole geometry."""
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
