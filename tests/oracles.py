"""Slow reference computations kept only as test oracles."""

from valinf.cluster import Cluster, branch_steps, chain_cluster
from valinf.exact import SymMatrixExt, sign_at_neg_infinity


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
