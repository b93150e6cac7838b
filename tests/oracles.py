"""Slow reference computations kept only as test oracles."""

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
