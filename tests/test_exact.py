import gc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from valinf.exact import (Ext, IndeterminateForm, NEG_INF, POS_INF,
                          SymMatrixExt, TPoly, chi_det, ext_sum,
                          is_negative_definite, limit_at_neg_infinity,
                          sign_at_neg_infinity, solve_linear, tpoly_det)

F = Fraction


class TestExt:
    def test_order(self):
        assert NEG_INF < Ext(-1000) < Ext(0) < Ext(F(1, 3)) < POS_INF

    def test_arithmetic(self):
        assert Ext(F(1, 2)) + Ext(F(1, 3)) == Ext(F(5, 6))
        assert POS_INF + Ext(5) == POS_INF
        assert NEG_INF * Ext(-2) == POS_INF
        assert Ext(3) / NEG_INF == Ext(0)

    def test_indeterminate(self):
        with pytest.raises(IndeterminateForm):
            POS_INF + NEG_INF
        with pytest.raises(IndeterminateForm):
            Ext(0) * POS_INF

    def test_sum_detects_mixed_infinities(self):
        with pytest.raises(IndeterminateForm):
            ext_sum([POS_INF, Ext(1), NEG_INF])
        assert ext_sum([NEG_INF, Ext(7)]) == NEG_INF


class TestTPoly:
    def test_sign_at_neg_infinity(self):
        # u^2 - 1 -> +inf
        assert sign_at_neg_infinity(TPoly([-1, 0, 1])) == (1, "infinite")
        assert sign_at_neg_infinity(TPoly([F(7, 2)])) == (1, "finite")
        assert sign_at_neg_infinity(TPoly([0, 1])) == (-1, "infinite")
        assert sign_at_neg_infinity(TPoly()) == (0, "finite")

    def test_limit(self):
        assert limit_at_neg_infinity(TPoly([0, 0, 1])) == POS_INF
        assert limit_at_neg_infinity(TPoly([0, 1])) == NEG_INF
        assert limit_at_neg_infinity(TPoly([5])) == Ext(5)

    def test_det(self):
        u = TPoly.param()
        one = TPoly.const(1)
        d = tpoly_det([[u, one], [one, u]])
        assert d == TPoly([-1, 0, 1])


class TestChiDet:
    def test_single_entries(self):
        assert chi_det(SymMatrixExt([[-1]])) == Ext(1)
        assert chi_det(SymMatrixExt([[0]])) == Ext(0)
        assert chi_det(SymMatrixExt([[1]])) == Ext(-1)

    def test_two_branches(self):
        M = SymMatrixExt([[NEG_INF, 1], [1, NEG_INF]])
        assert chi_det(M) == POS_INF
        assert is_negative_definite(M)

    def test_neg_definite_small(self):
        assert is_negative_definite(SymMatrixExt([[-1]]))
        assert not is_negative_definite(SymMatrixExt([[1]]))
        assert not is_negative_definite(SymMatrixExt([[0]]))

    def test_rejects_pos_inf(self):
        with pytest.raises(ValueError):
            SymMatrixExt([[POS_INF]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymMatrixExt([[1, 2], [3, 1]])


@st.composite
def sym_rational_matrix(draw):
    n = draw(st.integers(1, 4))
    vals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            v = draw(vals)
            m[i][j] = m[j][i] = v
    return m


@given(sym_rational_matrix())
def test_finite_sylvester_matches_direct(m):
    """With all entries finite the limit criterion is the plain one."""
    M = SymMatrixExt(m)
    direct = True
    for k in range(1, len(m) + 1):
        p = M.det_tpoly(k)
        minor = p.coeffs[0] if p.coeffs else F(0)
        assert p.degree <= 0
        if (minor > 0) != (k % 2 == 0) or minor == 0:
            direct = False
            break
    assert is_negative_definite(M) == direct


class TestSolveLinear:
    def test_particular(self):
        res = solve_linear([[1, 1], [1, -1]], [1, 0])
        assert res.solution == [F(1, 2), F(1, 2)]
        assert res.kernel == []

    def test_trivial(self):
        res = solve_linear([[1]], [0])
        assert res.solution == [F(0)]

    def test_no_solution(self):
        res = solve_linear([[0]], [1])
        assert res.solution is None

    def test_kernel(self):
        res = solve_linear([[1, 1, 0], [0, 0, 1]], [0, 0])
        assert len(res.kernel) == 1
        k = res.kernel[0]
        assert k[0] + k[1] == 0 and k[2] == 0

    @given(st.lists(st.lists(st.fractions(min_value=-4, max_value=4,
                                          max_denominator=4),
                             min_size=3, max_size=3),
                    min_size=2, max_size=4))
    def test_exactness(self, rows):
        res = solve_linear(rows, [F(0)] * len(rows))
        assert res.solution == [F(0)] * 3 or res.solution is not None
        for k in res.kernel:
            for row in rows:
                assert sum(a * b for a, b in zip(row, k)) == 0


def test_tpoly_det_frees_its_minors_on_return():
    # the memoized recursion is a reference cycle; its 2^n cached minors
    # must not wait for the cyclic garbage collector
    n = 7
    rows = [[TPoly([Fraction(i + j + 1), Fraction(int(i == j))])
             for j in range(n)] for i in range(n)]
    gc.collect()
    gc.disable()
    try:
        tpoly_det(rows)
        assert gc.collect() < 2 ** n
    finally:
        gc.enable()
