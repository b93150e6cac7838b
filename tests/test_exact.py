from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (gauss_jordan, is_negative_definite,
                     solve_linear_by_fractions, upoly, upoly_det, upoly_limit,
                     upoly_rows)
from valinf.exact import (Ext, IndeterminateForm, NEG_INF, POS_INF,
                          SymMatrixExt, chi_det, det, ext_sum, invert_matrix,
                          solve_linear)
from valinf.series import LaurentSeries, PuiseuxSeries

F = Fraction
derandomized = settings(derandomize=True, max_examples=200, deadline=None)


def chi_by_minor_expansion(M: SymMatrixExt) -> Ext:
    """chi_det's slow path: (-1)^n times the limit of the determinant,
    expanded by minors as a polynomial in u."""
    p = upoly_det(upoly_rows(M))
    return upoly_limit(tuple(-c for c in p) if M.size % 2 else p)


def leading_blocks(M: SymMatrixExt):
    return [SymMatrixExt([row[:k] for row in M.entries[:k]])
            for k in range(1, M.size + 1)]


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


class TestUPolyOracle:
    @pytest.mark.parametrize("coeffs, want", [
        ([0, 0, 1], POS_INF),
        ([-1, 0, 1], POS_INF),
        ([0, 1], NEG_INF),
        ([F(7, 2)], Ext(F(7, 2))),
        ([5], Ext(5)),
        ([], Ext(0)),
        ([3, 0, 0, -1], POS_INF),
    ], ids=["u^2", "u^2-1", "u", "7/2", "5", "zero", "3-u^3"])
    def test_limit(self, coeffs, want):
        assert upoly_limit(upoly(coeffs)) == want

    def test_det(self):
        u, one = upoly([0, 1]), upoly([1])
        assert upoly_det([[u, one], [one, u]]) == upoly([-1, 0, 1])


class TestChiDet:
    def test_single_entries(self):
        assert chi_det(SymMatrixExt([[-1]])) == Ext(1)
        assert chi_det(SymMatrixExt([[0]])) == Ext(0)
        assert chi_det(SymMatrixExt([[1]])) == Ext(-1)

    def test_two_branches(self):
        M = SymMatrixExt([[NEG_INF, 1], [1, NEG_INF]])
        assert chi_det(M) == POS_INF
        assert is_negative_definite(M)

    # each id names det(M) with u in place of -inf; chi is (-1)^n times
    # its limit
    @pytest.mark.parametrize("entries, want", [
        ([[NEG_INF, 1], [1, NEG_INF]], POS_INF),
        ([[NEG_INF, 0], [0, NEG_INF]], POS_INF),
        ([[NEG_INF]], POS_INF),
        ([[F(7, 2)]], Ext(F(-7, 2))),
        ([[NEG_INF, 1], [1, 0]], Ext(-1)),
        ([[NEG_INF, NEG_INF], [NEG_INF, NEG_INF]], Ext(0)),
        ([[NEG_INF, 1, 0], [1, 0, 0], [0, 0, NEG_INF]], NEG_INF),
    ], ids=["u^2-1", "u^2", "u", "7/2", "-1", "0", "-u"])
    def test_limits_of_realized_polynomials(self, entries, want):
        M = SymMatrixExt(entries)
        assert chi_det(M) == want == chi_by_minor_expansion(M)

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
    minors = [det([row[:k] for row in m[:k]]) for k in range(1, len(m) + 1)]
    direct = all(d != 0 and (d > 0) == (k % 2 == 0)
                 for k, d in enumerate(minors, 1))
    assert is_negative_definite(SymMatrixExt(m)) == direct


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


entries = st.sampled_from([F(0), F(1), F(-1), F(2), F(-3), F(1, 2),
                           F(-2, 3), F(5, 4)])


@st.composite
def linear_system(draw):
    """(A, b) with 1-8 rows and columns, all-int or Fraction entries and
    b absent, A x for an integer x, or arbitrary; one in three A of 3 or
    more rows has a row that is a combination of two others, so the rank
    drops and an arbitrary b is often inconsistent."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    ints = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7])
    entry = draw(st.sampled_from([ints, ints.map(F), entries]))
    A = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if m > 2 and draw(st.integers(0, 2)) == 0:
        i, j, k = draw(st.permutations(range(m)))[:3]
        c = draw(st.sampled_from([1, -2, F(1, 3)]))
        A[k] = [e + c * f for e, f in zip(A[i], A[j])]
    kind = draw(st.sampled_from(["none", "image", "arbitrary"]))
    if kind == "none":
        return A, None
    if kind == "image":
        x = [draw(st.integers(-3, 3)) for _ in range(n)]
        return A, [sum(a * c for a, c in zip(row, x)) for row in A]
    return A, [draw(entry) for _ in range(m)]


@derandomized
@given(linear_system())
def test_solve_linear_matches_fraction_gauss_jordan(system):
    A, b = system
    res = solve_linear(A, b)
    assert res == solve_linear_by_fractions(A, b)
    assert all(type(e) is F for e in (res.solution or []))
    assert all(type(e) is F for vec in res.kernel for e in vec)


@pytest.mark.parametrize("A, b", [
    ([[1, 2], [3]], None),
    ([[1], [2, 3]], [0, 0]),
    ([[1, 2]], [1, 2]),
    ([[1]], []),
], ids=["ragged", "ragged-rhs", "long-rhs", "short-rhs"])
def test_solve_linear_shape_errors(A, b):
    with pytest.raises(ValueError) as want:
        solve_linear_by_fractions(A, b)
    with pytest.raises(ValueError, match=str(want.value)):
        solve_linear(A, b)


@st.composite
def square_matrix(draw, max_n=8):
    """A square rational matrix; one in three has a repeated row."""
    n = draw(st.integers(1, max_n))
    A = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.integers(0, 2)) == 0:
        i, j = draw(st.permutations(range(n)))[:2]
        A[j] = [draw(st.sampled_from([1, -2, F(1, 3)])) * e for e in A[i]]
    return A


@st.composite
def sym_ext_matrix(draw, max_n=8):
    """A symmetric matrix over Ext with -inf on some of the diagonal and,
    rarely, off it; one in three repeats a row and column."""
    n = draw(st.integers(1, max_n))
    M = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            M[i][j] = M[j][i] = draw(entries)
    if n > 1 and draw(st.integers(0, 2)) == 0:
        i, j = draw(st.permutations(range(n)))[:2]
        for k in range(n):
            M[j][k] = M[k][j] = M[i][k]
        M[j][j] = M[i][i]
    for i in range(n):
        if draw(st.integers(0, 2)) == 0:
            M[i][i] = NEG_INF
    if n > 1 and draw(st.integers(0, 7)) == 0:
        i, j = draw(st.permutations(range(n)))[:2]
        M[i][j] = M[j][i] = NEG_INF
    return SymMatrixExt(M)


@derandomized
@given(square_matrix())
def test_bareiss_matches_gauss_jordan(A):
    d, inv = gauss_jordan(A)
    assert det(A) == d
    assert invert_matrix(A) == inv


@derandomized
@given(sym_ext_matrix())
def test_chi_det_and_sylvester_match_minor_expansion(M):
    blocks = leading_blocks(M)
    chis = [chi_det(B) for B in blocks]
    assert chis == [chi_by_minor_expansion(B) for B in blocks]
    # chi of the k-th leading block is (-1)^k times its minor's limit
    assert is_negative_definite(M) == all(chi > 0 for chi in chis)


@st.composite
def degree_drop_matrix(draw):
    """A symmetric matrix of size n <= 9 with r rows that hold a -inf
    whose determinant, with u for -inf, has degree below r: a -inf row
    repeated with -inf where the two meet, so det is 0, or a -inf
    diagonal entry whose row meets a row that is zero but for a 1 in its
    column, so that u leaves the expansion."""
    n = draw(st.integers(2, 9))
    order = draw(st.permutations(range(n)))
    i, j = order[:2]
    M = [[F(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1):
            M[a][b] = M[b][a] = draw(entries)
    for k in (i, *order[2 + draw(st.integers(0, n - 2)):]):
        M[k][k] = NEG_INF
    if draw(st.booleans()):
        for k in range(n):
            M[j][k] = M[k][j] = M[i][k]
        M[i][j] = M[j][i] = M[j][j] = NEG_INF
    else:
        for k in range(n):
            M[j][k] = M[k][j] = F(0)
        M[i][j] = M[j][i] = F(1)
    return SymMatrixExt(M)


@derandomized
@given(degree_drop_matrix())
def test_chi_det_matches_minor_expansion_where_the_degree_drops(M):
    r = sum(1 for row in M.entries if any(e.kind < 0 for e in row))
    assert len(upoly_det(upoly_rows(M))) - 1 < r
    assert chi_det(M) == chi_by_minor_expansion(M)


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det([[1, 2]])


@pytest.mark.parametrize("build", [
    lambda x: Ext(x),
    lambda x: solve_linear([[1, x]]),
    lambda x: solve_linear([[1]], [x]),
    lambda x: LaurentSeries({0: 1, 2: x}),
    lambda x: PuiseuxSeries.make(2, {1: x}, 1),
], ids=["Ext", "solve_linear", "solve_linear_rhs", "LaurentSeries",
        "PuiseuxSeries.make"])
def test_floats_are_rejected(build):
    # a float is not an exact rational; ints, Fractions and "p/q" are
    with pytest.raises(TypeError, match="not an exact rational: 0.5"):
        build(0.5)
    build(F(1, 2))
    build("1/2")
    build(3)
