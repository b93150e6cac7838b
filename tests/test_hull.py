"""The hull of a valuation set against the pairwise meets it replaced.

``valuations.meet`` and ``compare`` read a pair off a two-element
``Hull``; their oracles are ``oracles.meet_by_merges`` and
``compare_by_merges``, the pairwise routines that merge two paths and
build their geometry.  ``richness.matrix_alpha``, ``chi_of``,
``star_system`` and ``kernel_function`` read their matrix off one hull
of the set; each must give what its formula on
``oracles.matrix_alpha_by_meets`` gives: the same values, or an error of
the same type.  The hull's ``equal`` and ``comparable`` must agree with
the pairwise ``equal`` and ``compare`` wherever those decide.  The sets
mix Root, duplicates, comparable monomials and exact curves, or are
antichains of divisorials, or carry branches truncated at small K.
"""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (compare_by_merges, dual_tree_by_adjacency,
                     matrix_alpha_by_meets, meet_by_merges,
                     solve_linear_by_fractions)
from randgen import (random_cluster, random_divisorial_set, random_mixed_set,
                     random_path_batches)
from test_path_trie import CURVES
from valinf import cluster, poly, richness, valuations
from valinf.cluster import (LINF, BranchWalk, PathTrie, PointAtInfinity,
                            PuiseuxBranch, extend_dual_tree)
from valinf.errors import (DomainError, KernelDimensionNotOne,
                           NonPositiveKernel, PreconditionViolated,
                           SingularSystem, Undecided)
from valinf.exact import NEG_INF, Ext, SymMatrixExt, chi_det
from valinf.potential import DiscreteMeasure, measure
from valinf.puiseux import weighted_branches
from valinf.richness import ValuationSet, matrix_alpha
from valinf.series import PuiseuxSeries
from valinf.valuations import (ROOT, Comparison, Curve, Hull, Monomial,
                               compare, equal, meet, path_key, quasimonomial,
                               skewness)

F = Fraction
derandomized = settings(derandomize=True, max_examples=40, deadline=None)


def chi_by_meets(S):
    """chi of S with duplicates dropped by the pairwise ``equal``, after
    the whole pairwise matrix, which raises where a pair raises."""
    matrix_alpha_by_meets(S)
    kept = []
    for v in S:
        if not any(equal(k, v) for k in kept):
            kept.append(v)
    return chi_det(matrix_alpha_by_meets(kept)) if kept else Ext(1)


def finite_skewness(S):
    if any(skewness(v) == NEG_INF for v in S):
        raise PreconditionViolated("curve-type element")
    return list(S)


def star_by_meets(S):
    """The bordered system [1 1; 1 M] a = e_0 on the pairwise matrix."""
    vs = finite_skewness(S)
    M = matrix_alpha_by_meets(vs).entries
    n = len(vs)
    B = [[F(1)] * (n + 1)] + [[F(1)] + [a.q for a in M[i]] for i in range(n)]
    res = solve_linear_by_fractions(B, [F(1)] + [F(0)] * n)
    if res.solution is None or res.kernel:
        raise SingularSystem("singular")
    a = res.solution
    return a, measure([(ROOT, a[0])] + list(zip(vs, a[1:])))


def kernel_by_meets(S):
    """The kernel of the pairwise matrix of an antichain, normalized to
    total mass 1 and positive."""
    vs = finite_skewness(S)
    if any(compare_by_merges(v, w) != Comparison.INCOMPARABLE
           for i, v in enumerate(vs) for w in vs[i + 1:]):
        raise PreconditionViolated("comparable elements")
    M = matrix_alpha_by_meets(vs).entries
    kernel = solve_linear_by_fractions([[a.q for a in row]
                                        for row in M]).kernel
    if len(kernel) != 1:
        raise KernelDimensionNotOne("kernel dimension")
    total = sum(kernel[0])
    if total == 0:
        raise NonPositiveKernel("zero mass")
    a = [c / total for c in kernel[0]]
    if any(c <= 0 for c in a):
        raise NonPositiveKernel("not positive")
    return measure(list(zip(vs, a)))


ORACLES = {"matrix_alpha": matrix_alpha_by_meets, "chi_of": chi_by_meets,
           "star_system": star_by_meets, "kernel_function": kernel_by_meets}


def outcome(f, *args):
    """What ``f(*args)`` gives, as comparable data, or the type of what it
    raised."""
    try:
        out = f(*args)
    except (DomainError, Undecided) as e:
        return type(e)
    if isinstance(out, SymMatrixExt):
        return out.entries
    if isinstance(out, DiscreteMeasure):
        return [(id(p), m) for p, m in out.atoms]
    if isinstance(out, tuple):
        a, phi = out
        return a, [(id(p), m) for p, m in phi.atoms]
    return out


def pairwise(f, v, w):
    try:
        return f(v, w)
    except (DomainError, Undecided):
        return None


def check_against_meets(vs):
    S = ValuationSet.of(vs)
    for name, oracle in ORACLES.items():
        assert outcome(getattr(richness, name), S) == outcome(oracle, S), \
            name
    try:
        hull = Hull(vs)
    except (DomainError, Undecided):
        return
    for i, v in enumerate(vs):
        for j, w in enumerate(vs):
            eq = pairwise(equal, v, w)
            if eq is not None:
                assert hull.equal(i, j) == eq
            cmp = pairwise(compare, v, w)
            if cmp is not None:
                assert hull.comparable(i, j) == \
                    (cmp != Comparison.INCOMPARABLE)


@derandomized
@given(st.integers(0, 10 ** 6))
def test_mixed_sets_match_pairwise_meets(seed):
    check_against_meets(random_mixed_set(random.Random(seed), 6))


@derandomized
@given(st.integers(0, 10 ** 6))
def test_divisorial_sets_match_pairwise_meets(seed):
    rng = random.Random(seed)
    check_against_meets(random_divisorial_set(rng, rng.randint(1, 6)))


@derandomized
@given(st.integers(0, 10 ** 6), st.lists(
    st.tuples(st.sampled_from(CURVES), st.sampled_from([2, 3, 5])),
    min_size=1, max_size=3))
def test_truncated_branch_sets_match_pairwise_meets(seed, picks):
    """Truncated branches, alone or beside the mixed elements; a pair
    that its truncations cannot separate raises on both sides."""
    rng = random.Random(seed)
    vs = random_mixed_set(rng, 3)
    for text, K in picks:
        for b, _ in weighted_branches(poly.parse(text), K):
            vs.insert(rng.randrange(len(vs) + 1), Curve(b))
    check_against_meets(vs)


# ---------------------------------------------------------------------------
# the pairwise meet and comparison
# ---------------------------------------------------------------------------


def point(m):
    """A meet as comparable data: ROOT, the curve itself, or the kind and
    path of a realizable valuation."""
    if isinstance(m, Curve):
        return id(m)
    if m is ROOT:
        return m
    return type(m).__name__, path_key(m)


def met(f, v, w):
    """``point(f(v, w))``, or the type of what it raised."""
    try:
        return point(f(v, w))
    except (DomainError, Undecided) as e:
        return type(e)


def check_pairs(vs):
    for v in vs:
        for w in vs:
            assert met(meet, v, w) == met(meet_by_merges, v, w)
            assert outcome(compare, v, w) == outcome(compare_by_merges, v, w)


@derandomized
@given(st.integers(0, 10 ** 6), st.sampled_from(["mixed", "divisorial"]))
def test_meet_and_compare_match_the_pairwise_merges(seed, kind):
    rng = random.Random(seed)
    if kind == "mixed":
        check_pairs(random_mixed_set(rng, 6))
    else:
        check_pairs(random_divisorial_set(rng, rng.randint(1, 6)))


@derandomized
@given(st.integers(0, 10 ** 6), st.sampled_from(CURVES),
       st.sampled_from([None, 2, 3, 5, 8]))
def test_branch_meets_match_the_pairwise_merges(seed, text, K):
    """The branches of one curve at K, beside mixed elements."""
    rng = random.Random(seed)
    vs = random_mixed_set(rng, 3)
    for b, _ in weighted_branches(poly.parse(text), K):
        vs.insert(rng.randrange(len(vs) + 1), Curve(b))
    check_pairs(vs)


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------


def counting(fn):
    """Put a counter around ``fn`` under every name a valinf module gives
    it; returns (calls, undo)."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    names = [(m, a) for m in list(sys.modules.values())
             if getattr(m, "__name__", "").startswith("valinf")
             for a in list(vars(m)) if vars(m)[a] is fn]
    for m, a in names:
        setattr(m, a, wrapper)
    return calls, lambda: [setattr(m, a, fn) for m, a in names]


def builds_and_meets(S):
    builds, undo_builds = counting(cluster.build_geometry)
    meets, undo_meets = counting(valuations.meet)
    try:
        M = matrix_alpha(S)
    finally:
        undo_builds()
        undo_meets()
    return M, len(builds), len(meets)


def test_matrix_alpha_builds_no_geometry_and_meets_nothing():
    rng = random.Random(3)
    vs = random_divisorial_set(rng, 5) + [
        ROOT, Monomial(F(-1), F(1, 2)), Monomial(F(2), F(-1)),
        Monomial(F(-1), F(1, 2))]
    S = ValuationSet.of(vs)
    M, builds, meets = builds_and_meets(S)
    assert (builds, meets) == (0, 0)
    assert M.entries == matrix_alpha_by_meets(S).entries


def test_curves_are_deepened_without_a_geometry_per_probe():
    """Curves beside divisorials at their point of L-infinity, and beside
    each other: no geometry still, since the matrix reads the rows."""
    py = PointAtInfinity("y")
    curves = [Curve(b) for text in ("y^2-x^3", "(y-x^2)*(y-x^2-1)")
              for b, _ in weighted_branches(poly.parse(text))]
    S = ValuationSet.of(curves + [quasimonomial(py, 2, 3),
                                  quasimonomial(py, 1, 4), ROOT])
    M, builds, meets = builds_and_meets(S)
    assert (builds, meets) == (0, 0)
    assert M.entries == matrix_alpha_by_meets(S).entries


PY, PX = PointAtInfinity("y"), PointAtInfinity("x")


@pytest.fixture
def walks(monkeypatch):
    """Records the series of each ``BranchWalk`` started."""
    out = []
    init = BranchWalk.__init__

    def recording(self, series):
        out.append(series)
        init(self, series)

    monkeypatch.setattr(BranchWalk, "__init__", recording)
    return out


def test_a_curve_meets_an_element_elsewhere_at_the_root(walks):
    """No walk and no geometry for a curve and an element at a different
    point of L-infinity."""
    c, = [Curve(b) for b, _ in weighted_branches(poly.parse("y^2-x^3"))]
    d = Curve(next(b for b, _ in weighted_branches(
        poly.parse("(y^2-x^3)*(y^3-x^2)")) if b.base == PX))
    builds, undo = counting(cluster.build_geometry)
    try:
        for v in (quasimonomial(PX, 2, 3), Monomial(F(-1), F(2)), d):
            assert meet(c, v) is ROOT and meet(v, c) is ROOT
            assert compare(c, v) == Comparison.INCOMPARABLE
    finally:
        undo()
    assert (walks, builds) == ([], [])


def test_a_curve_alone_at_its_point_is_not_walked(walks):
    """It ends at its base node, so a truncation that certifies no center
    does not raise."""
    c = Curve(PuiseuxBranch(PY, PuiseuxSeries.make(1, {}, 0)))
    hull = Hull([c, quasimonomial(PX, 2, 3), ROOT])
    assert hull.cluster.key(hull.ends[0]) == (PY, ())
    assert walks == []
    assert hull.matrix()[0] == [NEG_INF, Ext(1), Ext(1)]


def test_a_curve_free_hull_adds_to_its_trie_once(monkeypatch):
    v, w = quasimonomial(PY, 2, 3), quasimonomial(PY, 1, 4)
    adds = []
    add = PathTrie.add
    monkeypatch.setattr(PathTrie, "add",
                        lambda self, paths: adds.append(1) or add(self, paths))
    builds, undo = counting(cluster.build_geometry)
    try:
        m = meet(v, w)
    finally:
        undo()
    assert (len(adds), len(builds)) == (1, 1)
    assert point(m) == point(meet_by_merges(v, w))


# ---------------------------------------------------------------------------
# the dual tree without geometry
# ---------------------------------------------------------------------------


@derandomized
@given(st.integers(0, 10 ** 6),
       st.sampled_from(["mixed", "divisorial", "curves"]),
       st.sampled_from(CURVES), st.sampled_from([None, 2, 3, 5]))
def test_hull_parent_map_is_the_geometry_dual_tree(seed, kind, text, K):
    """The parent map a hull keeps is its cluster's dual tree, so its
    lca is the one that ``meet`` reads off the geometry."""
    rng = random.Random(seed)
    if kind == "divisorial":
        vs = random_divisorial_set(rng, rng.randint(1, 6))
    else:
        vs = random_mixed_set(rng, 6 if kind == "mixed" else 3)
    if kind == "curves":
        for b, _ in weighted_branches(poly.parse(text), K):
            vs.insert(rng.randrange(len(vs) + 1), Curve(b))
    try:
        hull = Hull(vs)
    except (DomainError, Undecided):
        return
    assert hull._dual_tree() == hull.cluster.geometry().parent


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_dual_tree_grows_with_the_trie(seed):
    """One parent map extended along a trie's clusters is, at each,
    the dual tree that the intersection matrix gives."""
    rng = random.Random(seed)
    trie = PathTrie()
    parent = {LINF: None}
    for batch in random_path_batches(rng, rng.randint(1, 4)):
        cl, _ = trie.add(batch)
        assert extend_dual_tree(parent, cl) == \
            dual_tree_by_adjacency(cl.geometry())
    cl = random_cluster(rng, max_nodes=12, n_roots=rng.choice([1, 2]))
    assert extend_dual_tree({LINF: None}, cl) == \
        dual_tree_by_adjacency(cl.geometry())
