"""The hull of a valuation set against the pairwise meets it replaced.

``richness.matrix_alpha`` reads every entry off one ``valuations.Hull``;
its oracle is ``oracles.matrix_alpha_by_meets``, one pairwise ``meet``
per entry.  ``chi_of``, ``star_system`` and ``kernel_function`` take their
matrix from ``matrix_alpha``, so each must give what it gives with
``richness.matrix_alpha`` patched to the oracle: the same values, or an
error of the same type.  The hull's ``equal`` and ``comparable`` must
agree with the pairwise ``equal`` and ``compare`` wherever those decide.
The sets mix Root, duplicates, comparable monomials and exact curves,
or are antichains of divisorials, or carry branches truncated at small K.
"""

import random
import sys
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from oracles import dual_tree_by_adjacency, matrix_alpha_by_meets
from randgen import (random_cluster, random_divisorial_set, random_mixed_set,
                     random_path_batches)
from test_path_trie import CURVES
from valinf import cluster, poly, richness, valuations
from valinf.cluster import LINF, PathTrie, PointAtInfinity, extend_dual_tree
from valinf.errors import DomainError, Undecided
from valinf.exact import SymMatrixExt
from valinf.potential import DiscreteMeasure
from valinf.puiseux import weighted_branches
from valinf.richness import ValuationSet, matrix_alpha
from valinf.valuations import (ROOT, Comparison, Curve, Hull, Monomial,
                               compare, equal, quasimonomial)

F = Fraction
derandomized = settings(derandomize=True, max_examples=40, deadline=None)
FUNCTIONS = ("matrix_alpha", "chi_of", "star_system", "kernel_function")


def outcome(name, S):
    """What ``richness.<name>(S)`` gives, as comparable data, or the type
    of what it raised."""
    try:
        out = getattr(richness, name)(S)
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


def by_meets(name, S):
    """``outcome`` with ``richness.matrix_alpha`` patched to the oracle."""
    saved = richness.matrix_alpha
    richness.matrix_alpha = matrix_alpha_by_meets
    try:
        return outcome(name, S)
    finally:
        richness.matrix_alpha = saved


def pairwise(f, v, w):
    try:
        return f(v, w)
    except (DomainError, Undecided):
        return None


def check_against_meets(vs):
    S = ValuationSet.of(vs)
    for name in FUNCTIONS:
        assert outcome(name, S) == by_meets(name, S), name
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


def test_matrix_alpha_builds_one_geometry_and_meets_nothing():
    rng = random.Random(3)
    vs = random_divisorial_set(rng, 5) + [
        ROOT, Monomial(F(-1), F(1, 2)), Monomial(F(2), F(-1)),
        Monomial(F(-1), F(1, 2))]
    S = ValuationSet.of(vs)
    M, builds, meets = builds_and_meets(S)
    assert (builds, meets) == (1, 0)
    assert M.entries == matrix_alpha_by_meets(S).entries


def test_curves_are_deepened_without_a_geometry_per_probe():
    """Curves beside divisorials at their point of L-infinity, and beside
    each other: one geometry still."""
    py = PointAtInfinity("y")
    curves = [Curve(b) for text in ("y^2-x^3", "(y-x^2)*(y-x^2-1)")
              for b, _ in weighted_branches(poly.parse(text))]
    S = ValuationSet.of(curves + [quasimonomial(py, 2, 3),
                                  quasimonomial(py, 1, 4), ROOT])
    M, builds, meets = builds_and_meets(S)
    assert (builds, meets) == (1, 0)
    assert M.entries == matrix_alpha_by_meets(S).entries


# ---------------------------------------------------------------------------
# the dual tree without geometry
# ---------------------------------------------------------------------------


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
