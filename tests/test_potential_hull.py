"""Potential theory on one hull against the pairwise forms it replaced.

``potential.value``, ``dirichlet``, ``build_tree``, ``retract`` and
``puiseux.log_value`` read their pairs off one ``Hull`` of the anchors
of their points (``potential._Points``).  Their oracles are the pairwise
forms of ``oracles.py`` (``value_by_meets`` and so on), with one
``point_meet`` or ``point_green`` per pair.

The two decide different pairs of valuations.  A hull decides every pair
of its anchors at one point of L-infinity, so it raises where such a pair
raises in ``meet_by_merges``, with the type of the first in row-major
order: what ``matrix_alpha_by_meets`` of those anchors raises.  The
pairwise forms decide only the pairs that they sum, but
``build_tree_by_meets`` and ``retract_by_meets`` also meet the points
with the meet vertices, which no hull of the points holds.  So for each
form and input:

- the hull form raises exactly where ``matrix_alpha_by_meets`` of its
  anchors raises, with the same type;
- where both forms answer, they agree: the same value, the same tree up
  to the numbering of its vertices (the same points by ``point_equal``,
  the same parents and skewness), the same vertex as a retraction;
- where only the pairwise form raises, it raises InsufficientTruncation.

The points mix Root, monomials, divisorials and curves with
``EdgePoint``s on their segments, or are divisorials with their
``EdgePoint``s, or add the branches of the ``CURVES`` polynomials at
K in {None, 2, 3, 5, 8}.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from oracles import (build_tree_by_meets, dirichlet_by_meets,
                     log_value_by_meets, matrix_alpha_by_meets,
                     retract_by_meets, value_by_meets)
from randgen import random_divisorial_set, random_mixed_set
from test_hull import counting
from test_path_trie import CURVES
from valinf import poly, valuations
from valinf.cluster import PointAtInfinity
from valinf.errors import DomainError, InsufficientTruncation, Undecided
from valinf.exact import Ext
from valinf.potential import (DiscreteMeasure, EdgePoint, build_tree,
                              dirichlet, point_equal, point_on_segment,
                              retract, value)
from valinf.puiseux import log_value, weighted_branches
from valinf.valuations import (ROOT, Curve, Hull, Root, curve_of_series,
                               quasimonomial, skewness)

F = Fraction
derandomized = settings(derandomize=True, max_examples=25, deadline=None)


def anchor(p):
    return p.below if isinstance(p, EdgePoint) else p


def outcome(f, *args):
    """What ``f(*args)`` gives, or the type of what it raised."""
    try:
        return f(*args)
    except (DomainError, Undecided, ArithmeticError) as e:
        return type(e)


def raised(x):
    return isinstance(x, type)


def agree(got, want, points, same=lambda a, b: a == b):
    """The hull form's outcome ``got`` against the pairwise form's
    ``want``, where the hull holds the anchors of ``points``."""
    pairs = outcome(matrix_alpha_by_meets, [anchor(p) for p in points])
    if raised(pairs):
        assert got is pairs
    elif raised(want) and not raised(got):
        assert want is InsufficientTruncation
    elif raised(got) or raised(want):
        assert got is want
    else:
        assert same(got, want)


def same_tree(s, t):
    """Whether two trees are one up to the numbering of their vertices."""
    to = []
    for x in s.points:
        found = [j for j, y in enumerate(t.points) if point_equal(x, y)]
        if len(found) != 1:
            return False
        to += found
    return sorted(to) == list(range(len(t))) and \
        [s.alpha[i] for i in range(len(s))] == [t.alpha[j] for j in to] and \
        [None if p is None else to[p] for p in s.parent] == \
        [t.parent[j] for j in to]


def base(p):
    """The point of L-infinity of a tree point; None at the root."""
    v = anchor(p)
    return None if isinstance(v, Root) else valuations._base(v)


def near(w, points):
    """The points at the point of L-infinity of w; none at the root."""
    return [p for p in points if base(w) is not None and base(p) == base(w)]


def with_edge_points(rng, vs):
    """vs with an ``EdgePoint`` on the segment of about half of them."""
    out = list(vs)
    for v in vs:
        if v is ROOT or rng.random() < 0.5:
            continue
        a = skewness(v)
        low = a.q if a.kind == 0 else F(-8)
        out.insert(rng.randrange(len(out) + 1), point_on_segment(
            v, low + (1 - low) * F(rng.randint(1, 5), 6)))
    return out


def check_forms(rng, pts):
    rho = DiscreteMeasure(tuple(
        (p, F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
        for p in pts))
    half = len(pts) // 2
    r1, r2 = DiscreteMeasure(rho.atoms[:half]), DiscreteMeasure(
        rho.atoms[half:])
    for a, b in ((r1, r2), (rho, rho)):
        agree(outcome(dirichlet, a, b), outcome(dirichlet_by_meets, a, b),
              [p for p, _ in a.atoms + b.atoms])
    for w in pts:
        agree(outcome(value, rho, w), outcome(value_by_meets, rho, w),
              [w] + near(w, pts))
    tree = outcome(build_tree, pts)
    agree(tree, outcome(build_tree_by_meets, pts), pts, same_tree)
    if raised(tree):
        return
    inner = set(tree.parent)
    leaves = [x for i, x in enumerate(tree.points) if i not in inner]
    for p in pts:
        agree(outcome(retract, p, tree), outcome(retract_by_meets, p, tree),
              [p] + leaves, lambda a, b: a is b)


@derandomized
@given(st.integers(0, 10 ** 6))
def test_mixed_points_match_the_pairwise_forms(seed):
    rng = random.Random(seed)
    check_forms(rng, with_edge_points(rng, random_mixed_set(rng, 6)))


@derandomized
@given(st.integers(0, 10 ** 6))
def test_divisorial_points_match_the_pairwise_forms(seed):
    rng = random.Random(seed)
    check_forms(rng, with_edge_points(
        rng, random_divisorial_set(rng, rng.randint(1, 6))))


@derandomized
@given(st.integers(0, 10 ** 6), st.sampled_from(CURVES),
       st.sampled_from([None, 2, 3, 5, 8]))
def test_branch_points_match_the_pairwise_forms(seed, text, K):
    """The branches of one curve at K beside mixed elements, with
    ``EdgePoint``s on both; ``log_value`` at each point."""
    rng = random.Random(seed)
    Q = poly.parse(text)
    vs = random_mixed_set(rng, 3)
    branches = [Curve(b) for b, _ in weighted_branches(Q, K)]
    for c in branches:
        vs.insert(rng.randrange(len(vs) + 1), c)
    pts = with_edge_points(rng, vs)
    check_forms(rng, pts)
    for v in pts:
        agree(outcome(log_value, Q, v, K),
              outcome(log_value_by_meets, Q, v, K),
              [v] + near(v, branches))


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------


PX0 = PointAtInfinity("x", F(0))
PY = PointAtInfinity("y")


def hulls_and_meets(monkeypatch, f, *args):
    """(f(*args), the Hulls it built, its ``valuations.meet`` calls)."""
    hulls = []
    init = Hull.__init__
    monkeypatch.setattr(Hull, "__init__",
                        lambda self, vs: hulls.append(1) or init(self, vs))
    meets, undo = counting(valuations.meet)
    try:
        out = f(*args)
    finally:
        undo()
        monkeypatch.setattr(Hull, "__init__", init)
    return out, len(hulls), len(meets)


def test_each_form_reads_one_hull_and_meets_nothing(monkeypatch):
    hyp = curve_of_series(PX0, 1, {2: 1}, 8, exact=True)   # xy = 1
    pts = [quasimonomial(PX0, 1, k) for k in (2, 3, 5)] + [
        hyp, point_on_segment(hyp, F(-2)),
        point_on_segment(quasimonomial(PX0, 2, 7), F(-1, 4))]
    rho = DiscreteMeasure(tuple((p, 1) for p in pts))
    tree, hulls, meets = hulls_and_meets(monkeypatch, build_tree, pts)
    assert (hulls, meets) == (1, 0)
    assert same_tree(tree, build_tree_by_meets(pts))
    for f, args in [(value, (rho, pts[0])), (dirichlet, (rho, rho)),
                    (retract, (pts[-1], tree))]:
        assert hulls_and_meets(monkeypatch, f, *args)[1:] == (1, 0)
    # two branches at the point y, and a third at x = 1
    Q = poly.parse("(y^2-x^3)*(y^2-x^3-x^2*y)")
    v = quasimonomial(PY, 1, 2)
    got, hulls, meets = hulls_and_meets(monkeypatch, log_value, Q, v)
    assert (got, hulls, meets) == (log_value_by_meets(Q, v), 1, 0)


def test_points_elsewhere_meet_at_the_root_without_a_hull(monkeypatch):
    """An atom at another point of L-infinity than w meets it at the
    root, and points alone at their point of L-infinity need no hull."""
    pts = [quasimonomial(PointAtInfinity("x", F(c)), 1, 3) for c in (0, 1)]
    rho = DiscreteMeasure(((pts[0], 2), (ROOT, -1)))
    assert hulls_and_meets(monkeypatch, value, rho, pts[1]) == (Ext(1), 0, 0)
    assert hulls_and_meets(monkeypatch, value, rho, ROOT) == (Ext(1), 0, 0)
    tree, hulls, meets = hulls_and_meets(monkeypatch, build_tree, pts)
    assert (tree.alpha, hulls, meets) == ((Ext(1), Ext(-2), Ext(-2)), 0, 0)
