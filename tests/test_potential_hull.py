"""Potential theory on one hull against the pairwise forms it replaced.

``potential.value``, ``dirichlet``, ``build_tree``, ``retract``,
``retract_measure``, ``measure``, ``FiniteTree.find``,
``perturb_certificate``, ``extend_certificate`` and ``puiseux.log_value``
compare their points on one ``Hull`` of the anchors (``potential._Points``
and its ``equal``, ``leq``, ``meet`` and ``green``).  Their oracles are
the pairwise forms of ``oracles.py`` (``value_by_meets`` and so on), with
one ``point_meet``, ``point_equal`` or ``point_green`` per pair.

The two decide different pairs of valuations.  A hull decides every pair
of its anchors at one point of L-infinity, so it raises where such a pair
raises in ``meet_by_merges``, with the type of the first in row-major
order: what ``matrix_alpha_by_meets`` of those anchors raises.  The
pairwise forms decide only the pairs that they compare, but
``build_tree_by_meets`` and ``retract_by_meets`` also meet the points
with the meet vertices, which no hull of the points holds.  So for each
form and input:

- the hull form raises exactly where ``matrix_alpha_by_meets`` of its
  anchors raises, with the same type;
- where both forms answer, they agree: the same value, the same tree up
  to the numbering of its vertices (the same points by ``point_equal``,
  the same parents and skewness), the same vertex object as a
  retraction onto a vertex and an equal point inside an edge, the same
  atoms in the same order as a measure;
- where only the pairwise form raises, it raises InsufficientTruncation.

The points mix Root, monomials, divisorials and curves with
``EdgePoint``s on their segments, or are divisorials with their
``EdgePoint``s, or add the branches of the ``CURVES`` polynomials at
K in {None, 2, 3, 5, 8}.  The certificates are built on curves at a few
points of L-infinity that share their first terms.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from oracles import (build_tree_by_meets, dirichlet_by_meets,
                     extend_certificate_by_meets, find_by_meets,
                     log_value_by_meets, matrix_alpha_by_meets,
                     measure_by_meets, perturb_certificate_by_meets,
                     point_equal, point_green, point_leq, point_meet,
                     retract_by_meets, retract_measure_by_meets,
                     value_by_meets)
from randgen import random_divisorial_set, random_mixed_set
from test_hull import counting
from test_path_trie import CURVES
from valinf import poly, valuations
from valinf.cluster import PointAtInfinity
from valinf.errors import DomainError, InsufficientTruncation, Undecided
from valinf.exact import Ext
from valinf.potential import (DiscreteMeasure, EdgePoint, _Points, build_tree,
                              dirichlet, extend_certificate, measure,
                              perturb_certificate, point_on_segment, retract,
                              retract_measure, value)
from valinf.puiseux import log_laplacian, log_value, weighted_branches
from valinf.valuations import (ROOT, Curve, Hull, Monomial, Root,
                               curve_of_series, quasimonomial, skewness)

F = Fraction
derandomized = settings(derandomize=True, max_examples=25, deadline=None)
PX0 = PointAtInfinity("x", F(0))
PY = PointAtInfinity("y")


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


def same_measure(r, s):
    """Whether two measures have the same atoms in the same order: equal
    points (``point_equal``) with equal masses."""
    return len(r.atoms) == len(s.atoms) and all(
        m == n and point_equal(p, q) for (p, m), (q, n) in zip(r.atoms,
                                                               s.atoms))


def same_retraction(tree):
    """Whether two retractions onto ``tree`` agree: the very vertex
    object where the pairwise one is a vertex of the tree, an equal point
    (``point_equal``) where it lies inside an edge."""
    def same(a, b):
        if any(b is x for x in tree.points):
            return a is b
        return point_equal(a, b)
    return same


def queries(pts):
    """``equal``, ``leq``, ``green`` and ``meet`` of every ordered pair,
    on one ``_Points``."""
    t = _Points(pts)
    return [(t.equal(i, j), t.leq(i, j), t.green(i, j), t.meet(i, j))
            for i in range(len(pts)) for j in range(len(pts))]


def queries_by_meets(pts):
    return [(point_equal(p, q), point_leq(p, q), point_green(p, q),
             point_meet(p, q)) for p in pts for q in pts]


def same_queries(got, want):
    return all(g[:3] == w[:3] and point_equal(g[3], w[3])
               for g, w in zip(got, want))


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
    agree(outcome(queries, pts), outcome(queries_by_meets, pts), pts,
          same_queries)
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
    # repeated points merge, and an atom and its negative cancel
    pairs = list(rho.atoms) + [(p, 1) for p in rng.sample(pts, half)] + \
        [(p, -m) for p, m in rho.atoms[:1]]
    rng.shuffle(pairs)
    agree(outcome(measure, pairs), outcome(measure_by_meets, pairs),
          [p for p, _ in pairs], same_measure)
    tree = outcome(build_tree, pts)
    agree(tree, outcome(build_tree_by_meets, pts), pts, same_tree)
    if raised(tree):
        return
    inner = set(tree.parent)
    leaves = [x for i, x in enumerate(tree.points) if i not in inner]
    for p in pts:
        agree(outcome(tree.find, p), outcome(find_by_meets, tree, p),
              [p] + list(tree.points))
        agree(outcome(retract, p, tree), outcome(retract_by_meets, p, tree),
              [p] + leaves, same_retraction(tree))
    # onto the tree of half the points, so that some atoms land off it
    sub = outcome(build_tree, pts[:half])
    if not raised(sub):
        inner = set(sub.parent)
        leaves = [x for i, x in enumerate(sub.points) if i not in inner]
        agree(outcome(retract_measure, rho, sub),
              outcome(retract_measure_by_meets, rho, sub),
              pts + leaves, same_measure)


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


@derandomized
@given(st.sampled_from(CURVES), st.sampled_from([None, 2, 3, 5, 8]))
def test_log_laplacian_atoms_are_the_merged_branches(text, K):
    """The branches are distinct, so ``log_laplacian`` merges nothing:
    its atoms are those of the pairwise merge wherever that answers."""
    Q = poly.parse(text)
    got = log_laplacian(Q, K)
    want = outcome(measure_by_meets, [(Curve(b), e * b.multiplicity)
                                      for b, e in weighted_branches(Q, K)])
    if raised(want):
        assert want is InsufficientTruncation
    else:
        assert [(p.branch, m) for p, m in got.atoms] == \
            [(p.branch, m) for p, m in want.atoms]


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


BASES = [PointAtInfinity("x", F(c)) for c in (0, 1, -1)] + \
    [PointAtInfinity("y")]


def curves_at(rng, base, n, part=9):
    """n curves at ``base`` that share their first terms and part at a
    random exponent from 3 to ``part``; some are truncated."""
    head = {j: F(rng.randint(-2, 2)) for j in rng.sample(range(1, 5), 2)}
    out = []
    for _ in range(n):
        coeffs = dict(head)
        coeffs[rng.randint(3, part)] = F(rng.choice([-1, 1, 2]))
        out.append(curve_of_series(base, 1, coeffs, part + rng.choice([0, 3]),
                                   exact=rng.random() < 0.6))
    return out


def below(rng, c, a):
    """c, or a point of [root, c] below skewness a."""
    return c if rng.random() < 0.5 else point_on_segment(
        c, a - rng.randint(1, 6))


@derandomized
@given(st.integers(0, 10 ** 6))
def test_perturb_certificate_matches_the_pairwise_form(seed):
    """phi has mass 1 at k points of skewness 1 - k, one at each of k
    points of L-infinity, so it vanishes at its atoms and pairs to 0;
    S holds curves at those points and points on them, above an atom or
    not, and may hold an atom."""
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    a = F(1 - k)
    atoms, S = [], []
    for b in rng.sample(BASES, k):
        cs = curves_at(rng, b, rng.randint(1, 3))
        atoms.append(point_on_segment(cs[0], a))
        S += [below(rng, c, a) for c in cs if rng.random() < 0.6]
    if rng.random() < 0.2:
        S.append(rng.choice(atoms))
    rng.shuffle(S)
    phi = DiscreteMeasure(tuple((p, F(1)) for p in atoms))
    agree(outcome(perturb_certificate, phi, S),
          outcome(perturb_certificate_by_meets, phi, S), atoms + S,
          same_measure)


@derandomized
@given(st.integers(0, 10 ** 6))
def test_extend_certificate_matches_the_pairwise_form(seed):
    """phi = g_v + t g_root with v of skewness -t on a curve vanishes
    above S = {v} (and the curve); the extra points lie on curves that
    share their first terms, deep enough, above S, too high, or are
    curves."""
    rng = random.Random(seed)
    t = F(rng.randint(1, 6), rng.randint(1, 3))
    base = rng.choice(BASES)
    c0, *cs = curves_at(rng, base, 4, 40)
    v = point_on_segment(c0, -t)
    phi = DiscreteMeasure(((v, F(1)), (ROOT, t)))
    S = [v] + [c0] * (rng.random() < 0.5)
    floor = -t - 20 * (1 + t) / t - 5      # M_4 - 5; M_0 = -t, r = t/(1+t)
    cs += curves_at(rng, rng.choice(BASES), 3, 40)
    extra = []
    for _ in range(rng.randint(0, 4)):
        r = rng.random()
        if r < 0.1:
            extra.append(point_on_segment(c0, -t - rng.randint(1, 3)))
        elif r < 0.2:
            extra.append(point_on_segment(rng.choice(cs), -t + F(1, 2)))
        elif r < 0.3:
            extra.append(rng.choice(cs))
        else:
            extra.append(point_on_segment(rng.choice(cs),
                                          floor - rng.randint(0, 4)))
    agree(outcome(extend_certificate, phi, S, extra),
          outcome(extend_certificate_by_meets, phi, S, extra),
          [v, ROOT] + S + extra, same_measure)


# ---------------------------------------------------------------------------
# where the forms differ
# ---------------------------------------------------------------------------


YB = curve_of_series(PX0, 1, {}, 6, exact=True)            # y = 0
Y1B = curve_of_series(PX0, 1, {1: 1}, 6, exact=True)        # y = 1
HYP = curve_of_series(PX0, 1, {2: 1}, 8, exact=True)        # xy = 1
N1 = Monomial(F(1), F(-1))


def twins():
    """Two truncated curves that their truncations cannot tell apart,
    above the point of skewness -2 on [root, YB]."""
    return [curve_of_series(PX0, 1, {3: 1}, 6) for _ in range(2)]


def test_a_hull_raises_on_twins_that_the_pairwise_forms_never_pair():
    c1, c2 = twins()
    pairs = [(point_on_segment(c1, F(-5)), 1), (c2, 1)]
    assert outcome(measure, pairs) is InsufficientTruncation
    assert len(measure_by_meets(pairs).atoms) == 2
    # both twins lie above S, so the pairwise form drops them unpaired
    phi, S = DiscreteMeasure(((point_on_segment(YB, -2), F(1)),
                              (ROOT, F(2)))), [point_on_segment(YB, -2)]
    assert outcome(extend_certificate, phi, S, [c1, c2]) is \
        InsufficientTruncation
    assert extend_certificate_by_meets(phi, S, [c1, c2]).total_mass == 1
    # the third atom is unconstrained, so the pairwise form retracts
    # before it compares the constraints
    psi = DiscreteMeasure(((point_on_segment(YB, -2), F(1)),
                           (point_on_segment(HYP, -2), F(1)),
                           (point_on_segment(Y1B, -3), F(1)), (N1, F(3))))
    S = [HYP, c1, c2]
    assert outcome(perturb_certificate, psi, S) is InsufficientTruncation
    assert dirichlet_by_meets(*[perturb_certificate_by_meets(psi, S)] * 2) \
        > Ext(0)


def test_retractions_inside_an_edge_answer():
    """The nearest point of the tree can lie inside an edge; both forms
    raised InternalMismatch there before.  M1 lies on [root, v], and the
    certificate drops the atom on Y1B, whose retraction lands at
    skewness 0 above the meet of the other two atoms at the point x = 0."""
    v = quasimonomial(PX0, 1, 3)
    m1 = Monomial(F(-1), F(1))
    tree = build_tree([v])
    assert len(tree) == 2
    assert point_equal(retract(m1, tree), m1)
    assert point_equal(retract_by_meets(m1, tree), m1)
    phi = DiscreteMeasure(((point_on_segment(YB, -2), F(1)),
                           (point_on_segment(HYP, -2), F(1)),
                           (point_on_segment(Y1B, -3), F(1)), (N1, F(3))))
    assert dirichlet(phi, phi) == Ext(0)
    S = [YB, HYP]
    psi = perturb_certificate(phi, S)
    assert same_measure(psi, perturb_certificate_by_meets(phi, S))
    assert dirichlet(psi, psi) == Ext(3)
    assert [value(psi, w) for w in S] == [Ext(0), Ext(0)]


def test_log_laplacian_answers_where_a_pairwise_merge_raised():
    """At K = 2 the branches of y = x^2 and y = x^2 + 1 at the point y
    agree to their truncations; they are distinct, so nothing merges."""
    Q = poly.parse("(y-x^2)*(y-x^2-1)")
    pairs = [(Curve(b), e * b.multiplicity)
             for b, e in weighted_branches(Q, 2)]
    assert outcome(measure_by_meets, pairs) is InsufficientTruncation
    assert [m for _, m in log_laplacian(Q, 2).atoms] == [2, 2]


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------


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
                    (retract, (pts[-1], tree)), (measure, (rho.atoms,)),
                    (tree.find, (pts[-1],)),
                    (retract_measure, (rho, build_tree(pts[:2])))]:
        assert hulls_and_meets(monkeypatch, f, *args)[1:] == (1, 0)
    # two branches at the point y, and a third at x = 1
    Q = poly.parse("(y^2-x^3)*(y^2-x^3-x^2*y)")
    v = quasimonomial(PY, 1, 2)
    got, hulls, meets = hulls_and_meets(monkeypatch, log_value, Q, v)
    assert (got, hulls, meets) == (log_value_by_meets(Q, v), 1, 0)


def test_certificates_make_no_pairwise_meet(monkeypatch):
    phi = DiscreteMeasure(((point_on_segment(YB, -2), F(1)),
                           (point_on_segment(HYP, -2), F(1)),
                           (point_on_segment(Y1B, -3), F(1)), (N1, F(3))))
    for S in ([YB, HYP], [YB, HYP, Y1B]):
        assert hulls_and_meets(monkeypatch, perturb_certificate, phi, S)[2] \
            == 0
    b1 = curve_of_series(PX0, 1, {3: 1}, 16, exact=True)
    b3 = curve_of_series(PX0, 1, {3: 1, 7: 1}, 16, exact=True)
    extra = [point_on_segment(b1, F(-13)), point_on_segment(b3, F(-13))]
    phi = DiscreteMeasure(((Monomial(F(-1), F(1)), F(1)), (ROOT, F(1))))
    out, _, meets = hulls_and_meets(monkeypatch, extend_certificate, phi,
                                    [Monomial(F(-1), F(1))], extra)
    assert meets == 0
    assert same_measure(out, extend_certificate_by_meets(
        phi, [Monomial(F(-1), F(1))], extra))


def test_points_elsewhere_meet_at_the_root_without_a_hull(monkeypatch):
    """An atom at another point of L-infinity than w meets it at the
    root, and points alone at their point of L-infinity need no hull."""
    pts = [quasimonomial(PointAtInfinity("x", F(c)), 1, 3) for c in (0, 1)]
    rho = DiscreteMeasure(((pts[0], 2), (ROOT, -1)))
    assert hulls_and_meets(monkeypatch, value, rho, pts[1]) == (Ext(1), 0, 0)
    assert hulls_and_meets(monkeypatch, value, rho, ROOT) == (Ext(1), 0, 0)
    tree, hulls, meets = hulls_and_meets(monkeypatch, build_tree, pts)
    assert (tree.alpha, hulls, meets) == ((Ext(1), Ext(-2), Ext(-2)), 0, 0)
