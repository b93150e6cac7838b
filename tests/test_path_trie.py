"""PathTrie against one-shot merges and fresh geometry builds, and the
searches built on it against their per-round rebuilds.

A trie's clusters share their geometry rows, so every field must equal
what a cluster built alone computes, whatever order the clusters'
geometries are built in.  The searches that grow one trie
(``divisorial_on_segment`` and the curve/divisorial meet) must give what
the rebuild from the root gives, errors included.  ``logplus_laplacian``
reads its atoms off the Green identity; its oracle is the round-based
search it replaced, which evaluates Q along merged dual paths.  The
rebuilds realize a point inside a dual edge by the probe search that the
closed form of ``cluster.segment_point_key`` replaced, so they are its
oracle as well.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (divisorial_on_segment_by_probes,
                     logplus_laplacian_by_rebuild,
                     meet_curve_by_one_shot_merges)
from randgen import random_path_batches
from test_branch_walk import curve_divisorial_pairs
from valinf import poly
from valinf.cluster import (BranchWalk, Cluster, Free, PathTrie,
                            PointAtInfinity, SatU, SatV, build_geometry,
                            merge_paths, ord_along_path)
from valinf.errors import DomainError, InvalidCluster, Undecided
from valinf.exact import Ext
from valinf.potential import EdgePoint
from valinf.puiseux import (divisorial_on_segment, logplus_laplacian,
                            weighted_branches)
from valinf.valuations import Divisorial, meet, path_key, skewness

F = Fraction
PY = PointAtInfinity("y")
derandomized = settings(derandomize=True, max_examples=80, deadline=None)

FIELDS = ("comps", "inter", "parent")


def table(g):
    """A geometry as data: its pairwise fields and the rows of its
    components (the rows that a trie shares may run past them)."""
    return {**{f: getattr(g, f) for f in FIELDS},
            "rows": [g.rows[c] for c in g.comps]}


polys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                        st.integers(-3, 3).filter(bool),
                        min_size=1, max_size=4)


steps = st.sampled_from([Free(F(0)), Free(F(1)), SatU(), SatV()])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.lists(st.tuples(st.sampled_from([PY, PointAtInfinity(
    "x", F(1))]), st.lists(steps, max_size=4).map(tuple)), min_size=1,
    max_size=3), min_size=1, max_size=4))
def test_trie_checks_its_new_nodes_as_a_cluster_checks_all(batches):
    # an add checks only the nodes put in since the last one, and raises
    # what Cluster of the whole node list raises
    trie = PathTrie()
    for batch in batches:
        try:
            cl, _ = trie.add(batch)
        except InvalidCluster as e:
            with pytest.raises(InvalidCluster) as full:
                Cluster(trie.nodes)
            assert str(full.value) == str(e)
            return
        assert cl.axes == Cluster(trie.nodes).axes


def test_an_invalid_trie_built_incrementally():
    trie = PathTrie()
    trie.add([(PY, (SatU(),))])
    with pytest.raises(InvalidCluster) as inc:
        trie.add([(PY, (SatU(), Free(F(0))))])
    with pytest.raises(InvalidCluster) as full:
        Cluster(trie.nodes)
    assert str(inc.value) == str(full.value) \
        == "node 2: center lies on a boundary; use a satellite"


@derandomized
@given(st.integers(0, 10 ** 6), st.lists(polys, min_size=1, max_size=10))
def test_trie_clusters_match_fresh_builds(seed, ps):
    rng = random.Random(seed)
    batches = random_path_batches(rng, rng.randint(1, 5))
    trie = PathTrie()
    merged = []
    clusters = []
    for batch in batches:
        cl, ends = trie.add(batch)
        merged += batch
        # the nodes are those of a one-shot merge of every path so far
        one_shot, all_ends = merge_paths(merged)
        assert cl.nodes == one_shot.nodes
        assert ends == all_ends[len(merged) - len(batch):]
        clusters.append(cl)
        # some rounds evaluate polynomials before the next add
        for _ in range(rng.randint(0, 3)):
            k, P = rng.randrange(len(cl)), rng.choice(ps)
            assert ord_along_path(cl, k, P) == \
                ord_along_path(Cluster(cl.nodes), k, P)
    # geometries built in any order, later clusters first as well
    rng.shuffle(clusters)
    for cl in clusters:
        assert table(cl.geometry()) == table(build_geometry(
            Cluster(cl.nodes)))


def test_one_shot_clusters_keep_no_rows():
    # once its rows cover its nodes, a cluster holds no strict transform
    cl, _ = merge_paths([(PY, (Free(F(1)), SatU())), (PY, (Free(F(2)),))])
    assert cl._xy == []
    cl.geometry()
    assert cl._xy is None and len(cl._rows) == len(cl) + 1


# ---------------------------------------------------------------------------
# the deepening searches against their per-round rebuilds
# ---------------------------------------------------------------------------


def atom(p):
    """A tree point as comparable data: its kind and its path, or the
    branch and skewness of an edge point."""
    if isinstance(p, EdgePoint):
        return ("edge", p.below.branch, p.alpha)
    if isinstance(p, Divisorial):
        return ("divisorial", path_key(p), skewness(p))
    return (type(p).__name__, p)


def outcome(f, *args, **kwargs):
    """The atoms of f(...), or the type and message of what it raised."""
    try:
        out = f(*args, **kwargs)
    except (DomainError, Undecided) as e:
        return (type(e), str(e))
    if isinstance(out, Divisorial):
        return atom(out)
    return [(atom(p), m) for p, m in out.atoms]


def run_recording_depths(f, *args, **kwargs):
    """(outcome of f, the depth of every ``BranchWalk.steps`` request in
    order)."""
    asked = []
    steps = BranchWalk.steps

    def recording(self, depth, works=None):
        asked.append(depth)
        return steps(self, depth, works)

    BranchWalk.steps = recording
    try:
        return outcome(f, *args, **kwargs), asked
    finally:
        BranchWalk.steps = steps


# curves with branches that run out of truncation, ramify, or cross zero
# between centers (so the crossing is read off a dual edge); then
# products whose branches share a point of L-infinity and split above or
# below their crossings
CURVES = ["y^3-x^4+1/2", "y^2-x^5+x^3*y", "y^3-x^5+x*y", "y^2-x^3-1",
          "x*y-1", "y^3-x^7+x^2*y^2", "y^2-x^3+x^2", "y^4-x^3*y+x^5-2",
          "(y-x^2)*(y-x^2-1)", "(y-x^3)*(y-x^3-x^2)*(y-x^3-x^2-x)",
          "(y^2-x^3)*(y^2-x^3-x^2*y)", "(y-x^2)*(y-x^2-x)",
          "(y^2-x^3)*(y^2-x^3-x)", "(x*y-1)*(x*y-2)", "(y^2-x^3)*(y^3-x^2)"]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.sampled_from(CURVES), st.sampled_from([None, 2, 3, 5, 8]))
def test_logplus_laplacian_matches_the_rebuild(text, K):
    Q = poly.parse(text)
    got = outcome(logplus_laplacian, Q, K)
    want = outcome(logplus_laplacian_by_rebuild, Q, K)
    if isinstance(want, list) == isinstance(got, list):
        # the same atoms, or errors of the same type
        assert got == want if isinstance(got, list) else got[0] is want[0]
    else:
        # the rebuild walks every branch four centers at a time and raised
        # on a branch's truncation; the closed form walks each branch only
        # as deep as its own atom, which the longest truncation confirms
        assert isinstance(got, list), (got, want)
        assert got == outcome(logplus_laplacian_by_rebuild, Q, None)


def on_branch_segment(branch, alpha, got):
    """Whether ``got`` is the atom of a divisorial of skewness alpha whose
    path is a prefix that the branch's walk certifies, followed by a
    nonempty run of satellite centers."""
    kind, (base, steps), a = got
    k = len(steps)
    while k and isinstance(steps[k - 1], (SatU, SatV)):
        k -= 1
    return (kind == "divisorial" and a == Ext(alpha) and base == branch.base
            and k < len(steps)
            and BranchWalk(branch.series).steps(k + 1) == list(steps[:k]))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(CURVES), st.sampled_from([None, 3, 6]),
       st.fractions(min_value=-8, max_value=F(6, 7), max_denominator=7))
def test_divisorial_on_segment_matches_the_rebuild(text, K, alpha):
    branches = weighted_branches(poly.parse(text), K)
    for b, _ in branches:
        got = outcome(divisorial_on_segment, b, alpha)
        want = outcome(divisorial_on_segment_by_probes, b, alpha)
        if want[0] == "divisorial":
            assert got == want
        elif got[0] == "divisorial":
            # the probe search raised: the closed form needs no probe and
            # may answer, on the edge that the branch's walk certified
            assert on_branch_segment(b, alpha, got), (got, want)
        else:
            assert got[0] is want[0]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(curve_divisorial_pairs())
def test_curve_meet_matches_one_shot_merges(pair):
    c, v = pair
    got, asked = run_recording_depths(meet, c, v)
    want, oracle_asked = run_recording_depths(meet_curve_by_one_shot_merges,
                                              c, v)
    assert got == want
    # both take the same doubling strides; where the oracle then steps
    # back in +2 strides from the last depth checked, the search jumps
    # once, to the deepest depth of that grid the walk certified, and asks
    # for the next grid depth only to raise its error
    k = next((i for i in range(1, len(oracle_asked))
              if oracle_asked[i] < oracle_asked[i - 1]), len(oracle_asked))
    assert asked[:k] == oracle_asked[:k]
    back = asked[k:]
    assert len(back) <= 2
    if back:
        assert oracle_asked[k] <= back[0] < asked[k - 1]
        assert (back[0] - oracle_asked[k]) % 2 == 0
    if len(back) == 2:
        assert back[1] == back[0] + 2 and isinstance(got[0], type)
