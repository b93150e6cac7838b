import gc
import hashlib
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import branch_to_nodes
from randgen import random_path_batches
from valinf.cluster import (MAX_CHAIN_STEPS, Cluster, Free, LINF, Node,
                            PathTrie, PointAtInfinity, SatU, SatV,
                            branch_steps, build_geometry,
                            chain_cluster, eval_divisorial, merge_paths,
                            monomial_to_node, ord_along_path,
                            segment_point_key)
from valinf.errors import (InvalidCluster, PreconditionViolated,
                           RootValuation, ZeroPolynomial)
from valinf.randomized import random_cluster
from valinf.series import PuiseuxSeries
from valinf.valuations import Monomial, path_key, skewness

F = Fraction
PX0 = PointAtInfinity("x", F(0))
PY = PointAtInfinity("y")


def test_bare_plane():
    cl = Cluster([])
    g = cl.geometry()
    assert g.alpha[LINF] == 1
    assert g.thin[LINF] == -2
    assert g.b[LINF] == 1
    assert g.inter[(LINF, LINF)] == 1
    assert g.check_dual(LINF, LINF) == 1


def test_one_free_blowup():
    cl = chain_cluster(PX0, [])
    g = cl.geometry()
    assert g.b[0] == 1
    assert g.ord_x[0] == -1
    assert g.ord_y[0] == 0
    assert g.alpha[0] == 0
    assert g.thin[0] == -1
    assert g.check_dual(0, 0) == 0


def test_two_free_chain():
    cl = chain_cluster(PX0, [Free(F(0))])
    g = cl.geometry()
    assert g.alpha[1] == -1
    assert g.b[1] == 1
    assert g.check_dual(1, 1) == -1


def test_eval_divisorial_basics():
    cl = chain_cluster(PX0, [])
    assert eval_divisorial(cl, 0, {(0, 1): F(1)}) == 0       # y
    assert eval_divisorial(cl, 0, {(1, 0): F(1)}) == -1      # x
    assert eval_divisorial(cl, 0, {(0, 0): F(1)}) == 0       # 1
    with pytest.raises(ZeroPolynomial):
        eval_divisorial(cl, 0, {})


def test_monomial_to_node_examples():
    cl, node = monomial_to_node(F(-1), F(0))
    assert len(cl) == 1 and node == 0
    assert cl.geometry().b[0] == 1

    cl, node = monomial_to_node(F(-1), F(1))
    assert len(cl) == 2
    g = cl.geometry()
    assert g.ord_x[node] == -1 and g.ord_y[node] == 1
    assert g.alpha[node] == -1

    with pytest.raises(RootValuation):
        monomial_to_node(F(-1), F(-1))


def test_monomial_to_node_fractional_weights():
    # v_{-1,1/3} via the (3,4) weight chain: alpha = -1/3
    cl, node = monomial_to_node(F(-1), F(1, 3))
    g = cl.geometry()
    assert g.alpha[node] == F(-1, 3)
    assert g.ord_x[node] == -3 and g.ord_y[node] == 1
    assert eval_divisorial(cl, node, {(0, 1): 1}) == F(1, 3)
    assert eval_divisorial(cl, node, {(1, 0): 1}) == -1

    # t = -1/2 sits above the root, alpha = 1/2
    cl, node = monomial_to_node(F(-1), F(-1, 2))
    assert cl.geometry().alpha[node] == F(1, 2)


def test_weight_chain_length_is_capped():
    # v_{-1,t} for integer t has local weights (1, t + 1): t blowups
    cl, node = monomial_to_node(F(-1), F(MAX_CHAIN_STEPS))
    assert len(cl) == MAX_CHAIN_STEPS + 1
    with pytest.raises(InvalidCluster, match="blowups"):
        monomial_to_node(F(-1), F(MAX_CHAIN_STEPS + 1))
    # a chain of 10^400 blowups is refused before it is built
    with pytest.raises(InvalidCluster, match="blowups"):
        monomial_to_node(F(-1), F(10) ** 400)
    with pytest.raises(InvalidCluster, match="blowups"):
        monomial_to_node(F(-1), F(1, 10 ** 400))


CUSP = PuiseuxSeries.make(3, {1: 1}, 3, exact=True)  # x_q = y_q^3 at [0:1:0]


def test_cusp_branch_steps():
    steps = branch_steps(PY, CUSP, 9)
    assert steps[:3] == [SatU(), SatU(), Free(F(1))]
    assert all(s == Free(F(0)) for s in steps[3:])


def test_cusp_geometry_table():
    cl, path = branch_to_nodes(PY, CUSP, 9)
    g = cl.geometry()
    expect_alpha = [F(0), F(1, 2), F(2, 3), F(5, 9), F(4, 9),
                    F(3, 9), F(2, 9), F(1, 9), F(0)]
    expect_b = [1, 2, 3, 3, 3, 3, 3, 3, 3]
    expect_w = [-2, -4, -6, -5, -4, -3, -2, -1, 0]
    for i in range(9):
        assert g.alpha[i] == expect_alpha[i]
        assert g.b[i] == expect_b[i]
        assert g.ord_w[i] == expect_w[i]
    # pencil divisor of y^2 - x^3
    assert g.thin[8] == F(1, 3)
    assert eval_divisorial(cl, 8, {(0, 2): 1, (3, 0): -1}) == 0
    # v(Q) = -sum m_i alpha(v ^ v_{s_i}): here -3 * alpha(E2) = -2
    assert eval_divisorial(cl, 2, {(0, 2): 1, (3, 0): -1}) == -2


def test_branch_depth_zero_and_one():
    cl, path = branch_to_nodes(PY, CUSP, 0)
    assert path == [] and len(cl) == 0
    cl, path = branch_to_nodes(PY, CUSP, 1)
    assert path == [0]


def test_smooth_transverse_branch():
    # y_q = x_q: two free points
    ser = PuiseuxSeries.make(1, {1: 1}, 4, exact=True)
    steps = branch_steps(PX0, ser, 2)
    assert steps == [Free(F(1))]


def test_merge_paths_shares_prefix():
    key1 = (PX0, (Free(F(0)), Free(F(0))))
    key2 = (PX0, (Free(F(0)), Free(F(1))))
    merged, ends = merge_paths([key1, key2])
    assert len(merged) == 4
    assert merged.key(ends[0]) == key1
    assert merged.key(ends[1]) == key2


def test_invalid_clusters():
    with pytest.raises(InvalidCluster):
        # free child at c=0 while the v-axis is a boundary
        chain_cluster(PY, [SatU(), Free(F(0))])
    with pytest.raises(InvalidCluster):
        # satellite on a missing v-axis
        chain_cluster(PY, [SatV()])
    with pytest.raises(InvalidCluster):
        Cluster([Node(parent=-1, base=PX0, step=None),
                 Node(parent=-1, base=PX0, step=None)])
    with pytest.raises(InvalidCluster):
        PointAtInfinity("y", F(2))


def test_alpha_monotone_and_thinness_increasing_on_dual_paths():
    cl, _ = branch_to_nodes(PY, CUSP, 9)
    g = cl.geometry()
    for comp in g.comps[1:]:
        p = g.parent[comp]
        assert g.alpha[comp] < g.alpha[p]
        assert g.thin[comp] > g.thin[p]


def test_cluster_with_geometry_freed_without_gc():
    # the cached geometry must not point back at its cluster: a cycle
    # would keep both alive until the next full collection
    gc.disable()
    try:
        cl, _ = branch_to_nodes(PY, CUSP, 9)
        cl.geometry().minv()
        ref = weakref.ref(cl)
        del cl
        assert ref() is None
    finally:
        gc.enable()


polys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                        st.integers(-3, 3).filter(bool),
                        min_size=1, max_size=4)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.lists(polys, min_size=1, max_size=12))
def test_memoized_ord_along_path_matches_fresh_cluster(seed, ps):
    # one cluster answers every query, so later queries start from
    # transforms memoized by earlier ones (and by evicted polynomials);
    # each answer must equal the walk from the root on a fresh cluster
    rng = random.Random(seed)
    cl = random_cluster(rng, max_nodes=12, n_roots=rng.choice([1, 2]))
    queries = [(k, P) for k in range(len(cl)) for P in ps]
    rng.shuffle(queries)
    for k, P in queries:
        assert ord_along_path(cl, k, P) == \
            ord_along_path(Cluster(cl.nodes), k, P)
        assert len(cl._strict) <= Cluster.STRICT_MEMO_POLYS


X = {(1, 0): F(1)}
Y = {(0, 1): F(1)}


def assert_rows_match_strict_transforms(cl):
    # build_geometry reads ord_x and ord_y off the strict transforms of x
    # and y in its rows; ord_along_path propagates x and y themselves
    g = build_geometry(cl)
    for i in range(len(cl)):
        assert g.ord_x[i] == ord_along_path(cl, i, X)[i]
        assert g.ord_y[i] == ord_along_path(cl, i, Y)[i]


# (max_nodes, depth_cap, n_roots) of the clusters the benchmark workloads
# draw: mixed classify sets, Green points of the curves ops and the
# geometry warm-up; divisorial antichains of 3 and 4; geometry clusters
WORKLOAD_CLUSTERS = ([(6, 8, 1), (6, 5, 1), (8, 8, 1)]
                     + [(3 * n + 3, 8, r) for n in (3, 4) for r in (1, 2)]
                     + [(n + 6, 12, r) for n in (9, 10, 13, 15, 18, 20)
                        for r in (1, 2)])


def test_seeded_random_clusters_stay_the_same():
    # the benchmark's reference answers hold only while each seed draws
    # the same cluster, so the rng draws of random_cluster keep their order
    h = hashlib.sha256()
    for max_nodes, depth_cap, n_roots in WORKLOAD_CLUSTERS:
        for seed in range(50):
            cl = random_cluster(random.Random(seed), max_nodes=max_nodes,
                                depth_cap=depth_cap, n_roots=n_roots)
            h.update(repr(cl.nodes).encode())
    assert h.hexdigest() == ("3530812f6d677c87dd2509a32b70489886a81daae75e"
                             "8d2b156fbdaef986ec0b")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 2))
def test_geometry_rows_match_ord_along_path(seed, n_roots):
    cl = random_cluster(random.Random(seed), max_nodes=14, n_roots=n_roots)
    assert_rows_match_strict_transforms(cl)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_shared_geometry_rows_match_ord_along_path(seed):
    # the clusters of one trie extend one list of rows round by round
    rng = random.Random(seed)
    trie = PathTrie()
    for batch in random_path_batches(rng, rng.randint(1, 5)):
        cl, _ = trie.add(batch)
        assert cl._rows is trie._rows
        assert_rows_match_strict_transforms(cl)


def test_strict_memo_evicts_the_oldest_polynomial(monkeypatch):
    import valinf.cluster as cluster

    cl, _ = branch_to_nodes(PY, CUSP, 9)
    cl.geometry()
    calls = []
    step = cluster.step_transform
    monkeypatch.setattr(cluster, "step_transform",
                        lambda *a: calls.append(a) or step(*a))
    ps = [{(0, 1): F(1), (k, 0): F(1)} for k in range(10)]
    for P in ps:
        eval_divisorial(cl, 8, P)
    assert len(cl._strict) == Cluster.STRICT_MEMO_POLYS
    assert len(calls) == 10 * 8
    for P in ps[2:]:
        eval_divisorial(cl, 8, P)
    assert len(calls) == 10 * 8           # the last eight are all kept
    eval_divisorial(cl, 8, ps[0])
    assert len(calls) == 11 * 8           # the first was evicted
    # the memo holds no reference back to its cluster
    gc.disable()
    try:
        ref = weakref.ref(cl)
        del cl
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# divisorials inside a dual edge, in closed form
# ---------------------------------------------------------------------------


def edge_point(cl, hi, lo, alpha):
    """``segment_point_key`` checked against a merge: with the key's path
    added to every path of ``cl``, its end has skewness alpha and lies on
    the dual path of lo, so inside the edge (hi, lo)."""
    key = segment_point_key(cl, hi, lo, alpha)
    merged, ends = merge_paths([cl.key(i) for i in range(len(cl))] + [key])
    g = merged.geometry()
    assert g.alpha[ends[-1]] == alpha
    assert ends[-1] in g.dual_path(ends[lo])
    return key


def test_segment_point_next_to_linf_is_a_monomial_valuation():
    # the edge from L-infinity to the root at [1 : 0 : 0] holds the
    # monomial valuations v_{-1,t} for -1 < t < 0, of skewness -t
    cl = chain_cluster(PX0, [])
    for t in [F(-1, 2), F(-1, 3), F(-2, 3), F(-3, 7), F(-9, 10)]:
        v = Monomial(F(-1), t)
        key = edge_point(cl, LINF, 0, -t)
        assert skewness(v).q == -t
        assert key == path_key(v)
        assert key[1][0] == SatU()


def test_segment_point_on_an_edge_whose_younger_end_is_its_upper_end():
    # Free(0), then SatU: node 2 lies between the root and node 1 on the
    # dual path of node 1, and its axes hold node 1, its v-axis
    cl = chain_cluster(PY, [Free(F(0)), SatU()])
    g = cl.geometry()
    assert g.dual_path(1) == [LINF, 0, 2, 1]
    hi, lo = 2, 1
    for k in range(1, 6):
        alpha = g.alpha[hi] + (g.alpha[lo] - g.alpha[hi]) * F(k, 6)
        key = edge_point(cl, hi, lo, alpha)
        assert key[1][:3] == (Free(F(0)), SatU(), SatV())
    # the other edge of node 2, to the root, is its u-axis
    alpha = (g.alpha[0] + g.alpha[2]) / 2
    assert edge_point(cl, 0, 2, alpha)[1][:3] == (Free(F(0)), SatU(), SatU())


def test_segment_point_needs_a_point_strictly_inside_an_edge():
    cl = chain_cluster(PY, [Free(F(0)), SatU()])
    g = cl.geometry()
    for hi, lo, alpha in [(2, 1, g.alpha[2]), (2, 1, g.alpha[1]),
                          (0, 1, (g.alpha[0] + g.alpha[1]) / 2),
                          (2, LINF, F(1, 2)), (2, 1, F(5))]:
        with pytest.raises(PreconditionViolated):
            segment_point_key(cl, hi, lo, alpha)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_segment_points_subdivide_their_edges(seed):
    rng = random.Random(seed)
    cl = random_cluster(rng, max_nodes=10, n_roots=rng.choice([1, 2]))
    g = cl.geometry()
    path = g.dual_path(rng.randrange(len(cl)))
    k = rng.randrange(len(path) - 1)
    hi, lo = path[k], path[k + 1]
    n = rng.randint(2, 7)
    t = F(rng.randrange(1, n), n)
    alpha = g.alpha[hi] + (g.alpha[lo] - g.alpha[hi]) * t
    edge_point(cl, hi, lo, alpha)
