import gc
import hashlib
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import alpha_by_edge_recursion, branch_to_nodes, lca_by_depth
from randgen import random_path_batches
from valinf.cluster import (MAX_CHAIN_STEPS, Cluster, Free, LINF, Node,
                            PathTrie, PointAtInfinity, SatU, SatV,
                            branch_steps, chain_cluster, eval_divisorial,
                            merge_paths, monomial_to_node, ord_along_path,
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
    r = g.rows[LINF]
    assert (r.alpha, r.thin, r.b) == (1, -2, 1)
    assert g.inter[(LINF, LINF)] == 1
    assert g.check_dual(LINF, LINF) == 1


def test_one_free_blowup():
    cl = chain_cluster(PX0, [])
    r = cl.rows()[0]
    assert (r.b, r.ord_x, r.ord_y, r.alpha, r.thin) == (1, -1, 0, 0, -1)
    assert cl.geometry().check_dual(0, 0) == 0


def test_two_free_chain():
    cl = chain_cluster(PX0, [Free(F(0))])
    r = cl.rows()[1]
    assert (r.alpha, r.b) == (-1, 1)
    assert cl.geometry().check_dual(1, 1) == -1


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
    assert cl.rows()[0].b == 1

    cl, node = monomial_to_node(F(-1), F(1))
    assert len(cl) == 2
    r = cl.rows()[node]
    assert (r.ord_x, r.ord_y, r.alpha) == (-1, 1, -1)

    with pytest.raises(RootValuation):
        monomial_to_node(F(-1), F(-1))


def test_monomial_to_node_fractional_weights():
    # v_{-1,1/3} via the (3,4) weight chain: alpha = -1/3
    cl, node = monomial_to_node(F(-1), F(1, 3))
    r = cl.rows()[node]
    assert (r.alpha, r.ord_x, r.ord_y) == (F(-1, 3), -3, 1)
    assert eval_divisorial(cl, node, {(0, 1): 1}) == F(1, 3)
    assert eval_divisorial(cl, node, {(1, 0): 1}) == -1

    # t = -1/2 sits above the root, alpha = 1/2
    cl, node = monomial_to_node(F(-1), F(-1, 2))
    assert cl.rows()[node].alpha == F(1, 2)


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
    rows = cl.rows()
    expect_alpha = [F(0), F(1, 2), F(2, 3), F(5, 9), F(4, 9),
                    F(3, 9), F(2, 9), F(1, 9), F(0)]
    expect_b = [1, 2, 3, 3, 3, 3, 3, 3, 3]
    expect_w = [-2, -4, -6, -5, -4, -3, -2, -1, 0]
    for i in range(9):
        assert rows[i].alpha == expect_alpha[i]
        assert rows[i].b == expect_b[i]
        assert rows[i].ord_w == expect_w[i]
    # pencil divisor of y^2 - x^3
    assert rows[8].thin == F(1, 3)
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
        assert g.rows[comp].alpha < g.rows[p].alpha
        assert g.rows[comp].thin > g.rows[p].thin


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
    # the rows read ord_x and ord_y off the strict transforms of x and y
    # kept beside them; ord_along_path propagates x and y themselves
    rows = cl.rows()
    for i in range(len(cl)):
        assert rows[i].ord_x == ord_along_path(cl, i, X)[i]
        assert rows[i].ord_y == ord_along_path(cl, i, Y)[i]


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
    # the clusters of one trie extend one table of rows round by round
    rng = random.Random(seed)
    trie = PathTrie()
    for batch in random_path_batches(rng, rng.randint(1, 5)):
        cl, _ = trie.add(batch)
        assert cl._rows is trie._rows
        assert_rows_match_strict_transforms(cl)


def assert_rows_match_edge_recursion(cl):
    rows = cl.rows()
    want = alpha_by_edge_recursion(cl)
    assert {c: (rows[c].alpha, rows[c].b, rows[c].thin) for c in want} \
        == want


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 2))
def test_rows_match_the_edge_recursion(seed, n_roots):
    # each node's skewness is read off the axis above it when it is
    # added; the retired pass recurses down the whole dual tree
    cl = random_cluster(random.Random(seed), max_nodes=30, n_roots=n_roots)
    assert_rows_match_edge_recursion(cl)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_shared_rows_match_the_edge_recursion(seed):
    # one trie's clusters share their rows; a later round's satellites
    # move earlier nodes in the dual tree but leave their rows as they are
    rng = random.Random(seed)
    trie = PathTrie()
    clusters = []
    for batch in random_path_batches(rng, rng.randint(1, 5)):
        cl, _ = trie.add(batch)
        clusters.append(cl)
        if rng.random() < 0.5:
            assert_rows_match_edge_recursion(cl)
    rng.shuffle(clusters)
    for cl in clusters:
        assert_rows_match_edge_recursion(cl)


def assert_xy_rise_only_on_free_zero_chains(cl):
    """ord_x and ord_y of a node exceed those of its axes by the
    multiplicity of the strict transform of x or y at its center.  That
    is 1 along the chain of Free(0) centers from a chart-y root for x,
    and from the chart-x root with c = 0 for y, and 0 elsewhere, where
    the transform is a unit."""
    rows = cl.rows()
    for i in range(len(cl)):
        path = cl.path(i)
        base = cl.nodes[path[0]].base
        free0 = all(cl.nodes[j].step == Free(0) for j in path[1:])
        ua, va = cl.axes[i]
        for name, chain_base in (("ord_x", PY), ("ord_y", PX0)):
            rise = getattr(rows[i], name) - getattr(rows[ua], name)
            if va is not None:
                rise -= getattr(rows[va], name)
            assert rise == (base == chain_base and free0), (i, name)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 2))
def test_xy_rows_rise_only_on_free_zero_chains(seed, n_roots):
    cl = random_cluster(random.Random(seed), max_nodes=30, n_roots=n_roots)
    assert_xy_rise_only_on_free_zero_chains(cl)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_shared_xy_rows_rise_only_on_free_zero_chains(seed):
    rng = random.Random(seed)
    trie = PathTrie()
    for batch in random_path_batches(rng, rng.randint(1, 5)):
        cl, _ = trie.add(batch)
        assert_xy_rise_only_on_free_zero_chains(cl)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 2))
def test_dual_walks_match_the_depth_walk(seed, n_roots):
    cl = random_cluster(random.Random(seed), max_nodes=30, n_roots=n_roots)
    g = cl.geometry()
    for a in g.comps:
        path = g.dual_path(a)
        assert path[0] == LINF and path[-1] == a
        assert all(g.parent[c] == p for p, c in zip(path, path[1:]))
        for b in g.comps:
            assert g.lca(a, b) == lca_by_depth(g.parent, a, b)


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
    assert merged.rows()[ends[-1]].alpha == alpha
    assert ends[-1] in merged.geometry().dual_path(ends[lo])
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
    assert cl.geometry().dual_path(1) == [LINF, 0, 2, 1]
    a = {c: r.alpha for c, r in cl.rows().items()}
    hi, lo = 2, 1
    for k in range(1, 6):
        alpha = a[hi] + (a[lo] - a[hi]) * F(k, 6)
        key = edge_point(cl, hi, lo, alpha)
        assert key[1][:3] == (Free(F(0)), SatU(), SatV())
    # the other edge of node 2, to the root, is its u-axis
    alpha = (a[0] + a[2]) / 2
    assert edge_point(cl, 0, 2, alpha)[1][:3] == (Free(F(0)), SatU(), SatU())


def test_segment_point_needs_a_point_strictly_inside_an_edge():
    cl = chain_cluster(PY, [Free(F(0)), SatU()])
    a = {c: r.alpha for c, r in cl.rows().items()}
    for hi, lo, alpha in [(2, 1, a[2]), (2, 1, a[1]),
                          (0, 1, (a[0] + a[1]) / 2),
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
    a = {c: r.alpha for c, r in cl.rows().items()}
    alpha = a[hi] + (a[lo] - a[hi]) * t
    edge_point(cl, hi, lo, alpha)
