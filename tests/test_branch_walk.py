"""BranchWalk and its users against walks from the root.

The oracles here are frozen copies of slower code: the center step that
inverts a chart coordinate at every step, the dense ``LaurentSeries``
product and inverse loops (the reference for any faster loop), the
prefix-keyed ``merge_paths``, ``branch_steps`` as one fresh walk per
working precision, ``diverging_steps`` as a lockstep walk restarted at
each doubling, the curve/divisorial meet deepened by two centers per
round, and the walker at full precision (``oracles.FullPrecisionWalk``).
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import valinf.cluster as cluster
from oracles import (FULL_DIVERGING_WORKS, FullPrecisionWalk,
                     diverging_walk_steps, full_diverging_steps)
from valinf import poly
from valinf.cluster import (BranchWalk, Cluster, Free, Node, PointAtInfinity,
                            PuiseuxBranch, SatU, SatV, branch_steps,
                            chain_cluster, diverging_steps, merge_paths)
from valinf.errors import InsufficientTruncation, InvalidCluster
from valinf.puiseux import (divisorial_on_segment, logplus_laplacian,
                            weighted_branches)
from valinf.series import LaurentSeries, PuiseuxSeries
from valinf.valuations import (Curve, Divisorial, ROOT, _wrap_lca, equal,
                               meet, path_key, skewness)

F = Fraction
PY = PointAtInfinity("y")
derandomized = settings(derandomize=True, max_examples=120, deadline=None)


# ---------------------------------------------------------------------------
# oracles: dense series loops, prefix-keyed merging, walks from the root
# ---------------------------------------------------------------------------


def dense_mul(f, g):
    """f * g by the double loop over all pairs of terms."""
    prec = None
    if f.prec is not None:
        og = min(g.coeffs) if g.coeffs else 0
        prec = f.prec + og
    if g.prec is not None:
        of = min(f.coeffs) if f.coeffs else 0
        prec = g.prec + of if prec is None else min(prec, g.prec + of)
    out = {}
    for e1, c1 in f.coeffs.items():
        for e2, c2 in g.coeffs.items():
            e = e1 + e2
            if prec is not None and e >= prec:
                continue
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return LaurentSeries(out, prec)


def dense_inverse(f, prec_hint=None):
    """1/f by the convolution recurrence over every exponent below the
    working precision."""
    o = f.order()
    lead = f.coeffs[o]
    h = {}
    for e, c in f.coeffs.items():
        if e != o:
            h[e - o] = c / lead
    if not h:
        prec = None if f.prec is None else f.prec - 2 * o
        return LaurentSeries({-o: Fraction(1) / lead}, prec)
    if f.prec is None:
        work = prec_hint if prec_hint is not None else 32
    else:
        work = f.prec - o
    g = {0: Fraction(1)}
    for k in range(1, work):
        s = Fraction(0)
        for j, c in h.items():
            if j <= k:
                gk = g.get(k - j)
                if gk is not None:
                    s += c * gk
        if s:
            g[k] = -s
    inv = LaurentSeries(g, work).scale(Fraction(1) / lead)
    # multiplied by t^-o
    return LaurentSeries({e - o: c for e, c in inv.coeffs.items()},
                         inv.prec - o)


def prefix_merge_paths(paths):
    """merge_paths with one dict entry per path prefix."""
    nodes = []
    index = {}
    ends = []
    for base, steps in paths:
        steps = tuple(steps)
        for k in range(len(steps) + 1):
            key = (base, steps[:k])
            if key in index:
                continue
            parent = -1 if k == 0 else index[(base, steps[:k - 1])]
            if k == 0:
                nodes.append(Node(parent=-1, base=base, step=None))
            else:
                nodes.append(Node(parent=parent, base=None, step=steps[k - 1]))
            index[key] = len(nodes) - 1
        ends.append(index[(base, steps)])
    return Cluster(nodes), ends


def _center_step(state, work):
    """One center of a branch, inverting a coordinate at every step."""
    U, V, v_present = state
    if V.is_zero_known():
        if V.prec is not None:
            raise InsufficientTruncation(
                "branch series vanishes to its stored order")
        if v_present:
            raise InvalidCluster("branch coincides with a boundary curve")
        return Free(Fraction(0)), state
    a = U.order()
    b = V.order()
    if b > a:
        step = SatV() if v_present else Free(Fraction(0))
        return step, (U, dense_mul(V, dense_inverse(U, work)), v_present)
    if a > b:
        return SatU(), (dense_mul(U, dense_inverse(V, work)), V, True)
    c = V.leading() / U.leading()
    return Free(c), (U, dense_mul(V, dense_inverse(U, work))
                     - LaurentSeries.monomial(0, c), False)


def _branch_state(series):
    return (LaurentSeries.monomial(series.m), series.tau_series(), False)


def walk_from_root(series, depth, work=None, cap=1 << 16):
    """branch_steps as one fresh walk per working precision, from ``work``
    (by default the one sized for the depth) doubling up to ``cap``."""
    if work is None:
        top = max((j for j, _ in series.coeffs), default=1)
        work = 4 * (series.m * (depth + 2) + top + 8)
    while True:
        try:
            state, steps = _branch_state(series), []
            for _ in range(depth - 1):
                step, state = _center_step(state, work)
                steps.append(step)
            return steps
        except InsufficientTruncation:
            if not series.exact or work > cap:
                raise
            work *= 2


def diverging_by_restart(s1, s2):
    """diverging_steps as a lockstep walk restarted at each doubling."""
    work = 256
    while True:
        st1, st2 = _branch_state(s1), _branch_state(s2)
        steps1, steps2 = [], []
        try:
            for _ in range(work // 4):
                a, st1 = _center_step(st1, work)
                b, st2 = _center_step(st2, work)
                steps1.append(a)
                steps2.append(b)
                if a != b:
                    break
            else:
                raise InsufficientTruncation("branches agree beyond the "
                                             "exploration depth")
            for steps, st in ((steps1, st1), (steps2, st2)):
                while not isinstance(steps[-1], Free):
                    step, st = _center_step(st, work)
                    steps.append(step)
                    if len(steps) > work // 2:
                        raise InsufficientTruncation(
                            "satellite cascade beyond the exploration depth")
            return steps1, steps2
        except InsufficientTruncation:
            if work > 1 << 17:
                raise
            work *= 2


def meet_by_plus_two(c, v):
    """The curve/divisorial meet deepened by two centers per round."""
    target = path_key(v)
    if c.branch.base != target[0]:
        return ROOT
    depth = len(target[1]) + 2
    while True:
        steps = walk_from_root(c.branch.series, depth)
        merged, (et, ec) = prefix_merge_paths(
            [target, (c.branch.base, tuple(steps))])
        lca = merged.geometry().lca(et, ec)
        if lca != ec:
            return _wrap_lca(lca, merged, v, c)
        depth += 2


def outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except (InsufficientTruncation, InvalidCluster) as e:
        return (type(e), str(e))


# ---------------------------------------------------------------------------
# random branches
# ---------------------------------------------------------------------------


coefficients = st.fractions(min_value=-3, max_value=3,
                            max_denominator=3).filter(bool)


@st.composite
def series(draw, exact=None, top=12):
    m = draw(st.integers(1, 3))
    coeffs = draw(st.dictionaries(st.integers(1, top), coefficients,
                                  max_size=4))
    K = draw(st.integers(max(coeffs, default=1), top + 2))
    if exact is None:
        exact = draw(st.booleans())
    return PuiseuxSeries.make(m, coeffs, K, exact=exact)


@st.composite
def two_pairs(draw):
    """A branch with two characteristic exponents, such as
    y = x^(1/2) + x^(3/4): its walk runs SatU, a free center and SatU
    again, which no branch of ``series`` does (one characteristic
    exponent at most, for m <= 3)."""
    d, q = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4)]))
    m = d * q
    j1 = d * draw(st.sampled_from([k for k in range(1, 2 * q)
                                   if k % q]))
    j2 = draw(st.integers(j1 + 1, j1 + m).filter(lambda j: j % d))
    coeffs = {j1: draw(coefficients), j2: draw(coefficients)}
    coeffs.update(draw(st.dictionaries(st.integers(1, j2 + 3), coefficients,
                                       max_size=2)))
    K = draw(st.integers(max(coeffs), max(coeffs) + 3))
    return PuiseuxSeries.make(m, coeffs, K, exact=draw(st.booleans()))


@st.composite
def series_pairs(draw):
    """Two branches that share a prefix of terms and differ in one."""
    s1 = draw(series(top=6))
    coeffs = dict(s1.coeffs)
    j = draw(st.integers(1, 6))
    coeffs[j] = coeffs.get(j, 0) + draw(coefficients)
    s2 = PuiseuxSeries.make(s1.m, coeffs, max(s1.K, j),
                            exact=draw(st.booleans()))
    # two exact expansions of one branch never diverge
    assume(not (s1.exact and s2.exact and s1.reduced() == s2.reduced()))
    return s1, s2


@st.composite
def laurent(draw, nonzero=False):
    """A Laurent series, exact or truncated, whose terms are sparse (on
    multiples of a stride, so the inverse has gaps) or dense."""
    stride = draw(st.sampled_from([1, 1, 2, 3, 5]))
    low = draw(st.integers(-4, 4))
    exps = draw(st.lists(st.integers(0, 12), max_size=8))
    coeffs = {low + stride * k: draw(coefficients) for k in exps}
    if nonzero:
        coeffs[low] = draw(coefficients)
    prec = draw(st.none() | st.integers(low + 1, low + 40))
    return LaurentSeries(coeffs, prec)


@derandomized
@given(laurent(), laurent())
def test_product_matches_the_dense_loop(f, g):
    out = f * g
    want = dense_mul(f, g)
    assert (out.coeffs, out.prec) == (want.coeffs, want.prec)
    flipped = g * f
    assert (flipped.coeffs, flipped.prec) == (out.coeffs, out.prec)


@derandomized
@given(laurent(nonzero=True), st.none() | st.integers(0, 60))
def test_inverse_matches_the_dense_recurrence(f, hint):
    out = outcome(f.inverse, hint)
    want = outcome(dense_inverse, f, hint)
    if isinstance(want, LaurentSeries):
        assert (out.coeffs, out.prec) == (want.coeffs, want.prec)
        # f * f^-1 is 1 below the precision of the product
        one = f * out
        assert one.coeffs == ({0: 1} if one.prec is None or one.prec > 0
                              else {})
    else:
        assert out == want


# distinct primes near 10^6: a product sums its terms over each factor's
# common denominator, which is then the product of these primes
PRIMES = (999_983, 999_979, 999_961, 999_959, 999_953, 999_931, 999_917,
          999_907, 999_883)
numerators = st.integers(-10 ** 12, 10 ** 12).filter(bool)


@st.composite
def coprime_laurent(draw, nonzero=False):
    """A Laurent series, exact or truncated, with large numerators over
    pairwise coprime denominators near 10^6."""
    stride = draw(st.sampled_from([1, 1, 2, 3]))
    low = draw(st.integers(-4, 4))
    exps = draw(st.lists(st.integers(0, 10), unique=True,
                         max_size=len(PRIMES)))
    if nonzero and 0 not in exps:
        exps.append(0)
    dens = draw(st.permutations(PRIMES))
    coeffs = {low + stride * k: F(draw(numerators), p)
              for k, p in zip(exps, dens)}
    prec = draw(st.none() | st.integers(low + 1, low + 30))
    return LaurentSeries(coeffs, prec)


def assert_normal(s):
    """Every stored coefficient is a nonzero Fraction below the
    precision."""
    for e, c in s.coeffs.items():
        assert type(c) is Fraction and c != 0
        assert s.prec is None or e < s.prec


def assert_same(out, want):
    assert (out.coeffs, out.prec) == (want.coeffs, want.prec)
    assert_normal(out)


@derandomized
@given(coprime_laurent(), coprime_laurent())
def test_product_over_coprime_denominators(f, g):
    assert_same(f * g, dense_mul(f, g))


@derandomized
@given(coprime_laurent())
def test_product_whose_odd_terms_cancel(f):
    # f(t) * f(-t) is even: every odd exponent sums to zero
    g = LaurentSeries({e: -c if e % 2 else c for e, c in f.coeffs.items()},
                      f.prec)
    out = f * g
    assert_same(out, dense_mul(f, g))
    assert all(e % 2 == 0 for e in out.coeffs)


@derandomized
@given(coprime_laurent(), st.none() | st.integers(-5, 30))
def test_product_with_an_empty_factor(f, prec):
    zero = LaurentSeries({}, prec)
    for out, want in ((f * zero, dense_mul(f, zero)),
                      (zero * f, dense_mul(zero, f))):
        assert_same(out, want)
        assert out.coeffs == {}


@derandomized
@given(coprime_laurent(nonzero=True), st.none() | st.integers(0, 40))
def test_inverse_over_coprime_denominators(f, hint):
    out = outcome(f.inverse, hint)
    want = outcome(dense_inverse, f, hint)
    if isinstance(want, LaurentSeries):
        assert_same(out, want)
    else:
        assert out == want


bases = st.sampled_from([PY, PointAtInfinity("x"), PointAtInfinity("x", 1)])


@st.composite
def center_steps(draw, start=()):
    """``start`` continued by up to 8 centers that make a valid chain:
    SatV only on a v-axis, left by a satellite, and Free(0) only off it."""
    steps = list(start)
    for _ in range(draw(st.integers(0, 8))):
        on_v = bool(steps) and not isinstance(steps[-1], Free)
        steps.append(draw(st.sampled_from(
            [SatU(), Free(F(1)), Free(F(-1, 2))]
            + ([SatV()] if on_v else [Free(F(0))]))))
    return tuple(steps)


@st.composite
def path_sets(draw):
    """Prefixes of a few center chains at one or more bases; the chains
    at one base share a prefix, and some paths repeat or are bare base
    points."""
    stems = []
    for _ in range(draw(st.integers(1, 4))):
        base = draw(bases)
        shared = [s for b, s in stems if b == base]
        start = ()
        if shared:
            stem = draw(st.sampled_from(shared))
            start = stem[:draw(st.integers(0, len(stem)))]
        stems.append((base, draw(center_steps(start))))
    paths = []
    for _ in range(draw(st.integers(1, 7))):
        base, steps = draw(st.sampled_from(stems))
        paths.append((base, steps[:draw(st.integers(0, len(steps)))]))
    return paths


@derandomized
@given(path_sets())
def test_merge_paths_matches_the_prefix_dict(paths):
    def nodes_and_ends(merge):
        cl, ends = merge(paths)
        return cl.nodes, ends
    assert outcome(nodes_and_ends, merge_paths) == \
        outcome(nodes_and_ends, prefix_merge_paths)


def test_merge_paths_is_linear_in_a_deep_path():
    steps = (Free(F(1)),) + (SatU(),) * 19_999
    cl, (end,) = merge_paths([(PY, steps)])
    assert len(cl) == 20_001 and end == 20_000
    cl, ends = merge_paths([(PY, steps), (PY, steps[:5_000]), (PY, ())])
    assert len(cl) == 20_001 and ends == [20_000, 5_000, 0]


# ---------------------------------------------------------------------------
# the walker
# ---------------------------------------------------------------------------


@derandomized
@given(series(), st.lists(st.integers(0, 14), min_size=1, max_size=4))
def test_walk_matches_walks_from_the_root(s, depths):
    # depth requests in any order, e.g. 9, 3, 14: each must give the
    # steps, or the error at the same depth, of a walk from the root
    walk = BranchWalk(s)
    for d in depths:
        assert outcome(walk.steps, d) == outcome(walk_from_root, s, d)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(two_pairs(), st.lists(st.integers(0, 12), min_size=1, max_size=3))
def test_walk_of_two_characteristic_exponents(s, depths):
    # low working precisions keep the dense oracle cheap
    works = cluster._doubling(32, 256)
    walk = BranchWalk(s)
    for d in depths:
        assert outcome(walk.steps, d, works) == \
            outcome(walk_from_root, s, d, 32, 256)


@derandomized
@given(series(exact=True), st.lists(st.integers(0, 14), min_size=1,
                                    max_size=4),
       st.integers(1, 16), st.integers(0, 2))
def test_exact_walk_redoes_on_the_schedule(s, depths, work, doublings):
    # working precisions this low run out within a few centers, so the
    # walker redoes its walk and reaches the cap of the schedule
    works = cluster._doubling(work, work << doublings)
    walk = BranchWalk(s)
    for d in depths:
        assert outcome(walk.steps, d, works) == \
            outcome(walk_from_root, s, d, work, work << doublings)


def test_walk_resumes_a_truncated_branch_to_its_error():
    s = PuiseuxSeries.make(2, {1: 1, 3: F(1, 2)}, 4)
    walk = BranchWalk(s)
    with pytest.raises(InsufficientTruncation) as deep:
        walk.steps(20)
    assert walk.steps(3) == walk_from_root(s, 3)
    with pytest.raises(InsufficientTruncation) as again:
        walk.steps(20)
    assert str(again.value) == str(deep.value)


def test_branch_steps_is_a_fresh_walk():
    s = PuiseuxSeries.make(3, {1: 1, 2: 2, 7: -1}, 7, exact=True)
    assert branch_steps(PY, s, 12) == walk_from_root(s, 12)
    assert branch_steps(PY, s, 1) == branch_steps(PY, s, 0) == []


@settings(derandomize=True, max_examples=30, deadline=None)
@given(series_pairs())
def test_diverging_steps_matches_lockstep_restarts(pair):
    assert outcome(diverging_steps, *pair) == \
        outcome(diverging_by_restart, *pair)


# ---------------------------------------------------------------------------
# the meet of a curve and a divisorial, deepened in doubling strides
# ---------------------------------------------------------------------------


@st.composite
def ramified(draw):
    """A branch with a long satellite run: c x_q^(1/m) leads, m up to 16;
    exact ones are that one term (the walk stays cheap), truncated ones
    have more terms and run out within a few centers of the run."""
    m = draw(st.integers(5, 16))
    coeffs = {1: draw(coefficients)}
    if draw(st.booleans()):
        return PuiseuxSeries.make(m, coeffs, 1, exact=True)
    coeffs.update(draw(st.dictionaries(st.integers(2, 6), coefficients,
                                       max_size=2)))
    return PuiseuxSeries.make(m, coeffs, draw(st.integers(max(coeffs), 8)))


@st.composite
def curve_divisorial_pairs(draw):
    """A curve, and a divisorial whose path follows the curve's centers
    for a while and then leaves them."""
    s = draw(series(top=8) | ramified())
    keep = draw(st.integers(0, 6))
    try:
        steps = walk_from_root(s, keep + 1)
    except InsufficientTruncation:
        steps = []
    steps += draw(st.lists(st.sampled_from(
        [SatU(), SatV(), Free(F(0)), Free(F(1)), Free(F(-2))]), max_size=3))
    try:
        cl = chain_cluster(PY, steps)
    except InvalidCluster:
        assume(False)
    return Curve(PuiseuxBranch(PY, s)), Divisorial(cl, len(cl) - 1)


def same_meet(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return equal(a, b)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(curve_divisorial_pairs())
def test_curve_meet_matches_the_plus_two_search(pair):
    c, v = pair
    assert same_meet(outcome(meet, c, v), outcome(meet_by_plus_two, c, v))


# ---------------------------------------------------------------------------
# precision on demand against the walker at full precision
# ---------------------------------------------------------------------------


branches = st.one_of(series(), two_pairs(), ramified())


@derandomized
@given(branches, st.lists(st.integers(0, 16), min_size=1, max_size=5))
def test_walk_matches_the_full_precision_walk(s, depths):
    # depth requests in any order, on the schedule of branch_steps
    walk, full = BranchWalk(s), FullPrecisionWalk(s)
    for d in depths:
        assert outcome(walk.steps, d) == outcome(full.steps, d)


@derandomized
@given(branches, st.integers(0, 8), st.lists(st.tuples(
    st.integers(0, 14), st.none() | st.tuples(st.integers(1, 16),
                                              st.integers(0, 3))),
    min_size=1, max_size=4))
def test_tiny_schedules_match_the_full_precision_walk(s, first, requests):
    # after a request on the default schedule, an explicit schedule whose
    # top is below the walker's precision sends it back to the root, as
    # it sent the full walker
    walk, full = BranchWalk(s), FullPrecisionWalk(s)
    for d, tiny in [(first, None)] + requests:
        works = tiny and cluster._doubling(tiny[0], tiny[0] << tiny[1])
        assert outcome(walk.steps, d, works) == outcome(full.steps, d, works)


def test_a_lower_schedule_walks_from_the_root():
    s = PuiseuxSeries.make(3, {1: 1, 2: 2, 7: -1}, 7, exact=True)
    walk, full = BranchWalk(s), FullPrecisionWalk(s)
    assert walk.steps(6) == full.steps(6)
    assert walk.work == cluster.EXACT_START
    # 8 terms certify 10 centers but not the 11th, which 32 terms do
    works = cluster._doubling(2, 4)
    with pytest.raises(InsufficientTruncation):
        full.steps(12, works)
    with pytest.raises(InsufficientTruncation):
        walk.steps(12, works)
    assert (walk.depth, walk.work) == (11, 8)
    assert walk.steps(12) == full.steps(12)


def serve(walk, request):
    """One request of a mixed sequence to a walker, new or full."""
    kind, arg = request
    if kind == "steps":
        return walk.steps(arg)
    if isinstance(walk, FullPrecisionWalk):
        if kind == "step":
            return walk.step(arg, FULL_DIVERGING_WORKS)
        return full_diverging_steps((walk, FullPrecisionWalk(arg)))
    if kind == "step":
        return walk.step(arg, cluster.DIVERGING_WORKS)
    return diverging_walk_steps((walk, BranchWalk(arg)),
                                cluster.DIVERGING_WORKS)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_mixed_schedules_match_the_full_precision_walk(data):
    # one walker serves branch_steps requests, single steps on the
    # schedule of diverging_steps, and whole diverging_steps calls
    s = data.draw(branches)
    others = series(top=6).filter(
        lambda o: not (o.exact and s.exact and o.reduced() == s.reduced()))
    requests = data.draw(st.lists(st.one_of(
        st.tuples(st.just("steps"), st.integers(0, 16)),
        st.tuples(st.just("step"), st.integers(0, 16)),
        st.tuples(st.just("diverge"), others)), min_size=1, max_size=5))
    walk, full = BranchWalk(s), FullPrecisionWalk(s)
    for request in requests:
        assert outcome(serve, walk, request) == outcome(serve, full, request)


def length(s):
    """The number of exponents from the order of s to its precision, or
    to its top term when it is exact."""
    top = s.prec if s.prec is not None else max(s.coeffs) + 1
    return top - min(s.coeffs)


@pytest.fixture
def lengths(monkeypatch):
    """Records the length of each series inverted or multiplied."""
    out = []
    inverse, mul = LaurentSeries.inverse, LaurentSeries.__mul__

    def recording_inverse(self, prec_hint=None):
        out.append(length(self))
        return inverse(self, prec_hint)

    def recording_mul(self, other):
        out.extend(length(f) for f in (self, other) if f.coeffs)
        return mul(self, other)

    monkeypatch.setattr(LaurentSeries, "inverse", recording_inverse)
    monkeypatch.setattr(LaurentSeries, "__mul__", recording_mul)
    return out


@pytest.mark.parametrize("K", [20, 1_600, 4_096])
def test_a_truncated_walk_reads_what_its_centers_need(lengths, K):
    # the curve of the K cap: the first 5 centers need 8 terms of it,
    # which the walk at full precision inverted to K terms
    s = PuiseuxSeries.make(3, {1: 1, 2: 5}, K)
    walk = BranchWalk(s)
    assert walk.steps(5) == [SatU(), SatU(), Free(F(1)), Free(F(15))]
    assert (walk.work, walk.raises) == (cluster.TRUNCATED_START, 0)
    assert lengths and max(lengths) <= cluster.TRUNCATED_START


def test_a_rise_applies_the_recorded_steps_again(lengths):
    # K = 8 certifies 9 centers; the walk rises from 8 terms to 9 to find
    # the tenth uncertifiable, and raises what the full walk raises
    s = PuiseuxSeries.make(3, {1: 1, 2: 5}, 8)
    walk = BranchWalk(s)
    assert outcome(walk.steps, 40) == outcome(FullPrecisionWalk(s).steps, 40)
    assert (walk.depth, walk.work, walk.raises) == (11, 9, 1)


# ---------------------------------------------------------------------------
# each center is computed once per walk
# ---------------------------------------------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """Records the walker of each center step, and each walker with the
    depths asked of it."""
    calls = []
    walks = []
    walking = []
    step = cluster._center_step
    init = BranchWalk.__init__
    steps = BranchWalk.steps
    walk = BranchWalk._walk

    def counting_init(self, series):
        init(self, series)
        walks.append((self, []))

    def recording_steps(self, depth, works=None):
        next(d for w, d in walks if w is self).append(depth)
        return steps(self, depth, works)

    def tracking_walk(self, n):
        walking.append(self)
        try:
            walk(self, n)
        finally:
            walking.pop()

    monkeypatch.setattr(cluster, "_center_step",
                        lambda *a: calls.append(walking[-1]) or step(*a))
    monkeypatch.setattr(BranchWalk, "__init__", counting_init)
    monkeypatch.setattr(BranchWalk, "steps", recording_steps)
    monkeypatch.setattr(BranchWalk, "_walk", tracking_walk)
    return calls, walks


def test_logplus_laplacian_walks_each_branch_once(counted, monkeypatch):
    calls, walks = counted
    evaluated = []
    ord_along_path = cluster.ord_along_path
    monkeypatch.setattr(cluster, "ord_along_path",
                        lambda *a: evaluated.append(a) or ord_along_path(*a))
    Q = poly.parse("y^3-x^5+x*y")      # one branch, ramified: m = 5
    logplus_laplacian(Q)
    # the atom sits at skewness 0 by the Green identity: one walk, which
    # jumps from its first round to the depth that reaches it, and Q is
    # never evaluated (the rounds asked 6, 10, 14, 18, 22 and evaluated
    # Q at every node of the dual path)
    assert evaluated == []
    (walk, depths), = walks
    assert walk.series.m == 5
    assert depths == [8, 20]
    assert len(calls) == len(walk._steps) == depths[-1] - 1


def test_logplus_laplacian_walks_once_per_meet_and_atom(counted):
    calls, walks = counted
    Q = poly.parse("(y^2-x^3)*(y^2-x^3-x^2*y)")
    bs = [b for b, _ in weighted_branches(Q)]
    assert [(b.base, b.series.m) for b in bs] == \
        [(PY, 3), (PY, 2), (PointAtInfinity("x", F(1)), 1)]
    logplus_laplacian(Q)
    # the hull of the branches walks the two at the point y to their
    # divergence, and leaves the branch alone at x = 1 unwalked; then one
    # walk per atom
    assert [(w.series, d) for w, d in walks] == [
        (bs[0].series, [4]), (bs[1].series, [3]),
        (bs[0].series, [8, 17]), (bs[1].series, [8, 16]),
        (bs[2].series, [8])]
    assert len(calls) == sum(len(w._steps) for w, _ in walks)
    # three branches at y (truncated at K = 8, which certifies the atoms):
    # one walk each in the hull, then one per atom
    walks.clear()
    Q = poly.parse("(y-x^3)*(y-x^3-x^2)*(y-x^3-x^2-x)")
    bs = [b for b, _ in weighted_branches(Q, 8)]
    assert {b.base for b in bs} == {PY}
    logplus_laplacian(Q, 8)
    assert [w.series for w, _ in walks] == [b.series for b in bs] * 2


def test_large_ramification_meet_walks_once(counted):
    calls, walks = counted
    c = Curve(PuiseuxBranch(
        PY, PuiseuxSeries.make(300, {1: 1}, 2, exact=True)))
    v = Divisorial(chain_cluster(PY, [Free(F(1))]), 1)
    m = meet(c, v)
    assert skewness(m).q == F(299, 300)
    (walk, depths), = walks
    assert len(calls) == len(walk._steps) == depths[-1] - 1
    assert len(depths) < 12                 # doubling strides, not +2


def test_rises_decide_each_center_once(counted):
    calls, walks = counted
    s = PuiseuxSeries.make(6, [(1, 1), (3, 2), (5, -1), (7, 3)], 40,
                           exact=True)
    walk = BranchWalk(s)
    assert len(walk.steps(80)) == 79
    # 32 -> 64 -> 128 terms, far below the first rung of the full walk
    assert (walk.work, walk.raises) == (128, 2)
    assert len(calls) == 79


def test_segment_search_walks_its_branch_once(counted):
    calls, walks = counted
    (b, _), = weighted_branches(poly.parse("y^3-x^5+x*y"))
    d = divisorial_on_segment(b, F(-5, 2))
    # one walker: its first round ends at a divisor of skewness above
    # -5/2, and the least depth that skewness needs below it is walked at
    # once, where +8 rounds asked 8, 16, ..., 88; the answer is read off
    # an edge with no more walks
    (walk, depths), = walks
    assert walk.series == b.series
    assert depths == [8, 83]
    assert len(calls) == len(walk._steps) == 82
    # the divisorial that the probe search finds
    steps = [SatU(), SatU(), SatV()]
    for c in [1, 1, 3, 12, 55, 273, 1428, 7752, 43263, 246675, 1430715]:
        steps += [Free(F(c))] + [Free(F(0))] * 6
    steps += [Free(F(8414640)), SatU()]
    assert path_key(d) == (PY, tuple(steps))
    assert skewness(d).q == F(-5, 2)


# ---------------------------------------------------------------------------
# the walk state keeps U^-1 and V^-1
# ---------------------------------------------------------------------------


@pytest.fixture
def inverted(monkeypatch):
    """Records each series that LaurentSeries.inverse is called on."""
    calls = []
    inverse = LaurentSeries.inverse

    def recording_inverse(self, prec_hint=None):
        calls.append(self)
        return inverse(self, prec_hint)

    monkeypatch.setattr(LaurentSeries, "inverse", recording_inverse)
    return calls


@pytest.mark.parametrize("k", [1, 4, 8])
def test_a_run_of_satu_centers_inverts_v_once(inverted, k):
    # y = x^(1/m) + x^(2/m) for m = k + 1: ord V = 1, and each SatU
    # center lowers ord U by one until it is 1
    s = PuiseuxSeries.make(k + 1, {1: 1, 2: 1}, 2, exact=True)
    assert BranchWalk(s).steps(k + 2) == [SatU()] * k + [Free(F(1))]
    # V once for the k SatU centers, then U once for the free one
    assert len(inverted) == 2
    assert inverted[0].coeffs == s.tau_series().coeffs


def test_each_run_inverts_its_divisor_once(inverted):
    # y = x^(1/2) + x^(2/3): SatU, a free center, two SatU, free centers;
    # the free center changes V, so the second run inverts the new V
    s = PuiseuxSeries.make(6, {3: 1, 4: 1}, 4, exact=True)
    steps = BranchWalk(s).steps(10)
    assert steps[:5] == [SatU(), Free(F(1)), SatU(), SatU(), Free(F(8))]
    assert all(isinstance(step, Free) for step in steps[5:])
    assert len(inverted) == 4


def test_baseline_branch_at_depth_40():
    # the steps that the walk gave with Fraction series kernels
    s = PuiseuxSeries.make(6, [(1, 1), (3, 2), (5, -1), (7, 3)], 40,
                           exact=True)
    free = [1, 12, 294, 9118, 318555, 11960982, 471347227, 19229903070,
            805284114447, 34416150024520, 1495078913492424,
            65822815028949078, 2930477251021552700, 131707082128436276346,
            5967683411007854907180, 272308492053830468102848,
            12502455652705703346264735]
    want = [SatU()] * 5
    for c in free:
        want += [Free(F(c)), Free(F(0))]
    assert len(want) == 39
    assert branch_steps(PY, s, 40) == want
