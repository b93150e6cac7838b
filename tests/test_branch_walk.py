"""BranchWalk and its users against walks from the root.

The oracles here are the restarting walks that the resumable walker
replaced: ``branch_steps`` as one fresh walk per working precision,
``diverging_steps`` as a lockstep walk restarted at each doubling, and
the curve/divisorial meet deepened by two centers per round.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import valinf.cluster as cluster
from valinf import poly
from valinf.cluster import (BranchWalk, Free, PointAtInfinity, PuiseuxBranch,
                            SatU, SatV, _branch_state, _center_step,
                            branch_steps, chain_cluster, diverging_steps,
                            merge_paths)
from valinf.errors import InsufficientTruncation, InvalidCluster
from valinf.puiseux import logplus_laplacian, weighted_branches
from valinf.series import PuiseuxSeries
from valinf.valuations import (Curve, Divisorial, ROOT,
                               _meet_curve_realizable, _wrap_lca, equal,
                               meet, path_key, skewness)

F = Fraction
PY = PointAtInfinity("y")
derandomized = settings(derandomize=True, max_examples=120, deadline=None)


# ---------------------------------------------------------------------------
# oracles: walks from the root
# ---------------------------------------------------------------------------


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
        merged, (et, ec) = merge_paths([target, (c.branch.base, tuple(steps))])
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
    assert same_meet(outcome(_meet_curve_realizable, c, v),
                     outcome(meet_by_plus_two, c, v))


# ---------------------------------------------------------------------------
# each center is computed once per walk
# ---------------------------------------------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """Counts center steps, and records each walker with the depths
    asked of it."""
    calls = []
    walks = []
    step = cluster._center_step
    init = BranchWalk.__init__
    steps = BranchWalk.steps

    def counting_init(self, series):
        init(self, series)
        walks.append((self, []))

    def recording_steps(self, depth, works=None):
        next(d for w, d in walks if w is self).append(depth)
        return steps(self, depth, works)

    monkeypatch.setattr(cluster, "_center_step",
                        lambda *a: calls.append(1) or step(*a))
    monkeypatch.setattr(BranchWalk, "__init__", counting_init)
    monkeypatch.setattr(BranchWalk, "steps", recording_steps)
    return calls, walks


def test_logplus_laplacian_walks_each_branch_once(counted):
    calls, walks = counted
    Q = poly.parse("y^3-x^5+x*y")      # one branch, ramified: m = 5
    logplus_laplacian(Q, materialize=False)
    assert len(walks) == len(weighted_branches(Q)) == 1
    (walk, depths), = walks
    assert walk.series.m == 5
    assert depths == [6, 10, 14, 18, 22]        # four redo rounds
    assert len(calls) == len(walk._steps) == depths[-1] - 1


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
