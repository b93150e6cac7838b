"""Identities of centers and valuations.

``Free`` and ``PointAtInfinity`` hash the numerator and denominator of
their parameter, and ``path_key`` keeps the key of a divisorial or
monomial valuation on the valuation.  Equal values given in different
forms must compare equal, hash equal and share a ``PathTrie`` node; a
kept key must be the key its cluster gives, on every call; and a
valuation that several hulls have keyed must give what a fresh copy of
it gives.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from randgen import random_cluster, random_divisorial_set, random_mixed_set
from valinf.cluster import LINF, Free, PathTrie, PointAtInfinity
from valinf.errors import DomainError, Undecided
from valinf.scenario import parse_rational
from valinf.valuations import (ROOT, Curve, Divisorial, Hull, Monomial, Root,
                               path_key)

derandomized = settings(derandomize=True, max_examples=60, deadline=None)


def forms(p, q):
    """The rational p/q as a string, an unreduced Fraction, a parsed
    string and, when whole, an int."""
    out = [f"{p}/{q}", Fraction(2 * p, 2 * q), parse_rational(f"{p}/{q}")]
    if q == 1:
        out.append(p)
    return out


@derandomized
@given(st.integers(-50, 50), st.integers(1, 6))
def test_equal_centers_in_any_form_share_a_trie_node(p, q):
    frees = [Free(c) for c in forms(p, q)]
    bases = [PointAtInfinity("x", c) for c in forms(p, q)]
    for objs in (frees, bases):
        assert all(a == b and hash(a) == hash(b)
                   for a in objs for b in objs)
        assert len({*objs}) == 1
    assert Free(Fraction(p, q) + 1) != frees[0]
    assert PointAtInfinity("x", Fraction(p, q) + 1) != bases[0]
    trie = PathTrie()
    ends = trie.insert([(b, (f, Free(1))) for b in bases for f in frees])
    assert len(set(ends)) == 1 and len(trie.nodes) == 3


@derandomized
@given(st.integers(0, 10 ** 6), st.integers(1, 3))
def test_divisorial_path_key_is_its_cluster_key(seed, n_roots):
    cl = random_cluster(random.Random(seed), max_nodes=12, n_roots=n_roots)
    for node in range(len(cl)):
        v = Divisorial(cl, node)
        first = path_key(v)
        assert first == cl.key(node)
        assert path_key(v) is first and path_key(v) == cl.key(node)


@derandomized
@given(st.integers(-3, 8), st.integers(1, 4), st.booleans())
def test_monomial_path_key_is_its_cluster_key(a, b, swap):
    w = Fraction(a, b)
    if w == -1:
        return
    v = Monomial(w, -1) if swap else Monomial(-1, w)
    cl, node = v.realize()
    first = path_key(v)
    assert first == cl.key(node)
    assert path_key(v) is first and path_key(v) == cl.key(node)


def fresh(v):
    """A copy of v that has keyed nothing yet."""
    if isinstance(v, Divisorial):
        return Divisorial(v.cluster, v.node)
    if isinstance(v, Monomial):
        return Monomial(v.s, v.t)
    if isinstance(v, Curve):
        return Curve(v.branch)
    return ROOT


def hull_outcome(vs):
    """The ends and meets of the hull of ``vs`` as comparable data: each
    end as a path key, and each meet as ROOT, the index of the element
    it returns, or the path key of a new divisorial; or the type of what
    building the hull raised."""
    try:
        h = Hull(vs)
    except (DomainError, Undecided) as e:
        return type(e)
    ends = [LINF if e == LINF else h.cluster.key(e) for e in h.ends]
    meets = {}
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            m = h.meet(i, j)
            which = [k for k in (i, j) if m is vs[k]]
            meets[i, j] = "root" if isinstance(m, Root) else \
                which[0] if which else path_key(m)
    return ends, meets


@derandomized
@given(st.integers(0, 10 ** 6), st.booleans())
def test_reused_valuations_give_what_fresh_copies_give(seed, mixed):
    rng = random.Random(seed)
    S = random_mixed_set(rng, 6) if mixed else \
        random_divisorial_set(rng, rng.randint(1, 6))
    # each element is keyed by several hulls, in several orders, before
    # the last subset is compared with fresh copies
    subsets = [S, S[::-1]] + [rng.sample(S, rng.randint(1, len(S)))
                              for _ in range(3)]
    for sub in subsets:
        assert hull_outcome(sub) == hull_outcome([fresh(v) for v in sub])
