"""Exact factoring over the integers, in one and two variables.

A univariate polynomial is a list of Python ints from degree 0 up, with
no trailing zero (the zero polynomial is ``[]``).  A bivariate one is a
list, from x^0 up, of the coefficients of the powers of x as univariate
polynomials in y, with no trailing zero row.  Factors come out primitive
with a positive leading coefficient: for a bivariate factor that is the
coefficient of the highest power of y in its highest power of x.

Univariate factoring (von zur Gathen and Gerhard, *Modern Computer
Algebra*, ch. 14-15): Yun's square-free parts; for each, Cantor-Zassenhaus
modulo the small prime with the fewest factors among a few tried (the
degree sets of all tried primes prune the search), quadratic Hensel
lifting to twice a Mignotte bound, and recombination by trial division.

Bivariate factoring (Lecerf, Math. Comp. 75 (2006), and *Modern Computer
Algebra*, ch. 16): the contents in Z[y] and Z[x] are univariate; the rest
is made square-free by one gcd with its y-derivative, specialised at a
good x = a, factored there over Z, lifted x-adically modulo a prime above
a coefficient bound, and recombined by trial division; multiplicities
come from trial division.  Gcds are heuristic (Char, Geddes and Gonnet),
checked by exact division.  Randomness comes from a fixed-seed generator,
so every run does the same work.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import combinations, count
from math import gcd, isqrt

from .errors import InternalMismatch

# gcd evaluation points tried before the primitive remainder sequence;
# in two variables, which have no such fallback, four times as many
HEU_GCD_TRIES = 8
# primes (univariate) and evaluation points (bivariate) compared for the
# fewest local factors
PRIMES_TRIED = 3
POINTS_TRIED = 2


# ---------------------------------------------------------------------------
# univariate arithmetic over Z
# ---------------------------------------------------------------------------


def _trim(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def _add(f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, b in enumerate(g):
        out[i] += b
    return _trim(out)


def _sub(f, g):
    out = list(f) + [0] * (len(g) - len(f))
    for i, b in enumerate(g):
        out[i] -= b
    return _trim(out)


def _scale(f, c):
    return [a * c for a in f] if c else []


def _mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                out[j] += a * b
    return out


def _deriv(f):
    return _trim([i * a for i, a in enumerate(f)][1:])


def _horner(f, a):
    v = 0
    for c in reversed(f):
        v = v * a + c
    return v


def _quo(f, g):
    """f / g in Z[t] if g divides f there, else None."""
    dg = len(g) - 1
    if len(f) <= dg:
        return [] if not f else None
    r = list(f)
    lg = g[-1]
    q = [0] * (len(f) - dg)
    for i in range(len(q) - 1, -1, -1):
        c, m = divmod(r[i + dg], lg)
        if m:
            return None
        q[i] = c
        if c:
            for j in range(dg):
                r[i + j] -= c * g[j]
    return None if any(r[:dg]) else q


def _normal(f):
    """f divided by its content, with a positive leading coefficient."""
    c = gcd(*f)
    if f[-1] < 0:
        c = -c
    return [a // c for a in f]


def _prem(f, g):
    """The pseudo-remainder of f by g."""
    r, dg, lg = list(f), len(g) - 1, g[-1]
    while len(r) > dg:
        c, k = r[-1], len(r) - 1 - dg
        r = [a * lg for a in r]
        for j, b in enumerate(g):
            r[k + j] -= c * b
        _trim(r)
    return r


def _digits(c: int, xi: int) -> list:
    """The balanced base-xi digits of c, lowest first."""
    out = []
    while c:
        d = c % xi
        if d > xi >> 1:
            d -= xi
        out.append(d)
        c = (c - d) // xi
    return out


def _next_xi(xi):
    return xi * isqrt(isqrt(xi)) * 73794 // 27011


def _gcd(f, g):
    """The gcd of f and g in Z[t], with a positive leading coefficient.

    Heuristic gcd: the balanced base-xi digits of gcd(f(xi), g(xi)),
    made primitive, are the gcd of the primitive parts once they divide
    both, for xi above twice a root bound; a primitive remainder
    sequence answers if no evaluation point does.
    """
    if not f or not g:
        h = f or g
        return _scale(h, -1) if h and h[-1] < 0 else list(h)
    c = gcd(gcd(*f), gcd(*g))
    f, g = _normal(f), _normal(g)
    if len(f) == 1 or len(g) == 1:
        return [c]
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 29
    for _ in range(HEU_GCD_TRIES):
        h = _digits(gcd(_horner(f, xi), _horner(g, xi)), xi)
        if h:
            h = _normal(h)
            if _quo(f, h) is not None and _quo(g, h) is not None:
                return _scale(h, c)
        xi = _next_xi(xi)
    if len(f) < len(g):
        f, g = g, f
    while g:
        f, g = g, _prem(f, g)
        if g:
            g = _normal(g)
    return _scale(_normal(f), c)


def _sqf_list(f):
    """Yun's square-free decomposition of a primitive f of positive
    degree: [(g, i)] with f = prod g^i, each g square-free and primitive."""
    out = []
    df = _deriv(f)
    a = _gcd(f, df)
    b, c = _quo(f, a), _quo(df, a)
    i = 1
    while len(b) > 1:
        d = _sub(c, _deriv(b))
        a = _gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, c = _quo(b, a), _quo(d, a)
        i += 1
    return out


# ---------------------------------------------------------------------------
# univariate arithmetic modulo m (coefficients kept in [0, m))
# ---------------------------------------------------------------------------


def _mod(f, m):
    return _trim([a % m for a in f])


def _mmul(f, g, m):
    return _mod(_mul(f, g), m)


def _msub(f, g, m):
    return _mod(_sub(f, g), m)


def _mdivmod(f, g, m):
    """Quotient and remainder of f by g modulo m; lc(g) a unit mod m."""
    dg = len(g) - 1
    if len(f) <= dg:
        return [], _mod(f, m)
    r = list(f)
    inv = pow(g[-1], -1, m) if g[-1] != 1 else 1
    q = [0] * (len(f) - dg)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + dg] * inv % m
        q[i] = c
        if c:
            for j in range(dg):
                r[i + j] -= c * g[j]
    return _trim(q), _mod(r[:dg], m)


def _mrem(f, g, m):
    return _mdivmod(f, g, m)[1]


def _monic(f, m):
    inv = pow(f[-1], -1, m)
    return [a * inv % m for a in f]


def _mgcdex(f, g, p):
    """(s, t, h) with s f + t g = h = the monic gcd of f and g, mod a
    prime p."""
    r0, r1, s0, s1, t0, t1 = f, g, [1], [], [], [1]
    while r1:
        q, r = _mdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _msub(s0, _mul(q, s1), p)
        t0, t1 = t1, _msub(t0, _mul(q, t1), p)
    inv = pow(r0[-1], -1, p)
    return ([a * inv % p for a in s0], [a * inv % p for a in t0],
            [a * inv % p for a in r0])


def _mgcd(f, g, p):
    while g:
        f, g = g, _mrem(f, g, p)
    return _monic(f, p)


def _mpowmod(f, e, g, m):
    """f^e mod (g, m)."""
    out, f = [1], _mrem(f, g, m)
    while e:
        if e & 1:
            out = _mrem(_mul(out, f), g, m)
        e >>= 1
        if e:
            f = _mrem(_mul(f, f), g, m)
    return out


# ---------------------------------------------------------------------------
# univariate factoring
# ---------------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve primes: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_from(n):
    """The odd primes from n up."""
    return (q for q in count(n | 1, 2) if _is_prime(q))


def _ddf(f, p):
    """Distinct-degree factorisation of a monic square-free f mod p:
    [(g, d)] with g the product of its irreducible factors of degree d."""
    out, h, d = [], [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _mpowmod(h, p, f, p)
        g = _mgcd(f, _msub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _mdivmod(f, g, p)[0]
            h = _mrem(h, f, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _edf(f, d, p, rng):
    """The monic irreducible factors, all of degree d, of a monic
    square-free f mod an odd prime p (Cantor-Zassenhaus)."""
    n = len(f) - 1
    if n == d:
        return [f]
    e = (p ** d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        g = _mgcd(f, _msub(_mpowmod(a, e, f, p), [1], p), p)
        if 1 < len(g) < len(f):
            return (_edf(g, d, p, rng)
                    + _edf(_mdivmod(f, g, p)[0], d, p, rng))


def _hensel(f, gs, p, k):
    """Monic lifts modulo p^k of the monic factors gs of f modulo p,
    where f = lc(f) prod(gs) mod p and the gs are coprime mod p."""
    if len(gs) == 1:
        return [_monic(f, p ** k)]
    half = len(gs) // 2
    g = reduce(lambda a, b: _mmul(a, b, p), gs[:half])
    h = reduce(lambda a, b: _mmul(a, b, p), gs[half:])
    s, t, _ = _mgcdex(g, h, p)
    lc = f[-1] % p
    g, s = _scale(g, lc), _scale(s, pow(lc, -1, p))
    ks = [k]
    while ks[-1] > 1:
        ks.append((ks[-1] + 1) // 2)
    for j in reversed(ks[:-1]):
        # f = g h and s g + t h = 1 mod p^(j/2 rounded up) lift to p^j
        # (Modern Computer Algebra, Algorithm 15.10)
        m = p ** j
        e = _msub(f, _mul(g, h), m)
        q, r = _mdivmod(_mul(s, e), h, m)
        g = _mod(_add(g, _add(_mul(t, e), _mul(q, g))), m)
        h = _mod(_add(h, r), m)
        if j != k:
            b = _msub(_add(_mul(s, g), _mul(t, h)), [1], m)
            c, d = _mdivmod(_mul(s, b), h, m)
            s = _msub(s, d, m)
            t = _mod(_sub(t, _add(_mul(t, b), _mul(c, g))), m)
    return (_hensel(_monic(g, p ** k), gs[:half], p, k)
            + _hensel(h, gs[half:], p, k))


def _symmetric(f, m):
    return _trim([a - m if a > m >> 1 else a for a in f])


def _zassenhaus(f, r, candidate, divide):
    """Recombination: over subsets S of the r local factors of f,
    smallest first, ``candidate(f, S)`` (or None) that divides f is a
    factor, and f and the local factors left go on without it.  Returns
    the factors found, the cofactor and the number of local factors in
    it; a cofactor with any is irreducible."""
    out, idx, s = [], list(range(r)), 1
    while 2 * s <= len(idx):
        for S in combinations(idx, s):
            g = candidate(f, S)
            q = None if g is None else divide(f, g)
            if q is not None:
                out.append(g)
                f, idx = q, [i for i in idx if i not in S]
                break
        else:
            s += 1
    return out, f, len(idx)


def _factor_sqf(f):
    """The irreducible factors of a square-free primitive f with a
    positive leading coefficient (Zassenhaus)."""
    n = len(f) - 1
    if n <= 1:
        return [f] if n == 1 else []
    if not f[0]:
        return [[0, 1]] + _factor_sqf(f[1:])
    if n == 2:
        c, b, a = f
        s = isqrt(max(b * b - 4 * a * c, 0))
        if s * s != b * b - 4 * a * c:
            return [f]
        return [_normal([b - s, 2 * a]), _normal([b + s, 2 * a])]
    lc, proper = f[-1], (1 << n) - 2
    # bit d of mask: a factor of degree d agrees with every prime tried
    mask, best, tried = ~0, None, 0
    for p in _primes_from(3):
        if lc % p == 0:
            continue
        fp = _monic(_mod(f, p), p)
        if len(_mgcd(fp, _mod(_deriv(fp), p), p)) > 1:
            continue
        ddf = _ddf(fp, p)
        degs, r = 1, 0
        for g, d in ddf:
            for _ in range((len(g) - 1) // d):
                degs |= degs << d
                r += 1
        mask &= degs
        if r == 1 or not mask & proper:
            return [f]
        if best is None or r < best[0]:
            best = (r, p, ddf)
        tried += 1
        if tried == PRIMES_TRIED:
            break
    _, p, ddf = best
    rng = random.Random(0)
    gs = [h for g, d in ddf for h in _edf(g, d, p, rng)]
    # lc(f) / lc(g) times a factor g has coefficients below 2^n ||f||_2
    # (Mignotte); the bound spares a factor lc(f) more
    bound = lc * (isqrt(sum(a * a for a in f)) + 1) << n
    k, M = 1, p
    while M <= 2 * bound:
        k, M = k + 1, M * p
    return _recombine(f, _hensel(f, gs, p, k), M, mask)


def _recombine(f, lifted, M, mask):
    """The irreducible factors of f from the monic lifts modulo M of its
    factors modulo p: lc(f) times the product of a subset, read
    symmetrically modulo M and made primitive, once its degree is in
    ``mask`` and its constant term divides lc(f) f(0)."""
    def candidate(f, S):
        if not mask >> sum(len(lifted[i]) - 1 for i in S) & 1:
            return None
        lc = c = f[-1]
        for i in S:
            c = c * lifted[i][0] % M
        if c > M >> 1:
            c -= M
        if not c or lc * f[0] % c:
            return None
        g = [lc]
        for i in S:
            g = _mmul(g, lifted[i], M)
        return _normal(_symmetric(g, M))

    out, f, left = _zassenhaus(f, len(lifted), candidate, _quo)
    return out + [_normal(f)] * bool(left)


def factor_list(f):
    """[(g, e)]: the irreducible factors g of a nonzero f in Z[t] with
    their multiplicities e; content and sign are dropped.  They are
    sorted by (degree, multiplicity, coefficients from the top), the
    order of ``sympy.factor_list``."""
    f = _trim(list(f))
    if len(f) < 2:
        return []
    return sorted(((h, e) for g, e in _sqf_list(_normal(f))
                   for h in _factor_sqf(g)),
                  key=lambda he: (len(he[0]), he[1], he[0][::-1]))


def expr_str(g, var: str) -> str:
    """g in the variable ``var`` as ``str`` prints a sympy expression,
    e.g. ``t**2 - 2``, for g with a positive leading coefficient."""
    out = []
    for k in range(len(g) - 1, -1, -1):
        c = g[k]
        if not c:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            mono = var if k == 1 else f"{var}**{k}"
            body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        out.append((" - " if c < 0 else " + ") + body if out else body)
    return "".join(out)


# ---------------------------------------------------------------------------
# bivariate
# ---------------------------------------------------------------------------


def _normal2(F):
    """F divided by its content, with a positive leading coefficient."""
    c = gcd(*(a for r in F for a in r))
    if F[-1][-1] < 0:
        c = -c
    return [[a // c for a in r] for r in F]


def _transpose(F):
    """The rows of F by powers of the other variable."""
    return [_trim([r[j] if j < len(r) else 0 for r in F])
            for j in range(max(map(len, F)))]


def _eval2(F, a):
    """F(a, y)."""
    out = []
    for r in reversed(F):
        out = _add(_scale(out, a), r)
    return out


def _shift2(F, a):
    """F(x + a, y)."""
    out = []
    for r in reversed(F):
        out = [[]] + out
        for i in range(len(out) - 1):
            out[i] = _add(out[i], _scale(out[i + 1], a))
        out[0] = _add(out[0], r)
    return out


def quo2(F, G):
    """F / G in Z[x, y] if G divides F there, else None."""
    dg = len(G) - 1
    if len(F) <= dg:
        return [] if not F else None
    R, lg = list(F), G[-1]
    Q = [None] * (len(F) - dg)
    for i in range(len(Q) - 1, -1, -1):
        q = _quo(R[i + dg], lg)
        if q is None:
            return None
        Q[i] = q
        if q:
            for j in range(dg):
                R[i + j] = _sub(R[i + j], _mul(q, G[j]))
    return None if any(R[:dg]) else Q


def _gcd2(F, G):
    """The gcd of F and G in Z[x, y], F without content in Z[x].

    Heuristic gcd over x = xi: the balanced base-xi digits of the
    coefficients of gcd(F(xi, y), G(xi, y)), made primitive, are the gcd
    once they divide both; the integer cofactor that an unlucky xi adds
    divides a fixed integer, so a larger xi succeeds.
    """
    xi = 2 * max(abs(a) for H in (F, G) for r in H for a in r) + 29
    for _ in range(4 * HEU_GCD_TRIES):
        digits = [_digits(c, xi) for c in _gcd(_eval2(F, xi), _eval2(G, xi))]
        H = _normal2(_transpose(digits))
        if quo2(F, H) is not None and quo2(G, H) is not None:
            return H
        xi = _next_xi(xi)
    raise InternalMismatch("heuristic gcd found no evaluation point")


def _points():
    """0, 1, -1, 2, -2, ..."""
    yield 0
    for k in count(1):
        yield k
        yield -k


def _factor_sqf2(G):
    """The irreducible factors of a square-free G in Z[x, y] that has
    positive degree in both variables and no content in Z[x] or Z[y]."""
    n, m = len(G) - 1, max(map(len, G)) - 1
    if n == 1 or m == 1:
        return [G]
    lcy = _trim([r[m] if len(r) > m else 0 for r in G])
    best, tried = None, 0
    for a in _points():
        if not _horner(lcy, a):
            continue
        u = _eval2(G, a)
        if len(_gcd(u, _deriv(u))) > 1:
            continue
        hs = _factor_sqf(_normal(u))
        if len(hs) == 1:
            return [G]
        if best is None or len(hs) < len(best[1]):
            best = (a, hs)
        tried += 1
        if tried == POINTS_TRIED:
            break
    a, hs = best
    return [_normal2(_shift2(F, -a)) for F in _lift2(_shift2(G, a), hs)]


def _lift2(G, hs):
    """The irreducible factors of G from the factors hs of G(0, y).

    G / lc_y(G) is a power series in x whose value at 0 is the product
    of the monic hs.  Its factors are lifted to precision x^N, N =
    deg_x G + 1, modulo a prime p above twice a bound on the coefficients
    of lc_y(G) times a factor of G over lc_y of that factor (Mahler:
    2^(deg_x + deg_y) times the product of the two 2-norms); lc_y(G)
    times a subproduct, read symmetrically modulo p, is then a factor of
    G times a polynomial in x, and each one that divides G once made
    primitive is a factor.
    """
    n, m = len(G) - 1, max(map(len, G)) - 1
    N = n + 1
    lcy = [r[m] if len(r) > m else 0 for r in G]
    bound = ((isqrt(sum(c * c for c in lcy)) + 1)
             * (isqrt(sum(c * c for r in G for c in r)) + 1)) << (n + m)
    for p in _primes_from(2 * bound + 1):
        if lcy[0] % p:
            hm = [_monic(h, p) for h in hs]
            sig = _partial_fractions(hm, p)
            if sig is not None:
                break
    # G / lc_y(G) to precision x^N
    inv = [pow(lcy[0], -1, p)]
    for k in range(1, N):
        acc = sum(lcy[t] * inv[k - t] for t in range(1, min(k, n) + 1))
        inv.append(-acc * inv[0] % p)
    F = [_mod(reduce(_add, (_scale(G[k - t], inv[t])
                            for t in range(k + 1)), []), p)
         for k in range(N)]
    H = _hensel_x(F, hm, sig, p)

    def candidate(G, S):
        mc = max(map(len, G)) - 1
        Q = [[r[mc]] if len(r) > mc and r[mc] else [] for r in G]
        for i in S:
            Q = _series_mul(Q, H[i], N, p)
        return _pp2(_trim([_symmetric(q, p) for q in Q]))

    out, G, left = _zassenhaus(G, len(hs), candidate, quo2)
    return out + [_normal2(G)] * bool(left)


def _partial_fractions(hs, p):
    """[s_i] with sum_i s_i prod_(j != i) h_j = 1 and deg s_i < deg h_i,
    modulo p, or None if the monic hs are not coprime mod p."""
    out = []
    for i, h in enumerate(hs):
        rest = reduce(lambda a, b: _mrem(_mul(a, b), h, p),
                      (g for j, g in enumerate(hs) if j != i), [1])
        s, _, d = _mgcdex(rest, h, p)
        if d != [1]:
            return None
        out.append(s)
    return out


def _hensel_x(F, hs, sig, p):
    """The factors of F, rows by powers of x modulo p of a power series
    in x, to its precision: H[i][k] is the x^k coefficient of the factor
    whose value at 0 is hs[i], with the partial fractions ``sig`` of the
    hs.  Linear lifting: with the factors known below x^k, the x^k
    coefficient e of F minus their product splits as sum_i d_i
    prod_(j != i) h_j, d_i = e s_i mod h_i.  The product is kept as the
    coefficients P[j][k] of the partial products of factors 0..j."""
    r = len(hs)
    H = [[h] for h in hs]
    P = [[hs[0]]]
    for j in range(1, r):
        P.append([_mmul(P[-1][0], hs[j], p)])
    for k in range(1, len(F)):
        # the x^k coefficient of P[j] without the terms in H[.][k]
        known = [None] + [reduce(_add, (_mul(P[j - 1][t], H[j][k - t])
                                        for t in range(1, k)), [])
                          for j in range(1, r)]
        X = []
        for j in range(1, r):
            X = _mod(_add(known[j], _mul(X, hs[j])), p)
        e = _msub(F[k], X, p)
        for i in range(r):
            H[i].append(_mrem(_mul(e, sig[i]), hs[i], p))
        X = H[0][k]
        P[0].append(X)
        for j in range(1, r):
            X = _mod(_add(_add(known[j], _mul(P[j - 1][0], H[j][k])),
                          _mul(X, hs[j])), p)
            P[j].append(X)
    return H


def _series_mul(A, B, N, p):
    """A B modulo (x^N, p), for rows by powers of x."""
    out = [[] for _ in range(min(N, len(A) + len(B) - 1))]
    for i, a in enumerate(A):
        if a:
            for j in range(min(len(B), N - i)):
                if B[j]:
                    out[i + j] = _add(out[i + j], _mul(a, B[j]))
    return [_mod(r, p) for r in out]


def _pp2(F):
    """F divided by its content in Z[x], made primitive with a positive
    leading coefficient."""
    cols = _transpose(F)
    c = reduce(_gcd, cols)
    if len(c) > 1:
        F = _transpose([_quo(col, c) for col in cols])
    return _normal2(F)


def factor_list2(F):
    """[(g, e)]: the irreducible factors g of a nonzero F in Z[x, y] with
    their multiplicities e, both as rows; content and sign are dropped.

    The contents in Z[y] and in Z[x] are factored as univariate
    polynomials; the rest has positive degree in both variables or none.
    """
    out = []
    cy = reduce(_gcd, F)
    if len(cy) > 1:
        out += [([g], e) for g, e in factor_list(cy)]
        F = [_quo(r, cy) for r in F]
    cols = _transpose(F)
    cx = reduce(_gcd, cols)
    if len(cx) > 1:
        out += [([[c] if c else [] for c in g], e)
                for g, e in factor_list(cx)]
        F = _transpose([_quo(col, cx) for col in cols])
    if len(F) > 1:
        G = _normal2(F)
        dG = _trim([_deriv(r) for r in G])
        for h in _factor_sqf2(_normal2(quo2(G, _gcd2(G, dG)))):
            e = 0
            while (q := quo2(G, h)) is not None:
                G, e = q, e + 1
            out.append((h, e))
    return out
