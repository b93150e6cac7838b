"""Classification pipeline for finite sets of valuations at infinity.

chi(S) = (-1)^{#S} det[alpha(v_i ^ v_j)] decides whether the ring of
polynomials with nonnegative values on S is big: chi > 0 means two
algebraically independent elements exist (delta = 2), chi < 0 means only
constants (delta = 0), and the chi = 0 borderline is probed through the
kernel measure and its thinness integral.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (KernelDimensionNotOne, NonPositiveKernel,
                     PreconditionViolated, SingularSystem)
from .exact import Ext, SymMatrixExt, chi_det, ext_sum, solve_linear
from .potential import DiscreteMeasure, measure
from .valuations import (Comparison, Curve, Divisorial, Hull, Monomial, ROOT,
                         compare, equal, thinness)


@dataclass(frozen=True)
class ValuationSet:
    """Finite named collection of normalized valuations."""

    names: tuple
    valuations: tuple

    def __post_init__(self):
        if len(self.names) != len(self.valuations):
            raise ValueError("names and valuations differ in length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate names")

    @staticmethod
    def of(valuations, names=None) -> "ValuationSet":
        vs = tuple(valuations)
        if names is None:
            names = tuple(f"v{i}" for i in range(len(vs)))
        return ValuationSet(tuple(names), vs)

    def __len__(self):
        return len(self.valuations)

    def __iter__(self):
        return iter(self.valuations)


def reduce_with_report(S: ValuationSet):
    """Minimal representatives with finite skewness, plus the mapping.

    Duplicates (EQ), elements above another element, and curve-type
    elements (skewness -inf) are dropped; chi's sign is invariant under
    this reduction.  The result may be empty.
    """
    kept = []
    report = {}
    for name, v in zip(S.names, S.valuations):
        dup = next((kn for kn, kv in kept if equal(kv, v)), None)
        if dup is not None:
            report[name] = ("duplicate-of", dup)
            continue
        kept.append((name, v))
    minimal = []
    for name, v in kept:
        above = next(
            (on for on, ov in kept
             if on != name and compare(ov, v) == Comparison.LT), None)
        if above is not None:
            report[name] = ("dominated-by", above)
        else:
            minimal.append((name, v))
    final = []
    for name, v in minimal:
        if isinstance(v, Curve):
            report[name] = ("curve-type", None)
        else:
            report[name] = ("kept", None)
            final.append((name, v))
    return (ValuationSet(tuple(n for n, _ in final),
                         tuple(v for _, v in final)), report)


def reduce(S: ValuationSet) -> ValuationSet:
    return reduce_with_report(S)[0]


def matrix_alpha(S: ValuationSet) -> SymMatrixExt:
    """[alpha(v_i ^ v_j)]; built on the set as given, no reduction.

    Every entry is read off one ``Hull`` of S.  Cost: one trie, one walk
    per curve, the rows of its nodes, then O(1) per entry.
    """
    return SymMatrixExt(Hull(S.valuations).matrix())


def chi_of(S: ValuationSet) -> Ext:
    """chi of the underlying set: equal elements are counted once.

    A repeated element would duplicate a row of the skewness matrix and
    silently zero the determinant, so duplicates are dropped first: the
    elements that share an end node of one ``Hull`` of S with an earlier
    one.  The rows and columns of the rest are read off that hull's
    ``matrix``.  Cost: one trie, one walk per curve, the rows of its
    nodes, O(1) per entry, and the determinant.
    """
    hull = Hull(S.valuations)
    firsts = {}
    for i, e in enumerate(hull.ends):
        firsts.setdefault(e, i)
    if not firsts:
        return Ext(1)
    keep = sorted(firsts.values())
    rows = hull.matrix()
    return chi_det(SymMatrixExt([[rows[i][j] for j in keep] for i in keep]))


def star_system(S: ValuationSet):
    """Solve the bordered linear system for the normalized potential.

    Unknowns a_0..a_l weight Green functions of -deg and the elements of
    S; the constraints are value 1 at -deg and 0 on S.  Returns the
    weight vector and the measure phi* = sum a_i g_{v_i}; the Dirichlet
    self-pairing of phi* equals a_0, whose sign matches chi(S).
    """
    vs = list(S)
    for v in vs:
        if isinstance(v, Curve):
            raise PreconditionViolated("star system needs finite skewness")
    M = matrix_alpha(S)
    n = len(vs)
    B = [[Fraction(1)] * (n + 1)]
    for i in range(n):
        B.append([Fraction(1)] + [M.entries[i][j].q for j in range(n)])
    rhs = [Fraction(1)] + [Fraction(0)] * n
    res = solve_linear(B, rhs)
    if res.solution is None or res.kernel:
        raise SingularSystem("bordered skewness matrix is singular")
    a = res.solution
    phi = measure([(ROOT, a[0])] + list(zip(vs, a[1:])))
    return a, phi


def kernel_function(S: ValuationSet) -> DiscreteMeasure:
    """The positive measure on S whose potential vanishes on all of S.

    Exists and is unique up to scale exactly when chi(S) = 0; normalized
    so its potential takes the value 1 at -deg.  The elements are checked
    pairwise incomparable on one ``Hull`` of S, and the matrix is read
    off the same hull (one trie, the rows of its nodes, then O(1) per
    entry); one kernel solve follows.
    """
    vs = list(S)
    for v in vs:
        if isinstance(v, Curve):
            raise PreconditionViolated("kernel function needs finite skewness")
    hull = Hull(vs)
    if any(hull.comparable(i, j)
           for i in range(len(vs)) for j in range(i + 1, len(vs))):
        raise PreconditionViolated("elements must be incomparable")
    rows = [[a.q for a in row] for row in hull.matrix()]
    kernel = solve_linear(rows).kernel
    if len(kernel) != 1:
        raise KernelDimensionNotOne(
            f"kernel dimension {len(kernel)}; chi(S) must vanish")
    a = kernel[0]
    total = sum(a, Fraction(0))          # potential at -deg before scaling
    if total == 0:
        raise NonPositiveKernel("kernel vector has zero total mass")
    a = [c / total for c in a]
    if any(c <= 0 for c in a):
        raise NonPositiveKernel("kernel vector is not positive")
    return measure(list(zip(vs, a)))


def thinness_integral(phi: DiscreteMeasure) -> Ext:
    """Integral of the thinness function against the measure."""
    return ext_sum(Ext.of(m) * thinness(p) for p, m in phi.atoms)


@dataclass
class Classification:
    delta: object                       # 0, 1, 2, or "unknown"
    chi: Ext
    witness_positive: dict | None = None
    witness_nonneg: dict | None = None
    kernel: DiscreteMeasure | None = None
    thinness_integral: Ext | None = None
    reduction_report: dict = field(default_factory=dict)


def _all_divisorial(S: ValuationSet) -> bool:
    return all(isinstance(v, (Divisorial, Monomial)) for v in S)


def classify(S: ValuationSet, D: int) -> Classification:
    """Decide delta(S) by the determinant criterion, with witnesses.

    D bounds the degree of the witness searches only; verdicts driven by
    the sign of chi are never downgraded when no witness is found by
    degree D.
    """
    from . import polyfinder

    polyfinder.check_degree_bound(D)
    R, report = reduce_with_report(S)
    chi = chi_of(R)
    out = Classification(delta="unknown", chi=chi, reduction_report=report)
    if chi > Ext(0):
        out.delta = 2
        out.witness_positive = polyfinder.find_positive(list(S), D)
        return out
    if chi < Ext(0):
        out.delta = 0
        return out
    has_curve_minimal = any(tag == "curve-type"
                            for tag, _ in report.values())
    if has_curve_minimal or not _all_divisorial(R):
        out.delta = 0
        return out
    out.kernel = kernel_function(R)
    out.thinness_integral = thinness_integral(out.kernel)
    if out.thinness_integral <= Ext(0):
        out.delta = 1
        return out
    out.witness_nonneg = polyfinder.find_nonnegative_nonconstant(list(S), D)
    if out.witness_nonneg is not None:
        out.delta = 1
    return out
