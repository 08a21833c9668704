"""Optimal single-copy entanglement concentration.

Maximizing the expected distilled entanglement over all local protocols
that leave the parties with some maximally entangled state (or a product
state) has a closed-form answer: finish on j levels with probability
j * (a_j - a_{j+1}), where a are the ordered squared Schmidt coefficients
(a_{N+1} := 0).  The distribution saturates every tail-sum monotone
constraint, and its optimality is certified by the nonnegative reduced
costs of the corresponding linear program.

This module provides the closed form, the LP formulation for arbitrary
level weights, the spectrum-independent optimality certificate and the
per-copy yield curve over many identical copies.  The single measurement
that achieves the optimum is ``transform.single_shot_povm``.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from itertools import accumulate, repeat

from .monotones import vidal_monotones
from .schmidt import NORM_TOL, Frozen, SchmidtSpectrum, exact_passes, holds_fraction
from .schmidt import fsum_or_inf, numpy_passes

# Annotations are not evaluated (PEP 563): ``LpProblem`` is imported only
# by the function that builds one.

SIZE_CAP = 1 << 20
CERT_TOL = 1e-12

__all__ = [
    "SIZE_CAP",
    "CERT_TOL",
    "ConcentrationPlan",
    "OptimalityCertificate",
    "optimal_plan",
    "standard_weights",
    "concentration_lp",
    "optimality_certificate",
    "asymptotic_yield_curve",
]


class ConcentrationPlan(Frozen):
    """Distribution over maximally entangled levels plus its expected yield.

    ``probabilities[j-1]`` is the chance of finishing on the j-level
    maximally entangled state; ``expected_entanglement`` is the mean of
    ln j under that distribution, in nats.  The probabilities sum to 1
    within ``NORM_TOL``, the rule a spectrum's coefficients meet.
    """

    _fields = ("probabilities", "expected_entanglement")

    def __init__(self, probabilities, expected_entanglement):
        probabilities = tuple(probabilities)
        if not probabilities:
            raise ValueError("plan must cover at least one level")
        if not all(map(operator.ge, probabilities, repeat(0))):
            raise ValueError("plan probabilities must be nonnegative")
        if holds_fraction(probabilities):
            from . import exact

            total = exact.exact_sum(probabilities)
        else:
            total = fsum_or_inf(probabilities)
        if not abs(total - 1) <= NORM_TOL:
            raise ValueError(f"plan probabilities sum to {total!r}, not 1")
        if not math.isfinite(expected_entanglement):
            raise ValueError(
                f"expected entanglement must be finite, got {expected_entanglement!r}"
            )
        self._store(probabilities, expected_entanglement)


class OptimalityCertificate(Frozen):
    """Reduced costs of the concentration LP at the closed-form vertex.

    The certificate depends only on the level weights, not on the
    spectrum; it passes when every value is nonnegative: exactly for
    ``Fraction`` values, which are kept as they are, and for float values
    up to ``CERT_TOL`` times the scale of f(j) = j c_j, max_j |f(j)|, whose
    rounding z inherits.  z is the second difference of f, so f is z's
    double running sum and is not stored beside it.  Weights scaled by 2^k
    give z scaled by 2^k and the same verdict.  A certificate holds at
    least one value.
    """

    _fields = ("z_values",)

    def __init__(self, z_values):
        z_values = tuple(z_values)
        if not z_values:
            raise ValueError("certificate must hold at least one value")
        if not holds_fraction(z_values):
            z_values = tuple(float(z) for z in z_values)
        self._store(z_values)

    @property
    def margin(self) -> tuple:
        """``(k, z_k + tol)`` at the smallest z_k, the first k on a tie.

        ``tol`` is 0 for exact values and ``CERT_TOL`` times the scale of f
        for floats, so the certificate passes exactly when this value is at
        least 0: it is how far the closest level stands from flipping the
        verdict, in the units of z.  A NaN counts as the smallest value.
        Derived from ``z_values`` when asked, not stored.
        """
        z = self.z_values
        if holds_fraction(z):
            tol = 0
        else:
            tol = CERT_TOL * max(map(abs, accumulate(accumulate(z))), default=0.0)
        # v + tol rounds monotonically in v, so the smallest z gives the
        # smallest sum; an overflowed f makes tol inf, and -inf + inf is NaN
        low = min(z, key=lambda v: v if v == v else -math.inf)
        return z.index(low) + 1, low + tol

    @property
    def passed(self) -> bool:
        """Whether every value is nonnegative, to within the tolerance."""
        return self.margin[1] >= 0


def optimal_plan(s: SchmidtSpectrum) -> ConcentrationPlan:
    """Yield-maximizing concentration distribution for a spectrum.

    Level j receives probability j * (a_j - a_{j+1}) with a_{N+1} = 0; the
    probabilities telescope back to the coefficient sum, so the plan is
    normalised because the spectrum is, and its sum is not checked again.
    The expected entanglement is the ln j average in nats.  Both are
    C-level passes.  An exact spectrum's plan is taken on its integer
    numerators (``exact.plan_probabilities``), and the probabilities of a
    float spectrum of ``VECTOR_RANK`` or more levels are one numpy pass
    once numpy is loaded, on the array the spectrum holds, whose average
    multiplies them by a held table of ln j; each gives the bits of the
    per-level loop, in which an exact probability is ``float(p)`` in the
    average, as a ``Fraction`` times a float is ``float(p)`` times it.
    """
    passes = exact_passes(s) or numpy_passes((s,))
    if passes:
        probs, expected = passes.plan_probabilities(s)
    else:
        coeffs = s.coeffs
        n = len(coeffs)
        gaps = map(operator.sub, coeffs, coeffs[1:] + (0,))
        probs = tuple(map(operator.mul, range(1, n + 1), gaps))
        expected = math.fsum(map(operator.mul, probs[1:], map(math.log, range(2, n + 1))))
    # Built without the plan's checks: the probabilities are nonnegative and
    # telescope to the coefficient sum, which the spectrum already holds to
    # NORM_TOL; summing them again can round a valid spectrum's plan just
    # past that bound.
    return ConcentrationPlan._of(probs, expected)


def standard_weights(kind: str, n: int) -> tuple:
    """Named level-weight vectors for the concentration LP.

    ``ln`` weighs level j by ln j (nats), ``log2`` by log2 j (bits), and
    ``indicator`` scores 0 for the product level and 1 for any entangled
    level.
    """
    if n < 1:
        raise ValueError("weight vector length must be >= 1")
    if kind == "ln":
        return tuple(math.log(j) for j in range(1, n + 1))
    if kind == "log2":
        return tuple(math.log2(j) for j in range(1, n + 1))
    if kind == "indicator":
        return tuple(0.0 if j == 1 else 1.0 for j in range(1, n + 1))
    raise ValueError(f"unknown weight kind {kind!r}")


def concentration_lp(s: SchmidtSpectrum, weights=None) -> LpProblem:
    """LP over level distributions constrained by the tail-sum monotones.

    maximize  sum_j c_j p_j
    s.t.      sum_{j >= l} p_j (j + 1 - l) / j  <=  sum_{i >= l} a_i
              p >= 0

    The constraint matrix is upper triangular; the bounds are the
    spectrum's tail sums.  ``weights`` defaults to ln j.  A ``Fraction`` in
    the spectrum or in the weights makes the problem exact, with an exactly
    rational matrix; float bounds and weights are then converted exactly.
    The weights are checked as ``LpProblem`` checks an objective, with the
    same messages: real numbers only, and finite.

    The matrix depends only on the rank and the arithmetic, so it is built
    and checked once for each and held by ``lp._shared_matrix``: every
    problem of that rank and arithmetic holds that one tuple as its
    ``constraint_matrix``, stored by ``LpProblem._of_matrix`` without a
    second look at its entries.  An exact matrix is held with its
    closed-form inverse (``exact.TailSumInverse``), made when the matrix is
    built, so the solver and ``verify_solution`` solve its all-structural
    basis by second differences and never factor it; a float matrix is
    factored once for all its problems.  The held matrices are bounded by
    ``lp._SHARED_ENTRIES`` entries, about 8 MB of floats; the results are
    the same as from fresh rows.

    The inverse of an exact matrix also holds the rank's ln weights as
    ``Fraction``s and their duals.  An exact spectrum with default weights
    gives a problem whose objective is that held tuple, stored without
    converting it again, beside the spectrum's tails, ``Fraction``s
    already; the crash check then finds the duals by identity.  Explicit
    weights, ln ones included, are converted and solved as any others.
    """
    from .lp import LpProblem, _shared_matrix

    n = s.rank
    bounds = vidal_monotones(s)
    # the tails are all of the spectrum's kind, so the first one speaks for
    # them: exact tails are Fractions, as the rank's held ln weights are
    if weights is None and holds_fraction(bounds[:1]):
        rows, inverse = _shared_matrix(n, True, lambda: _tail_sum_matrix(n, True))
        return LpProblem._of(inverse.ln_weights, rows, bounds)
    if weights is None:
        weights = standard_weights("ln", n)
    weights = tuple(weights)
    if len(weights) != n:
        raise ValueError(
            f"expected {n} weights for a rank-{n} spectrum, got {len(weights)}"
        )
    # the rule LpProblem applies to the weights and bounds, so the matrix is
    # of the arithmetic they decide
    exact = holds_fraction(bounds[:1] + weights)
    rows, _ = _shared_matrix(n, exact, lambda: _tail_sum_matrix(n, exact))
    return LpProblem._of_matrix(weights, rows, bounds)


def _tail_sum_matrix(n: int, exact: bool) -> tuple:
    """The rows of the rank-n concentration matrix, and solves to hold with them.

    Row l holds (j + 1 - l) / j from column j = l on, zeros before it; an
    int true division is rounded once, as ``Fraction(k, j)`` is exact.
    Exact rows come with their closed-form inverse, which holds the rank's
    ln weights as ``Fraction``s and their duals, float rows with None
    (their LU is factored when first needed).
    """
    if exact:
        from fractions import Fraction as divide

        from .exact import TailSumInverse

        solves = TailSumInverse(tuple(map(divide, standard_weights("ln", n))))
    else:
        divide, solves = operator.truediv, None
    zero = divide(0, 1)
    rows = tuple(
        (zero,) * (l - 1) + tuple(map(divide, range(1, n + 2 - l), range(l, n + 1)))
        for l in range(1, n + 1)
    )
    return rows, solves


def optimality_certificate(n: int, weights=None) -> OptimalityCertificate:
    """Reduced-cost certificate that the closed-form plan is LP-optimal.

    At the closed-form vertex every constraint is tight, and the slack
    reduced costs are z = c B^-1.  Column k of B^-1 has at most three
    nonzeros: k - 2 at row k - 2, -2(k - 1) at row k - 1 and k on the
    diagonal, which makes z a second difference:

        z_k = f(k-2) + f(k) - 2 f(k-1),   f(j) = j c_j,  f(0) = f(-1) = 0,

    so the plan is optimal for any weights with c_1 >= 0 and j c_j convex.
    ``weights`` defaults to ln j, where z_k >= 0 by convexity of x ln x.
    ``Fraction`` weights give exact z values.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if weights is None:
        weights = standard_weights("ln", n)
    weights = tuple(weights)
    if len(weights) != n:
        raise ValueError(f"expected {n} weights, got {len(weights)}")
    f = [0, 0] + [j * c for j, c in enumerate(weights, start=1)]
    return OptimalityCertificate(
        f[k - 2] + f[k] - 2 * f[k - 1] for k in range(2, n + 2)
    )


def _one_more_copy(classes, n: int, mults):
    """Type classes of ``n`` copies from those of ``n - 1``, each made once.

    A class is (log-value, count, exponents), the exponents nonzero as
    ((i, e_i), ...) with ascending i.  It grows by one factor j at or after
    its last index, and its count multinomial * prod m_i^e_i by
    n * m_j / (new e_j).  Yields (count, exponents) pairs.
    """
    for _, count, c in classes:
        last, e = c[-1]
        yield count * n * mults[last] // (e + 1), c[:-1] + ((last, e + 1),)
        for j in range(last + 1, len(mults)):
            yield count * n * mults[j], c + ((j, 1),)


def asymptotic_yield_curve(s: SchmidtSpectrum, max_n: int) -> tuple:
    """Per-copy concentrated yield for 1..max_n identical copies.

    Entry (n, y) gives y = expected entanglement of the optimal plan on the
    n-copy spectrum divided by n.  The per-copy yield is bounded by the
    single-copy entanglement entropy and approaches it as n grows.

    The first point is the single-copy plan.  Beyond it the n-copy
    spectrum is never expanded: its values come in type classes, where
    exponents e over the k distinct input values a_i (with multiplicities
    m_i) give the value prod a_i^e_i, repeated multinomial(n; e) *
    prod m_i^e_i times.  With classes sorted by value and J_g the
    cumulative count, the closed-form plan yields
    sum_g J_g (v_g - v_{g+1}) ln J_g, evaluated in logs so that nothing
    overflows or underflows at large n.  The classes over all n number
    comb(k + max_n, max_n) - 1; a curve needing more than ``SIZE_CAP`` is
    refused before any work is done.
    """
    if max_n < 1:
        raise ValueError("copy count must be >= 1")
    multiplicity = Counter(s.coeffs)
    k = len(multiplicity)
    total = math.comb(k + max_n, max_n) - 1
    if total > SIZE_CAP:
        raise ValueError(
            f"curve needs {total} type classes up to n={max_n}, over the "
            f"cap of {SIZE_CAP}"
        )
    logs = [math.log(a) for a in multiplicity]
    mults = list(multiplicity.values())
    classes = ((logs[i], m, ((i, 1),)) for i, m in enumerate(mults))
    curve = [(1, optimal_plan(s).expected_entanglement)]
    for n in range(2, max_n + 1):
        classes = [
            (math.fsum(e * logs[i] for i, e in c), count, c)
            for count, c in _one_more_copy(classes, n, mults)
        ]
        classes.sort(reverse=True)
        terms = []
        cumulative = 0
        for g, (lv, count, _) in enumerate(classes):
            cumulative += count
            nxt = classes[g + 1][0] if g + 1 < len(classes) else -math.inf
            ln_j = math.log(cumulative)
            terms.append(math.exp(ln_j + lv) * -math.expm1(nxt - lv) * ln_j)
        curve.append((n, math.fsum(terms) / n))
    return tuple(curve)
