"""Optimal single-copy entanglement concentration.

Maximizing the expected distilled entanglement over all local protocols
that leave the parties with some maximally entangled state (or a product
state) has a closed-form answer: finish on j levels with probability
j * (a_j - a_{j+1}), where a are the ordered squared Schmidt coefficients
(a_{N+1} := 0).  The distribution saturates every tail-sum monotone
constraint, and its optimality is certified by the nonnegative reduced
costs of the corresponding linear program.

This module provides the closed form, the LP formulation for arbitrary
level weights, the spectrum-independent optimality certificate, the
single-measurement protocol achieving the optimum, and the per-copy
yield curve over many identical copies.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from fractions import Fraction
from itertools import repeat

from .monotones import vidal_monotones
from .schmidt import NORM_TOL, Frozen, SchmidtSpectrum, holds_fraction

# Annotations are not evaluated (PEP 563): the types they name from
# ``lp`` and ``transform`` are imported only by the functions that build them.

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
    "single_shot_povm",
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
        exact = holds_fraction(probabilities)
        total = sum(probabilities) if exact else math.fsum(probabilities)
        if not abs(total - 1) <= NORM_TOL:
            raise ValueError(f"plan probabilities sum to {total!r}, not 1")
        if not math.isfinite(expected_entanglement):
            raise ValueError(
                f"expected entanglement must be finite, got {expected_entanglement!r}"
            )
        self._store(probabilities, expected_entanglement)

    @classmethod
    def _of_spectrum(cls, probabilities: tuple, expected_entanglement: float):
        """The plan of a checked spectrum, built without checking it again.

        Its probabilities are nonnegative and telescope to the coefficient
        sum, which the spectrum already holds to ``NORM_TOL``; summing them
        again can round a valid spectrum's plan just past that bound.
        """
        plan = object.__new__(cls)
        plan._store(probabilities, expected_entanglement)
        return plan


class OptimalityCertificate(Frozen):
    """Reduced costs of the concentration LP at the closed-form vertex.

    The certificate depends only on the level weights, not on the
    spectrum; it passes when every value is nonnegative, up to
    ``CERT_TOL`` for float values and exactly for ``Fraction`` values,
    which are kept as they are.
    """

    _fields = ("z_values",)

    def __init__(self, z_values):
        z_values = tuple(z_values)
        if not holds_fraction(z_values):
            z_values = tuple(float(z) for z in z_values)
        self._store(z_values)

    @property
    def passed(self) -> bool:
        tol = 0 if holds_fraction(self.z_values) else CERT_TOL
        return all(z >= -tol for z in self.z_values)


def optimal_plan(s: SchmidtSpectrum) -> ConcentrationPlan:
    """Yield-maximizing concentration distribution for a spectrum.

    Level j receives probability j * (a_j - a_{j+1}) with a_{N+1} = 0; the
    probabilities telescope back to the coefficient sum, so the plan is
    normalised because the spectrum is, and its sum is not checked again.
    The expected entanglement is the ln j average in nats.
    """
    coeffs = s.coeffs
    n = len(coeffs)
    probs = []
    for j in range(1, n + 1):
        nxt = coeffs[j] if j < n else 0
        probs.append(j * (coeffs[j - 1] - nxt))
    expected = math.fsum(
        float(p) * math.log(j) for j, p in enumerate(probs, start=1) if j > 1
    )
    return ConcentrationPlan._of_spectrum(tuple(probs), expected)


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
    rational matrix (float bounds and weights are converted exactly).
    """
    from .lp import LpProblem

    n = s.rank
    if weights is None:
        weights = standard_weights("ln", n)
    weights = tuple(weights)
    if len(weights) != n:
        raise ValueError(
            f"expected {n} weights for a rank-{n} spectrum, got {len(weights)}"
        )
    # row l holds (j + 1 - l) / j from column j = l on, zeros before it;
    # an int true division is rounded once, as Fraction(k, j) is exact
    divide = Fraction if holds_fraction(s.coeffs + weights) else operator.truediv
    zero = divide(0, 1)
    matrix = tuple(
        (zero,) * (l - 1) + tuple(map(divide, range(1, n + 2 - l), range(l, n + 1)))
        for l in range(1, n + 1)
    )
    return LpProblem(weights, matrix, vidal_monotones(s))


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


def single_shot_povm(s: SchmidtSpectrum) -> DiagonalPovm:
    """Single measurement that concentrates a spectrum optimally.

    Element j has diagonal sqrt((a_j - a_{j+1}) / a_i) on the first j
    indices and zero beyond; its outcome probability is the closed-form
    plan's p_j and the post-measurement state is the uniform j-level
    spectrum.  Levels with tied coefficients give zero elements, retained
    under their labels so outcome indexing stays stable.
    """
    from .transform import DiagonalPovm, PovmElement

    coeffs = [float(a) for a in s.coeffs]
    n = len(coeffs)
    elements = []
    for j in range(1, n + 1):
        nxt = coeffs[j] if j < n else 0.0
        gap = coeffs[j - 1] - nxt
        diag = tuple(
            math.sqrt(gap / coeffs[i]) if i < j else 0.0 for i in range(n)
        )
        elements.append(PovmElement(j, diag))
    return DiagonalPovm(tuple(elements))


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
