"""Tail-sum entanglement monotones and LQCC feasibility tests.

The tail sums of an ordered Schmidt spectrum form a family of entanglement
monotones (one per starting index).  A pure-state transformation, possibly
probabilistic, can be realised with local operations and classical
communication exactly when none of these monotones increases on average.
This module computes the monotones, as a plain tuple of tail sums, and
applies that criterion, both for a single target (Nielsen's majorization
test) and for a target ensemble.  Tail vectors of different rank are
compared with zeros filled in past the shorter one.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate, chain, repeat, starmap, zip_longest

from .schmidt import Frozen, SchmidtSpectrum, holds_fraction, padded_average

FEASIBILITY_TOL = 1e-9

__all__ = [
    "FEASIBILITY_TOL",
    "FeasibilityReport",
    "vidal_monotones",
    "nielsen_feasible",
    "ensemble_feasible",
    "max_conversion_probability",
]


class FeasibilityReport(Frozen):
    """Outcome of a monotone non-increase check.

    ``slack[l-1]`` is the source monotone minus the (averaged) target
    monotone at index l; the check fails exactly at the indices where the
    slack drops below ``-tol``, and is feasible when there are none.
    """

    _fields = ("violated_indices", "slack")

    def __init__(self, violated_indices, slack):
        self._store(tuple(violated_indices), tuple(slack))

    @property
    def feasible(self) -> bool:
        return not self.violated_indices


def vidal_monotones(s: SchmidtSpectrum) -> tuple:
    """All tail-sum monotones of a spectrum, by backward accumulation.

    Returns the tuple (E_1, ..., E_rank), E_l = sum of the coefficients
    from index l on.  The spectrum's invariants carry over: the tails are
    positive and nonincreasing, and consecutive differences are the
    coefficients.  E_1 is the running sum of all coefficients: exactly 1
    for an exact spectrum, and for a float one 1 up to the spectrum's
    normalization and the rounding of the sum.  Exact tails are summed as
    integer numerators over one common denominator, each made a
    ``Fraction`` once.  A spectrum is all ``Fraction`` or all float, so
    its first coefficient decides.
    """
    if not holds_fraction(s.coeffs[:1]):
        return tuple(accumulate(reversed(s.coeffs)))[::-1]
    from . import exact

    nums, den = exact.over_common_denominator(s.coeffs)
    return tuple(map(exact.Fraction, accumulate(reversed(nums)), repeat(den)))[::-1]


def _report(source_tails, target_tails, tol) -> FeasibilityReport:
    # a NaN tolerance would pass every index, a negative one fail ties
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
    # int 0 past the shorter vector keeps floats float and Fractions exact
    slack = tuple(
        starmap(operator.sub, zip_longest(source_tails, target_tails, fillvalue=0))
    )
    violated = tuple(l for l, gap in enumerate(slack, start=1) if gap < -tol)
    return FeasibilityReport(violated, slack)


def nielsen_feasible(
    source: SchmidtSpectrum,
    target: SchmidtSpectrum,
    tol: float = FEASIBILITY_TOL,
) -> FeasibilityReport:
    """Can ``source`` be converted to ``target`` deterministically by LQCC?

    Feasible iff every target tail sum is at most the source's.  Comparing
    over the larger of the two ranks (zeros past the shorter tail vector)
    also enforces that the target cannot have more nonzero Schmidt
    components than the source: a larger target rank shows up as a violated
    index, not an error.  ``tol`` must be finite and >= 0, or
    ``ValueError`` is raised.
    """
    return _report(vidal_monotones(source), vidal_monotones(target), tol)


def ensemble_feasible(
    source: SchmidtSpectrum,
    ensemble,
    tol: float = FEASIBILITY_TOL,
) -> FeasibilityReport:
    """Can ``source`` be turned into the given target ensemble by LQCC?

    ``ensemble`` is a :class:`~entmanip.transform.TargetEnsemble`.  Feasible
    iff the probability-weighted average of each tail-sum monotone over the
    targets does not exceed the source value, for every index.  The l = 1
    comparison is reported like any other index.  ``tol`` must be finite
    and >= 0, as for :func:`nielsen_feasible`.
    """
    avg = padded_average((p, vidal_monotones(t)) for p, t in ensemble.entries)
    return _report(vidal_monotones(source), avg, tol)


def max_conversion_probability(
    source: SchmidtSpectrum, target: SchmidtSpectrum
) -> float:
    """Largest probability of converting ``source`` into ``target`` by LQCC.

    Equals the smallest ratio of source to target tail sums over the
    indices where the target monotone is nonzero (the first
    ``target.rank``), clamped to [0, 1].  A target rank exceeding the
    source rank forces 0.  Each ratio divides the tails as floats, exact
    spectra included.
    """
    ratios = map(
        operator.truediv,
        map(float, chain(vidal_monotones(source), repeat(0))),
        map(float, vidal_monotones(target)),
    )
    return max(0.0, min(1.0, min(ratios, default=1.0)))
