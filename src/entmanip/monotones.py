"""Tail-sum entanglement monotones and LQCC feasibility tests.

The tail sums of an ordered Schmidt spectrum form a family of entanglement
monotones (one per starting index).  A pure-state transformation, possibly
probabilistic, can be realised with local operations and classical
communication exactly when none of these monotones increases on average.
This module computes the monotones and applies that criterion, both for a
single target (Nielsen's majorization test) and for a target ensemble.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate

from .schmidt import (
    NORM_TOL,
    SchmidtSpectrum,
    check_positive_nonincreasing,
    padded_average,
    zero_padded,
)

FEASIBILITY_TOL = 1e-9

__all__ = [
    "FEASIBILITY_TOL",
    "MonotoneVector",
    "FeasibilityReport",
    "vidal_monotones",
    "nielsen_feasible",
    "ensemble_feasible",
    "max_conversion_probability",
]


@dataclass(frozen=True)
class MonotoneVector:
    """Tail sums E_l = sum of the spectrum from index l on, l = 1..rank.

    E_1 is the full normalization (1 within 1e-12) and consecutive
    differences recover the spectrum coefficients.
    """

    values: tuple

    def __post_init__(self):
        values = tuple(self.values)
        if not values:
            raise ValueError("monotone vector must be non-empty")
        if not abs(values[0] - 1) <= 1e-12:
            raise ValueError(f"leading monotone must be 1, got {values[0]!r}")
        check_positive_nonincreasing(values, "monotone values")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a monotone non-increase check.

    ``slack[l-1]`` is the source monotone minus the (averaged) target
    monotone at index l; the check fails exactly at the indices where the
    slack drops below ``-tol``, and is feasible when there are none.
    """

    violated_indices: tuple
    slack: tuple

    def __post_init__(self):
        object.__setattr__(self, "violated_indices", tuple(self.violated_indices))
        object.__setattr__(self, "slack", tuple(self.slack))

    @property
    def feasible(self) -> bool:
        return not self.violated_indices


def vidal_monotones(s: SchmidtSpectrum) -> MonotoneVector:
    """All tail-sum monotones of a spectrum, by backward accumulation."""
    tails = list(accumulate(reversed(s.coeffs)))
    tails.reverse()
    return MonotoneVector(tuple(tails))


def _padded_tails(s: SchmidtSpectrum, length: int) -> list:
    """Tail sums extended with zeros up to ``length`` entries."""
    return zero_padded(vidal_monotones(s).values, length)


def _report(source_tails, target_tails, tol) -> FeasibilityReport:
    # a NaN tolerance would pass every index, a negative one fail ties
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
    slack = tuple(es - et for es, et in zip(source_tails, target_tails))
    violated = tuple(l for l, gap in enumerate(slack, start=1) if gap < -tol)
    return FeasibilityReport(violated, slack)


def nielsen_feasible(
    source: SchmidtSpectrum,
    target: SchmidtSpectrum,
    tol: float = FEASIBILITY_TOL,
) -> FeasibilityReport:
    """Can ``source`` be converted to ``target`` deterministically by LQCC?

    Feasible iff every target tail sum is at most the source's.  Comparing
    over the larger of the two ranks (shorter spectra padded with zeros)
    also enforces that the target cannot have more nonzero Schmidt
    components than the source: a larger target rank shows up as a violated
    index, not an error.  ``tol`` must be finite and >= 0, or
    ``ValueError`` is raised.
    """
    n = max(source.rank, target.rank)
    return _report(_padded_tails(source, n), _padded_tails(target, n), tol)


def ensemble_feasible(
    source: SchmidtSpectrum,
    ensemble,
    tol: float = FEASIBILITY_TOL,
) -> FeasibilityReport:
    """Can ``source`` be turned into the given target ensemble by LQCC?

    ``ensemble`` is a :class:`~entmanip.transform.TargetEnsemble`.  Feasible
    iff the probability-weighted average of each tail-sum monotone over the
    targets does not exceed the source value, for every index.  The l = 1
    comparison holds automatically for normalized inputs and is kept as a
    guard.  ``tol`` must be finite and >= 0, as for :func:`nielsen_feasible`.
    """
    n = max([source.rank] + [t.rank for _, t in ensemble.entries])
    avg = padded_average(
        ((p, vidal_monotones(t).values) for p, t in ensemble.entries), n
    )
    report = _report(_padded_tails(source, n), avg, tol)
    if abs(report.slack[0]) > max(tol, 2 * NORM_TOL):
        raise ValueError(
            "leading monotones differ; source or targets are not normalized"
        )
    return report


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
        map(float, _padded_tails(source, target.rank)),
        map(float, vidal_monotones(target).values),
    )
    return max(0.0, min(1.0, min(ratios, default=1.0)))
