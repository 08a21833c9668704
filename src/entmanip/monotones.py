"""Tail-sum entanglement monotones and LQCC feasibility tests.

The tail sums of an ordered Schmidt spectrum form a family of entanglement
monotones (one per starting index).  A pure-state transformation, possibly
probabilistic, can be realised with local operations and classical
communication exactly when none of these monotones increases on average.
This module computes the monotones, as a plain tuple of tail sums, and
applies that criterion, both for a single target (Nielsen's majorization
test) and for a target ensemble.  Tail vectors of different rank are
compared with zeros filled in past the shorter one.  A report carries its
slack at every index, and its ``margin``, the smallest slack, says how far
the verdict stood from flipping.

When every spectrum is float, the tolerance a float, the largest rank at
least ``schmidt.VECTOR_RANK`` and numpy loaded, the feasibility tests and
:func:`max_conversion_probability` take their tail sums, the ensemble's
average tails, slacks, violated indices and ratios as numpy passes
(``entmanip.vector``), with the same bits; they read the array a large
spectrum holds, the tails stay numpy arrays between the passes, and the
report holds its slack as the array the last pass made.
:func:`vidal_monotones` keeps its running sum: converting numpy's tails
back to a tuple costs more than the sum.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate, chain, repeat, starmap, zip_longest

from .schmidt import Frozen, SchmidtSpectrum, numpy_passes, padded_average

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
    slack drops below ``-tol``, and is feasible when there are none.  A
    report made by the numpy passes holds its slack as a read-only float64
    array and builds the tuple when code reads it (see
    :class:`~entmanip.schmidt.Frozen`).
    """

    _fields = ("violated_indices", "slack")
    _array_field = "slack"

    def __init__(self, violated_indices, slack):
        self._store(tuple(violated_indices), tuple(slack))

    @property
    def feasible(self) -> bool:
        return not self.violated_indices

    @property
    def margin(self) -> tuple:
        """``(l, slack[l-1])`` at the smallest slack, the first l on a tie.

        The check was feasible exactly when this slack is at least
        ``-tol``: it is how far the closest index stands from flipping the
        verdict.  Derived from ``slack`` when asked, not stored.
        """
        low = min(self.slack)
        return self.slack.index(low) + 1, low


def vidal_monotones(s: SchmidtSpectrum) -> tuple:
    """All tail-sum monotones of a spectrum, by backward accumulation.

    Returns the tuple (E_1, ..., E_rank), E_l = sum of the coefficients
    from index l on.  The spectrum's invariants carry over: the tails are
    positive and nonincreasing, and consecutive differences are the
    coefficients.  E_1 is the running sum of all coefficients: exactly 1
    for an exact spectrum, and for a float one 1 up to the spectrum's
    normalization and the rounding of the sum.  One running sum serves both
    arithmetics: a spectrum is all ``Fraction`` or all float, and its tails
    are of its kind.
    """
    return tuple(accumulate(reversed(s.coeffs)))[::-1]


def _tails(s: SchmidtSpectrum, vector):
    """``vidal_monotones(s)``, as a numpy array on the vector path."""
    return vector.tails(s) if vector else vidal_monotones(s)


def _report(source_tails, target_tails, tol, vector) -> FeasibilityReport:
    # a NaN tolerance would pass every index, a negative one fail ties
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
    if vector:
        violated, slack = vector.slack(source_tails, target_tails, tol)
        return FeasibilityReport._of_array(slack, violated)
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
    vector = numpy_passes((source, target), tol)
    return _report(_tails(source, vector), _tails(target, vector), tol, vector)


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
    # float targets give a float average, whatever number type p is
    entries = ensemble.entries
    vector = numpy_passes((source, *(t for _, t in entries)), tol)
    if vector:
        avg = vector.average_tails(entries)
    else:
        avg = padded_average((p, vidal_monotones(t)) for p, t in entries)
    return _report(_tails(source, vector), avg, tol, vector)


def max_conversion_probability(source: SchmidtSpectrum, target: SchmidtSpectrum):
    """Largest probability of converting ``source`` into ``target`` by LQCC.

    Equals the smallest ratio of source to target tail sums over the
    indices where the target monotone is nonzero (the first
    ``target.rank``), clamped to at most 1; no ratio is negative.  A target
    rank exceeding the source rank forces 0.  The tails are divided in the
    spectra's own arithmetic: two exact spectra give an exact ``Fraction``,
    and a float spectrum on either side gives a float, the ratio of the
    tails as floats.
    """
    vector = numpy_passes((source, target))
    if vector:
        p = vector.min_ratio(vector.tails(source), vector.tails(target))
    else:
        tails = vidal_monotones(source)
        # zeros past the source rank, of the source's kind: 0.0 or Fraction(0)
        zeros = repeat(0 * tails[0])
        p = min(map(operator.truediv, chain(tails, zeros), vidal_monotones(target)))
    return p if p <= 1 else type(p)(1)
