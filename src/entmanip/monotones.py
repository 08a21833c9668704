"""Tail-sum entanglement monotones and LQCC feasibility tests.

The tail sums of an ordered Schmidt spectrum form a family of entanglement
monotones (one per starting index).  A pure-state transformation, possibly
probabilistic, can be realised with local operations and classical
communication exactly when none of these monotones increases on average.
This module computes the monotones, as a plain tuple of tail sums, and
applies that criterion to a target ensemble, and to a single target as
the one-entry ensemble (Nielsen's majorization test).  From the same
comparison it takes the largest probability of reaching an ensemble
(:func:`ensemble_probability`), and of reaching one target (Vidal's
:func:`max_conversion_probability`).  All four verdicts compare the
source's tails with the entries' averaged tails, which one helper builds.
Tail vectors of different rank are compared with zeros filled in past the
shorter one.  A report carries its slack at every index, and its
``margin``, the smallest slack, says how far the verdict stood from
flipping.

When every spectrum is float, the tolerance a float, the largest rank at
least ``schmidt.VECTOR_RANK`` and numpy loaded, the verdicts take their
tail sums, the average tails, slacks, violated indices and ratios as
numpy passes (``entmanip.vector``), with the same bits; they read the
array a large spectrum holds, the tails stay numpy arrays between the
passes, and the report holds its slack as the array the last pass made.
:func:`vidal_monotones` keeps its running sum: converting numpy's tails
back to a tuple costs more than the sum.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate, starmap, zip_longest

from .schmidt import Frozen, SchmidtSpectrum, exact_passes, numpy_passes, padded_average

FEASIBILITY_TOL = 1e-9

__all__ = [
    "FEASIBILITY_TOL",
    "FeasibilityReport",
    "vidal_monotones",
    "nielsen_feasible",
    "ensemble_feasible",
    "max_conversion_probability",
    "ensemble_probability",
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
    _held_field = "slack"

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
    normalization and the rounding of the sum.  A spectrum is all
    ``Fraction`` or all float, and its tails are of its kind: an exact
    spectrum's are int running sums of its numerators, each made one
    ``Fraction`` (``exact.tails``).
    """
    ex = exact_passes(s)
    return ex.tails(s) if ex else tuple(accumulate(reversed(s.coeffs)))[::-1]


def _tails_and_average(source: SchmidtSpectrum, entries, tol=0.0) -> tuple:
    """The source's tails, the entries' p-weighted average tails, and the passes.

    ``entries`` are ``(p, target)`` pairs: an ensemble's, or ``((1,
    target),)`` for one target.  An int p = 1 alone averages to the
    target's own tails (int 0 plus 1 times a tail is that tail, of its
    type and bits), so they are taken without the averaging pass.  On the
    numpy passes (the third value, else None) both vectors are float64
    arrays; on the scalar path each is in its own arithmetic.
    """
    vector = numpy_passes((source, *(t for _, t in entries)), tol)
    tails_of = vector.tails if vector else vidal_monotones
    if len(entries) == 1 and type(entries[0][0]) is int and entries[0][0] == 1:
        avg = tails_of(entries[0][1])
    elif vector:
        avg = vector.average_tails(entries)
    else:  # float targets give a float average, whatever number type p is
        avg = padded_average((p, vidal_monotones(t)) for p, t in entries)
    return tails_of(source), avg, vector


def _report(source: SchmidtSpectrum, entries, tol) -> FeasibilityReport:
    # a NaN tolerance would pass every index, a negative one fail ties
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
    tails, avg, vector = _tails_and_average(source, entries, tol)
    if vector:
        violated, slack = vector.slack(tails, avg, tol)
        return FeasibilityReport._of_held("_array", slack, violated)
    # int 0 past the shorter vector keeps floats float and Fractions exact
    slack = tuple(starmap(operator.sub, zip_longest(tails, avg, fillvalue=0)))
    violated = tuple(l for l, gap in enumerate(slack, start=1) if gap < -tol)
    return FeasibilityReport(violated, slack)


def _probability(source: SchmidtSpectrum, entries):
    tails, avg, vector = _tails_and_average(source, entries)
    # index l averages the targets longer than l, so a float in avg is in
    # avg[0], and a Fraction in avg[-1]; float() of an exact tail gives the
    # bits of its int sum divided by the spectrum's denominator
    if len({type(tails[0]), type(avg[0]), type(avg[-1])}) > 1:
        tails, avg = tuple(map(float, tails)), list(map(float, avg))
    if vector:
        p = vector.min_ratio(tails, avg)
    elif len(avg) > len(tails):  # a target's rank exceeds the source's
        return 0 / avg[0]  # 0.0, or Fraction(0) for exact tails
    else:
        # an averaged tail of 0.0 (an exact one below the float range) has no
        # ratio; the averaged tails do not increase, so those are the last
        p = min(map(operator.truediv, tails, filter(None, avg)))
    return p if p <= 1 else type(p)(1)


def nielsen_feasible(
    source: SchmidtSpectrum,
    target: SchmidtSpectrum,
    tol: float = FEASIBILITY_TOL,
) -> FeasibilityReport:
    """Can ``source`` be converted to ``target`` deterministically by LQCC?

    Feasible iff every target tail sum is at most the source's: the
    ensemble test on the one-entry ensemble ``((1, target),)``.  Comparing
    over the larger of the two ranks (zeros past the shorter tail vector)
    also enforces that the target cannot have more nonzero Schmidt
    components than the source: a larger target rank shows up as a violated
    index, not an error.  ``tol`` must be finite and >= 0, or
    ``ValueError`` is raised.
    """
    return _report(source, ((1, target),), tol)


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
    return _report(source, ensemble.entries, tol)


def max_conversion_probability(source: SchmidtSpectrum, target: SchmidtSpectrum):
    """Largest probability of converting ``source`` into ``target`` by LQCC.

    Vidal's formula: :func:`ensemble_probability` of the one-entry ensemble
    ``((1, target),)``, the smallest ratio of source to target tail sums
    over the first ``target.rank`` indices, clamped to at most 1, or 0 when
    the target's rank exceeds the source's.
    """
    return _probability(source, ((1, target),))


def ensemble_probability(source: SchmidtSpectrum, ensemble):
    """Largest λ such that ``source`` can become {λ p_i, target_i} by LQCC.

    The rest, 1 - λ, goes to a product state, whose tails are 0 from l = 2
    on.  So λ* = min(1, min_l E_l / Ē_l) over the indices where the
    averaged tail Ē_l = Σ_i p_i E_l(target_i) is nonzero, and 0 when a
    target's rank exceeds the source's, decided by the ranks; no ratio is
    negative.  The tails are divided in their own arithmetic: an exact
    source, exact targets and exact probabilities give a ``Fraction``, and
    a float anywhere gives a float, the ratio of the tails as floats.  An
    exact averaged tail below the float range is then 0.0, and is skipped.
    On exact input ``ensemble_feasible`` holds at tolerance 0 exactly when
    λ* is 1.  On floats an averaged tail past the source's rank can
    underflow to 0.0 (p = 1e-300 times a tail of 1e-30): the ranks give
    λ* = 0, while ``ensemble_feasible`` passes that index.
    """
    return _probability(source, ensemble.entries)
