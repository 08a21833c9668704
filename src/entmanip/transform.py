"""Constructive side of probabilistic LQCC transformations.

Given a feasible target ensemble, the transformation splits into a
deterministic majorization step onto the ensemble's average state followed
by a single generalized measurement, diagonal in the Schmidt basis, whose
outcome j leaves the parties holding target j with its assigned probability.
This module builds that average state and measurement.  The measurement
divides by the average as summed, sum_j p_j t_j, whose entries are the sums
of its numerators, so it is complete for every ensemble that
:class:`TargetEnsemble` accepts; the average state it acts on is that sum
renormalised (:func:`average_target`).  The measurement acts on the average
state, not on the source: the deterministic step from the source to the
average is not emitted, nor decomposed into physical two-outcome
measurements.  Its existence is certified through
:func:`entmanip.monotones.nielsen_feasible`, and the protocol is modelled
from the average state onward.  When the source is the average state, as in
concentration, there is no step to take.  The module also builds that
concentration measurement, :func:`single_shot_povm`.

Only Schmidt components are modelled.  Targets that share components but
live in rotated local bases need a final local unitary correction once the
measurement outcome is known; that correction is outcome-conditioned
post-processing and is documented here rather than modelled.
"""

from __future__ import annotations

import math
from itertools import zip_longest

from .schmidt import NORM_TOL, FailedCheck, Frozen, SchmidtSpectrum, make_spectrum, padded_average
from .schmidt import float_coefficients, fsum_or_inf

MERGE_TOL = 1e-9
POVM_TOL = 1e-10

__all__ = [
    "MERGE_TOL",
    "POVM_TOL",
    "IncompletePovmError",
    "TargetEnsemble",
    "make_ensemble",
    "PovmElement",
    "DiagonalPovm",
    "DieGroup",
    "DieTable",
    "average_target",
    "merge_duplicates",
    "build_ensemble_povm",
    "single_shot_povm",
]


class IncompletePovmError(FailedCheck, ValueError):
    """The measurement does not resolve to 1 on the state's support."""


class TargetEnsemble(Frozen):
    """A list of (probability, target spectrum) pairs summing to one.

    Zero-probability entries are not stored; use :func:`make_ensemble`,
    which strips them.
    """

    _fields = ("entries",)

    def __init__(self, entries):
        entries = tuple((p, t) for p, t in entries)
        if not entries:
            raise ValueError("ensemble must have at least one entry")
        for p, target in entries:
            if not p > 0:
                raise ValueError(f"ensemble probabilities must be positive, got {p!r}")
            if not isinstance(target, SchmidtSpectrum):
                raise ValueError("ensemble targets must be SchmidtSpectrum values")
        total = fsum_or_inf(p for p, _ in entries)
        if not abs(total - 1.0) <= NORM_TOL:
            raise ValueError(f"ensemble probabilities sum to {total!r}, not 1")
        self._store(entries)


def make_ensemble(pairs) -> TargetEnsemble:
    """Build an ensemble from (probability, spectrum) pairs.

    Entries with probability exactly zero are dropped; negative or NaN
    probabilities raise.
    """
    kept = []
    for p, target in pairs:
        if not p >= 0:
            raise ValueError(f"ensemble probabilities must be nonnegative, got {p!r}")
        if p > 0:
            kept.append((p, target))
    return TargetEnsemble(tuple(kept))


class PovmElement(Frozen):
    """One measurement operator, diagonal in the Schmidt basis.

    ``diag`` holds the diagonal entries, each in [0, 1 + ``POVM_TOL``] (no
    complete measurement has a larger one); outcome labels are 1-based
    (a label below 1 is rejected) and stable even for zero-probability
    elements.
    """

    _fields = ("label", "diag")

    def __init__(self, label, diag):
        if not label >= 1:
            raise ValueError(f"measurement labels must be >= 1, got {label!r}")
        diag = tuple(float(d) for d in diag)
        if not all(0 <= d <= 1 + POVM_TOL for d in diag):
            raise ValueError("measurement diagonals must be nonnegative and at most 1")
        self._store(label, diag)


class DiagonalPovm(Frozen):
    """A complete set of diagonal measurement elements on a support.

    Every element diagonal covers the whole support, so all have the same
    length, ``support_rank``.  Completeness means the squared diagonals sum
    to 1 at every index of the support, within ``POVM_TOL``.  The implicit
    complement projector outside the support is bookkeeping only: it has
    zero probability on supported states.
    """

    _fields = ("elements",)

    def __init__(self, elements):
        elements = tuple(elements)
        if not elements:
            raise ValueError("measurement must have at least one element")
        self._store(elements)
        if any(len(el.diag) != self.support_rank for el in elements):
            raise ValueError("every element diagonal must cover the full support")
        for i in range(self.support_rank):
            total = math.fsum(el.diag[i] ** 2 for el in elements)
            if not abs(total - 1.0) <= POVM_TOL:
                raise ValueError(
                    f"measurement incomplete at index {i + 1}: sum = {total!r}"
                )

    @property
    def support_rank(self) -> int:
        """Number of Schmidt indices the measurement covers."""
        return len(self.elements[0].diag)

    def outcome_probabilities(self, state: SchmidtSpectrum) -> tuple:
        """Probability sum_i d_i^2 a_i of each outcome when measuring ``state``.

        Raises :class:`IncompletePovmError` when the state's rank exceeds the
        support, where the measurement does not resolve to 1.  An exact
        state is converted to floats once, from its numerators
        (``schmidt.float_coefficients``), for the same bits: a float times
        a ``Fraction`` is that float times ``float(a)``.
        """
        if state.rank > self.support_rank:
            raise IncompletePovmError("state rank exceeds the measurement support")
        coeffs = float_coefficients(state)
        return tuple(
            math.fsum(el.diag[i] ** 2 * a for i, a in enumerate(coeffs))
            for el in self.elements
        )


class DieGroup(Frozen):
    """Relabelling rule for one merged outcome.

    ``members`` holds (original 1-based outcome index, relative probability)
    pairs; the relative probabilities sum to one.
    """

    _fields = ("representative", "members")

    def __init__(self, representative, members):
        members = tuple((int(j), float(r)) for j, r in members)
        if not members:
            raise ValueError("die group must have at least one member")
        total = math.fsum(r for _, r in members)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"die group probabilities sum to {total!r}, not 1")
        self._store(representative, members)


class DieTable(Frozen):
    """Classical post-processing that expands merged outcomes back out."""

    _fields = ("groups",)

    def __init__(self, groups):
        self._store(tuple(groups))


def average_target(e: TargetEnsemble) -> SchmidtSpectrum:
    """Probability-weighted average of the ensemble's target spectra.

    The averages are taken componentwise in the common (zero-padded) Schmidt
    basis and renormalised; their tail sums are the averaged tail sums of
    the individual targets.  The sum is already nonincreasing: rounding is
    monotone, so p * t of a nonincreasing t is nonincreasing, and so is the
    rounded sum of two nonincreasing sequences.  A component lost to
    underflow is therefore a trailing zero, which is dropped.
    """
    avg = padded_average((p, t.coeffs) for p, t in e.entries)
    return make_spectrum(avg, zero_tol=0.0)


def _same_spectrum(a: tuple, b: tuple) -> bool:
    return all(abs(x - y) <= MERGE_TOL for x, y in zip_longest(a, b, fillvalue=0))


def merge_duplicates(e: TargetEnsemble) -> tuple[TargetEnsemble, DieTable]:
    """Merge ensemble entries whose spectra agree componentwise.

    Targets equal within ``MERGE_TOL`` (after zero padding) collapse into a
    single entry with the summed probability, whose target is the first of
    them, kept as found; the returned die table records how to redistribute
    each merged outcome over the original indices by a classical coin toss.
    Ensembles with all-distinct targets come back unchanged, with a trivial
    die.
    """
    reps: list[list] = []  # [representative target, summed prob, [(orig idx, p)]]
    for j, (p, target) in enumerate(e.entries, start=1):
        for group in reps:
            if _same_spectrum(group[0].coeffs, target.coeffs):
                group[1] += p
                group[2].append((j, p))
                break
        else:
            reps.append([target, p, [(j, p)]])

    merged_entries = []
    groups = []
    for g, (target, total, members) in enumerate(reps, start=1):
        merged_entries.append((total, target))
        groups.append(DieGroup(g, tuple((j, p / total) for j, p in members)))
    return TargetEnsemble(tuple(merged_entries)), DieTable(tuple(groups))


def build_ensemble_povm(e: TargetEnsemble) -> DiagonalPovm:
    """Measurement on the ensemble's average state that yields its targets.

    Element j has diagonal entries sqrt(p_j * target_ji / avg_i) over the
    support of the average, where avg_i = sum_j p_j * target_ji is the
    zero-padded sum itself, not renormalised: its entries are the very sums
    of the numerators, so each ratio is at most 1 and the squared diagonals
    sum to one at every index within rounding, even where the probabilities
    sum to 1 only within ``NORM_TOL``.  Applying element j to the average
    spectrum (:func:`average_target`) yields target j with probability
    p_j / sum_j p_j.  The measurement acts on the average state:
    from a source other than that average, the deterministic majorization
    step to it comes first, and it is not part of the result.  A target
    component that the average loses because p_j * target_ji underflows
    raises ``ValueError``.
    """
    avg = padded_average((p, t.coeffs) for p, t in e.entries)
    if not avg[-1] > 0:
        # the sum is nonincreasing (see average_target), so a component
        # lost to underflow leaves a trailing zero
        raise ValueError("a target has support the average lost to underflow")
    elements = []
    for j, (p, target) in enumerate(e.entries, start=1):
        pairs = zip_longest(target.coeffs, avg, fillvalue=0)
        elements.append(PovmElement(j, tuple(math.sqrt(p * t / a) for t, a in pairs)))
    return DiagonalPovm(tuple(elements))


def single_shot_povm(s: SchmidtSpectrum) -> DiagonalPovm:
    """Single measurement that concentrates a spectrum optimally.

    Element j has diagonal sqrt((a_j - a_{j+1}) / a_i) on the first j
    indices and zero beyond; its outcome probability is the closed-form
    plan's p_j and the post-measurement state is the uniform j-level
    spectrum.  Levels with tied coefficients give zero elements, retained
    under their labels so outcome indexing stays stable.
    """
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
