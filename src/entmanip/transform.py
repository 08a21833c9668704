"""Constructive side of probabilistic LQCC transformations.

Given a feasible target ensemble, the transformation splits into a
deterministic majorization step onto the ensemble's average state followed
by a single generalized measurement, diagonal in the Schmidt basis, whose
outcome j leaves the parties holding target j with its assigned probability.
This module builds that average state and measurement.

Only Schmidt components are modelled.  Targets that share components but
live in rotated local bases need a final local unitary correction once the
measurement outcome is known; that correction is outcome-conditioned
post-processing and is documented here rather than modelled.

The deterministic majorization step itself is not decomposed into physical
two-outcome measurements; its existence is certified through
:func:`entmanip.monotones.nielsen_feasible` and the protocol is modelled
from the average state onward.
"""

from __future__ import annotations

import math
from itertools import zip_longest

from .schmidt import NORM_TOL, Frozen, SchmidtSpectrum, make_spectrum, padded_average

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
]


class IncompletePovmError(ValueError):
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
        total = math.fsum(float(p) for p, _ in entries)
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
        support, where the measurement does not resolve to 1.
        """
        if state.rank > self.support_rank:
            raise IncompletePovmError("state rank exceeds the measurement support")
        coeffs = [float(a) for a in state.coeffs]
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
    basis; the result is automatically ordered and normalized, and its tail
    sums equal the averaged tail sums of the individual targets.
    """
    avg = padded_average((p, t.coeffs) for p, t in e.entries)
    for i in range(len(avg) - 1):
        # ordered targets average to an ordered spectrum; anything else is
        # an internal error, not bad input
        assert avg[i] >= avg[i + 1] - 1e-12, "average spectrum out of order"
    return make_spectrum(avg, zero_tol=0.0)


def _same_spectrum(a: tuple, b: tuple) -> bool:
    return all(abs(x - y) <= MERGE_TOL for x, y in zip_longest(a, b, fillvalue=0))


def merge_duplicates(e: TargetEnsemble) -> tuple[TargetEnsemble, DieTable]:
    """Merge ensemble entries whose spectra agree componentwise.

    Targets equal within ``MERGE_TOL`` (after zero padding) collapse into a
    single entry with the summed probability; the returned die table records
    how to redistribute each merged outcome over the original indices by a
    classical coin toss.  Ensembles with all-distinct targets come back
    unchanged, with a trivial die.
    """
    reps: list[list] = []  # [coeffs, summed prob, [(orig idx, p)]]
    for j, (p, target) in enumerate(e.entries, start=1):
        for group in reps:
            if _same_spectrum(group[0], target.coeffs):
                group[1] += p
                group[2].append((j, p))
                break
        else:
            reps.append([target.coeffs, p, [(j, p)]])

    merged_entries = []
    groups = []
    for g, (_, total, members) in enumerate(reps, start=1):
        first_idx = members[0][0]
        merged_entries.append((total, e.entries[first_idx - 1][1]))
        groups.append(
            DieGroup(g, tuple((j, p / total) for j, p in members))
        )
    return TargetEnsemble(tuple(merged_entries)), DieTable(tuple(groups))


def build_ensemble_povm(e: TargetEnsemble) -> DiagonalPovm:
    """Measurement on the average state that realises the ensemble.

    Element j has diagonal entries sqrt(p_j * target_ji / average_i) over
    the support of the average state.  Applying element j to the average
    spectrum yields target j with probability p_j, and the squared
    diagonals sum to one at every supported index.
    """
    avg = average_target(e)
    elements = []
    for j, (p, target) in enumerate(e.entries, start=1):
        if target.rank > avg.rank:
            # the average dominates every target componentwise, so a target
            # coefficient outside the average's support cannot happen
            raise AssertionError("target support exceeds average support")
        pairs = zip_longest(target.coeffs, avg.coeffs, fillvalue=0)
        diag = tuple(math.sqrt(p * t / a) for t, a in pairs)
        elements.append(PovmElement(j, diag))
    return DiagonalPovm(tuple(elements))

