"""Schmidt spectra of bipartite pure states.

A bipartite pure state is fully characterised, up to local unitaries, by its
ordered Schmidt spectrum: the nonincreasing list of squared Schmidt
coefficients.  Everything downstream (monotones, measurement protocols,
concentration plans) works on that spectrum, so this module owns its
construction and validation.

Spectra normally hold floats.  A spectrum given any ``fractions.Fraction``
entry is exact: every entry is then stored as a ``Fraction`` and
normalisation is exact; the LP layer uses this for certifying saturation
identities without floating-point doubt.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat, zip_longest
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

NORM_TOL = 1e-9
ZERO_TOL = 1e-12

__all__ = [
    "NORM_TOL",
    "ZERO_TOL",
    "AmplitudeMatrix",
    "SchmidtSpectrum",
    "schmidt_decompose",
    "make_spectrum",
    "uniform_spectrum",
    "entropy",
]


def holds_fraction(values) -> bool:
    """Whether some entry of ``values`` is a ``Fraction``.

    This is the one rule that decides the arithmetic of a value: a spectrum,
    plan, certificate or LP that holds any ``Fraction`` is exact, and one
    that holds none is float.  Each distinct type is tested once:
    ``isinstance(v, Fraction)`` per entry goes through the slow ABC
    instance check.
    """
    return any(issubclass(kind, Fraction) for kind in set(map(type, values)))


def as_fraction(x) -> Fraction:
    """``x`` as a ``Fraction``, converted exactly; a ``Fraction`` is kept."""
    return x if type(x) is Fraction else Fraction(x)


def check_positive_nonincreasing(values: tuple, what: str) -> None:
    """Raise ``ValueError`` unless ``values`` are > 0 and nonincreasing.

    Each test is a single pass in positive form, so that a NaN anywhere
    fails it.  A nonincreasing run whose last entry is positive is
    positive throughout, so the per-entry sign test runs only on failure,
    to pick the message.
    """
    ordered = all(map(operator.ge, values, values[1:]))
    if ordered and values[-1] > 0:
        return
    if not all(map(operator.gt, values, repeat(0))):
        raise ValueError(f"{what} must be strictly positive")
    raise ValueError(f"{what} must be nonincreasing")


@dataclass(frozen=True)
class AmplitudeMatrix:
    """Complex amplitudes of a bipartite pure state in a product basis.

    Rows index the first subsystem, columns the second.  The squared
    magnitudes must sum to 1 within ``NORM_TOL``.
    """

    entries: np.ndarray

    def __post_init__(self):
        import numpy as np

        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("amplitude matrix must be a non-empty 2-D array")
        if not np.all(np.isfinite(arr.view(float))):
            raise ValueError("amplitude matrix entries must be finite")
        total = float(np.sum(np.abs(arr) ** 2))
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(
                f"amplitude matrix is not normalized: |psi|^2 = {total!r}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Ordered, normalized squared Schmidt coefficients.

    Invariants: nonincreasing, strictly positive entries summing to 1 within
    ``NORM_TOL``.  Trailing zeros are never stored; the rank equals the
    number of entries.  Coefficients that hold a ``Fraction`` are stored as
    ``Fraction``s and summed exactly.  Use :func:`make_spectrum` or
    :func:`schmidt_decompose` to build instances.
    """

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if not coeffs:
            raise ValueError("spectrum must have at least one coefficient")
        check_positive_nonincreasing(coeffs, "spectrum coefficients")
        exact = holds_fraction(coeffs)
        if exact:
            coeffs = tuple(map(as_fraction, coeffs))
        total = sum(coeffs) if exact else math.fsum(coeffs)
        if not abs(total - 1) <= NORM_TOL:
            raise ValueError(f"spectrum is not normalized: sum = {total!r}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def rank(self) -> int:
        """Number of nonzero Schmidt coefficients."""
        return len(self.coeffs)


def make_spectrum(raw: Sequence, zero_tol: float = ZERO_TOL) -> SchmidtSpectrum:
    """Build a valid spectrum from raw nonnegative weights.

    Sorts nonincreasing (stable, so ties keep their input order), drops
    entries below ``zero_tol``, and renormalizes.  Input holding any
    ``Fraction`` is exact: its entries are converted to ``Fraction`` and the
    result sums to exactly 1.  For float input the normalization is
    corrected to make ``math.fsum`` of the result exactly 1.0, which makes
    the function idempotent on already-valid spectra.

    Raises ``ValueError`` on negative or NaN entries, on a sum that is not
    finite, or when nothing survives the zero stripping.
    """
    values = list(raw)
    if not values:
        raise ValueError("empty coefficient list")
    if not all(map(operator.ge, values, repeat(0))):  # NaN fails it too
        raise ValueError("coefficients must be nonnegative numbers")

    exact = holds_fraction(values)
    if exact:
        if math.inf in values:
            raise ValueError("coefficients must have a finite sum")
        values = list(map(as_fraction, values))
        if math.isfinite(zero_tol):  # a Fraction meets a float slowly
            zero_tol = as_fraction(zero_tol)
    else:
        values = list(map(float, values))
        if not math.isfinite(sum(values)):
            raise ValueError("coefficients must have a finite sum")
    values.sort(reverse=True)
    # the test is monotone in v, so the entries that fail it are a suffix
    while values and not (values[-1] > zero_tol and values[-1] > 0):
        values.pop()
    if not values:
        raise ValueError("all coefficients are zero (or below zero_tol)")

    if exact:
        total = sum(values)
        values = [v / total for v in values]
    else:
        total = math.fsum(values)
        values = [v / total for v in values]
        # Fold the rounding residual into the largest coefficient so that
        # fsum(values) == 1.0 exactly; the correction is O(eps) and the
        # largest entry is at least 1/len(values), so it stays positive.
        for _ in range(4):
            residual = math.fsum(values) - 1.0
            if residual == 0.0:
                break
            values[0] -= residual
        values.sort(reverse=True)  # an eps correction may reorder ties
    return SchmidtSpectrum(tuple(values))


def padded_average(pairs) -> list:
    """Sum of ``p * values`` over ``(p, values)`` pairs, zero-filled.

    The result is as long as the longest ``values``; shorter ones count as
    zero past their end.  Sum and fill are int 0, so float pairs give what
    a 0.0 start and 0.0 padding give, bit for bit, and exact
    (``Fraction``) pairs give an exact average.
    """
    avg = []
    for p, values in pairs:
        avg = [a + p * v for a, v in zip_longest(avg, values, fillvalue=0)]
    return avg


def uniform_spectrum(levels: int) -> SchmidtSpectrum:
    """Spectrum of the maximally entangled state on ``levels`` levels."""
    if levels < 1:
        raise ValueError("level count must be >= 1")
    return make_spectrum([1.0] * levels, zero_tol=0.0)


def schmidt_decompose(m, zero_tol: float = ZERO_TOL) -> SchmidtSpectrum:
    """Schmidt spectrum of a normalized amplitude matrix.

    Parameters
    ----------
    m : AmplitudeMatrix or array_like
        Complex amplitudes; must be normalized within ``NORM_TOL``.
    zero_tol : float
        Squared singular values below this are treated as zero.

    Returns
    -------
    SchmidtSpectrum
        Squared singular values, sorted nonincreasing and renormalized.
    """
    import numpy as np

    if not isinstance(m, AmplitudeMatrix):
        m = AmplitudeMatrix(m)
    singular = np.linalg.svd(m.entries, compute_uv=False)
    return make_spectrum((singular**2).tolist(), zero_tol=zero_tol)


def entropy(s: SchmidtSpectrum) -> float:
    """Entanglement entropy of a spectrum in nats (0*ln 0 := 0)."""
    return -math.fsum(float(a) * math.log(float(a)) for a in s.coeffs)
