"""Numpy passes over large float spectra.

This module is to large float spectra what ``entmanip.exact`` is to
``Fraction``s: the kernels of ``schmidt``, ``concentrate`` and
``monotones`` hand it their linear passes (sort, normalise, gaps, tail
sums, slacks and ratios) when the values are floats, the rank is at least
``schmidt.VECTOR_RANK`` and numpy is already loaded
(:func:`entmanip.schmidt.vector_sized`).  So no call imports numpy for it,
and small spectra keep the scalar code, which costs the same at that rank.

Each pass gives the scalar code's result bit for bit: a sort cannot tell
equal floats apart, ``np.cumsum`` adds in the order ``accumulate`` does,
subtraction, division and ``j * gap`` are single IEEE operations, and the
sums that ``math.fsum`` rounds once are still taken by ``math.fsum``, on
the same values.  ln j stays ``math.log``, as ``np.log`` differs from it
in the last bit for some j.  Floating-point warnings are silenced, as
Python float arithmetic raises none where numpy would warn (an overflowed
ratio, an underflowed quotient).  Results are plain Python floats, ints
and tuples, as the scalar code returns.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from .schmidt import _ALL_STRIPPED, _NEGATIVE, _NOT_FINITE


def _array(values) -> np.ndarray:
    return np.fromiter(values, float, len(values))


def normalised(values: list, zero_tol) -> list:
    """``make_spectrum``'s float input sorted, stripped and divided by its sum.

    ``values`` is a list of plain floats.  It is checked as the scalar code
    checks it, with the same messages; the entries that fail ``v >
    zero_tol and v > 0`` are dropped (a suffix once sorted, found by
    bisection with Python comparisons, so ``zero_tol`` compares as it does
    there), the rest divided by their ``math.fsum``, and quotients that
    underflowed to 0 dropped too.  The result is nonincreasing.
    """
    with np.errstate(all="ignore"):
        a = _array(values)
        if not (a >= 0).all():  # NaN fails it too
            raise ValueError(_NEGATIVE)
        if not math.isfinite(sum(values)):
            raise ValueError(_NOT_FINITE)
        a = np.sort(a)[::-1]
        kept = bisect_left(a, True, key=lambda v: not (float(v) > zero_tol and v > 0.0))
        if not kept:
            raise ValueError(_ALL_STRIPPED)
        a = a[:kept] / math.fsum(a[:kept].tolist())
        return a[: np.count_nonzero(a)].tolist()


def plan_probabilities(coeffs) -> tuple:
    """``optimal_plan``'s probabilities j (a_j - a_{j+1}), with a_{n+1} = 0."""
    a = _array(coeffs)
    gaps = a - np.append(a[1:], 0.0)
    return tuple((np.arange(1, len(a) + 1, dtype=float) * gaps).tolist())


def tails(coeffs) -> np.ndarray:
    """The tail sums E_l of ``coeffs``, as ``vidal_monotones`` adds them."""
    return np.cumsum(_array(coeffs)[::-1])[::-1]


def slack(source_tails, target_tails, tol: float) -> tuple:
    """Violated indices and slack of ``monotones._report``, zero-filled.

    Past the shorter vector the slack is the source tail, or 0.0 minus the
    target tail, as the scalar code's int 0 fill gives.
    """
    with np.errstate(all="ignore"):
        s = np.asarray(source_tails, dtype=float)
        t = np.asarray(target_tails, dtype=float)
        gaps = np.zeros(max(len(s), len(t)))
        gaps[: len(s)] = s
        gaps[: len(t)] -= t
        violated = np.flatnonzero(gaps < -tol) + 1
        return tuple(violated.tolist()), tuple(gaps.tolist())


def min_ratio(source_tails, target_tails) -> float:
    """Smallest ratio of source to target tails over the target's rank.

    Source tails past the source's rank count as 0.0.
    """
    with np.errstate(all="ignore"):
        t = np.asarray(target_tails, dtype=float)
        s = np.zeros(len(t))
        m = min(len(source_tails), len(t))
        s[:m] = source_tails[:m]
        return float((s / t).min())
