"""Numpy passes over large float spectra.

This module is to large float spectra what ``entmanip.exact`` is to
``Fraction``s: the kernels of ``schmidt``, ``concentrate`` and
``monotones`` hand it their linear passes (sort, normalise, gaps, tail
sums, their ensemble average, slacks and ratios) when the values are
floats, the rank is at least ``schmidt.VECTOR_RANK`` and numpy is already
loaded (:func:`entmanip.schmidt.vector_sized`).  So no call imports numpy
for it, and small spectra keep the scalar code, which costs the same at
that rank.

The spectrum :func:`normalised` builds keeps its array as its storage,
and every pass reads a spectrum through :func:`coefficients`: the held
array as it is, or a tuple-held spectrum's ``coeffs`` converted for that
call.  No pass reads the ``coeffs`` of an array-held spectrum, so its
tuple is never made for them.  The feasibility report that :func:`slack`
serves holds its slack array the same way.

Each pass gives the scalar code's result bit for bit: a sort cannot tell
equal floats apart, ``np.cumsum`` adds in the order ``accumulate`` does,
subtraction, division and ``j * gap`` are single IEEE operations, and the
sums that ``math.fsum`` rounds once are still taken by ``math.fsum``, on
the same values, read through a ``memoryview`` of the array.  ln j stays
``math.log``, held in one table grown to the largest rank planned, as
``np.log`` differs from it in the last bit for some j.  Floating-point
warnings are silenced, as Python float arithmetic raises none where numpy
would warn (an overflowed ratio, an underflowed quotient).  The kernels
turn the passes' other arrays into the plain Python floats, ints and
tuples the scalar code returns.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from .schmidt import _ALL_STRIPPED, _NEGATIVE, _NOT_FINITE, _fold

# _LN[j] is math.log(j) for j >= 1 (_LN[0] is unused), grown to the largest
# rank planned so far.
_LN = np.zeros(1)


def _array(values) -> np.ndarray:
    return np.fromiter(values, float, len(values))


def coefficients(s) -> np.ndarray:
    """The coefficients of float spectrum ``s`` as a float64 array.

    An array-held spectrum gives its own array; a tuple-held one is
    converted on each call, and is not given an array.
    """
    array = s.__dict__.get("_array")
    return _array(s.coeffs) if array is None else array


def normalised(values: list, zero_tol) -> np.ndarray:
    """``make_spectrum``'s float input as the array of the spectrum it builds.

    ``values`` is a list of plain floats.  It is checked as the scalar code
    checks it, with the same messages; the entries that fail ``v >
    zero_tol and v > 0`` are dropped (a suffix once sorted, found by
    bisection with Python comparisons, so ``zero_tol`` compares as it does
    there), the rest divided by their ``math.fsum``, and quotients that
    underflowed to 0 dropped too.  The rounding residual is folded into
    the first entry as the scalar code folds it, and the entries re-sorted
    only if that put the first below the second.  The result is
    nonincreasing, sums to exactly 1.0 by ``math.fsum`` and is read-only.
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
        a = a[:kept] / math.fsum(memoryview(a[:kept]))
        a = a[: np.count_nonzero(a)]
    # fsum over a memoryview sums the same floats as over a list of them,
    # without making the list
    _fold(a, memoryview(a))
    if len(a) > 1 and a[0] < a[1]:
        a[::-1].sort()
    a.flags.writeable = False
    return a


def plan_probabilities(s) -> tuple:
    """``optimal_plan`` of ``s``: its probabilities and their ln j average.

    The probabilities j (a_j - a_{j+1}), with a_{n+1} = 0, are one pass,
    returned as a tuple of floats; the average is :func:`mean_log_level`.
    """
    a = coefficients(s)
    gaps = a - np.append(a[1:], 0.0)
    p = np.arange(1, len(a) + 1, dtype=float) * gaps
    return tuple(memoryview(p)), mean_log_level(p)


def mean_log_level(p: np.ndarray) -> float:
    """``math.fsum`` of p_j ln j over levels j >= 2, with ln j from ``math.log``."""
    global _LN
    n = len(p)
    ln = _LN  # a concurrent call may rebind it to a shorter table
    if len(ln) <= n:
        more = map(math.log, range(len(ln), n + 1))
        ln = _LN = np.append(ln, np.fromiter(more, float, n + 1 - len(ln)))
    return math.fsum(memoryview(p[1:] * ln[2 : n + 1]))


def tails(s) -> np.ndarray:
    """The tail sums E_l of spectrum ``s``, as ``vidal_monotones`` adds them."""
    return np.cumsum(coefficients(s)[::-1])[::-1]


def average_tails(entries) -> np.ndarray:
    """The p-weighted sum of the targets' tails over ``(p, target)`` entries.

    It is taken in entry order from 0.0, shorter tails zero-filled, as
    ``schmidt.padded_average`` sums them: its int 0 start and fill give
    the same bits on floats, and a ``Fraction`` p times a float is
    ``float(p)`` times it.
    """
    avg = np.zeros(max(t.rank for _, t in entries))
    for p, t in entries:
        e = tails(t)
        avg[: len(e)] += float(p) * e
    return avg


def slack(source_tails, target_tails, tol: float) -> tuple:
    """Violated indices and slack of ``monotones._report``, zero-filled.

    Past the shorter vector the slack is the source tail, or 0.0 minus the
    target tail, as the scalar code's int 0 fill gives.  The indices come
    as a tuple, the slack as a read-only float64 array.
    """
    with np.errstate(all="ignore"):
        s = np.asarray(source_tails, dtype=float)
        t = np.asarray(target_tails, dtype=float)
        gaps = np.zeros(max(len(s), len(t)))
        gaps[: len(s)] = s
        gaps[: len(t)] -= t
        violated = np.flatnonzero(gaps < -tol) + 1
    gaps.flags.writeable = False
    return tuple(violated.tolist()), gaps


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
