"""Schmidt spectra of amplitude matrices.

A bipartite pure state given by its complex amplitudes in a product basis
has the squared singular values of that matrix as its Schmidt spectrum.
This module validates amplitude matrices and decomposes them: a small
matrix in pure Python by one-sided Jacobi, a larger one by numpy's SVD.
The CLI loads it only for a state file that holds amplitudes.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from itertools import chain

from .schmidt import NORM_TOL, ZERO_TOL, Frozen, SchmidtSpectrum, make_spectrum

__all__ = ["AmplitudeMatrix", "schmidt_decompose"]


_NOT_A_MATRIX = "amplitude matrix must be a non-empty 2-D array"
_NOT_FINITE = "amplitude matrix entries must be finite"


def _check_normalized(squares) -> None:
    """Raise ``ValueError`` unless the ``math.fsum`` of ``squares``, the
    per-entry re*re + im*im of an amplitude matrix, is 1 within ``NORM_TOL``.

    A sum past the float range is inf: an entry past ~1e154 squares to inf,
    and ``fsum`` raises on finite terms whose sum overflows.
    """
    try:
        total = math.fsum(squares)
    except OverflowError:
        total = math.inf
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"amplitude matrix is not normalized: |psi|^2 = {total!r}")


class AmplitudeMatrix(Frozen):
    """Complex amplitudes of a bipartite pure state in a product basis.

    Rows index the first subsystem, columns the second.  The squared
    magnitudes must sum to 1 within ``NORM_TOL``.  ``entries`` is a
    read-only complex ``numpy.ndarray``.
    """

    _fields = ("entries",)

    def __init__(self, entries):
        import numpy as np

        # C order, so that a transposed or strided array views as floats
        arr = np.array(entries, dtype=complex, order="C")
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(_NOT_A_MATRIX)
        if not np.all(np.isfinite(arr.view(float))):
            raise ValueError(_NOT_FINITE)
        with np.errstate(over="ignore"):  # an entry past ~1e154 squares to inf
            total = float(np.sum(np.abs(arr) ** 2))
            # that sum is within ~1e-15 of the fsum, far inside NORM_TOL, so
            # only a matrix near or past the bound needs the fsum
            if not abs(total - 1.0) <= NORM_TOL / 2:
                squares = arr.real * arr.real + arr.imag * arr.imag
                _check_normalized(squares.ravel().tolist())
        arr.setflags(write=False)
        self._store(arr)


# Matrices whose smaller side is at most this are decomposed without numpy.
_SMALL_SIDE = 8


def schmidt_decompose(m, zero_tol: float = ZERO_TOL) -> SchmidtSpectrum:
    """Schmidt spectrum of a normalized amplitude matrix.

    A matrix whose smaller side is at most ``_SMALL_SIDE`` is decomposed in
    pure Python by one-sided Jacobi (:func:`_jacobi_squared_singular_values`);
    a larger one goes through :class:`AmplitudeMatrix` and LAPACK's SVD.
    With ``simulate``'s pure-Python tally of runs of at most 65536 trials,
    this keeps numpy out of every small CLI call.  The path goes by the shape
    (``.shape``, or the lengths of a nested sequence), never by the
    container, so an array and the same entries in nested lists give the
    same spectrum bit for bit.  Both paths raise the same ``ValueError``
    for a shape that is empty or not 2-D, for non-finite entries and for
    |psi|^2 outside ``NORM_TOL``.

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
    rows = _small_rows(m)
    if rows is not None:
        entries = list(chain.from_iterable(rows))
        if not all(map(cmath.isfinite, entries)):
            raise ValueError(_NOT_FINITE)
        _check_normalized(z.real * z.real + z.imag * z.imag for z in entries)
        # the rows are the columns of the transpose, which has the same
        # singular values; take whichever side has fewer vectors
        vectors = rows if len(rows) <= len(rows[0]) else [list(c) for c in zip(*rows)]
        squares = _jacobi_squared_singular_values(vectors)
    else:
        import numpy as np

        if not isinstance(m, AmplitudeMatrix):
            m = AmplitudeMatrix(m)
        squares = (np.linalg.svd(m.entries, compute_uv=False) ** 2).tolist()
    return make_spectrum(squares, zero_tol=zero_tol)


def _small_rows(m):
    """The entries of ``m`` as lists of ``complex`` rows, or None.

    None when the smaller side of ``m`` exceeds ``_SMALL_SIDE``, and when
    ``m`` is a nested sequence that numpy would not read as a matrix of
    numbers (ragged, or nested deeper), so that numpy reports it.  A shape
    that is empty or not 2-D raises ``ValueError``.
    """
    if isinstance(m, AmplitudeMatrix):
        m = m.entries
    shape = getattr(m, "shape", None)
    if shape is None:
        try:
            shape = (len(m), *{len(row) for row in m})
        except TypeError:  # not a sequence of sequences
            return None
        if len(shape) > 2:  # ragged
            return None
    if len(shape) != 2 or 0 in shape:
        raise ValueError(_NOT_A_MATRIX)
    if min(shape) > _SMALL_SIDE:
        return None
    try:
        return [[complex(v) for v in row] for row in m]
    except TypeError:  # an entry that is not a number
        return None


# Jacobi sweeps at most, as in LAPACK's zgesvj; every input converges in
# far fewer.
_MAX_SWEEPS = 30


def _jacobi_squared_singular_values(vectors: list) -> list:
    """Squared singular values of the matrix whose columns are ``vectors``.

    One-sided (Hestenes) Jacobi: each pair of columns (u_p, u_q) is rotated
    until it is orthogonal to working precision, and then the squared
    singular values are the squared column norms.  Its singular values are
    at least as accurate as bidiagonal QR's (J. Demmel and K. Veselic,
    "Jacobi's method is more accurate than QR", SIAM J. Matrix Anal. Appl.
    13, 1992).  Sweeps over all pairs (:func:`_sweep`) repeat until one
    rotates nothing, at most ``_MAX_SWEEPS`` times.

    A column whose squared norm is below eps times the squared Frobenius
    norm (the sum of the squared column norms, which rotations keep) is
    rotated no more.  Such a column is rounding noise, left by rotations
    that made it dependent on others, or zero; a rotation with a larger
    column moves that column's norm by less than its rounding and pollutes
    the noise again, so such pairs would go on rotating sweep after sweep.
    Squared singular values that small are below the absolute accuracy of
    any SVD, and below ``ZERO_TOL`` of a normalized state.  The columns are
    modified in place.
    """
    norms = [_squared_norm(v) for v in vectors]
    negligible = sys.float_info.epsilon * math.fsum(norms)
    for _ in range(_MAX_SWEEPS):
        if not _sweep(vectors, norms, negligible):
            break
    return norms


def _sweep(vectors: list, norms: list, negligible: float) -> bool:
    """Rotate each pair of columns once; whether any pair was rotated.

    With a = |u_p|^2, b = |u_q|^2 and g = u_p^H u_q, the rotation has
    tangent t, the smaller root of t^2 + 2 zeta t = 1 with
    zeta = (b - a) / (2|g|), and takes the norms to a - t|g| and b + t|g|.
    Those updated norms are kept, not summed again from columns that carry
    every rotation's rounding, which makes them the more accurate; only a
    norm that cancellation has at least halved is summed again.  The phase
    w = g/|g| enters only through the sine, so an inexact phase (a
    subnormal |g|) cannot change the column norms, and a rotation whose
    tangent underflows to 0 is skipped.  So is a pair with a squared norm
    below ``negligible``.
    """
    eps = sys.float_info.epsilon
    n = len(vectors)
    rotated = False
    for p in range(n - 1):
        for q in range(p + 1, n):
            a, b = norms[p], norms[q]
            if a < negligible or b < negligible:
                continue
            up, uq = vectors[p], vectors[q]
            g = sum(map(operator.mul, map(complex.conjugate, up), uq))
            size = abs(g)
            if not size > eps * math.sqrt(a) * math.sqrt(b):
                continue
            zeta = (b - a) / (2.0 * size)
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
            if t == 0.0:
                continue
            c = 1.0 / math.sqrt(1.0 + t * t)
            sw = c * t * (g / size)
            swc = sw.conjugate()
            vectors[p] = [c * x - swc * y for x, y in zip(up, uq)]
            vectors[q] = [sw * x + c * y for x, y in zip(up, uq)]
            for k, old, new in ((p, a, a - t * size), (q, b, b + t * size)):
                norms[k] = new if new > 0.5 * old else _squared_norm(vectors[k])
            rotated = True
    return rotated


def _squared_norm(v) -> float:
    return math.fsum(z.real * z.real + z.imag * z.imag for z in v)
