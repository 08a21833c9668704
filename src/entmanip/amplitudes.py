"""Schmidt spectra of amplitude matrices.

A bipartite pure state given by its complex amplitudes in a product basis
has the squared singular values of that matrix as its Schmidt spectrum,
which are the eigenvalues of its reduced density matrix A A^H.  This module
validates amplitude matrices and decomposes them: a small matrix in pure
Python by one-sided Jacobi, a larger one with numpy, as the eigenvalues of
the reduced density matrix on its smaller side.  Each squared coefficient
found that way carries an absolute error of about n eps (n the smaller
side), so one below about 1e-12 has fewer correct digits than an SVD would
give it.  That is harmless: ``ZERO_TOL``, ``NORM_TOL`` and
``FEASIBILITY_TOL`` are all absolute.  The CLI loads this module only for a
state file that holds amplitudes.
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

        # a copy of its own, in C order, that nothing else can write
        arr = _amplitude_array(np.array(entries, dtype=complex, order="C"))
        arr.setflags(write=False)
        self._store(arr)


def _amplitude_array(entries):
    """``entries`` as a complex ``numpy.ndarray``, checked as an amplitude matrix.

    A complex array is checked as it is, without a copy.  Raises
    ``ValueError`` for a shape that is empty or not 2-D, for non-finite
    entries and for |psi|^2 outside ``NORM_TOL``.
    """
    import numpy as np

    arr = np.asarray(entries, dtype=complex)
    if arr.ndim != 2 or 0 in arr.shape:
        raise ValueError(_NOT_A_MATRIX)
    flat = arr.ravel(order="K")  # a view of any contiguous array
    with np.errstate(over="ignore"):  # an entry past ~1e154 squares to inf
        # the sum of the squared parts, by two dot products that allocate
        # nothing; a NaN or infinite entry makes it NaN or inf, so a finite
        # sum has finite entries, and an infinite one of finite entries
        # overflowed
        total = float(flat.real @ flat.real + flat.imag @ flat.imag)
        if not math.isfinite(total) and not np.isfinite(arr).all():
            raise ValueError(_NOT_FINITE)
        # that sum is within a few eps times the entry count of the fsum,
        # far inside NORM_TOL, so only a matrix near or past the bound needs
        # the fsum
        if not abs(total - 1.0) <= NORM_TOL / 2:
            squares = arr.real * arr.real + arr.imag * arr.imag
            _check_normalized(squares.ravel().tolist())
    return arr


# A matrix is decomposed without numpy when its smaller side n is at most
# _SMALL_SIDE and n * rows * cols, which Jacobi's work grows with, is at
# most _SMALL_WORK.  Up to 2^16 Jacobi took at most 55 ms in process for
# every n from 1 to 8 (one core of a 2-vCPU VM, Gaussian entries), less
# than the 75 ms that a cold numpy import adds to a CLI call; at 10^5 it
# took up to 84 ms (n = 7 and 8).  The squarest shapes cross over between
# the two, thinner ones later.
_SMALL_SIDE = 8
_SMALL_WORK = 1 << 16


def schmidt_decompose(m, zero_tol: float = ZERO_TOL) -> SchmidtSpectrum:
    """Schmidt spectrum of a normalized amplitude matrix.

    A matrix whose smaller side n is at most ``_SMALL_SIDE``, and whose
    n * rows * cols is at most ``_SMALL_WORK``, is decomposed in pure Python
    by one-sided Jacobi (:func:`_jacobi_squared_singular_values`).  Any other
    is checked as it is, with no copy, by the check that
    :class:`AmplitudeMatrix` makes, and its squared singular values are
    found as the eigenvalues of its reduced density matrix
    (:func:`_reduced_density_eigenvalues`).  They were within 9e-16 of
    LAPACK's SVD on every matrix tested, but small ones are less accurate
    relative to their size (see the module docstring).  With ``simulate``'s
    pure-Python tally of runs of at most 65536 trials, this keeps numpy out
    of every small CLI call.  The path goes by the shape
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
        entries = m.entries if isinstance(m, AmplitudeMatrix) else _amplitude_array(m)
        squares = _reduced_density_eigenvalues(entries)
    return make_spectrum(squares, zero_tol=zero_tol)


def _small_rows(m):
    """The entries of ``m`` as lists of ``complex`` rows, or None.

    None when the shape of ``m`` passes ``_SMALL_SIDE`` or ``_SMALL_WORK``,
    and when ``m`` is a nested sequence that numpy would not read as a
    matrix of numbers (ragged, or nested deeper), so that numpy reports it.
    A shape that is empty or not 2-D raises ``ValueError``.
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
    side = min(shape)
    if side > _SMALL_SIDE or side * shape[0] * shape[1] > _SMALL_WORK:
        return None
    try:
        return [[complex(v) for v in row] for row in m]
    except TypeError:  # an entry that is not a number
        return None


# Rows of the reduced density matrix per matrix product.  A block's
# conjugated rows are the only copy made of a complex caller's entries.
_BLOCK_ROWS = 64


def _reduced_density_eigenvalues(a) -> list:
    """Squared singular values of the complex array ``a``, clamped at 0.

    They are the eigenvalues of the reduced density matrix A A^H on the
    smaller side, with A a transposed view of ``a`` when that has more rows
    than columns.  A buffer is filled, one block of ``_BLOCK_ROWS`` rows at a
    time, with conj(A A^H), which has the same eigenvalues; only its lower
    triangle is filled, the one ``eigvalsh`` reads.  Rounding leaves
    eigenvalues of about -1e-17 where A is rank-deficient, and
    ``make_spectrum`` rejects negative entries, so they are clamped.
    """
    import numpy as np

    if a.shape[0] > a.shape[1]:
        a = a.T
    n = a.shape[0]
    rho = np.zeros((n, n), dtype=complex)
    i = 0
    while i < n:
        # no block of one row: numpy multiplies that one by gemv, whose
        # rounding depends on the memory layout, and then an array and its
        # transposed copy would not give one spectrum bit for bit
        j = i + _BLOCK_ROWS if n - i > _BLOCK_ROWS + 1 else n
        np.matmul(np.conjugate(a[i:j]), a[:j].T, out=rho[i:j, :j])
        i = j
    w = np.linalg.eigvalsh(rho)
    return np.maximum(w, 0.0, out=w).tolist()


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
    below ``negligible``, and a pair with |g| at most sqrt(m) eps |u_p| |u_q|
    for columns of length m, LAPACK's zgesvj threshold (Z. Drmac and K.
    Veselic, SIAM J. Matrix Anal. Appl. 29, 2008): the rounding of an inner
    product of m terms is about that large, so a smaller |g| is noise, and
    rotations by noise can go on sweep after sweep.
    """
    tol = sys.float_info.epsilon * math.sqrt(len(vectors[0]))
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
            if not size > tol * math.sqrt(a) * math.sqrt(b):
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
