"""Schmidt spectra of bipartite pure states.

A bipartite pure state is fully characterised, up to local unitaries, by its
ordered Schmidt spectrum: the nonincreasing list of squared Schmidt
coefficients.  Everything downstream (monotones, measurement protocols,
concentration plans) works on that spectrum, so this module owns its
construction and validation.

Spectra normally hold floats.  A spectrum given any ``fractions.Fraction``
entry is exact: every entry is then stored as a ``Fraction`` and
normalisation is exact; the LP layer uses this for certifying saturation
identities without floating-point doubt.  Exact values are summed on
integer ratios (:func:`ratio_dot`): an integer numerator over the running
lcm of the denominators, made into one ``Fraction`` at the end, which is
the number term-by-term ``Fraction`` addition gives without a gcd per
term.  Float work never loads ``fractions``: the exact helpers import it
where they need it.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from itertools import chain, repeat, zip_longest

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
    instance check.  No ``Fraction`` can exist before ``fractions`` is
    loaded, so until then the answer is False without a scan.
    """
    fractions = sys.modules.get("fractions")
    if fractions is None:
        return False
    return any(issubclass(kind, fractions.Fraction) for kind in set(map(type, values)))


def integer_ratios(values) -> list:
    """Each value as ``(numerator, denominator)`` in lowest terms.

    The pair is that of ``Fraction(v)``; a ``Fraction``, an int or a float
    gives its own without a conversion.
    """
    import fractions  # in a function, a from-import costs about ten times as much

    own = (fractions.Fraction, int, float)
    return [
        v.as_integer_ratio() if type(v) in own
        else fractions.Fraction(v).as_integer_ratio()
        for v in values
    ]


def ratio_dot(terms, num=0, den=1) -> tuple:
    """``num / den`` plus the sum of ``(a / b) * (c / d)`` over ``(a, b, c, d)``.

    The terms are ints with b, d > 0; a plain sum passes c = d = 1.  The
    sum is an integer numerator over the running lcm of the product
    denominators: a product whose denominator divides it costs one
    multiplication and one addition, and no term takes the gcd of a
    numerator.  Returns ``(num, den)``, not in lowest terms;
    ``Fraction(num, den)`` is the number that adding the products as
    ``Fraction``s gives.
    """
    gcd = math.gcd
    for a, b, c, d in terms:
        p = a * c
        if p:
            q = b * d
            g = gcd(den, q)
            if g == q:
                num += p * (den // q)
            else:
                q //= g
                num = num * q + p * (den // g)
                den *= q
    return num, den


def over_common_denominator(values) -> tuple:
    """Exact values as integer numerators over one denominator.

    Returns ``(numerators, den)``, ``den`` the lcm of the values'
    denominators, so that value i is ``numerators[i] / den`` exactly.
    """
    nums, dens = zip(*integer_ratios(values))
    den = math.lcm(*dens)
    return [n * (den // d) for n, d in zip(nums, dens)], den


def exact_sum(values) -> Fraction:
    """The exact sum of real numbers (``Fraction``s, ints, ...) as a ``Fraction``.

    Always a ``Fraction``, ``Fraction(0)`` for no values.
    """
    from fractions import Fraction

    ratios = integer_ratios(values)
    return Fraction(*ratio_dot((a, b, 1, 1) for a, b in ratios))


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


class Frozen:
    """Base of the immutable value types.

    A subclass names its fields, in constructor order, in ``_fields`` and
    stores them once with :meth:`_store`.  Equality (same class, equal
    fields), hashing and the ``Name(field=value, ...)`` repr go by those
    fields; assigning or deleting any attribute raises ``AttributeError``.
    Values live in the instance ``__dict__``, so ``pickle`` and ``copy``
    work as for any plain object.
    """

    _fields = ()

    def _store(self, *values):
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = map("{}={!r}".format, self._fields, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"


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

        arr = np.array(entries, dtype=complex)
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


class SchmidtSpectrum(Frozen):
    """Ordered, normalized squared Schmidt coefficients.

    Invariants: nonincreasing, strictly positive entries summing to 1 within
    ``NORM_TOL``.  Trailing zeros are never stored; the rank equals the
    number of entries.  Coefficients that hold a ``Fraction`` are stored as
    ``Fraction``s and summed exactly.  Use :func:`make_spectrum` or
    :func:`schmidt_decompose` to build instances.
    """

    _fields = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("spectrum must have at least one coefficient")
        if holds_fraction(coeffs):
            coeffs, total = _as_exact(coeffs)
        else:
            check_positive_nonincreasing(coeffs, "spectrum coefficients")
            total = math.fsum(coeffs)
        if not abs(total - 1) <= NORM_TOL:
            raise ValueError(f"spectrum is not normalized: sum = {total!r}")
        self._store(coeffs)

    @classmethod
    def _of_exact(cls, coeffs: tuple):
        """The spectrum of ``Fraction``s that are positive, nonincreasing
        and sum to exactly 1 by construction, stored without checking them
        again."""
        spectrum = object.__new__(cls)
        spectrum._store(coeffs)
        return spectrum

    @property
    def rank(self) -> int:
        """Number of nonzero Schmidt coefficients."""
        return len(self.coeffs)


def _as_exact(coeffs: tuple) -> tuple:
    """Spectrum coefficients, one of them a ``Fraction``, as ``Fraction``s,
    with their exact sum.

    They are checked positive and nonincreasing on their integer numerators
    over one common denominator, which order as the values do without a
    ``Fraction`` comparison per pair.  A NaN or an infinity has no
    numerator: the values are then checked as they are, and come back
    unconverted with an infinite sum.
    """
    from fractions import Fraction

    try:
        nums, den = over_common_denominator(coeffs)
    except (ValueError, OverflowError):
        check_positive_nonincreasing(coeffs, "spectrum coefficients")
        return coeffs, math.inf
    check_positive_nonincreasing(nums, "spectrum coefficients")
    exact = tuple(v if type(v) is Fraction else Fraction(v) for v in coeffs)
    return exact, Fraction(sum(nums), den)


_ALL_STRIPPED = "all coefficients are zero (or below zero_tol)"


def make_spectrum(raw, zero_tol: float = ZERO_TOL) -> SchmidtSpectrum:
    """Build a valid spectrum from raw nonnegative weights.

    Sorts nonincreasing (stable, so ties keep their input order), drops
    entries below ``zero_tol``, and renormalizes.  Input holding any
    ``Fraction`` is exact: its entries are converted to ``Fraction`` and the
    result sums to exactly 1.  It is computed over one common denominator:
    the entries' integer numerators over it are sorted, stripped and
    totalled, and entry i of the result is ``Fraction(n_i, total)``.  For
    float input the normalization is corrected to make ``math.fsum`` of the
    result exactly 1.0, which makes the function idempotent on
    already-valid spectra.

    Raises ``ValueError`` on negative or NaN entries, on a sum that is not
    finite, or when nothing survives the zero stripping.
    """
    values = list(raw)
    if not values:
        raise ValueError("empty coefficient list")
    if not all(map(operator.ge, values, repeat(0))):  # NaN fails it too
        raise ValueError("coefficients must be nonnegative numbers")

    if holds_fraction(values):
        return _exact_spectrum(values, zero_tol)
    values = list(map(float, values))
    if not math.isfinite(sum(values)):
        raise ValueError("coefficients must have a finite sum")
    values.sort(reverse=True)
    # the test is monotone in v, so the entries that fail it are a suffix
    while values and not (values[-1] > zero_tol and values[-1] > 0):
        values.pop()
    if not values:
        raise ValueError(_ALL_STRIPPED)
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


def _exact_spectrum(values: list, zero_tol) -> SchmidtSpectrum:
    """``make_spectrum`` of checked nonnegative values, one of them a ``Fraction``.

    Each value is n_i / den over the lcm ``den`` of their denominators, and
    n_i / den > zero_tol = t holds exactly when n_i > floor(t * den).
    """
    from fractions import Fraction

    try:  # the values are not NaN, so only an infinite one has no ratio
        scaled, den = over_common_denominator(values)
    except OverflowError:
        raise ValueError("coefficients must have a finite sum") from None
    if math.isfinite(zero_tol):
        ((t_num, t_den),) = integer_ratios([zero_tol])
        floor = max(t_num * den // t_den, 0)
    else:  # -inf strips only zeros; inf and NaN strip everything
        floor = 0 if zero_tol < 0 else math.inf
    kept = sorted((n for n in scaled if n > floor), reverse=True)
    if not kept:
        raise ValueError(_ALL_STRIPPED)
    # positive, nonincreasing and summing to exactly 1, as the spectrum requires
    return SchmidtSpectrum._of_exact(tuple(map(Fraction, kept, repeat(sum(kept)))))


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


# Jacobi sweeps at most, as in LAPACK's zgesvj; a full-rank input converges
# in far fewer, and the rank-deficient ones that go on rotate only columns
# of rounding noise, which leaves the rest of the spectrum as it is.
_MAX_SWEEPS = 30


def _jacobi_squared_singular_values(vectors: list) -> list:
    """Squared singular values of the matrix whose columns are ``vectors``.

    One-sided (Hestenes) Jacobi: each pair of columns (u_p, u_q) is rotated
    until it is orthogonal to working precision, and then the squared
    singular values are the squared column norms.  Its singular values are
    at least as accurate as bidiagonal QR's (J. Demmel and K. Veselic,
    "Jacobi's method is more accurate than QR", SIAM J. Matrix Anal. Appl.
    13, 1992).  With a = |u_p|^2, b = |u_q|^2 and g = u_p^H u_q, the
    rotation has tangent t, the smaller root of t^2 + 2 zeta t = 1 with
    zeta = (b - a) / (2|g|), and takes the norms to a - t|g| and b + t|g|.
    Those updated norms are kept, not summed again from columns that carry
    every rotation's rounding, which makes them the more accurate; only a
    norm that cancellation has at least halved is summed again.  The phase
    w = g/|g| enters only through the sine, so an inexact phase (a
    subnormal |g|) cannot change the column norms, and a rotation whose
    tangent underflows to 0 is skipped.  The columns are modified in place.
    """
    eps = sys.float_info.epsilon
    n = len(vectors)
    norms = [_squared_norm(v) for v in vectors]
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                up, uq = vectors[p], vectors[q]
                a, b = norms[p], norms[q]
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
        if not rotated:
            break
    return norms


def _squared_norm(v) -> float:
    return math.fsum(z.real * z.real + z.imag * z.imag for z in v)


def entropy(s: SchmidtSpectrum) -> float:
    """Entanglement entropy of a spectrum in nats (0*ln 0 := 0)."""
    return -math.fsum(float(a) * math.log(float(a)) for a in s.coeffs)
