"""Schmidt spectra of bipartite pure states.

A bipartite pure state is fully characterised, up to local unitaries, by its
ordered Schmidt spectrum: the nonincreasing list of squared Schmidt
coefficients.  Everything downstream (monotones, measurement protocols,
concentration plans) works on that spectrum, so this module owns its
construction and validation.  Spectra of amplitude matrices are taken in
``entmanip.amplitudes``.

Spectra normally hold floats.  A spectrum given any ``fractions.Fraction``
entry is exact: every entry is then stored as a ``Fraction`` and
normalisation is exact; the LP layer uses this for certifying saturation
identities without floating-point doubt.  Both arithmetics take one path
wherever the number type does not change the result: the constructor
tests sign and order once, on the values as given (a ``Fraction``
compares with a float exactly), and only the sum differs.  Exact values
are summed on integer ratios by the kernels of ``entmanip.exact``, which
only exact values load, so float work never loads ``fractions``.
:func:`make_spectrum` stores what it builds without the constructor's
checks, since it builds only valid spectra; a float coefficient that its
normalisation underflows to 0 is dropped.  An exact spectrum that it
builds is held as its integer numerators over one denominator, their sum,
from which every exact kernel works (:func:`exact_passes`) with int sums
and differences, one ``Fraction`` per result entry; its ``coeffs`` tuple
is made only when code reads it, and the readers that want floats divide
the numerators (:func:`float_coefficients`).

Large float spectra take numpy passes, in ``entmanip.vector``, as exact
ones take integer-ratio kernels: :func:`vector_sized` sends a float kernel
over ``VECTOR_RANK`` or more values there once numpy is loaded, reading
``sys.modules`` as :func:`fraction_among` does, so no call imports numpy
for a spectrum.  The passes give the scalar results bit for bit.  Here
:func:`make_spectrum` takes them when every entry is a plain ``float``;
both paths share the residual fold that makes the result sum to exactly
1.0.  A spectrum built by the passes keeps their float64 array as its
storage, 8 bytes a coefficient where a tuple of floats takes about 32,
and the kernels read that array, so it is converted once, when it is
built; its ``coeffs`` tuple is made only when code reads it.
"""

from __future__ import annotations

import math
import operator
import sys
from itertools import repeat, zip_longest

NORM_TOL = 1e-9
ZERO_TOL = 1e-12
# The rank from which float kernels take numpy passes, once numpy is loaded;
# below it the scalar code costs as much.
VECTOR_RANK = 256

__all__ = [
    "NORM_TOL",
    "ZERO_TOL",
    "SchmidtSpectrum",
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
    return fraction_among(set(map(type, values)))


def fraction_among(kinds) -> bool:
    """Whether one of the types ``kinds`` is ``Fraction``, or derives from it.

    The rule of :func:`holds_fraction`, for a caller that holds the set of
    entry types already.
    """
    fractions = sys.modules.get("fractions")
    if fractions is None:
        return False
    return any(issubclass(kind, fractions.Fraction) for kind in kinds)


def vector_sized(n: int) -> bool:
    """Whether a float kernel over ``n`` values takes numpy passes.

    It does from ``VECTOR_RANK`` values on, and only when numpy is loaded
    already: like :func:`fraction_among` for ``fractions``, this reads
    ``sys.modules``, so no call imports numpy for a spectrum.  Each kernel
    adds its own test that its values are floats; the passes are in
    ``entmanip.vector``.
    """
    return n >= VECTOR_RANK and sys.modules.get("numpy") is not None


def numpy_passes(spectra, tol: float = 0.0):
    """The ``vector`` module if kernels over ``spectra`` take numpy, else None.

    They do when every spectrum is float (held as an array, or its first
    coefficient a plain float, which an exact spectrum's never is), the
    tolerance is a float and the largest rank is :func:`vector_sized`.
    """
    floats = type(tol) is float and all(
        "_array" in s.__dict__
        or ("_ratios" not in s.__dict__ and type(s.coeffs[0]) is float)
        for s in spectra
    )
    if floats and vector_sized(max(s.rank for s in spectra)):
        from . import vector

        return vector
    return None


def exact_passes(s):
    """The ``exact`` module if spectrum ``s`` is exact, else None.

    A kernel over one spectrum hands an exact one to the passes of
    ``entmanip.exact``, which read its integer numerators, and a float one
    to :func:`numpy_passes`.  A spectrum that holds its numerators is exact
    without a look at its ``coeffs``; another is exact when its first
    coefficient is a ``Fraction``.
    """
    held = s.__dict__
    if "_ratios" in held or ("_array" not in held and holds_fraction(s.coeffs[:1])):
        from . import exact

        return exact
    return None


def float_coefficients(s):
    """The coefficients of spectrum ``s`` as floats, a sequence.

    An exact spectrum's are its integer numerators divided by their
    denominator, the bits ``float(a)`` gives, as int true division rounds
    correctly; ``coeffs`` is not built for them.
    """
    ex = exact_passes(s)
    if ex is None:
        return s.coeffs
    numerators, den = ex.numerators(s)
    return [n / den for n in numerators]


class FailedCheck(Exception):
    """The library could not certify an answer.

    A solve that gives up, or a measurement that does not resolve the
    state, raises a subclass that also derives from the built-in exception
    its callers catch.  The CLI maps every one to exit 3.
    """


class Frozen:
    """Base of the immutable value types.

    A subclass names its fields, in constructor order, in ``_fields`` and
    stores them once with :meth:`_store`.  Equality (same class, equal
    fields), hashing and the ``Name(field=value, ...)`` repr go by those
    fields; assigning or deleting any attribute raises ``AttributeError``.
    Values live in the instance ``__dict__``, so ``pickle`` and ``copy``
    work as for any plain object.

    A subclass may name in ``_held_field`` one field that an instance can
    hold in a compact form, stored under its own key in the instance dict
    (see :meth:`_of_held`): a field of floats as one read-only float64
    array, ``_array``, at 8 bytes a value where a tuple of floats takes
    about 32, or another form that the subclass's :meth:`_unpacked` reads.
    The field is built from that form when code first reads it, and is
    then kept.  Such an instance is equal to, hashes and prints as, and
    pickles and copies as the one that holds the tuple.
    """

    _fields = ()
    _held_field = None

    def _store(self, *values):
        self.__dict__.update(zip(self._fields, values))

    @classmethod
    def _of(cls, *values):
        """An instance holding ``values``, stored without ``__init__``'s checks."""
        obj = object.__new__(cls)
        obj._store(*values)
        return obj

    @classmethod
    def _of_held(cls, key, held, *values):
        """An instance holding ``_held_field`` as ``held`` under ``key``, unchecked.

        ``values`` are the other fields, in order; ``held`` is the field's
        compact form, such as a read-only float64 array under ``_array``.
        """
        obj = object.__new__(cls)
        others = (name for name in cls._fields if name != cls._held_field)
        obj.__dict__.update(zip(others, values), **{key: held})
        return obj

    def __getattr__(self, name):
        # reached only for a name that is not in the instance dict: the
        # held field, on its first read
        value = self._unpacked() if name == self._held_field else None
        if value is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__[name] = value
        return value

    def _unpacked(self):
        """The held field as a tuple, built from its compact form; None if none is held."""
        array = self.__dict__.get("_array")
        return None if array is None else tuple(memoryview(array))

    def __getstate__(self):
        # pickled and copied by its fields, an array-held one as its tuple,
        # without numpy
        return dict(zip(self._fields, self._values()))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

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


class SchmidtSpectrum(Frozen):
    """Ordered, normalized squared Schmidt coefficients.

    Invariants: nonincreasing, strictly positive entries summing to 1 within
    ``NORM_TOL``.  Trailing zeros are never stored; the rank equals the
    number of entries.  The constructor checks sign and order by one test
    on the values as given, for float and exact values alike; then
    coefficients that hold a ``Fraction`` are stored as ``Fraction``s and
    summed exactly, and float ones are summed by ``math.fsum``.  Use
    :func:`make_spectrum` or ``amplitudes.schmidt_decompose`` to build
    instances.

    A float spectrum that :func:`make_spectrum` builds by numpy passes
    holds ``coeffs`` as a read-only float64 array (see :class:`Frozen`),
    which the numpy kernels read; an exact one that it builds holds them as
    ``_ratios``, the pair ``(numerators, den)`` of its kept integer
    numerators, nonincreasing, and their sum, which the exact kernels read.
    Either way ``coeffs`` is built when code reads it, coefficient i as
    ``Fraction(numerators[i], den)`` from the pair.
    """

    _fields = ("coeffs",)
    _held_field = "coeffs"

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("spectrum must have at least one coefficient")
        # One pass each, in positive form so that a NaN anywhere fails it,
        # and a Fraction compares with a float exactly.  A nonincreasing run
        # whose last entry is positive is positive throughout, so the sign
        # test runs only on failure, to pick the message.
        if not (all(map(operator.ge, coeffs, coeffs[1:])) and coeffs[-1] > 0):
            if not all(map(operator.gt, coeffs, repeat(0))):
                raise ValueError("spectrum coefficients must be strictly positive")
            raise ValueError("spectrum coefficients must be nonincreasing")
        # ordered, so only the first entry can be infinite; a Fraction beside
        # it then sums as a float, to inf
        if holds_fraction(coeffs) and coeffs[0] < math.inf:
            from . import exact

            coeffs = tuple(map(exact.as_fraction, coeffs))
            total = exact.exact_sum(coeffs)
        else:
            total = fsum_or_inf(coeffs)
        if not abs(total - 1) <= NORM_TOL:
            raise ValueError(f"spectrum is not normalized: sum = {total!r}")
        self._store(coeffs)

    def _unpacked(self):
        ratios = self.__dict__.get("_ratios")
        if ratios is None:
            return super()._unpacked()
        from fractions import Fraction

        numerators, den = ratios
        return tuple(map(Fraction, numerators, repeat(den)))

    @property
    def rank(self) -> int:
        """Number of nonzero Schmidt coefficients."""
        held = self.__dict__
        if "_ratios" in held:
            return len(held["_ratios"][0])
        return len(held["_array"] if "_array" in held else self.coeffs)

    @property
    def norm_residual(self):
        """|sum of the coefficients - 1|, derived when read, not stored.

        An exact spectrum's is exact, its integer numerators' sum minus
        their denominator, over that denominator: 0 for every spectrum
        that :func:`make_spectrum` builds.  A float spectrum's is
        ``abs(math.fsum(coeffs) - 1.0)``, summed through a ``memoryview``
        of an array-held one.  The constructor accepts a spectrum whose
        residual is at most ``NORM_TOL``.
        """
        ex = exact_passes(self)
        if ex:
            numerators, den = ex.numerators(self)
            return ex.Fraction(abs(sum(numerators) - den), den)
        array = self.__dict__.get("_array")
        return abs(math.fsum(self.coeffs if array is None else memoryview(array)) - 1.0)


def fsum_or_inf(values) -> float:
    """``math.fsum(values)``, or inf where it raises ``OverflowError``.

    fsum raises it on an int or ``Fraction`` past the float range and on
    partial sums that overflow; a caller that then tests the total against
    1 raises its own ``ValueError``.
    """
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


_ALL_STRIPPED = "all coefficients are zero (or below zero_tol)"
_NEGATIVE = "coefficients must be nonnegative numbers"
_NOT_FINITE = "coefficients must have a finite sum"


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
    already-valid spectra.  A float coefficient that the division by the sum
    underflows to 0 (1e-300 beside 1e300) is dropped, whatever ``zero_tol``
    is, as a spectrum holds no zero.  Either result is positive,
    nonincreasing and normalised by construction, and is stored without
    the constructor's checks.  Input of ``VECTOR_RANK`` or more plain
    floats is sorted, stripped and divided by numpy passes once numpy is
    loaded, to the same bits, and the spectrum holds their read-only
    float64 array (see :class:`SchmidtSpectrum`).

    Raises ``ValueError`` on negative or NaN entries, on a sum that is not
    finite, or when nothing survives the zero stripping.
    """
    values = list(raw)
    if not values:
        raise ValueError("empty coefficient list")
    kinds = set(map(type, values))
    if kinds == {float} and vector_sized(len(values)):
        from . import vector

        return SchmidtSpectrum._of_held("_array", vector.normalised(values, zero_tol))
    if fraction_among(kinds):
        from . import exact

        return exact.exact_spectrum(values, zero_tol)
    if not all(map(operator.ge, values, repeat(0))):  # NaN fails it too
        raise ValueError(_NEGATIVE)
    try:
        values = list(map(float, values))
    except OverflowError:  # an int past the float range
        raise ValueError(_NOT_FINITE) from None
    if not math.isfinite(sum(values)):
        raise ValueError(_NOT_FINITE)
    values.sort(reverse=True)
    # the test is monotone in v, so the entries that fail it are a suffix
    while values and not (values[-1] > zero_tol and values[-1] > 0):
        values.pop()
    if not values:
        raise ValueError(_ALL_STRIPPED)
    total = math.fsum(values)
    values = [v / total for v in values]
    while not values[-1]:  # underflowed in the division; values[0] >= 1/len
        values.pop()
    _fold(values, values)
    values.sort(reverse=True)  # an eps correction may reorder ties
    # positive, nonincreasing and summing to 1 by construction, as the
    # spectrum requires, so it is stored without checking it again
    return SchmidtSpectrum._of(tuple(values))


def _fold(values, entries) -> None:
    """Fold the rounding residual into ``values[0]``: ``math.fsum(entries)`` is 1.0.

    ``values`` are nonincreasing, positive and sum to 1 within eps;
    ``entries`` iterates over them, the list itself or a memoryview of an
    array.  The correction is O(eps) and the largest entry is at least
    1/len(values), so it stays positive; lowering it can put it below
    ``values[1]``, and nothing else moves.
    """
    for _ in range(4):
        residual = math.fsum(entries) - 1.0
        if residual == 0.0:
            break
        values[0] -= residual


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


def entropy(s: SchmidtSpectrum) -> float:
    """Entanglement entropy of a spectrum in nats (0*ln 0 := 0).

    An exact spectrum is converted to floats once, from its numerators
    (:func:`float_coefficients`): a ``Fraction`` times a float is
    ``float(a)`` times it, so the bits are the same.  A coefficient below
    the float range is 0.0 there, and its term is 0.
    """
    return -math.fsum(a * math.log(a) for a in float_coefficients(s) if a)
