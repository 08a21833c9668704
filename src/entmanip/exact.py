"""Exact arithmetic on integer ratios: sums, spectra and the LP arithmetic.

Only exact work loads this module, and with it ``fractions``: float calls
never do.  It sums an exact spectrum's coefficients and builds the spectrum
of exact ``make_spectrum`` input; the spectrum's sign and order checks are
``SchmidtSpectrum``'s own, one test for both arithmetics.  An exact value
is summed as an integer numerator over the running lcm of the denominators
(:func:`ratio_dot`), made into one ``Fraction`` at the end, which is the
number term-by-term ``Fraction`` addition gives without a gcd per term.

The spectrum that :func:`exact_spectrum` builds holds the pair
``(numerators, den)``, its kept integer numerators and their sum, and
builds no ``Fraction``.  The kernels of one exact spectrum,
:func:`tails` and :func:`plan_probabilities` (the names of the
``entmanip.vector`` passes), work on the numerators (:func:`numerators`)
with int running sums and int differences, and make one ``Fraction`` per
result entry; a value wanted as a float is an int divided by ``den``,
which int true division rounds correctly, so it is the ``float()`` of the
``Fraction`` bit for bit.

The concentration matrix of an exact LP needs no factorisation: its
inverse is a second difference (:class:`TailSumInverse`), solved on
integer numerators over one common denominator.  Any other exact basis
is factored by ``lp``'s own LU, whose substitutions give ``Fraction``s
when handed ``Fraction``s.

The module is also the exact arithmetic of ``entmanip.lp``: ``zero``,
``tol``, ``convert``, ``dots`` and ``signs`` are the names that
``lp._Float`` offers for floats, so the LP kernels read the arithmetic
they are handed without asking which one it is.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import accumulate, repeat

from .schmidt import _ALL_STRIPPED, _NEGATIVE, _NOT_FINITE, SchmidtSpectrum


def integer_ratios(values) -> list:
    """Each value as ``(numerator, denominator)`` in lowest terms.

    The pair is that of ``Fraction(v)``; a ``Fraction``, an int or a float
    gives its own without a conversion.
    """
    own = (Fraction, int, float)
    return [
        v.as_integer_ratio() if type(v) in own else Fraction(v).as_integer_ratio()
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
    ratios = integer_ratios(values)
    return Fraction(*ratio_dot((a, b, 1, 1) for a, b in ratios))


def as_fraction(x) -> Fraction:
    """``x`` as a ``Fraction``, converted exactly; a ``Fraction`` is kept."""
    return x if type(x) is Fraction else Fraction(x)


# ------------------------------------------------------------------ spectra


def exact_spectrum(values: list, zero_tol) -> SchmidtSpectrum:
    """``make_spectrum`` of values, one of them a ``Fraction``.

    The values are tested as ``make_spectrum`` tests floats, ``v >= 0`` in
    turn, a ``Fraction`` by its numerator, which has its sign and compares
    as an int.  Each value is n_i / den over the lcm ``den`` of their
    denominators, and n_i / den > zero_tol = t holds exactly when
    n_i > floor(t * den).
    """
    signs = (v.numerator if type(v) is Fraction else v for v in values)
    if not all(map(operator.ge, signs, repeat(0))):  # NaN fails it too
        raise ValueError(_NEGATIVE)
    try:  # the values are not NaN, so only an infinite one has no ratio
        scaled, den = over_common_denominator(values)
    except OverflowError:
        raise ValueError(_NOT_FINITE) from None
    if math.isfinite(zero_tol):
        ((t_num, t_den),) = integer_ratios([zero_tol])
        floor = max(t_num * den // t_den, 0)
    else:  # -inf strips only zeros; inf and NaN strip everything
        floor = 0 if zero_tol < 0 else math.inf
    kept = sorted((n for n in scaled if n > floor), reverse=True)
    if not kept:
        raise ValueError(_ALL_STRIPPED)
    # positive, nonincreasing and summing to exactly 1 by construction, as
    # the spectrum requires, so it is stored without checking it again, as
    # its numerators over their sum
    return SchmidtSpectrum._of_held("_ratios", (tuple(kept), sum(kept)))


def numerators(s) -> tuple:
    """Exact spectrum ``s`` as ``(numerators, den)``: coefficient i is numerators[i] / den.

    A spectrum that :func:`exact_spectrum` built holds this pair, ``den``
    the sum of the numerators.  Another one (built by the constructor, or
    unpickled) has its coefficients put over their common denominator for
    the call, as ``vector.coefficients`` converts a tuple-held float
    spectrum.
    """
    return s.__dict__.get("_ratios") or over_common_denominator(s.coeffs)


def tails(s) -> tuple:
    """``vidal_monotones`` of exact spectrum ``s``, on its integer numerators.

    The tail sums are int running sums, each made one ``Fraction`` over
    the denominator.  A caller that wants floats takes ``float()`` of
    each, the bits the int sum divided by the denominator gives, as both
    divisions round correctly.
    """
    nums, den = numerators(s)
    return tuple(map(Fraction, accumulate(reversed(nums)), repeat(den)))[::-1]


def plan_probabilities(s) -> tuple:
    """``optimal_plan`` of exact spectrum ``s``: its probabilities and their ln j average.

    Level j gets the int j (n_j - n_{j+1}) over the denominator, made one
    ``Fraction``; the average takes p_j as that int divided by the
    denominator, the ``float(p_j)`` bits, times ``math.log(j)``, summed by
    ``math.fsum`` over j >= 2.
    """
    nums, den = numerators(s)
    levels = range(1, len(nums) + 1)
    x = list(map(operator.mul, levels, map(operator.sub, nums, [*nums[1:], 0])))
    p = map(operator.truediv, x[1:], repeat(den))
    expected = math.fsum(map(operator.mul, p, map(math.log, levels[1:])))
    return tuple(map(Fraction, x, repeat(den))), expected


# ---------------------------------------------------------------- LP kernels


def _ratios(values) -> tuple:
    """The numerators and the denominators of exact ``values``, two tuples."""
    return tuple(zip(*integer_ratios(values))) or ((), ())


def dots(rows, vector) -> list:
    """The dot product of each row with ``vector``, each a ``Fraction``.

    The products are summed on integer ratios by :func:`ratio_dot`, with
    the vector's ratios taken once for all rows.
    """
    v_nums, v_dens = _ratios(vector)
    return [Fraction(*ratio_dot(zip(*_ratios(row), v_nums, v_dens))) for row in rows]


class TailSumInverse:
    """The solves of the exact concentration matrix B, by its inverse.

    Row l of the rank-n matrix holds (j + 1 - l) / j for j >= l, so
    B = S^2 D^-1, with S the upper triangular matrix of ones and
    D = diag(1..n), and B^-1 = D S^-2 has the second difference 1, -2, 1
    on three diagonals.  Each solve puts its right-hand side over one
    common denominator (:func:`over_common_denominator`), takes the second
    differences of the integer numerators, and makes each solved entry one
    ``Fraction``: the values an exact LU of B gives, for any rank.

    An inverse is made for one rank n with that rank's ``ln_weights``, ln j
    for j = 1..n as ``Fraction``s, the objective of every exact
    ``concentration_lp`` with default weights, and solves their duals
    y = B^-T c once, as ``ln_duals``.  :meth:`solve_transposed` hands those
    back for the ``ln_weights`` tuple itself, found by identity; any other
    right-hand side, equal weights in another tuple included, is solved.
    """

    def __init__(self, ln_weights):
        self.ln_weights = ln_weights
        # a copy, which the identity test does not take for the weights
        self.ln_duals = tuple(self.solve_transposed(list(ln_weights)))

    @staticmethod
    def solve(rhs) -> list:
        """B x = q: x_j = j (q_j - 2 q_{j+1} + q_{j+2}), q zero past row n."""
        q, den = over_common_denominator(rhs)
        q += (0, 0)
        return [
            Fraction(j * (a - 2 * b + c), den)
            for j, a, b, c in zip(range(1, len(q) - 1), q, q[1:], q[2:])
        ]

    def solve_transposed(self, rhs) -> list:
        """B^T y = c: y_l = f(l) - 2 f(l-1) + f(l-2), f(j) = j c_j, f(<1) = 0."""
        if rhs is self.ln_weights:
            return list(self.ln_duals)
        c, den = over_common_denominator(rhs)
        f = [0, 0, *map(operator.mul, range(1, len(c) + 1), c)]
        return [Fraction(a - 2 * b + d, den) for a, b, d in zip(f[2:], f[1:], f)]


# ------------------------------------------------------------ the arithmetic
# The names ``lp`` reads of an arithmetic, as ``lp._Float`` offers them for
# floats; ``dots`` is above.

zero = Fraction(0)
tol = 0
convert = as_fraction


def signs(values):
    """The numerators of exact ``values``.

    A numerator has the sign of its ``Fraction`` and compares with ``tol``
    as an int, several times faster than the ``Fraction`` itself.
    """
    return map(operator.attrgetter("numerator"), values)
