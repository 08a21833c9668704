"""Exact arithmetic on integer ratios: sums, spectra and LU substitutions.

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

The LU substitutions of an exact LP (:class:`ExactLu`) run the same way:
the factorisation keeps U's pivots and entries as (numerator, denominator)
pairs, each solved entry carries its own pair, and an entry's products are
summed by :func:`ratio_dot` with the division by the pivot folded into
that ratio.  So each solved entry becomes a ``Fraction`` once, the same
number as term-by-term ``Fraction`` arithmetic gives (the fraction-free
idea of E. H. Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968, applied
where it changes no value).  The concentration matrix needs no
factorisation at all: its inverse is a second difference
(:class:`TailSumInverse`), solved on integer numerators over one common
denominator.

The module is also the exact arithmetic of ``entmanip.lp``: ``zero``,
``tol``, ``convert``, ``dots``, ``signs`` and ``Lu`` are the names that
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


def tails(s, as_floats=False) -> tuple:
    """``vidal_monotones`` of exact spectrum ``s``, on its integer numerators.

    The tail sums are int running sums, and each is divided by the
    denominator once: into a ``Fraction``, or with ``as_floats`` into the
    float that ``float(E_l)`` is, as int true division rounds correctly.
    """
    nums, den = numerators(s)
    divide = operator.truediv if as_floats else Fraction
    return tuple(map(divide, accumulate(reversed(nums)), repeat(den)))[::-1]


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


def _exact_sub_dot(x_num, x_den, terms, pivot=(1, 1)) -> Fraction:
    """``(x - the sum of the products of the terms) / pivot``, one ``Fraction``.

    x is ``x_num / x_den``, ``terms`` are the ``(a, b, c, d)`` terms of
    :func:`ratio_dot`, each the product of two ratios, and ``pivot`` is a
    ``(numerator, denominator)`` pair.  The sum runs from -x, and the pivot
    division is folded into its ratio.
    """
    num, den = ratio_dot(terms, -x_num, x_den)
    p_num, p_den = pivot
    return Fraction(-num * p_den, den * p_num)


class ExactLu:
    """An exact ``lp._factor`` on integer ratios, and the solves that read it.

    ``ExactLu(steps, u_rows)`` is built from the factorisation's ``steps``
    and ``u_rows``, the nonzero ``(k, u)`` pairs of each row of U; only
    their ratios are kept.  A vector of ratios is held as two sequences,
    numerators and denominators.  ``eliminations[col]`` is the pivot row,
    the eliminated rows and the ratios of their factors; ``rows[col]`` is
    the pivot's ``(numerator, denominator)`` and the ratios of U's row
    right of it, last column first (the order back substitution solves them
    in); ``columns[col]`` the ratios of U's column above it.  Rows and
    columns are dense: a zero entry is a term whose product is skipped.
    The transposed solve reads U by columns, not by rows as the float one
    does: a row sweep would cost one ``ratio_dot`` call per product.
    """

    def __init__(self, steps, u_rows):
        # U as dense integer ratios, a zero as 0/1; an entry is a Fraction
        # or an int (the ints of slack columns)
        size = len(u_rows)
        u_nums, u_dens = [], []
        for pairs in u_rows:
            nums, dens = [0] * size, [1] * size
            for k, u in pairs:
                nums[k], dens[k] = u.as_integer_ratio()
            u_nums.append(nums)
            u_dens.append(dens)
        self.rows = [
            ((nums[col], dens[col]), (nums[:col:-1], dens[:col:-1]))
            for col, (nums, dens) in enumerate(zip(u_nums, u_dens))
        ]
        self.columns = [
            (nums[:col], dens[:col])
            for col, (nums, dens) in enumerate(zip(zip(*u_nums), zip(*u_dens)))
        ]
        self.eliminations = [
            (pivot_row, [r for r, _ in eliminated], _ratios(f for _, f in eliminated))
            if eliminated else (pivot_row, (), ((), ()))
            for pivot_row, eliminated in steps
        ]

    def solve(self, rhs) -> list:
        """Solve B x = rhs; the values are ``Fraction``s.

        The forward eliminations add into each entry's integer ratio, and an
        entry is brought to lowest terms once, when it scales the rows below
        it.  Back substitution makes each solved entry a ``Fraction`` once
        and keeps its ratio, last entry first, for the rows above.
        """
        nums, dens = map(list, _ratios(rhs))
        for col, (pivot_row, targets, (f_nums, f_dens)) in enumerate(self.eliminations):
            for v in (nums, dens):
                v[col], v[pivot_row] = v[pivot_row], v[col]
            if targets and nums[col]:
                g = math.gcd(nums[col], dens[col])
                x_num = nums[col] = nums[col] // g
                x_den = dens[col] = dens[col] // g
                for r, f_num, f_den in zip(targets, f_nums, f_dens):
                    term = (-f_num, f_den, x_num, x_den)
                    nums[r], dens[r] = ratio_dot((term,), nums[r], dens[r])
        x, solved_nums, solved_dens = [], [], []
        for col in reversed(range(len(nums))):
            pivot, (u_nums, u_dens) = self.rows[col]
            terms = zip(u_nums, u_dens, solved_nums, solved_dens)
            value = _exact_sub_dot(nums[col], dens[col], terms, pivot)
            x.append(value)
            num, den = value.as_integer_ratio()
            solved_nums.append(num)
            solved_dens.append(den)
        x.reverse()
        return x

    def solve_transposed(self, rhs) -> list:
        """Solve B^T y = rhs, as the float solve does.

        Forward substitution down the columns of U, then the transposed
        eliminations and the swaps in reverse order; each substitution makes
        one ``Fraction`` and replaces the entry's ratio with its own.
        """
        nums, dens = map(list, _ratios(rhs))
        w = [None] * len(nums)
        for col, ((pivot, _), (c_nums, c_dens)) in enumerate(zip(self.rows, self.columns)):
            # the column above the pivot meets the entries solved before it
            terms = zip(c_nums, c_dens, nums, dens)
            w[col] = _exact_sub_dot(nums[col], dens[col], terms, pivot)
            nums[col], dens[col] = w[col].as_integer_ratio()
        for col in reversed(range(len(w))):
            pivot_row, targets, (f_nums, f_dens) = self.eliminations[col]
            if targets:
                eliminated = map(nums.__getitem__, targets), map(dens.__getitem__, targets)
                terms = zip(f_nums, f_dens, *eliminated)
                w[col] = _exact_sub_dot(nums[col], dens[col], terms)
                nums[col], dens[col] = w[col].as_integer_ratio()
            for v in (w, nums, dens):
                v[col], v[pivot_row] = v[pivot_row], v[col]
        return w


class TailSumInverse:
    """The solves of the exact concentration matrix B, by its inverse.

    Row l of the rank-n matrix holds (j + 1 - l) / j for j >= l, so
    B = S^2 D^-1, with S the upper triangular matrix of ones and
    D = diag(1..n), and B^-1 = D S^-2 has the second difference 1, -2, 1
    on three diagonals.  Each solve puts its right-hand side over one
    common denominator (:func:`over_common_denominator`), takes the second
    differences of the integer numerators, and makes each solved entry one
    ``Fraction``: the values an ``ExactLu`` of B gives, for any rank.

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
Lu = ExactLu


def signs(values):
    """The numerators of exact ``values``.

    A numerator has the sign of its ``Fraction`` and compares with ``tol``
    as an int, several times faster than the ``Fraction`` itself.
    """
    return map(operator.attrgetter("numerator"), values)
