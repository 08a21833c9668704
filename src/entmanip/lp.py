"""Self-contained dense simplex solver for small inequality-form LPs.

Solves  maximize c.x  subject to  B x <= q,  x >= 0  on dense tableaus with
Bland's anti-cycling pivot rule.  Instances here are small (at most a few
hundred variables), so the implementation favours determinism and
auditability: plain Python lists, ``math.fsum`` for the dot products that
matter, and an exact-rational mode that reruns the identical pivot logic
over ``fractions.Fraction`` so saturation identities can be certified
without floating-point doubt.

Each problem has one arithmetic, fixed when it is built: a problem that
holds any ``Fraction`` is exact, and every entry is stored as a
``Fraction`` (floats and ints are converted exactly); any other problem
stores floats.  Each public call looks the arithmetic up once and hands
it to the kernels it runs as a namespace, ``_Float`` or the ``exact``
module, and both offer the same names: ``zero``, ``tol`` (``PIVOT_TOL``,
or 0), ``convert`` (a real number into the arithmetic, which returns a
float or a ``Fraction`` of its own arithmetic as it is), ``dots`` (dot
products: ``math.fsum``, or sums on integer ratios) and ``signs``
(numbers with the values' signs: the floats themselves, or the
numerators, ints that compare several times faster than ``Fraction``s).
So a float call never loads ``exact`` or ``fractions``, and an exact one
imports ``exact`` once.  A claimed solution is converted into the
problem's arithmetic before it is checked.  The solver solves a problem
in its own arithmetic, and lifts a float problem to ``Fraction``s only
when asked to; it never lowers an exact problem to floats.

The tableau is stored densely but updated sparsely: a pivot visits only
the nonzero columns of the pivot row and only the rows with a nonzero
factor.  Skipped entries would be updated by ``x - factor * 0``, so the
results are the same number for number as a full sweep, at a fraction of
the cost on the sparse tableaus the concentration LPs produce.  The one
routine serves float and exact mode alike.  So does the LU factorisation
below and its :class:`Lu`: its substitutions subtract products one by
one and divide by the pivot, plain arithmetic that gives floats on
floats and the exact ``Fraction``s on ``Fraction``s.

Square problems (as many constraints as variables) are first given a
crash check of the all-structural basis (R. E. Bixby, "Implementing the
simplex method: the initial basis", ORSA J. Computing 4(3), 1992): B is
factored, and if B^-1 q and the duals B^-T c are nonnegative, that basis
is returned without a pivot.  The concentration LPs of weights with
c_1 >= 0 and j c_j convex (ln, log2) are settled this way.  Otherwise the
pivots start from the slack basis exactly as if no check had been made;
the check never hands the pivots a starting basis of its own.

B is not factored per problem when its matrix is shared.  A shared
matrix is one held by :func:`_shared_matrix`: ``concentration_lp`` keeps
the matrix of each rank and arithmetic there, and every problem it builds
at that rank holds that very tuple as its ``constraint_matrix``, stored
by ``LpProblem._of_matrix`` without a second check of its entries, which
were checked when they were built.  Its solves are kept with it, for the
crash check of every later problem and for ``verify.verify_solution`` of
an all-structural basis.  An exact concentration matrix is held with its
closed-form inverse (``exact.TailSumInverse``, second differences on
integer numerators), made when the matrix is built, so no exact LU is
ever made for it; the inverse holds the rank's ln weights as
``Fraction``s, the objective of every default-weight exact
``concentration_lp`` of that rank, and their duals, which the crash check
finds by identity.  A float matrix is held with its LU, factored once
when first needed.  The entries held are bounded by
``_SHARED_ENTRIES``; the least recently used matrix goes first, with
what is held beside it.  Other matrices, user-built ones and
the ``Fraction`` rows of an ``exact=True`` lift included, are new tuples
(``LpProblem`` converts every vector it is given), so they are factored
afresh each time and add nothing.  The held solves are functions of the
matrix alone, and an exact solution is unique, so every result is the
same, float for float and ``Fraction`` for ``Fraction``.

A basis is evaluated in one place, :func:`_basis_point`, for the crash
check and for ``entmanip.verify``, which checks a claimed optimum from its
stated basis; it is the one reader of the solves held with shared
matrices.  It factors B (partial pivoting: the pivot is sought among the
column's nonzero entries, only those rows are eliminated, over the pivot
row's nonzeros, and the float singularity test reads a per-row magnitude
bound instead of rescanning rows), or reads the held solves, and answers
B x = q and B^T y = c_B from that one factorisation or inverse, by sparse
triangular substitution or by second differences.
The LU solves read U by its rows only: B^T y = c_B subtracts each
solved entry, times its row of U, from the entries right of it.  On the
triangular bases of the concentration LPs the factorisation does no
elimination and compares no magnitudes at all.
"""

from __future__ import annotations

import math
import numbers
import operator
from itertools import chain, compress

from .schmidt import FailedCheck, Frozen, fraction_among

PIVOT_TOL = 1e-11
_MAX_PIVOTS_FACTOR = 64
# The bound on the entries (n^2 for an n x n matrix) of the shared
# matrices held at once.  A float entry and its share of the LU take about
# 60 B, so at most about 8 MB of float matrices are held.  An exact matrix
# holds its rows (about 35 B an entry, its zeros one shared object) and a
# closed-form inverse, no LU, which holds the rank's ln weights and their
# duals, O(n) Fractions: at most about 5 MB.
_SHARED_ENTRIES = 1 << 17

__all__ = [
    "PIVOT_TOL",
    "LpProblem",
    "LpSolution",
    "simplex_solve",
]


class LpProblem(Frozen):
    """maximize objective.x  s.t.  constraint_matrix x <= bounds, x >= 0.

    Entries must be real numbers (``numbers.Real``: ints, floats,
    ``Fraction``s); anything else, a numeric string included, raises
    ``ValueError``.  If any entry is a ``Fraction`` the problem is exact
    and stores every entry as a ``Fraction``; otherwise it stores floats.
    ``exact`` tells which, so every kernel computes in one arithmetic.
    One scan of the entry types decides it, and every vector (the
    objective, each row, the bounds) is converted into that arithmetic: a
    float or a ``Fraction`` converts to itself, so no value changes.
    Dimensions and the finiteness of every entry are validated, the sign
    of the bounds is not (concentration instances always have nonnegative
    bounds, and the solver guards the rest).
    """

    _fields = ("objective", "constraint_matrix", "bounds")

    def __init__(self, objective, constraint_matrix, bounds):
        objective = tuple(objective)
        matrix = tuple(tuple(row) for row in constraint_matrix)
        bounds = tuple(bounds)
        if not objective:
            raise ValueError("objective must have at least one coefficient")
        if len(matrix) != len(bounds):
            raise ValueError("constraint matrix and bounds disagree on row count")
        for row in matrix:
            if len(row) != len(objective):
                raise ValueError("constraint row length must match variable count")
        (objective,), matrix, (bounds,) = _checked(
            objective=(objective,), constraint_matrix=matrix, bounds=(bounds,)
        )
        self._store(objective, matrix, bounds)

    @classmethod
    def _of_matrix(cls, objective, matrix, bounds):
        """A problem that holds ``matrix`` itself, without checking it.

        ``matrix`` is a tuple of row tuples, one per bound and each as long
        as the objective, whose entries are finite numbers of the arithmetic
        that the objective and the bounds decide, such as the rows
        ``_shared_matrix`` holds.  The objective and the bounds are checked
        and converted by the rules of ``__init__``.
        """
        (objective,), (bounds,) = _checked(objective=(objective,), bounds=(bounds,))
        return cls._of(objective, matrix, bounds)

    @property
    def exact(self) -> bool:
        """True when the entries are ``Fraction``s, False when floats.

        Every entry is a float or every entry a ``Fraction``, so the first
        one tells, without loading ``fractions``.
        """
        return type(self.objective[0]) is not float

    @property
    def num_variables(self) -> int:
        return len(self.objective)

    @property
    def num_constraints(self) -> int:
        return len(self.bounds)


class LpSolution(Frozen):
    """Solver output: structural values, objective, basis and reduced costs.

    ``basis`` lists basic column indices over the extended variable order
    (structural columns first, then one slack per constraint).  For a
    maximization optimum every reduced cost (z_j - c_j) is nonnegative up to
    tolerance.  ``status`` is one of ``optimal``, ``unbounded``,
    ``infeasible``; only ``optimal`` solutions carry values.

    The solver counters are ``pivots`` (Bland's-rule pivots),
    ``degenerate_pivots`` (those of them whose ratio step tied at zero) and
    ``absorb_pivots`` (slack-absorption pivots taken after optimality, at
    most one per structural variable).
    """

    _fields = (
        "values", "objective_value", "basis", "reduced_costs", "status",
        "pivots", "degenerate_pivots", "absorb_pivots",
    )

    def __init__(
        self, values, objective_value, basis, reduced_costs, status,
        pivots=0, degenerate_pivots=0, absorb_pivots=0,
    ):
        if status not in ("optimal", "unbounded", "infeasible"):
            raise ValueError(f"unknown status {status!r}")
        self._store(
            tuple(values), objective_value, tuple(sorted(basis)),
            tuple(reduced_costs), status, pivots, degenerate_pivots, absorb_pivots,
        )


def _arithmetic(exact: bool):
    """The arithmetic of a call: the ``exact`` module if ``exact``, else ``_Float``.

    A public call looks it up once and hands it to the kernels.
    """
    if not exact:
        return _Float
    from . import exact as ex

    return ex


def _checked(**vectors):
    """The named sequences of vectors, checked and converted into one arithmetic.

    Every entry must be a real number (``numbers.Real``), or ``ValueError``
    is raised.  One scan of all the entry types decides the arithmetic, by
    the rule of ``schmidt.holds_fraction``.  Every vector is then converted
    into it (a float or a ``Fraction`` of that arithmetic converts to
    itself) and must be finite, or ``ValueError`` names the first sequence
    that is not: NaN or inf to ``Fraction``, or a huge int to float,
    raises.  Returns the converted sequences, each a tuple of tuples, in
    the order given.
    """
    every = set(map(type, chain.from_iterable(chain.from_iterable(vectors.values()))))
    if not all(issubclass(kind, numbers.Real) for kind in every):
        raise ValueError("LP entries must be real numbers")
    ex = _arithmetic(fraction_among(every))
    for name, rows in vectors.items():
        try:
            rows = tuple(tuple(map(ex.convert, row)) for row in rows)
            finite = ex is not _Float or all(map(math.isfinite, chain.from_iterable(rows)))
        except (ValueError, OverflowError):
            finite = False
        if not finite:
            raise ValueError(f"LP {name} entries must be finite")
        vectors[name] = rows
    return vectors.values()


class PivotCapError(FailedCheck, RuntimeError):
    """The simplex reached its pivot cap, ``_MAX_PIVOTS_FACTOR * (n + m + 4)``.

    Bland's rule cannot cycle, but it can take exponentially many pivots
    (V. Klee and G. J. Minty, "How good is the simplex algorithm?", 1972;
    D. Avis and V. Chvatal, "Notes on Bland's pivoting rule", Math.
    Programming Study 8, 1978), so a solve that reaches the cap gives up.
    """


def _non_optimal(status: str) -> LpSolution:
    return LpSolution((), None, (), (), status)


def simplex_solve(prob: LpProblem, exact: bool = False) -> LpSolution:
    """Solve an inequality-form LP by the primal simplex method.

    Parameters
    ----------
    prob : LpProblem
        Maximization problem with x >= 0; slack variables are added
        internally, so nonnegative bounds give an immediate feasible basis.
    exact : bool
        Solve a float problem over ``Fraction`` values, converted exactly.
        An exact problem is solved exactly either way: its own arithmetic
        decides, and ``exact=False`` never lowers it to floats.  Exact
        solves run the identical pivot logic with zero tolerance and return
        exact rationals.

    A square problem (as many constraints as variables) first gets a crash
    check of the all-structural basis: B is factored once, and when
    x = B^-1 q and the slack reduced costs y = B^-T c are both nonnegative
    (to within ``PIVOT_TOL`` in float mode), that basis is optimal and is
    returned with ``pivots == 0``.  Every constraint is tight there, so
    there is no slack to absorb.  A singular B, or a failed check, leaves
    the problem to the pivots below, which start from the slack basis as if
    no check had been made.

    Entering columns follow Bland's least-index rule and ratio ties leave
    the smallest basic index, so the result is deterministic and the method
    cannot cycle on degenerate vertices.  When alternative optima exist
    (zero objective weights make that routine here), a final sweep of
    zero-reduced-cost pivots moves residual slack into the lowest-indexed
    structural variables, so the returned vertex saturates as many
    constraints as the optimal face allows; the objective value is
    unaffected.  Both paths read the optimum out alike: in float mode a
    value in [-PIVOT_TOL, 0] is drift on a degenerate row and is returned
    as 0.0.  Bounds below ``-PIVOT_TOL`` whose rows have nonnegative
    coefficients make the instance provably infeasible (x >= 0); other
    negative bounds are outside the supported form and raise
    ``ValueError``.
    """
    ex = _arithmetic(exact or prob.exact)
    if exact and not prob.exact:  # a Fraction objective makes it exact
        objective = tuple(map(ex.convert, prob.objective))
        prob = LpProblem(objective, prob.constraint_matrix, prob.bounds)
    for row, q in zip(prob.constraint_matrix, ex.signs(prob.bounds)):
        if q < -ex.tol:
            if all(x >= 0 for x in row):
                return _non_optimal("infeasible")
            raise ValueError(
                "negative bound with mixed-sign row: instance is outside the "
                "supported inequality form"
            )
    if prob.num_variables == prob.num_constraints:
        crash = _structural_optimum(prob, ex)
        if crash is not None:
            return crash
    return _solve_from_slack_basis(prob, ex)


def _structural_optimum(prob: LpProblem, ex):
    """The all-structural basis of a square problem if it is optimal, else None.

    One evaluation of B by :func:`_basis_point` answers both halves of the
    check: x = B^-1 q are the basic values, and the duals y = B^-T c are
    the slack reduced costs (a structural column's is zero).
    """
    n = prob.num_variables
    try:
        x, y = _basis_point(prob, range(n), ex)
    except ZeroDivisionError:
        return None
    if any(v < -ex.tol for v in ex.signs(x + y)):
        return None
    return _optimum(prob, x[:n], range(n), [ex.zero] * n + y, ex)


def _solve_from_slack_basis(prob: LpProblem, ex):
    """Bland's-rule pivots from the slack basis, then slack absorption.

    Computes in the problem's arithmetic ``ex``; bounds must be nonnegative
    up to the tolerance, so that the slack basis is feasible.
    """
    c, q = prob.objective, prob.bounds
    n, m = len(c), len(q)
    tol, zero = ex.tol, ex.zero
    one = zero + 1
    tableau = [[*row, *[zero] * m, b] for row, b in zip(prob.constraint_matrix, q)]
    for i, row in enumerate(tableau):
        row[n + i] = one
    zrow = [-x for x in c] + [zero] * m + [zero]
    basis = list(range(n, n + m))

    max_pivots = _MAX_PIVOTS_FACTOR * (n + m + 4)
    pivots = degenerate = 0
    for _ in range(max_pivots):
        entering = next(
            (j for j, z in zip(range(n + m), ex.signs(zrow)) if z < -tol), None
        )
        if entering is None:
            break
        column = [row[entering] for row in tableau]
        rows = [i for i, coeff in enumerate(ex.signs(column)) if coeff > tol]
        ratios = [tableau[i][-1] / column[i] for i in rows]
        leaving = None
        best = None
        for i, ratio, sign in zip(rows, ratios, ex.signs(ratios)):
            # a step of at most tol ties at zero: ranking the +-1e-15
            # drift of degenerate rows would let Bland's rule cycle
            key = (zero if sign <= tol else ratio, basis[i])
            if best is None or key < best:
                best = key
                leaving = i
        if leaving is None:
            return _non_optimal("unbounded")
        _pivot(tableau, zrow, leaving, entering, zero, one)
        basis[leaving] = entering
        pivots += 1
        if best[0] == 0:
            degenerate += 1
    else:
        raise PivotCapError(f"simplex failed to terminate (pivot cap of {max_pivots} reached)")

    absorbed = _absorb_slack(tableau, zrow, basis, n, ex, zero, one)

    extended = [zero] * (n + m)
    for i in range(m):
        extended[basis[i]] = tableau[i][-1]
    return _optimum(
        prob, extended[:n], basis, zrow[:-1], ex, pivots, degenerate, absorbed
    )


def _optimum(prob: LpProblem, values, basis, reduced_costs, ex, *counters):
    """The optimal ``LpSolution`` of the structural ``values`` at a basis.

    A value in [-tol, 0] reads as ``ex.zero``: in floats, drift on a
    degenerate row, or -0.0; an exact zero is ``Fraction(0)`` already.  The
    objective is summed from the values so read.  ``counters`` are the
    solver counters, in ``LpSolution``'s order.
    """
    values = tuple(
        ex.zero if -ex.tol <= s <= 0 else v for v, s in zip(values, ex.signs(values))
    )
    (objective,) = ex.dots((prob.objective,), values)
    return LpSolution(values, objective, basis, reduced_costs, "optimal", *counters)


def _absorb_slack(tableau, zrow, basis, n, ex, zero, one):
    """Exchange basic slack for zero-reduced-cost structural columns.

    Runs at a primal/dual optimal tableau.  Every executed pivot enters a
    nonbasic structural column whose reduced cost vanishes and evicts a
    slack, so it walks the optimal face without changing the objective and
    the structural count strictly grows (at most n pivots).  Needed so that
    degenerate objectives still return the constraint-saturating vertex.
    Returns the number of pivots taken.
    """
    tol = ex.tol
    in_basis = set(basis)
    pivots = 0
    changed = True
    while changed:
        changed = False
        reduced = list(ex.signs(zrow[:n]))
        for j in range(n):
            if j in in_basis or abs(reduced[j]) > tol:
                continue
            column = [row[j] for row in tableau]
            best = None
            leaving = None
            for i, coeff in enumerate(ex.signs(column)):
                if coeff > tol:
                    ratio = tableau[i][-1] / column[i]
                    # prefer rows holding slack variables on ratio ties
                    key = (ratio, 0 if basis[i] >= n else 1, basis[i])
                    if best is None or key < best:
                        best = key
                        leaving = i
            if leaving is None or basis[leaving] < n:
                continue
            _pivot(tableau, zrow, leaving, j, zero, one)
            # a float pivot by a reduced cost within tol moves the others
            reduced = list(ex.signs(zrow[:n]))
            in_basis.discard(basis[leaving])
            in_basis.add(j)
            basis[leaving] = j
            pivots += 1
            changed = True
    return pivots


def _pivot(tableau, zrow, leaving, entering, zero, one):
    """Pivot on (leaving, entering) over the pivot row's nonzero columns.

    ``zero`` and ``one`` are the tableau's own constants (float or
    ``Fraction``); they fill the eliminated entering column and the pivot.
    """
    prow = tableau[leaving]
    pivot = prow[entering]
    nonzero = [
        (k, x / pivot) for k, x in enumerate(prow) if x and k != entering
    ]
    for k, x in nonzero:
        prow[k] = x
    prow[entering] = one
    for row in (*tableau, zrow):
        factor = row[entering]
        if factor and row is not prow:
            for k, x in nonzero:
                row[k] -= factor * x
            row[entering] = zero


# (size, exact) -> [rows, their solves or None], least recently used first
_shared = {}


def _shared_matrix(n: int, exact: bool, build) -> list:
    """The shared n x n matrix in the arithmetic ``exact``: ``[rows, solves]``.

    ``build()`` makes the rows, a tuple of row tuples, and the solves held
    with them (an object with ``solve`` and ``solve_transposed``, such as
    a closed-form inverse, or None) when none are held for ``(n, exact)``;
    once held, every call returns the same objects, and
    :func:`_basis_point` factors rows held without solves once.  An exact
    concentration matrix's inverse also holds the rank's ln weights as
    ``Fraction``s and their duals (``exact.TailSumInverse``), so they are
    made once per rank and go when the matrix is evicted.  A matrix of
    more than ``_SHARED_ENTRIES`` entries is built and not held.  Each step
    is one dict operation and the entries held are recounted from a
    snapshot, so threads may share the cache.
    """
    key = (n, exact)
    entry = _shared.pop(key, None)
    if entry is None:
        entry = list(build())
        if n * n > _SHARED_ENTRIES:
            return entry
        while sum(size * size for size, _ in list(_shared)) + n * n > _SHARED_ENTRIES:
            _shared.pop(next(iter(_shared), None), None)
    _shared[key] = entry
    return entry


def _basis_point(prob: LpProblem, basis, ex) -> tuple:
    """The basic solution of a basis and its duals, ``(x, y)``.

    B holds the ``basis`` columns of the extended matrix (the structural
    columns, then a unit vector per slack), in the arithmetic ``ex``.  x is
    an extended vector: x_B = B^-1 q at the basis columns, zero elsewhere;
    y = B^-T c_B.  When the basis is all-structural and the problem's
    matrix is the shared matrix of its size and arithmetic (the same tuple,
    so the same numbers), the solves held with it are read: an exact
    matrix's closed-form inverse, or a float matrix's LU, factored first if
    it is not held yet.  Any other B is factored afresh and nothing is
    kept.  An all-structural basis hands the objective itself to the
    transposed solve, so an inverse that holds the duals of that very
    tuple finds them by identity.  Raises ``ZeroDivisionError`` as
    ``_factor`` does.
    """
    c, rows = prob.objective, prob.constraint_matrix
    n, m = len(c), len(rows)
    structural = tuple(basis) == tuple(range(n))
    held = _shared.get((m, prob.exact)) if structural else None
    if held and held[0] is rows:
        lu = held[1] = held[1] or _factor(rows, ex)
    else:
        b = [[r[j] if j < n else int(j == n + i) for j in basis] for i, r in enumerate(rows)]
        lu = _factor(b, ex)
    x = [ex.zero] * (n + m)
    for j, value in zip(basis, lu.solve(prob.bounds)):
        x[j] = value
    c_basis = c if structural else [c[j] if j < n else ex.zero for j in basis]
    return x, lu.solve_transposed(c_basis)


def _factor(matrix, ex):
    """LU factorisation with partial pivoting; raises on singularity.

    Works for float and ``Fraction`` entries alike, in the arithmetic
    ``ex``, and returns the :class:`Lu` of the factors, one type for both.
    The pivot is the largest of the column's nonzero entries on or below
    the diagonal (ties go to the first row, and a lone candidate is taken
    without comparing magnitudes), and only the rows of the other
    candidates are eliminated, over the pivot row's nonzero columns.

    Exact: a column without a candidate is singular.  Float: so is a pivot
    no larger than ``1e-13 * max(scale, 1)``, where ``scale`` is the largest
    coefficient magnitude in the rows not yet pivoted.  That scale is not
    rescanned after each elimination: each row carries an upper bound on
    its magnitudes, raised by ``|factor| * bound[pivot row]`` when the row
    is eliminated.  Rounding is monotone, so the bound holds in floating
    point, and a pivot that passes the test against the largest bound
    passes it against the scale.  Only a pivot that fails against the
    bound rescans the remaining rows (resetting their bounds to the
    magnitudes found), and that rescan decides.

    ``Lu`` is built from ``steps`` and ``u_rows``.  ``steps[col]`` is
    the row swapped into position ``col`` and the ``(row, factor)`` pairs
    that eliminated the column below it; ``u_rows[col]`` holds the
    ``(k, u)`` pairs of the nonzero entries of row col of U, the pivot
    first, as the elimination reads them.
    """
    size = len(matrix)
    a = [list(row) for row in matrix]
    # the float singularity test's bounds on the rows' magnitudes
    bound = [max(map(abs, row)) for row in a] if ex is _Float else None
    steps, u_rows = [], []
    for col in range(size):
        rows = [r for r in range(col, size) if a[r][col]]
        if not rows:
            raise ZeroDivisionError("singular matrix")
        pivot_row = rows[0]
        if len(rows) > 1:
            pivot_row = max(rows, key=lambda r: abs(a[r][col]))
        pivot = a[pivot_row][col]
        if bound is not None:
            if not abs(pivot) > 1e-13 * max(max(bound[col:]), 1.0):
                bound[col:] = [max(map(abs, a[r])) for r in range(col, size)]
                scale = max(bound[col:])
                if scale == 0 or abs(pivot) <= 1e-13 * max(scale, 1.0):
                    raise ZeroDivisionError("singular matrix")
            bound[col], bound[pivot_row] = bound[pivot_row], bound[col]
        a[col], a[pivot_row] = a[pivot_row], a[col]
        prow = a[col]
        # the pivot's own column is eliminated too, so a row keeps the
        # rounding residue there and a rescan sees it
        tail = prow[col:]
        nonzero = list(compress(enumerate(tail, col), tail))
        # the rows below the pivot with a nonzero entry: the old row col
        # moved to pivot_row if it was one of them
        below = rows[1:] if rows[0] == col else [r for r in rows if r != pivot_row]
        eliminated = []
        for r in below:
            row = a[r]
            factor = row[col] / pivot
            for k, x in nonzero:
                row[k] -= factor * x
            eliminated.append((r, factor))
            # a factor that underflowed to zero changes no magnitude (and
            # would make 0 * inf a NaN once a bound has overflowed)
            if bound is not None and factor:
                bound[r] += abs(factor) * bound[col]
        steps.append((pivot_row, eliminated))
        u_rows.append(nonzero)
    return Lu(steps, u_rows)


def _sub_dot(x, terms, vector):
    """``x`` minus the sum of ``u * vector[k]`` over the ``(k, u)`` terms.

    The terms are subtracted one by one in the given order, in the
    arithmetic of the values: floats round each step, ``Fraction``s give
    the exact difference.
    """
    for k, u in terms:
        x -= u * vector[k]
    return x


class Lu:
    """A ``_factor`` of float or ``Fraction`` entries, and the solves that read it.

    ``steps`` are the factorisation's swaps and eliminations.
    ``upper[col]`` is the pivot and the ``(k, u)`` pairs of the nonzero
    entries right of it, so both solves read U by its rows.  The solves
    are plain arithmetic on the entries, so a ``Fraction`` factorisation
    and right-hand side give the exact solution, as ``Fraction``s.
    """

    def __init__(self, steps, u_rows):
        self.steps = steps
        self.upper = [(row[0][1], row[1:]) for row in u_rows]

    def solve(self, rhs) -> list:
        """Solve B x = rhs."""
        b = list(rhs)
        for col, (pivot_row, eliminated) in enumerate(self.steps):
            b[col], b[pivot_row] = b[pivot_row], b[col]
            x = b[col]
            if x:
                for r, factor in eliminated:
                    b[r] -= factor * x
        for col in reversed(range(len(b))):
            pivot, right = self.upper[col]
            b[col] = _sub_dot(b[col], right, b) / pivot
        return b

    def solve_transposed(self, rhs) -> list:
        """Solve B^T y = rhs.

        With M B = U, M the swaps and eliminations in order, y = M^T w for
        U^T w = rhs: forward substitution by the rows of U, each solved
        nonzero w_k times row k subtracted from the entries right of it,
        then the transposed eliminations and the swaps in reverse order.
        """
        w = list(rhs)
        for col, (pivot, right) in enumerate(self.upper):
            x = w[col] = w[col] / pivot
            if x:
                for k, u in right:
                    w[k] -= u * x
        for col in reversed(range(len(w))):
            pivot_row, eliminated = self.steps[col]
            if eliminated:
                w[col] = _sub_dot(w[col], eliminated, w)
            w[col], w[pivot_row] = w[pivot_row], w[col]
        return w


class _Float:
    """The float arithmetic; the ``exact`` module offers the same names.

    Entries are floats (``convert`` makes one), sign tests allow
    ``PIVOT_TOL`` and read the values themselves (``signs``), dot products
    are ``math.fsum``s of the products.
    """

    convert = float
    zero = 0.0
    tol = PIVOT_TOL

    @staticmethod
    def dots(rows, vector) -> list:
        """The dot product of each row with ``vector``."""
        return [math.fsum(map(operator.mul, row, vector)) for row in rows]

    @staticmethod
    def signs(values):
        """``values`` themselves: a float's sign test reads the float."""
        return values
