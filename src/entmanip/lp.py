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
stores floats.  Every kernel reads ``LpProblem.exact`` and computes in that
arithmetic throughout, and a claimed solution is converted into it before
it is checked.  The solver converts a problem only when asked for the
other arithmetic.

The tableau is stored densely but updated sparsely: a pivot visits only
the nonzero columns of the pivot row and only the rows with a nonzero
factor.  Skipped entries would be updated by ``x - factor * 0``, so the
results are the same number for number as a full sweep, at a fraction of
the cost on the sparse tableaus the concentration LPs produce.  The one
routine serves float and exact mode alike.  So do the LU kernels below;
only their substitutions treat the modes apart: a float entry subtracts
its products one by one, while an exact one accumulates them as an integer
numerator over the running lcm of their denominators and becomes a single
``Fraction`` at the end, the same number as term-by-term ``Fraction``
arithmetic gives (the fraction-free idea of E. H. Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math.
Comp. 22, 1968, applied where it changes no value).

Square problems (as many constraints as variables) are first given a
crash check of the all-structural basis (R. E. Bixby, "Implementing the
simplex method: the initial basis", ORSA J. Computing 4(3), 1992): B is
factored once, and if B^-1 q and the duals B^-T c are nonnegative, that
basis is returned without a pivot.  The concentration LPs of weights with
c_1 >= 0 and j c_j convex (ln, log2) are settled this way.  Otherwise the
pivots start from the slack basis exactly as if no check had been made;
the check never hands the pivots a starting basis of its own.

:func:`verify_solution` recomputes feasibility and reduced costs of a
claimed optimum from its stated basis.  It factors the basis matrix B once
(LU with partial pivoting: the pivot is sought among the column's nonzero
entries, only those rows are eliminated, over the pivot row's nonzeros,
and the float singularity test reads a per-row magnitude bound instead of
rescanning rows) and answers B x = q and B^T y = c_B from that one
factorisation by sparse triangular substitution, B^T y = c_B one column
of U at a time; on the triangular bases of the concentration LPs the
factorisation does no elimination and compares no magnitudes at all.
"""

from __future__ import annotations

import math
import numbers
import operator
from fractions import Fraction
from itertools import chain, compress

from .schmidt import Frozen, as_fraction

PIVOT_TOL = 1e-11
VERIFY_TOL = 1e-9
_MAX_PIVOTS_FACTOR = 64

__all__ = [
    "PIVOT_TOL",
    "VERIFY_TOL",
    "LpProblem",
    "LpSolution",
    "simplex_solve",
    "verify_solution",
    "constraint_residuals",
]


class LpProblem(Frozen):
    """maximize objective.x  s.t.  constraint_matrix x <= bounds, x >= 0.

    Entries must be real numbers (``numbers.Real``: ints, floats,
    ``Fraction``s); anything else, a numeric string included, raises
    ``ValueError``.  If any entry is a ``Fraction`` the problem is exact
    and stores every entry as a ``Fraction``; otherwise it stores floats.
    ``exact`` tells which, so every kernel computes in one arithmetic.
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
        kinds = set(map(type, chain(objective, *matrix, bounds)))
        if not all(issubclass(kind, numbers.Real) for kind in kinds):
            raise ValueError("LP entries must be real numbers")
        # the rule of schmidt.holds_fraction, read off the same type scan
        exact = any(issubclass(kind, Fraction) for kind in kinds)
        (objective,) = _finite("objective", (objective,), exact)
        matrix = _finite("constraint_matrix", matrix, exact)
        (bounds,) = _finite("bounds", (bounds,), exact)
        self._store(objective, matrix, bounds)

    @property
    def exact(self) -> bool:
        """True when the entries are ``Fraction``s, False when floats."""
        return isinstance(self.objective[0], Fraction)

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


def _in_arithmetic(values, exact) -> tuple:
    """``values`` as ``Fraction``s if ``exact``, else as floats."""
    return tuple(map(as_fraction if exact else float, values))


def _finite(name: str, rows, exact) -> tuple:
    """``rows`` in the given arithmetic; ``ValueError`` unless all finite."""
    try:  # NaN or inf to Fraction, or a huge int or Fraction to float, raises
        rows = tuple(_in_arithmetic(row, exact) for row in rows)
        finite = exact or all(map(math.isfinite, chain.from_iterable(rows)))
    except (ValueError, OverflowError):
        finite = False
    if not finite:
        raise ValueError(f"LP {name} entries must be finite")
    return rows


def _zero(prob: LpProblem):
    return Fraction(0) if prob.exact else 0.0


def _dot(a, b, exact):
    """Exact sum of the products if ``exact``, else their ``math.fsum``."""
    if exact:
        return -_sub_dot(0, enumerate(a), b, exact)
    return math.fsum(map(operator.mul, a, b))


def constraint_residuals(prob: LpProblem, values) -> tuple:
    """Componentwise B.x - q, in the problem's arithmetic.

    ``values`` are converted into that arithmetic first, so the residuals
    of an exact problem are exact.
    """
    values = _in_arithmetic(values, prob.exact)
    if len(values) != prob.num_variables:
        raise ValueError("value vector length must match variable count")
    return tuple(
        _dot(row, values, prob.exact) - q
        for row, q in zip(prob.constraint_matrix, prob.bounds)
    )


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
        Rerun the identical pivot logic over ``Fraction`` values (a float
        problem is converted exactly); comparisons then use zero tolerance
        and the returned values are exact rationals.  An exact problem
        solved with ``exact=False`` is converted to floats.

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
    unaffected.  In float mode a basic value in [-PIVOT_TOL, 0] is drift on
    a degenerate row and is returned as 0.0.  Bounds below ``-PIVOT_TOL``
    whose rows have nonnegative coefficients make the instance provably
    infeasible (x >= 0); other negative bounds are outside the supported
    form and raise ``ValueError``.
    """
    prob = _converted(prob, exact)
    tol = 0 if exact else PIVOT_TOL
    for row, q in zip(prob.constraint_matrix, prob.bounds):
        if q < -tol:
            if all(x >= 0 for x in row):
                return _non_optimal("infeasible")
            raise ValueError(
                "negative bound with mixed-sign row: instance is outside the "
                "supported inequality form"
            )
    if prob.num_variables == prob.num_constraints:
        crash = _structural_optimum(prob, tol)
        if crash is not None:
            return crash
    return _solve_from_slack_basis(prob)


def _converted(prob: LpProblem, exact: bool) -> LpProblem:
    """``prob`` in the requested arithmetic, converted only if it differs.

    An exact entry past the float range raises ``ValueError``, as it
    would in a float problem.
    """
    if prob.exact == exact:
        return prob
    (objective,) = _finite("objective", (prob.objective,), exact)
    matrix = _finite("constraint_matrix", prob.constraint_matrix, exact)
    (bounds,) = _finite("bounds", (prob.bounds,), exact)
    return LpProblem(objective, matrix, bounds)


def _structural_optimum(prob: LpProblem, tol):
    """The all-structural basis of a square problem if it is optimal, else None.

    One LU of B answers both halves of the check: the duals y = B^-T c are
    the slack reduced costs (a structural column's is zero), and
    x = B^-1 q are the basic values.  The duals go first: on a
    concentration LP x is the closed-form plan, which is never negative,
    so a check that fails there fails on y.
    """
    n = prob.num_variables
    try:
        lu = _factor_basis(prob, range(n))
    except ZeroDivisionError:
        return None
    y = _lu_solve_transposed(lu, prob.objective)
    if any(v < -tol for v in y):
        return None
    x = _lu_solve(lu, prob.bounds)
    if any(v < -tol for v in x):
        return None
    zero = _zero(prob)
    values = tuple(zero if v <= 0 else v for v in x)
    objective = _dot(prob.objective, values, prob.exact)
    return LpSolution(values, objective, tuple(range(n)), [zero] * n + y, "optimal")


def _solve_from_slack_basis(prob: LpProblem):
    """Bland's-rule pivots from the slack basis, then slack absorption.

    Computes in the problem's arithmetic; bounds must be nonnegative up to
    the tolerance, so that the slack basis is feasible.
    """
    c, q = prob.objective, prob.bounds
    n, m = len(c), len(q)
    tol = 0 if prob.exact else PIVOT_TOL
    zero = _zero(prob)
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
            (j for j in range(n + m) if zrow[j] < -tol), None
        )
        if entering is None:
            break
        leaving = None
        best = None
        for i in range(m):
            row = tableau[i]
            coeff = row[entering]
            if coeff > tol:
                # a step of at most tol ties at zero: ranking the +-1e-15
                # drift of degenerate rows would let Bland's rule cycle
                ratio = row[-1] / coeff
                if ratio <= tol:
                    ratio = zero
                key = (ratio, basis[i])
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
        raise RuntimeError("simplex failed to terminate (pivot cap reached)")

    absorbed = _absorb_slack(tableau, zrow, basis, n, m, tol, zero, one)

    extended = [zero] * (n + m)
    for i in range(m):
        value = tableau[i][-1]
        extended[basis[i]] = zero if -tol <= value <= 0 else value
    values = tuple(extended[:n])
    objective = _dot(c, values, prob.exact)
    return LpSolution(
        values, objective, tuple(basis), tuple(zrow[:-1]), "optimal",
        pivots, degenerate, absorbed,
    )


def _absorb_slack(tableau, zrow, basis, n, m, tol, zero, one):
    """Exchange basic slack for zero-reduced-cost structural columns.

    Runs at a primal/dual optimal tableau.  Every executed pivot enters a
    nonbasic structural column whose reduced cost vanishes and evicts a
    slack, so it walks the optimal face without changing the objective and
    the structural count strictly grows (at most n pivots).  Needed so that
    degenerate objectives still return the constraint-saturating vertex.
    Returns the number of pivots taken.
    """
    in_basis = set(basis)
    pivots = 0
    changed = True
    while changed:
        changed = False
        for j in range(n):
            if j in in_basis or abs(zrow[j]) > tol:
                continue
            best = None
            leaving = None
            for i in range(m):
                coeff = tableau[i][j]
                if coeff > tol:
                    ratio = tableau[i][-1] / coeff
                    # prefer rows holding slack variables on ratio ties
                    key = (ratio, 0 if basis[i] >= n else 1, basis[i])
                    if best is None or key < best:
                        best = key
                        leaving = i
            if leaving is None or basis[leaving] < n:
                continue
            _pivot(tableau, zrow, leaving, j, zero, one)
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


def _factor(matrix, exact):
    """LU factorisation with partial pivoting; raises on singularity.

    Works for float and ``Fraction`` entries alike; ``exact`` selects the
    singularity test.  The pivot is the largest of the column's nonzero
    entries on or below the diagonal (ties go to the first row, and a lone
    candidate is taken without comparing magnitudes), and only the rows of
    the other candidates are eliminated, over the pivot row's nonzero
    columns.

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

    Returns ``(steps, upper, columns, exact)``.  ``steps[col]`` is the row
    swapped into position ``col`` and the ``(row, factor)`` pairs that
    eliminated the column below it; ``upper[col]`` is the pivot and the
    ``(k, u)`` pairs of the nonzero entries right of it; ``columns[col]``
    is the column of U above the pivot, zeros included.
    """
    size = len(matrix)
    a = [list(row) for row in matrix]
    bound = None if exact else [max(map(abs, row)) for row in a]
    steps, upper = [], []
    for col in range(size):
        rows = [r for r in range(col, size) if a[r][col]]
        if not rows:
            raise ZeroDivisionError("singular matrix")
        pivot_row = rows[0]
        if len(rows) > 1:
            pivot_row = max(rows, key=lambda r: abs(a[r][col]))
        pivot = a[pivot_row][col]
        if not exact:
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
            if not exact and factor:
                bound[r] += abs(factor) * bound[col]
        steps.append((pivot_row, eliminated))
        upper.append((pivot, nonzero[1:]))
    # from step col on, row col of a is row col of U
    columns = [column[:col] for col, column in enumerate(zip(*a))]
    return steps, upper, columns, exact


def _sub_dot(x, terms, vector, exact):
    """``x`` minus the sum of ``u * vector[k]`` over the ``(k, u)`` terms.

    Float: the terms are subtracted one by one in the given order.  Exact:
    the entries are ``Fraction``s or ints, and the sum is accumulated as an
    integer numerator over the running lcm of the denominators, so only the
    result is made a ``Fraction`` (the same number as subtracting term by
    term).
    """
    if not exact:
        for k, u in terms:
            x -= u * vector[k]
        return x
    num, den = x.as_integer_ratio()
    for k, u in terms:
        un, ud = u.as_integer_ratio()
        vn, vd = vector[k].as_integer_ratio()
        p = un * vn
        if p:
            q = ud * vd
            g = math.gcd(den, q)
            q //= g
            num = num * q - p * (den // g)
            den *= q
    return Fraction(num, den)


def _lu_solve(lu, rhs):
    """Solve B x = rhs from ``_factor(B)``."""
    steps, upper, _, exact = lu
    b = list(rhs)
    for col, (pivot_row, eliminated) in enumerate(steps):
        b[col], b[pivot_row] = b[pivot_row], b[col]
        x = b[col]
        if x:
            for r, factor in eliminated:
                b[r] -= factor * x
    for col in reversed(range(len(b))):
        pivot, right = upper[col]
        b[col] = _sub_dot(b[col], right, b, exact) / pivot
    return b


def _lu_solve_transposed(lu, rhs):
    """Solve B^T y = rhs from ``_factor(B)``.

    With M B = U, M the swaps and eliminations in order, y = M^T w for
    U^T w = rhs: forward substitution down the columns of U, then the
    transposed eliminations and the swaps in reverse order.
    """
    steps, upper, columns, exact = lu
    w = list(rhs)
    for col, (pivot, _) in enumerate(upper):
        x, above = w[col], columns[col]
        terms = compress(enumerate(above), above)
        if not x:
            # the row sweep skipped zero entries of w; a term u * -0.0
            # would turn a start of -0.0 into 0.0, while any other start
            # absorbs such terms unchanged
            terms = [(k, u) for k, u in terms if w[k]]
        w[col] = _sub_dot(x, terms, w, exact) / pivot
    for col in reversed(range(len(w))):
        pivot_row, eliminated = steps[col]
        if eliminated:
            w[col] = _sub_dot(w[col], eliminated, w, exact)
        w[col], w[pivot_row] = w[pivot_row], w[col]
    return w


def _factor_basis(prob: LpProblem, basis):
    """``_factor`` of the basis matrix B; raises if it is singular.

    B holds the basis columns of the extended matrix (a slack column is a
    unit vector).  The factorisation is exact when the problem is.
    """
    n = prob.num_variables
    matrix = [
        [row[j] if j < n else int(j - n == i) for j in basis]
        for i, row in enumerate(prob.constraint_matrix)
    ]
    return _factor(matrix, prob.exact)


def _basic_costs(prob: LpProblem, basis) -> list:
    n, zero = prob.num_variables, _zero(prob)
    return [prob.objective[j] if j < n else zero for j in basis]


def _basis_solution(prob: LpProblem, basis, lu):
    """Basic solution (extended vector) for a basis and its factorisation."""
    basic_values = _lu_solve(lu, prob.bounds)
    extended = [_zero(prob)] * (prob.num_variables + prob.num_constraints)
    for j, value in zip(basis, basic_values):
        extended[j] = value
    return extended


def _basis_reduced_costs(prob: LpProblem, basis, lu):
    """Reduced costs z_j - c_j for every extended column, from the basis.

    y solves B^T y = c_B.  A structural column costs one dot product with
    y; a slack column is a unit vector with cost 0, so its reduced cost is
    y_i itself.
    """
    y = _lu_solve_transposed(lu, _basic_costs(prob, basis))
    # with no constraints every column is empty
    columns = list(zip(*prob.constraint_matrix)) or [()] * prob.num_variables
    structural = [
        _dot(y, column, prob.exact) - c
        for column, c in zip(columns, prob.objective)
    ]
    return structural + y


def verify_solution(prob: LpProblem, sol: LpSolution) -> bool:
    """Independently check a claimed optimum against its stated basis.

    Factors the basis matrix of ``sol.basis`` once (LU with partial
    pivoting), solves it for the basic solution and its transpose for the
    duals y, and takes the reduced costs from y.  Then verifies: claimed
    values are feasible, they agree with the basis solution, the objective
    matches, and every reduced cost satisfies the maximization sign
    condition, each to within ``VERIFY_TOL``.  The claimed values are
    converted into the problem's arithmetic first, so an exact problem is
    checked exactly.  A singular basis matrix fails the verification rather
    than raising.
    """
    if sol.status != "optimal":
        return False
    n, m = prob.num_variables, prob.num_constraints
    if len(sol.basis) != m or len(sol.values) != n:
        return False
    values = _in_arithmetic(sol.values, prob.exact)
    try:
        lu = _factor_basis(prob, sol.basis)
    except ZeroDivisionError:
        return False
    extended = _basis_solution(prob, sol.basis, lu)
    reduced = _basis_reduced_costs(prob, sol.basis, lu)
    tol = VERIFY_TOL
    if any(x < -tol for x in extended):
        return False
    if any(abs(float(extended[j]) - float(values[j])) > tol for j in range(n)):
        return False
    residuals = constraint_residuals(prob, values)
    if any(r > tol for r in residuals):
        return False
    if any(v < -tol for v in values):
        return False
    objective = _dot(prob.objective, values, prob.exact)
    if abs(float(objective) - float(sol.objective_value)) > tol:
        return False
    return all(d >= -tol for d in reduced)

