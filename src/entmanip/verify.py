"""Independent check of a claimed LP optimum.

:func:`verify_solution` recomputes feasibility and reduced costs of a
claimed optimum from its stated basis alone; it runs none of the solver's
pivots, and the solver never calls it.  The basis is evaluated by
``lp._basis_point``, as the solver's crash check evaluates its own: one
factorisation of the basis matrix B answers B x = q and B^T y = c_B.  An
all-structural basis of a shared matrix (see ``entmanip.lp``; every
``concentration_lp`` matrix is one) is not factored again: it is solved
by the solves held with the matrix, an exact matrix's closed-form inverse
or the float LU the crash check made, functions of the matrix alone, so
the verdict is the same.  Like the solver, it computes in the problem's
arithmetic, looked up once per call: ``lp._Float``, or the ``exact``
module, which sums ``Fraction``s on integer ratios.  The tolerance is the
arithmetic's too: a float problem is checked to within ``VERIFY_TOL``,
and an exact one exactly, with tolerance 0.
"""

from __future__ import annotations

import operator
from itertools import chain

from .lp import LpProblem, LpSolution, _arithmetic, _basis_point

VERIFY_TOL = 1e-9

__all__ = ["VERIFY_TOL", "verify_solution", "constraint_residuals"]


def constraint_residuals(prob: LpProblem, values) -> tuple:
    """Componentwise B.x - q, in the problem's arithmetic.

    ``values`` are converted into that arithmetic first, so the residuals
    of an exact problem are exact.
    """
    ex = _arithmetic(prob.exact)
    values = tuple(map(ex.convert, values))
    if len(values) != prob.num_variables:
        raise ValueError("value vector length must match variable count")
    return _residuals(prob, values, ex)


def _residuals(prob: LpProblem, values, ex) -> tuple:
    products = ex.dots(prob.constraint_matrix, values)
    return tuple(map(operator.sub, products, prob.bounds))


def _reduced_costs(prob: LpProblem, y, ex) -> list:
    """The structural reduced costs z_j - c_j for the duals y.

    Each is the dot product of column j with y, minus c_j.  A slack
    column is a unit vector with cost 0, so its reduced cost is y_i itself.
    """
    # with no constraints every column is empty
    columns = list(zip(*prob.constraint_matrix)) or [()] * prob.num_variables
    return list(map(operator.sub, ex.dots(columns, y), prob.objective))


def verify_solution(prob: LpProblem, sol: LpSolution) -> bool:
    """Independently check a claimed optimum against its stated basis.

    Evaluates the basis of ``sol.basis`` once (``lp._basis_point``: an LU
    with partial pivoting, solved for the basic solution and, transposed,
    for the duals y), and takes the reduced costs from y.  The
    all-structural basis of a shared matrix, such as a ``concentration_lp``
    solved in 0 pivots, is not factored again: it is solved by the
    closed-form inverse (exact) or the LU (float) held with the matrix, and
    the verdict is the one a fresh factorisation gives.  Then
    verifies: claimed values are feasible, they agree with the basis
    solution, the objective matches, and every reduced cost satisfies the
    maximization sign condition.  A basis that is not m distinct column
    indices in ``range(n + m)`` fails.  The claimed values and objective are
    converted into the problem's arithmetic first.  A float problem is
    checked to within ``VERIFY_TOL``; an exact one exactly, with the exact
    arithmetic's tolerance 0.  Each test is written in positive form, so
    that a NaN fails it.  A singular basis matrix, or a claim that the
    arithmetic cannot take (NaN or an infinity in an exact problem), fails
    the verification rather than raising.
    """
    if sol.status != "optimal":
        return False
    n, m = prob.num_variables, prob.num_constraints
    # m distinct columns of the extended matrix: a negative index would
    # read a column from the end
    columns = {j for j in sol.basis if 0 <= j < n + m}
    if not len(sol.basis) == len(columns) == m or len(sol.values) != n:
        return False
    ex = _arithmetic(prob.exact)
    try:  # NaN or an infinity to Fraction raises, as inf - inf in fsum does
        values = tuple(map(ex.convert, sol.values))
        claimed = ex.convert(sol.objective_value)
        extended, y = _basis_point(prob, sol.basis, ex)
        residuals = _residuals(prob, values, ex)
        (objective,) = ex.dots((prob.objective,), values)
        duals = chain(_reduced_costs(prob, y, ex), y)
    except (ValueError, OverflowError, ZeroDivisionError):
        return False
    tol = ex.tol and VERIFY_TOL  # an arithmetic without tolerance checks exactly
    return (
        all(x >= -tol for x in extended)
        and all(abs(e - v) <= tol for e, v in zip(extended, values))
        and all(r <= tol for r in residuals)
        and all(v >= -tol for v in values)
        and abs(objective - claimed) <= tol
        and all(d >= -tol for d in duals)
    )
