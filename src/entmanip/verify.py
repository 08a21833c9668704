"""Independent check of a claimed LP optimum.

:func:`verify_solution` recomputes feasibility and reduced costs of a
claimed optimum from its stated basis alone; it runs none of the solver's
pivots, and the solver never calls it.  It factors the basis matrix B once
with the LU of ``entmanip.lp`` and answers B x = q and B^T y = c_B from
that one factorisation.  An all-structural basis of a shared matrix (see
``entmanip.lp``; every ``concentration_lp`` matrix is one) is not factored
again: its LU is the one the solver's crash check made, a function of the
matrix alone, so the verdict is the same.  Like the solver, it computes in
the problem's arithmetic, looked up once per call: ``lp._Float``, or the
``exact`` module, which sums ``Fraction``s on integer ratios.  Both offer
the same names, and the checks below read them without asking which
arithmetic they run in.
"""

from __future__ import annotations

import operator

from .lp import LpProblem, LpSolution, _arithmetic, _factor, _structural_lu

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


def _factor_basis(prob: LpProblem, basis, ex):
    """``_factor`` of the basis matrix B; raises if it is singular.

    B holds the basis columns of the extended matrix (a slack column is a
    unit vector).  The factorisation is exact when the problem is.  The
    all-structural basis of a square problem is the constraint matrix
    itself, factored by ``_structural_lu``.
    """
    n = prob.num_variables
    if n == prob.num_constraints and tuple(basis) == tuple(range(n)):
        return _structural_lu(prob, ex)
    matrix = [
        [row[j] if j < n else int(j - n == i) for j in basis]
        for i, row in enumerate(prob.constraint_matrix)
    ]
    return _factor(matrix, ex)


def _basis_solution(prob: LpProblem, basis, lu, ex):
    """Basic solution (extended vector) for a basis and its factorisation."""
    basic_values = lu.solve(prob.bounds)
    extended = [ex.zero] * (prob.num_variables + prob.num_constraints)
    for j, value in zip(basis, basic_values):
        extended[j] = value
    return extended


def _basis_reduced_costs(prob: LpProblem, basis, lu, ex):
    """Reduced costs z_j - c_j for every extended column, from the basis.

    y solves B^T y = c_B.  A structural column costs one dot product with
    y; a slack column is a unit vector with cost 0, so its reduced cost is
    y_i itself.
    """
    n = prob.num_variables
    y = lu.solve_transposed([prob.objective[j] if j < n else ex.zero for j in basis])
    # with no constraints every column is empty
    columns = list(zip(*prob.constraint_matrix)) or [()] * n
    products = ex.dots(columns, y)
    return list(map(operator.sub, products, prob.objective)) + y


def verify_solution(prob: LpProblem, sol: LpSolution) -> bool:
    """Independently check a claimed optimum against its stated basis.

    Factors the basis matrix of ``sol.basis`` once (LU with partial
    pivoting), solves it for the basic solution and its transpose for the
    duals y, and takes the reduced costs from y.  The all-structural basis
    of a shared matrix, such as a ``concentration_lp`` solved in 0 pivots,
    is not factored again: its LU is held with the matrix, and the verdict
    is the one a fresh factorisation gives.  Then verifies: claimed
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
    ex = _arithmetic(prob.exact)
    values = tuple(map(ex.convert, sol.values))
    try:
        lu = _factor_basis(prob, sol.basis, ex)
    except ZeroDivisionError:
        return False
    extended = _basis_solution(prob, sol.basis, lu, ex)
    reduced = _basis_reduced_costs(prob, sol.basis, lu, ex)
    tol = VERIFY_TOL
    if any(x < -tol for x in extended):
        return False
    if any(abs(float(extended[j]) - float(values[j])) > tol for j in range(n)):
        return False
    if any(r > tol for r in _residuals(prob, values, ex)):
        return False
    if any(v < -tol for v in values):
        return False
    (objective,) = ex.dots((prob.objective,), values)
    if abs(float(objective) - float(sol.objective_value)) > tol:
        return False
    return all(d >= -tol for d in reduced)
