"""Shared helpers for the test suite: seeded random instances and oracles."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from entmanip import (
    LpSolution,
    SchmidtSpectrum,
    make_ensemble,
    make_spectrum,
    optimal_plan,
    vidal_monotones,
)


def random_spectrum(rng: np.random.Generator, n: int) -> SchmidtSpectrum:
    """Random full-rank spectrum with coefficients bounded away from zero."""
    raw = rng.random(n) + 0.05
    return make_spectrum(raw.tolist())


def random_ensemble(rng: np.random.Generator, m: int, max_rank: int):
    """Random target ensemble with m entries of rank <= max_rank."""
    probs = rng.random(m) + 0.1
    probs = probs / probs.sum()
    pairs = []
    for p in probs:
        rank = int(rng.integers(1, max_rank + 1))
        pairs.append((float(p), random_spectrum(rng, rank)))
    return make_ensemble(pairs)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def concentrate_toward_top(
    rng: np.random.Generator, s: SchmidtSpectrum
) -> SchmidtSpectrum:
    """A spectrum reachable from ``s``: mass moved to the leading coefficient.

    Moving weight from the smallest to the largest coefficient shrinks every
    tail sum, so the result is always a feasible deterministic target of
    ``s`` (and the chain of such moves stays feasible, which the
    transitivity tests rely on).
    """
    coeffs = list(s.coeffs)
    if len(coeffs) == 1:
        return s
    delta = float(rng.random()) * coeffs[-1]
    coeffs[0] += delta
    coeffs[-1] -= delta
    coeffs = [c for c in coeffs if c > 0]
    return make_spectrum(coeffs, zero_tol=0.0)


def max_entangled_monotone(levels: int, index: int):
    """Tail-sum monotone of the maximally entangled state on ``levels``.

    Equals (levels - index + 1) / levels for index <= levels and vanishes
    beyond the state's rank.
    """
    if levels < 1 or index < 1:
        raise ValueError("level count and index must be >= 1")
    if index > levels:
        return 0.0
    return (levels - index + 1) / levels


def constraint_matrix_inverse(n: int) -> tuple:
    """Closed-form inverse of the concentration constraint matrix.

    Column k has at most three nonzero entries: k - 2 at row k - 2,
    -2(k - 1) at row k - 1, and k on the diagonal.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    inverse = [[0.0] * n for _ in range(n)]
    for k in range(1, n + 1):
        inverse[k - 1][k - 1] = float(k)
        if k >= 2:
            inverse[k - 2][k - 1] = -2.0 * (k - 1)
        if k >= 3:
            inverse[k - 3][k - 1] = float(k - 2)
    return tuple(tuple(row) for row in inverse)


def max_rank(ensemble) -> int:
    """Largest target rank of a ``TargetEnsemble``."""
    return max(t.rank for _, t in ensemble.entries)


def apply_povm_element(diag, state: SchmidtSpectrum):
    """Outcome probability and post-measurement spectrum for one element.

    Returns ``(probability, spectrum)``; a zero-probability outcome returns
    ``(0.0, None)``.  The diagonal must cover the state's support.
    """
    diag = tuple(float(d) for d in diag)
    if len(diag) < state.rank:
        raise ValueError("element diagonal shorter than the state's rank")
    weighted = [diag[i] ** 2 * float(a) for i, a in enumerate(state.coeffs)]
    probability = math.fsum(weighted)
    if probability <= 0.0:
        return 0.0, None
    return probability, make_spectrum(weighted, zero_tol=0.0)


def yield_statistics(report) -> tuple[float, float]:
    """Sample mean and standard error of ln(label) over a simulation's trials."""
    if report.trials < 2:
        raise ValueError("need at least two trials for a standard error")
    mean = report.mean_yield
    variance = math.fsum(
        c * (math.log(label) - mean) ** 2
        for c, label in zip(report.counts, report.labels)
    ) / (report.trials - 1)
    return mean, math.sqrt(variance / report.trials)


def reference_max_conversion_probability(
    source: SchmidtSpectrum, target: SchmidtSpectrum, number=float
):
    """Per-entry loop over both zero-padded tail vectors.

    The reference that ``max_conversion_probability`` must match: 0 when
    the target's rank exceeds the source's, else the smallest ratio of
    source to target tail sums where the target's is nonzero once taken as
    ``number`` (an exact tail below the float range is 0.0, a ratio of
    +inf), starting from 1 and clamped to [0, 1], each tail taken as
    ``number`` first.  ``float`` gives the float answer bit for bit, and
    ``Fraction`` the exact one.
    """
    n = max(source.rank, target.rank)
    source_tails = list(vidal_monotones(source)) + [0] * (n - source.rank)
    target_tails = list(vidal_monotones(target)) + [0] * (n - target.rank)
    if target.rank > source.rank:
        return number(0)
    best = number(1)
    for es, et in zip(source_tails, target_tails):
        if number(et) > 0:
            best = min(best, number(es) / number(et))
    return max(number(0), min(number(1), best))


def reference_fraction_sum(values) -> Fraction:
    """Term-by-term ``Fraction`` addition from ``Fraction(0)``."""
    total = Fraction(0)
    for v in values:
        total += v
    return total


def reference_tails(coeffs) -> tuple:
    """Tail sums E_l by the per-level loop, term-by-term from the last coefficient."""
    tails = []
    total = 0
    for a in reversed(coeffs):
        total = total + a
        tails.append(total)
    return tuple(reversed(tails))


@st.composite
def exact_spectrum_inputs(draw, max_rank=40):
    """Raw exact ``make_spectrum`` input of 1 to ``max_rank`` entries, and a zero_tol.

    The entries are ints, ``Fraction``s or floats, and one of them is a
    ``Fraction`` above every zero_tol drawn, so the input is exact and
    something survives the stripping; zero_tol is 0, the default or a
    ``Fraction``.
    """
    n = draw(st.integers(1, max_rank), label="n")
    entries = draw(st.sampled_from([
        st.integers(0, 1000),
        st.fractions(min_value=0, max_value=10, max_denominator=1000),
        st.floats(min_value=0, max_value=10),
    ]))
    raw = draw(st.lists(entries, min_size=n, max_size=n))
    at = draw(st.integers(0, n - 1))
    raw[at] = draw(st.fractions(min_value=Fraction(1, 500), max_value=10, max_denominator=1000))
    zero_tol = draw(st.sampled_from([0, 1e-12, Fraction(1, 1000)]), label="zero_tol")
    return raw, zero_tol


def reference_exact_spectrum(raw, zero_tol=1e-12) -> tuple:
    """Exact ``make_spectrum`` on ``Fraction``s, entry by entry.

    The reference that the common-denominator ``make_spectrum`` must match
    on input holding a ``Fraction``: every entry converted to ``Fraction``,
    a stable nonincreasing sort, the entries not above ``zero_tol`` (made a
    ``Fraction`` when finite) or not above 0 stripped from the end, and each
    survivor divided by their term-by-term sum.  Returns the coefficients,
    or the ``ValueError`` message.
    """
    values = list(raw)
    if not all(v >= 0 for v in values):
        return "coefficients must be nonnegative numbers"
    if any(v == math.inf for v in values):
        return "coefficients must have a finite sum"
    values = sorted((Fraction(v) for v in values), reverse=True)
    if math.isfinite(zero_tol):
        zero_tol = Fraction(zero_tol)
    while values and not (values[-1] > zero_tol and values[-1] > 0):
        values.pop()
    if not values:
        return "all coefficients are zero (or below zero_tol)"
    total = reference_fraction_sum(values)
    return tuple(v / total for v in values)


def reference_optimal_plan(s: SchmidtSpectrum) -> tuple:
    """Closed-form plan of ``s`` by the per-level loop.

    The reference that ``optimal_plan`` must match bit for bit: level j
    gets j * (a_j - a_{j+1}) with an int 0 past the last coefficient, and
    the expected entanglement is the ``math.fsum`` of float(p_j) * ln j
    over j > 1.  Returns ``(probabilities, expected_entanglement)``.
    """
    coeffs = s.coeffs
    n = len(coeffs)
    probs = []
    for j in range(1, n + 1):
        nxt = coeffs[j] if j < n else 0
        probs.append(j * (coeffs[j - 1] - nxt))
    expected = math.fsum(
        float(p) * math.log(j) for j, p in enumerate(probs, start=1) if j > 1
    )
    return tuple(probs), expected


def expanded_yield_curve(s: SchmidtSpectrum, max_n: int) -> tuple:
    """Per-copy optimal yield from the fully expanded n-copy spectra.

    Builds all rank**n products, so it is only for small n: the reference
    that the type-class computation in ``asymptotic_yield_curve`` must match.
    """
    curve = []
    for n in range(1, max_n + 1):
        products = [math.prod(c) for c in itertools.product(s.coeffs, repeat=n)]
        plan = optimal_plan(make_spectrum(products, zero_tol=0.0))
        curve.append((n, plan.expected_entanglement / n))
    return tuple(curve)


def type_class_yield_bound(s: SchmidtSpectrum, n: int) -> float:
    """Per-copy yield of projecting n copies onto their type classes.

    A class gives e_i copies of the i-th distinct coefficient a_i (held
    m_i times) for each composition e of n: a maximally entangled state
    of dimension count(e) = multinomial(n; e) * prod m_i^e_i with
    probability count(e) * prod a_i^e_i (C. H. Bennett, H. J. Bernstein,
    S. Popescu and B. Schumacher, "Concentrating partial entanglement by
    local operations", PRA 53, 2046 (1996)).  That protocol is LQCC, so
    sum_e P(e) ln count(e) / n bounds the optimal per-copy yield from
    below.  Shares nothing with ``asymptotic_yield_curve`` but the
    coefficients: counts come from ``math.lgamma``, classes from
    stars and bars.
    """
    multiplicity = Counter(s.coeffs)
    log_a = [math.log(a) for a in multiplicity]
    log_m = [math.log(m) for m in multiplicity.values()]
    k = len(log_a)
    terms = []
    for bars in itertools.combinations(range(n + k - 1), k - 1):
        edges = (-1, *bars, n + k - 1)
        e = [high - low - 1 for low, high in zip(edges, edges[1:])]
        ln_count = math.lgamma(n + 1) + math.fsum(
            e_i * lm - math.lgamma(e_i + 1) for e_i, lm in zip(e, log_m)
        )
        ln_p = ln_count + math.fsum(e_i * la for e_i, la in zip(e, log_a))
        terms.append(math.exp(ln_p) * ln_count)
    return math.fsum(terms) / n


def reference_pivot(tableau, zrow, leaving, entering, zero, one):
    """Dense pivot: every row with a nonzero factor, across the full width.

    The reference that the sparse ``entmanip.lp._pivot`` must match value
    for value; it takes the same arguments but, like the dense original,
    derives the pivot's 1 and the cleared 0 from the entries' own types.
    """
    width = len(tableau[leaving])
    pivot = tableau[leaving][entering]
    prow = tableau[leaving]
    for k in range(width):
        prow[k] = prow[k] / pivot
    prow[entering] = type(pivot)(1) if not isinstance(pivot, float) else 1.0
    for row in tableau:
        if row is prow:
            continue
        factor = row[entering]
        if factor:
            for k in range(width):
                row[k] -= factor * prow[k]
            row[entering] = 0 if not isinstance(factor, float) else 0.0
    factor = zrow[entering]
    if factor:
        for k in range(width):
            zrow[k] -= factor * prow[k]
        zrow[entering] = 0 if not isinstance(factor, float) else 0.0


def reference_solve_square(matrix, rhs):
    """Dense Gauss-Jordan that rescans the trailing submatrix for its scale.

    The reference for the LU solves of ``entmanip.lp``: the same
    singular/non-singular decision is expected from both, and in exact mode
    the same solution.
    """
    size = len(rhs)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    exact = any(isinstance(x, Fraction) for row in a for x in row)
    for col in range(size):
        pivot_row = max(range(col, size), key=lambda r: abs(a[r][col]))
        pivot = a[pivot_row][col]
        if exact:
            if pivot == 0:
                raise ZeroDivisionError("singular matrix")
        else:
            scale = max(abs(a[r][k]) for r in range(col, size) for k in range(size))
            if scale == 0 or abs(pivot) <= 1e-13 * max(scale, 1.0):
                raise ZeroDivisionError("singular matrix")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        prow = a[col]
        for r in range(size):
            if r == col:
                continue
            factor = a[r][col] / pivot
            if factor:
                for k in range(col, size + 1):
                    a[r][k] -= factor * prow[k]
    return [a[i][size] / a[i][i] for i in range(size)]


def reference_factor(matrix, exact):
    """LU with partial pivoting that rescans for its pivot and its scale.

    The reference that ``entmanip.lp._factor`` must match value for value
    (``steps`` and ``upper``, and the singular decision): the pivot search
    takes ``abs`` of every entry on and below the diagonal, and every
    eliminated row's magnitude is rescanned in full for the float
    singularity test, ``pivot <= 1e-13 * max(scale, 1)``.  Returns
    ``(steps, upper)`` as ``_factor`` lays them out.
    """
    size = len(matrix)
    a = [list(row) for row in matrix]
    row_scale = None if exact else [max(map(abs, row)) for row in a]
    steps, upper = [], []
    for col in range(size):
        pivot_row = max(range(col, size), key=lambda r: abs(a[r][col]))
        pivot = a[pivot_row][col]
        if exact:
            if pivot == 0:
                raise ZeroDivisionError("singular matrix")
        else:
            scale = max(row_scale[col:])
            if scale == 0 or abs(pivot) <= 1e-13 * max(scale, 1.0):
                raise ZeroDivisionError("singular matrix")
            row_scale[col], row_scale[pivot_row] = row_scale[pivot_row], row_scale[col]
        a[col], a[pivot_row] = a[pivot_row], a[col]
        prow = a[col]
        nonzero = [(k, prow[k]) for k in range(col, size) if prow[k]]
        eliminated = []
        for r in range(col + 1, size):
            row = a[r]
            if not row[col]:
                continue
            factor = row[col] / pivot
            for k, x in nonzero:
                row[k] -= factor * x
            eliminated.append((r, factor))
            if not exact:
                row_scale[r] = max(map(abs, row))
        steps.append((pivot_row, eliminated))
        upper.append((pivot, nonzero[1:]))
    return steps, upper


def reference_lu_solve(lu, rhs):
    """Solve B x = rhs from ``reference_factor(B)``, term by term."""
    steps, upper = lu
    b = list(rhs)
    for col, (pivot_row, eliminated) in enumerate(steps):
        b[col], b[pivot_row] = b[pivot_row], b[col]
        x = b[col]
        if x:
            for r, factor in eliminated:
                b[r] -= factor * x
    for col in reversed(range(len(b))):
        pivot, right = upper[col]
        x = b[col]
        for k, u in right:
            x -= u * b[k]
        b[col] = x / pivot
    return b


def reference_lu_solve_transposed(lu, rhs):
    """Solve B^T y = rhs from ``reference_factor(B)``, column by column.

    Forward substitution sweeps the rows of U: each solved entry, when it
    is nonzero, is subtracted times its row from the entries right of it.
    Then the transposed eliminations and the swaps, in reverse order.
    """
    steps, upper = lu
    w = list(rhs)
    for col, (pivot, right) in enumerate(upper):
        x = w[col] / pivot
        w[col] = x
        if x:
            for k, u in right:
                w[k] -= u * x
    for col in reversed(range(len(w))):
        pivot_row, eliminated = steps[col]
        x = w[col]
        for r, factor in eliminated:
            x -= factor * w[r]
        w[col] = x
        w[col], w[pivot_row] = w[pivot_row], w[col]
    return w


ENUMERATION_LIMIT = 12


def enumerate_vertices(prob) -> LpSolution:
    """Brute-force optimum over all basic feasible solutions of an LP.

    The oracle for tiny bounded instances (at most ``ENUMERATION_LIMIT``
    variables, slacks included).  Every basis matrix B is solved for its
    vertex by ``reference_solve_square``, not by the LU that
    ``entmanip.lp.verify_solution`` uses, and the best vertex feasible to
    1e-9 wins; its reduced costs come from y solving B^T y = c_B the same
    way.  Exact problems are solved exactly.  Raises ``ValueError`` above
    the size limit.
    """
    n, m = prob.num_variables, prob.num_constraints
    if n + m > ENUMERATION_LIMIT:
        raise ValueError(
            f"instance too large for vertex enumeration ({n + m} > "
            f"{ENUMERATION_LIMIT} variables)"
        )
    zero = Fraction(0) if prob.exact else 0.0
    dot = sum if prob.exact else math.fsum
    columns = [[row[j] for row in prob.constraint_matrix] for j in range(n)]
    columns += [[int(i == k) for i in range(m)] for k in range(m)]
    costs = list(prob.objective) + [zero] * m
    best = None
    for basis in itertools.combinations(range(n + m), m):
        matrix = [[columns[j][i] for j in basis] for i in range(m)]
        try:
            basic = reference_solve_square(matrix, list(prob.bounds))
        except ZeroDivisionError:
            continue
        if any(x < -1e-9 for x in basic):
            continue
        values = [zero] * (n + m)
        for j, x in zip(basis, basic):
            values[j] = x
        objective = dot(c * x for c, x in zip(prob.objective, values))
        if best is None or objective > best[0]:
            best = objective, basis, matrix, tuple(values[:n])
    if best is None:
        return LpSolution((), None, (), (), "infeasible")
    objective, basis, matrix, values = best
    y = reference_solve_square(
        [list(column) for column in zip(*matrix)], [costs[j] for j in basis]
    )
    reduced = [
        dot(a * b for a, b in zip(y, columns[j])) - costs[j] for j in range(n + m)
    ]
    return LpSolution(values, objective, basis, reduced, "optimal")


def reference_verify(prob, sol, tol=None, slack: float = 0.0) -> bool:
    """Dense check of a claimed optimum: the reference for ``verify_solution``.

    The singular decision is ``reference_solve_square``'s on the basis
    matrix B, in the problem's own arithmetic.  Everything after it is
    exact over the entries as ``Fraction``s: B^-1 column by column,
    x = B^-1 q, y = c_B B^-1, and the reduced cost y.A_j - c_j of every
    extended column.  Float Gauss-Jordan would not do as the reference:
    on B = [[1, 1, 0], [0, 1, 0], [0, 1.5, 1]], q = (1.12, 0, 1e14) it
    returns x_1 = 1.1171875, so its verdict flips on rounding.  The
    acceptance conditions are those ``verify_solution`` documents, each
    threshold moved by ``slack`` times 1 + M^2, M the largest of 1 and the
    magnitudes of x, y, the claimed values and the entries of the problem
    (so M^2 bounds every product the conditions sum): a negative slack
    tightens them and a positive one loosens them.  ``tol`` defaults to
    ``verify_solution``'s: 1e-9 for a float problem and 0 for an exact one,
    whose values must then be nonnegative exactly too.
    """
    if tol is None:
        tol = 0 if prob.exact else 1e-9
    if sol.status != "optimal":
        return False
    n, m = prob.num_variables, prob.num_constraints
    if len(sol.basis) != m or len(sol.values) != n:
        return False
    columns = [
        [row[j] for row in prob.constraint_matrix] if j < n else
        [1 if i == j - n else 0 for i in range(m)]
        for j in range(n + m)
    ]
    costs = list(prob.objective) + [0] * m
    basis_matrix = [[columns[j][i] for j in sol.basis] for i in range(m)]
    try:
        reference_solve_square(basis_matrix, list(prob.bounds))
        exact_matrix = [[Fraction(v) for v in row] for row in basis_matrix]
        inverse_columns = [
            reference_solve_square(exact_matrix, [Fraction(int(i == k)) for i in range(m)])
            for k in range(m)
        ]
    except ZeroDivisionError:
        return False
    x = [
        sum(col[i] * Fraction(q) for col, q in zip(inverse_columns, prob.bounds))
        for i in range(m)
    ]
    y = [
        sum(Fraction(costs[j]) * col[r] for r, j in enumerate(sol.basis))
        for col in inverse_columns
    ]
    reduced = [
        sum(a * Fraction(b) for a, b in zip(y, columns[j])) - Fraction(costs[j])
        for j in range(n + m)
    ]
    extended = [Fraction(0)] * (n + m)
    for j, value in zip(sol.basis, x):
        extended[j] = value
    values = [Fraction(v) for v in sol.values]
    magnitude = max(map(abs, itertools.chain(
        [1], x, y, values, prob.bounds, prob.objective, *prob.constraint_matrix
    )))
    loose = Fraction(slack) * (1 + magnitude**2)
    tol = Fraction(tol) + loose
    return (
        all(v >= -tol for v in extended)
        and all(abs(extended[j] - values[j]) <= tol for j in range(n))
        and all(
            sum(Fraction(a) * v for a, v in zip(row, values)) - Fraction(q) <= tol
            for row, q in zip(prob.constraint_matrix, prob.bounds)
        )
        and all(v >= -(tol if prob.exact else max(tol, Fraction(1e-12) + loose))
                for v in values)
        and abs(sum(Fraction(c) * v for c, v in zip(prob.objective, values))
                - Fraction(sol.objective_value)) <= tol
        and all(d >= -tol for d in reduced)
    )


# Float-mode degenerate instance on which the right-hand sides of tied rows
# drift to +-1e-15; ranking that drift in the ratio test made Bland's rule
# cycle until the pivot cap.
CYCLING_LP = {
    "objective": [0.13, 0.95, -0.33, 0.59, 0.45, 1.38, 1.38],
    "matrix": [
        [1.0, 1.0, 0.0, 1.0, 1.0, 0.88, 0.0],
        [1e-14, 0.04, 0.0, 1.0, 1e-14, 1e-14, 0.0],
        [1.0, 1e-14, 0.0, 1.0, 0.22, 0.15, 0.47],
        [0.09, 1e-14, 1.0, 0.89, 0.15, 1e-14, 1.0],
        [1.0, 1.0, 0.35, 0.0, 0.0, 1e-14, 0.0],
        [0.0, 1.0, 1.0, 1e-14, 1e-14, 1e-14, 0.26],
    ],
    "bounds": [0.43, 0.0, 0.99, 0.0, 0.0, 0.24],
}


def highs_optimum(objective, matrix, bounds) -> float:
    """Optimal value of max c.x, B x <= q, x >= 0 from scipy's HiGHS.

    Feasibility tolerances are tightened to 1e-10: at the default 1e-7
    HiGHS can stop 1e-8 short of the optimum on log2 weights.
    """
    from scipy.optimize import linprog

    res = linprog(
        [-float(c) for c in objective],
        A_ub=[[float(x) for x in row] for row in matrix],
        b_ub=[float(q) for q in bounds],
        bounds=(0, None),
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return -float(res.fun)
