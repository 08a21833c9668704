"""Simplex solver, vertex-enumeration oracle, and solution verification."""

import gc
import inspect
import math
import operator
import pickle
import re
import weakref
from fractions import Fraction
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entmanip import (
    LpProblem,
    LpSolution,
    SchmidtSpectrum,
    concentration_lp,
    constraint_residuals,
    make_spectrum,
    optimal_plan,
    optimality_certificate,
    simplex_solve,
    standard_weights,
    verify_solution,
    vidal_monotones,
)
from entmanip import lp, verify
from entmanip import exact as exact_module
from entmanip.schmidt import holds_fraction
from util import (
    CYCLING_LP,
    enumerate_vertices,
    exact_spectrum_inputs,
    highs_optimum,
    random_spectrum,
    reference_exact_spectrum,
    reference_factor,
    reference_fraction_sum,
    reference_lu_solve,
    reference_lu_solve_transposed,
    reference_optimal_plan,
    reference_pivot,
    reference_solve_square,
    reference_tails,
    reference_verify,
)


def random_bounded_problem(rng, n, m):
    """Feasible, bounded instance: positive matrix, nonnegative bounds."""
    matrix = tuple(
        tuple(float(x) for x in rng.uniform(0.1, 1.0, size=n)) for _ in range(m)
    )
    bounds = tuple(float(x) for x in rng.uniform(0.1, 1.0, size=m))
    objective = tuple(float(x) for x in rng.uniform(-0.5, 1.5, size=n))
    return LpProblem(objective, matrix, bounds)


class TestSimplexSolve:
    def test_one_variable(self):
        sol = simplex_solve(LpProblem((1.0,), ((1.0,),), (1.0,)))
        assert sol.status == "optimal"
        assert sol.values == pytest.approx((1.0,))
        assert sol.objective_value == pytest.approx(1.0)

    def test_worked_concentration_instance(self):
        prob = concentration_lp(make_spectrum([0.5, 0.3, 0.2]))
        sol = simplex_solve(prob)
        assert sol.status == "optimal"
        assert sol.values == pytest.approx((0.2, 0.2, 0.6), abs=1e-12)
        assert sol.objective_value == pytest.approx(
            0.2 * math.log(2) + 0.6 * math.log(3), abs=1e-12
        )

    def test_deterministic(self):
        rng = np.random.default_rng(47)
        prob = random_bounded_problem(rng, 4, 4)
        first = simplex_solve(prob)
        second = simplex_solve(prob)
        assert first.values == second.values
        assert first.basis == second.basis

    def test_degenerate_entering_tie(self):
        # both variables have reduced cost -1 at the start; Bland picks the
        # first and the optimum is still the unique vertex (1, 1)
        prob = LpProblem(
            (1.0, 1.0), ((1.0, 0.0), (0.0, 1.0)), (1.0, 1.0)
        )
        sol = simplex_solve(prob)
        oracle = enumerate_vertices(prob)
        assert sol.values == pytest.approx(oracle.values, abs=1e-12)
        assert sol.objective_value == pytest.approx(
            oracle.objective_value, abs=1e-12
        )

    def test_unbounded(self):
        sol = simplex_solve(LpProblem((1.0,), ((-1.0,),), (1.0,)))
        assert sol.status == "unbounded"

    def test_provably_infeasible_bound(self):
        sol = simplex_solve(LpProblem((1.0,), ((1.0,),), (-1.0,)))
        assert sol.status == "infeasible"

    def test_unsupported_negative_bound(self):
        with pytest.raises(ValueError, match="supported"):
            simplex_solve(LpProblem((1.0,), ((-1.0,),), (-1.0,)))

    def test_agrees_with_enumeration(self):
        rng = np.random.default_rng(53)
        for _ in range(500):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            prob = random_bounded_problem(rng, n, m)
            sol = simplex_solve(prob)
            assert sol.status == "optimal"
            oracle = enumerate_vertices(prob)
            assert float(sol.objective_value) == pytest.approx(
                float(oracle.objective_value), abs=1e-9
            )

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            prob = random_bounded_problem(rng, 4, 4)
            perm = rng.permutation(4)
            shuffled = LpProblem(
                prob.objective,
                tuple(prob.constraint_matrix[i] for i in perm),
                tuple(prob.bounds[i] for i in perm),
            )
            a = simplex_solve(prob)
            b = simplex_solve(shuffled)
            assert float(a.objective_value) == pytest.approx(
                float(b.objective_value), abs=1e-9
            )

    def test_degenerate_drift_does_not_cycle(self):
        prob = LpProblem(
            CYCLING_LP["objective"], CYCLING_LP["matrix"], CYCLING_LP["bounds"]
        )
        sol = simplex_solve(prob)
        assert sol.status == "optimal"
        assert float(sol.objective_value) == pytest.approx(
            highs_optimum(**CYCLING_LP), abs=1e-9
        )
        assert verify_solution(prob, sol)

    def test_degenerate_drift_reads_out_as_zero(self):
        # float drift left x7 at -4.9e-15; a basic value in [-tol, 0] is 0.0
        prob = LpProblem(
            CYCLING_LP["objective"], CYCLING_LP["matrix"], CYCLING_LP["bounds"]
        )
        sol = simplex_solve(prob)
        assert all(v >= 0 for v in sol.values)
        assert sol.values[6] == 0.0

    def test_small_right_hand_side_keeps_its_ratio(self):
        # row 0's ratio 5e-12 / 1e-10 = 0.05 must lose to row 1's 0.01,
        # although its right-hand side is below the pivot tolerance
        prob = LpProblem((1.0,), ((1e-10,), (1.0,)), (5e-12, 0.01))
        sol = simplex_solve(prob)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(0.01, abs=1e-12)
        assert verify_solution(prob, sol)

    def test_weak_duality_from_final_tableau(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            prob = random_bounded_problem(rng, n, m)
            sol = simplex_solve(prob)
            duals = sol.reduced_costs[n:]
            dual_objective = math.fsum(
                float(q) * float(y) for q, y in zip(prob.bounds, duals)
            )
            assert dual_objective == pytest.approx(
                float(sol.objective_value), abs=1e-9
            )


def _counters(sol):
    return sol.pivots, sol.degenerate_pivots, sol.absorb_pivots


class TestSolverCounters:
    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_repeat_exactly_on_a_fixed_lp(self, exact):
        # indicator weights leave slack at the optimum for absorption
        prob = concentration_lp(
            make_spectrum([0.4, 0.3, 0.2, 0.1]), standard_weights("indicator", 4)
        )
        runs = [simplex_solve(prob, exact=exact) for _ in range(3)]
        assert {_counters(sol) for sol in runs} == {(1, 0, 2)}

    def test_degenerate_pivots_of_the_cycling_lp(self):
        prob = LpProblem(
            CYCLING_LP["objective"], CYCLING_LP["matrix"], CYCLING_LP["bounds"]
        )
        assert _counters(simplex_solve(prob)) == (8, 7, 0)
        assert _counters(simplex_solve(prob)) == (8, 7, 0)

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_bounds(self, exact, data):
        prob = data.draw(_problems(exact))
        sol = _solve_or_error(prob, exact)
        if isinstance(sol, str) or sol.status != "optimal":
            return
        assert sol.degenerate_pivots <= sol.pivots
        assert sol.absorb_pivots <= prob.num_variables
        assert _counters(simplex_solve(prob, exact=exact)) == _counters(sol)


class TestVerifySolution:
    def test_accepts_solver_output(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            s = random_spectrum(rng, int(rng.integers(1, 8)))
            prob = concentration_lp(s)
            sol = simplex_solve(prob)
            assert verify_solution(prob, sol)

    def test_rejects_perturbed_values(self):
        prob = concentration_lp(make_spectrum([0.5, 0.3, 0.2]))
        sol = simplex_solve(prob)
        bumped = list(sol.values)
        bumped[1] += 1e-3  # all constraints are tight, so this breaks one
        fake = LpSolution(
            tuple(bumped), sol.objective_value, sol.basis, sol.reduced_costs,
            "optimal",
        )
        assert not verify_solution(prob, fake)

    def test_rejects_suboptimal_basis(self):
        prob = concentration_lp(make_spectrum([0.5, 0.3, 0.2]))
        n, m = prob.num_variables, prob.num_constraints
        # the all-slack vertex (p = 0) is feasible but not optimal
        fake = LpSolution(
            (0.0,) * n, 0.0, tuple(range(n, n + m)), (), "optimal"
        )
        assert not verify_solution(prob, fake)

    def test_rejects_non_optimal_status(self):
        prob = LpProblem((1.0,), ((1.0,),), (1.0,))
        claim = LpSolution((), None, (), (), "unbounded")
        assert not verify_solution(prob, claim)

    def test_rejects_a_negative_claimed_value(self):
        # a claim of -1.2e-9 is within VERIFY_TOL of the basis solution and
        # of the row bound, but is itself negative past it
        prob = LpProblem((1.0,), ((1.0,),), (-6e-10,))
        for value, verdict in ((-1.2e-9, False), (-6e-10, True)):
            claim = LpSolution((value,), value, (0,), (), "optimal")
            assert verify_solution(prob, claim) is verdict

    def test_rejects_a_mismatched_objective(self):
        prob = concentration_lp(make_spectrum([0.5, 0.3, 0.2]))
        sol = simplex_solve(prob)
        assert verify_solution(prob, sol)
        claim = LpSolution(
            sol.values, sol.objective_value + 1e-6, sol.basis, sol.reduced_costs,
            "optimal",
        )
        assert not verify_solution(prob, claim)

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_rejects_a_nan_claim_at_the_optimal_basis(self, exact):
        # NaN fails every comparison, so only a check in positive form
        # rejects it; Fraction(nan) raises, which is a rejection too
        spectrum = [Fraction(k, 10) for k in (5, 3, 2)] if exact else [0.5, 0.3, 0.2]
        prob = concentration_lp(make_spectrum(spectrum))
        sol = simplex_solve(prob)
        assert verify_solution(prob, sol)
        nan = math.nan
        for values, objective in (((nan,) * 3, nan), (sol.values, nan)):
            claim = LpSolution(values, objective, sol.basis, (), "optimal")
            assert verify_solution(prob, claim) is False

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    @pytest.mark.parametrize("n", [2, 64])
    def test_singular_basis_fails_without_raising(self, n, exact):
        twin, claim = _twin_problem(n, exact)
        assert len(claim.basis) == twin.num_constraints
        assert not verify_solution(twin, claim)

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_rejects_a_basis_that_names_a_negative_column(self, exact):
        # r[-2] is column 0 by Python indexing, so the basis (-2, 1) would
        # evaluate as (0, 1); the claim (0, 1.2) is not the optimum 2.8
        number = Fraction if exact else float
        prob = LpProblem((number(1), 1.0), ((1.0, 2.0), (3.0, 1.0)), (4.0, 6.0))
        six_fifths = number(6) / 5
        claim = LpSolution((0, six_fifths), six_fifths, (-2, 1), (), "optimal")
        assert verify_solution(prob, claim) is False
        sol = simplex_solve(prob)
        assert sol.basis == (0, 1) and verify_solution(prob, sol)
        assert sol.objective_value == (Fraction(14, 5) if exact else 2.8)


def test_reduced_costs_of_a_mixed_problem():
    # one Fraction makes the whole problem exact, so y and every reduced
    # cost are Fractions: column 4's 1e16 + 1 - 1e16 is exactly 1, where a
    # naive float sum gives 0.0
    matrix = (
        (1.0, 0.0, 0.0, Fraction(1)),
        (0.0, 1.0, 0.0, Fraction(1)),
        (0.0, 0.0, 1.0, Fraction(1)),
    )
    prob = LpProblem((1e16, 1.0, -1e16, 0.0), matrix, (1.0, 1.0, 1.0))
    basis = (0, 1, 2)
    ex = lp._arithmetic(prob.exact)
    _, y = lp._basis_point(prob, basis, ex)
    costs = verify._reduced_costs(prob, y, ex) + y
    assert costs == [0, 0, 0, Fraction(1), Fraction(10**16), 1, -Fraction(10**16)]
    assert all(type(c) is Fraction for c in costs)


def test_exact_concentration_lp_is_exact_end_to_end():
    # the exact LPs a library caller builds: a Fraction spectrum beside the
    # default float ln weights
    prob = concentration_lp(make_spectrum([Fraction(k) for k in (7, 5, 3, 2, 1)]))
    sol = simplex_solve(prob, exact=True)
    ex = lp._arithmetic(prob.exact)
    _, y = lp._basis_point(prob, sol.basis, ex)
    reduced = verify._reduced_costs(prob, y, ex) + y
    residuals = constraint_residuals(prob, simplex_solve(prob).values)
    vertex = enumerate_vertices(prob)
    for values in (reduced, residuals, vertex.values, [vertex.objective_value]):
        assert all(type(v) is Fraction for v in values)
    assert vertex.objective_value == sol.objective_value
    assert verify_solution(prob, sol)


def _moved(sol, k, shift):
    """``sol`` with value k, or the objective when k is past the values, moved."""
    values, objective = list(sol.values), sol.objective_value
    if k < len(values):
        values[k] += shift
    else:
        objective += shift
    return LpSolution(values, objective, sol.basis, sol.reduced_costs, "optimal")


@pytest.mark.parametrize("k, shift", [(0, Fraction(1, 10**12)), (3, Fraction(1, 10**10))])
def test_exact_verification_rejects_a_claim_within_the_float_tolerance(k, shift):
    # values[0] + 1e-12 breaks row 1 (the sum of p exceeds 1); the
    # objective + 1e-10 breaks the objective's equality
    prob = concentration_lp(make_spectrum([Fraction(5), Fraction(3), Fraction(2)]))
    sol = simplex_solve(prob)
    assert verify_solution(prob, sol)
    assert not verify_solution(prob, _moved(sol, k, shift))


_MIXED_ENTRIES = st.one_of(
    st.integers(-3, 9),
    st.floats(-2, 4),
    st.fractions(min_value=-3, max_value=9, max_denominator=8),
)


@st.composite
def _mixed_problems(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    row = st.lists(_MIXED_ENTRIES, min_size=n, max_size=n)
    objective = draw(row)
    matrix = draw(st.lists(row, min_size=m, max_size=m))
    bounds = [abs(q) for q in draw(st.lists(_MIXED_ENTRIES, min_size=m, max_size=m))]
    return objective, matrix, bounds


class TestOneArithmetic:
    """Any Fraction makes a problem exact; without one it is float."""

    @settings(max_examples=150, deadline=None)
    @given(parts=_mixed_problems())
    def test_stored_in_one_arithmetic_and_solved_alike(self, parts):
        objective, matrix, bounds = parts
        prob = LpProblem(objective, matrix, bounds)
        given_entries = [*objective, *chain(*matrix), *bounds]
        stored = [*prob.objective, *chain(*prob.constraint_matrix), *prob.bounds]
        exact = any(isinstance(v, Fraction) for v in given_entries)
        assert prob.exact == exact
        assert all(type(v) is (Fraction if exact else float) for v in stored)
        assert stored == given_entries
        # each mode solves it as it solves it converted by hand into the
        # arithmetic of the solve: exact when asked for or when it is exact
        for mode in (False, True):
            kind = Fraction if mode or prob.exact else float
            by_hand = LpProblem(
                [kind(v) for v in objective],
                [[kind(v) for v in row] for row in matrix],
                [kind(v) for v in bounds],
            )
            sol = _solve_or_error(prob, mode)
            assert sol == _solve_or_error(by_hand, mode)
            if not isinstance(sol, str):
                assert {type(v) for v in sol.values} <= {kind}


    @pytest.mark.parametrize(
        "entries",
        [
            (Fraction(1, 2), Fraction(-3), Fraction(0)),
            (0.5, -3.0, 0.0),
        ],
        ids=["fractions", "floats"],
    )
    def test_one_type_rows_are_stored_as_given(self, entries):
        objective = entries
        matrix = (entries, entries[::-1])
        bounds = (abs(entries[0]), abs(entries[1]))
        prob = LpProblem(objective, matrix, bounds)
        given_entries = [*objective, *chain(*matrix), *bounds]
        stored = [*prob.objective, *chain(*prob.constraint_matrix), *prob.bounds]
        assert all(a is b for a, b in zip(stored, given_entries))

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_every_vector_is_converted_into_the_arithmetic(self, exact):
        # a vector already of the problem's type goes through the same
        # conversion as the others, and keeps its values
        number = Fraction if exact else float
        row = (number(1) / 2, number(1) / 3)
        objective, matrix, bounds = (0.5, 1), (row, (1, 2.0)), (number(1), 2.0)
        prob = LpProblem(objective, matrix, bounds)
        stored = [*prob.objective, *chain(*prob.constraint_matrix), *prob.bounds]
        assert prob.exact == exact
        assert all(type(v) is number for v in stored)
        assert stored == [*objective, *chain(*matrix), *bounds]

    @pytest.mark.parametrize(
        "entries, kind",
        [
            ((1, 2, 3), float),
            ((True, 2.0, 3.0), float),
            ((np.float64(0.5), 2.0, 3.0), float),
            ((Fraction(1, 2), 2, 3), Fraction),
            ((Fraction(1, 2), 0.25, True), Fraction),
        ],
    )
    def test_other_mixes_are_converted(self, entries, kind):
        prob = LpProblem(entries, (entries,), (entries[1],))
        stored = [*prob.objective, *chain(*prob.constraint_matrix), *prob.bounds]
        assert all(type(v) is kind for v in stored)
        assert stored == [*entries, *entries, entries[1]]


class TestLargeConcentrationLp:
    """n = 64 and 128 against scipy's HiGHS, and the basis verification."""

    @pytest.mark.parametrize("weights", ["log2", "random"])
    @pytest.mark.parametrize("n", [64, 128])
    def test_objective_matches_highs_and_verifies(self, n, weights):
        rng = np.random.default_rng(1000 + n)
        s = random_spectrum(rng, n)
        if weights == "log2":
            w = standard_weights("log2", n)
        else:
            w = tuple(rng.random(n).tolist())
        prob = concentration_lp(s, w)
        sol = simplex_solve(prob)
        assert sol.status == "optimal"
        reference = highs_optimum(prob.objective, prob.constraint_matrix, prob.bounds)
        assert float(sol.objective_value) == pytest.approx(reference, abs=1e-9)
        assert verify_solution(prob, sol)


class TestEnumerateVertices:
    def test_one_variable(self):
        sol = enumerate_vertices(LpProblem((1.0,), ((1.0,),), (1.0,)))
        assert sol.values == pytest.approx((1.0,))

    def test_size_limit(self):
        prob = LpProblem(
            (1.0,) * 7, tuple((1.0,) * 7 for _ in range(7)), (1.0,) * 7
        )
        with pytest.raises(ValueError, match="too large"):
            enumerate_vertices(prob)

    def test_concentration_triple_agreement(self):
        # the level-1 weight is zero, so the optimal vertex is not unique
        # and the enumeration oracle confirms the optimal value; the solver
        # itself must return the saturating (plan) vertex
        rng = np.random.default_rng(71)
        for _ in range(50):
            s = random_spectrum(rng, 4)
            prob = concentration_lp(s)
            plan = optimal_plan(s)
            sol = simplex_solve(prob)
            oracle = enumerate_vertices(prob)
            assert sol.values == pytest.approx(plan.probabilities, abs=1e-9)
            assert float(sol.objective_value) == pytest.approx(
                plan.expected_entanglement, abs=1e-9
            )
            assert float(oracle.objective_value) == pytest.approx(
                plan.expected_entanglement, abs=1e-9
            )


class TestExactRationalMode:
    def exact_spectrum(self):
        return make_spectrum(
            [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)]
        )

    def test_closed_form_saturates_exactly(self):
        s = self.exact_spectrum()
        prob = concentration_lp(s)
        plan = optimal_plan(s)
        residuals = constraint_residuals(prob, plan.probabilities)
        assert all(r == 0 for r in residuals)

    def test_exact_simplex_matches_closed_form_exactly(self):
        s = self.exact_spectrum()
        prob = concentration_lp(s)
        sol = simplex_solve(prob, exact=True)
        assert sol.status == "optimal"
        assert sol.values == optimal_plan(s).probabilities
        assert all(isinstance(v, Fraction) for v in sol.values)

    def test_default_solve_of_an_exact_problem_is_exact(self):
        s = self.exact_spectrum()
        sol = simplex_solve(concentration_lp(s))
        assert sol.values == optimal_plan(s).probabilities
        assert all(type(v) is Fraction for v in sol.values)

    def test_exact_solution_verifies(self):
        s = self.exact_spectrum()
        prob = concentration_lp(s)
        sol = simplex_solve(prob, exact=True)
        assert verify_solution(prob, sol)


class TestConcentrationBasisStructure:
    def test_all_slacks_zero_for_log_weights(self):
        # strictly decreasing spectra give a nondegenerate all-structural
        # optimal basis, i.e. every slack variable is zero
        rng = np.random.default_rng(73)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            raw = np.sort(rng.random(n) + 0.05)[::-1]
            raw[: n - 1] += 0.2 * np.arange(n - 1, 0, -1)  # force distinct
            s = make_spectrum(raw.tolist())
            prob = concentration_lp(s)
            sol = simplex_solve(prob)
            assert sol.basis == tuple(range(n))
            residuals = constraint_residuals(prob, sol.values)
            assert max(abs(float(r)) for r in residuals) <= 1e-10


@st.composite
def _concentration_lps(draw, min_rank=2):
    """A concentration LP with its mode and weights, n = ``min_rank``-40.

    Exact mode: a ``Fraction`` spectrum, and ``Fraction`` weights when they
    are random.  Float mode: floats throughout.  Random weights have
    denominators up to 5, so each certificate value is 0 or at least 1/60
    away from it, clear of both the solver's and the certificate's float
    tolerance.  Spectra draw from twelve values, so ties (degenerate
    vertices) are common.
    """
    exact = draw(st.booleans())
    n = draw(st.integers(min_rank, 40))
    raw = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    s = make_spectrum([Fraction(x) if exact else float(x) for x in raw])
    kind = draw(st.sampled_from(["ln", "log2", "random", "indicator"]))
    if kind == "random":
        fraction = st.builds(Fraction, st.integers(-6, 12), st.integers(1, 5))
        weights = draw(st.lists(fraction, min_size=n, max_size=n))
        if not exact:
            weights = [float(c) for c in weights]
    else:
        weights = standard_weights(kind, n)
    return concentration_lp(s, weights), exact, tuple(weights)


class TestCrashBasis:
    """The all-structural crash check against the pivots and the certificate."""

    @settings(max_examples=60, deadline=None)
    @given(case=_concentration_lps())
    def test_same_optimum_as_the_slack_start(self, case):
        prob, exact, _ = case
        sol = simplex_solve(prob, exact=exact)
        pivoted = _slack_start(prob, exact)
        assert sol.status == pivoted.status == "optimal"
        if exact:
            assert sol.objective_value == pivoted.objective_value
        else:
            assert sol.objective_value == pytest.approx(
                pivoted.objective_value, rel=1e-12, abs=1e-14
            )

    @settings(max_examples=100, deadline=None)
    @given(case=_concentration_lps())
    def test_taken_exactly_when_the_certificate_passes(self, case):
        prob, exact, weights = case
        n = prob.num_variables
        sol = simplex_solve(prob, exact=exact)
        cert = optimality_certificate(n, weights)
        crashed = sol.pivots == 0 and sol.basis == tuple(range(n))
        assert crashed == cert.passed
        if not crashed:
            return
        assert sol.reduced_costs[:n] == (0,) * n
        slack_costs = sol.reduced_costs[n:]
        if holds_fraction(weights):
            assert slack_costs == cert.z_values
        else:
            assert [float(y) for y in slack_costs] == pytest.approx(
                cert.z_values, rel=1e-12, abs=1e-12
            )

    @pytest.mark.parametrize("weights", ["ln", "log2"])
    @pytest.mark.parametrize("n", [64, 128])
    def test_float_values_match_the_exact_closed_form(self, n, weights):
        s = random_spectrum(np.random.default_rng(2000 + n), n)
        sol = simplex_solve(concentration_lp(s, standard_weights(weights, n)))
        assert sol.pivots == 0
        a = [Fraction(x) for x in s.coeffs] + [Fraction(0)]
        closed = [j * (a[j - 1] - a[j]) for j in range(1, n + 1)]
        worst = max(abs(Fraction(v) - p) for v, p in zip(sol.values, closed))
        assert worst <= 1e-13

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    @pytest.mark.parametrize(
        "objective, matrix, bounds, values, basis, pivots",
        [
            # B^-1 q = (1.5, -0.5): the x check fails
            ((1.0, 0.0), ((1.0, 1.0), (1.0, -1.0)), (1.0, 2.0), (1, 0), (0, 3), 1),
            # equal rows: B is singular, so there is no check
            ((1.0, 2.0), ((1.0, 1.0), (1.0, 1.0)), (1.0, 2.0), (0, 1), (1, 3), 2),
        ],
        ids=["x-fails", "singular"],
    )
    def test_failed_or_skipped_check_pivots(
        self, exact, objective, matrix, bounds, values, basis, pivots
    ):
        prob = LpProblem(objective, matrix, bounds)
        sol = simplex_solve(prob, exact=exact)
        assert sol == _slack_start(prob, exact)
        assert (sol.values, sol.basis, sol.pivots) == (values, basis, pivots)


def _held_entries() -> int:
    return sum(n * n for n, _ in lp._shared)


def _with_fresh_rows(prob) -> LpProblem:
    """``prob`` with new row tuples of the same entries, which share nothing."""
    rows = [list(row) for row in prob.constraint_matrix]
    return LpProblem(prob.objective, rows, prob.bounds)


def _holds_rows_of(prob) -> bool:
    entry = lp._shared.get((prob.num_variables, prob.exact))
    return entry is not None and entry[0] is prob.constraint_matrix


@st.composite
def _exact_weights(draw, n):
    """``Fraction`` weights for rank n: convex (the crash basis is optimal),
    indicator-like, random, or convex with a negative c_1."""
    kind = draw(st.sampled_from(["convex", "indicator", "random", "negative c_1"]))
    fraction = st.fractions(min_value=-100, max_value=100, max_denominator=1000)
    if kind == "random":
        return draw(st.lists(fraction, min_size=n, max_size=n))
    if kind == "indicator":
        low, high = draw(fraction), draw(fraction.filter(bool))
        return [low] + [high] * (n - 1)
    steps = st.fractions(min_value=0, max_value=20, max_denominator=60)
    f = increment = 0
    weights = []
    for j, step in enumerate(draw(st.lists(steps, min_size=n, max_size=n)), start=1):
        increment += step
        f += increment
        weights.append(f / j)
    if kind == "negative c_1":
        weights[0] = -abs(draw(fraction.filter(bool)))
    return weights


class TestSharedMatrices:
    """The concentration matrix of a rank, built once, and factored once
    (float) or held with its closed-form inverse (exact)."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_the_held_inverse_solves_as_a_fresh_factorisation(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        raw = data.draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n))
        weights = data.draw(_exact_weights(n), label="weights")
        other = data.draw(
            st.lists(st.fractions(max_denominator=10**9), min_size=n, max_size=n)
        )
        with mock.patch.object(lp, "_shared", {}):
            prob = concentration_lp(make_spectrum([Fraction(x) for x in raw]), weights)
            rows, inverse = lp._shared[n, True]
            assert rows is prob.constraint_matrix
            assert type(inverse) is exact_module.TailSumInverse
            lu = lp._factor([list(row) for row in rows], exact_module)
            for rhs in (prob.bounds, prob.objective, other):
                for held, fresh in (
                    (inverse.solve(rhs), lu.solve(rhs)),
                    (inverse.solve_transposed(rhs), lu.solve_transposed(rhs)),
                ):
                    assert held == fresh
                    assert all(type(v) is Fraction for v in held)
            sol = simplex_solve(prob)
        cert = optimality_certificate(n, weights)
        crashed = sol.pivots == sol.absorb_pivots == 0 and sol.basis == tuple(range(n))
        assert crashed == cert.passed
        if crashed:
            assert sol.reduced_costs[n:] == cert.z_values

    @settings(max_examples=100, deadline=None)
    @given(case=_concentration_lps(min_rank=1))
    def test_sharing_changes_no_result(self, case):
        # fresh row tuples with the same entries bypass the shared matrix
        prob, _, _ = case
        assert _holds_rows_of(prob)
        fresh = _with_fresh_rows(prob)
        assert fresh == prob and not _holds_rows_of(fresh)
        held = dict(lp._shared)
        sol, again = simplex_solve(prob), simplex_solve(prob)
        alone = simplex_solve(fresh)
        # equal, and floats bit for bit: repr tells -0.0 from 0.0
        assert sol == again == alone and repr(sol) == repr(alone)
        verdict = verify_solution(prob, sol)
        assert verdict == verify_solution(fresh, alone) == verify_solution(fresh, sol)
        assert verdict
        assert lp._shared.keys() == held.keys()

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_problems_of_a_rank_share_rows_and_one_factorisation(
        self, exact, monkeypatch
    ):
        monkeypatch.setattr(lp, "_shared", {})
        number, other_number = (Fraction, float) if exact else (float, Fraction)
        first = make_spectrum([number(k) for k in (5, 4, 4, 2, 1)])
        second = make_spectrum([number(k) for k in (9, 3, 2, 2, 1)])
        probs = [
            concentration_lp(first),
            concentration_lp(second, standard_weights("log2", 5)),
        ]
        rows = probs[0].constraint_matrix
        assert all(map(operator.is_, rows, probs[1].constraint_matrix))
        other = concentration_lp(make_spectrum([other_number(1)] * 5))
        assert not any(map(operator.is_, rows, other.constraint_matrix))
        factor = lp._factor
        factored = []

        def counting(matrix, ex):
            factored.append(matrix)
            return factor(matrix, ex)

        monkeypatch.setattr(lp, "_factor", counting)
        for prob in probs:
            sol = simplex_solve(prob)
            assert sol.pivots == 0 and verify_solution(prob, sol)
        # an exact matrix is held with its closed-form inverse, and a float
        # one is factored once for both problems
        assert len(factored) == (0 if exact else 1)

    def test_held_entries_stay_within_the_bound(self, monkeypatch):
        monkeypatch.setattr(lp, "_shared", {})
        bound = lp._SHARED_ENTRIES
        ranks = range(1, 81)
        assert sum(n * n for n in ranks) > bound
        for n in ranks:
            s = make_spectrum([float(n + 1 - k) for k in range(n)])
            concentration_lp(s)
            assert _held_entries() <= bound
        # the least recently used ranks went first, the last one is held
        assert (1, False) not in lp._shared and (80, False) in lp._shared
        oversized = math.isqrt(bound) + 1
        prob = concentration_lp(make_spectrum([1.0] * oversized))
        assert not _holds_rows_of(prob) and _held_entries() <= bound

    def test_a_small_bound_is_kept_by_every_rank_and_arithmetic(self, monkeypatch):
        monkeypatch.setattr(lp, "_shared", {})
        monkeypatch.setattr(lp, "_SHARED_ENTRIES", 1000)
        for n in range(1, 41):
            for number in (float, Fraction):
                s = make_spectrum([number(n + 1 - k) for k in range(n)])
                prob = concentration_lp(s)
                assert simplex_solve(prob).pivots == 0
                assert _held_entries() <= 1000
                assert _holds_rows_of(prob) == (n * n <= 1000)

    def test_other_problems_leave_the_cache_as_it_is(self, monkeypatch):
        monkeypatch.setattr(lp, "_shared", {})
        s = make_spectrum([0.4, 0.3, 0.2, 0.1])
        prob = concentration_lp(s, standard_weights("log2", 4))
        verify_solution(prob, simplex_solve(prob))
        held = {key: list(entry) for key, entry in lp._shared.items()}
        reversed_rows = [row[::-1] for row in prob.constraint_matrix]
        squares = [
            _with_fresh_rows(prob),
            # the held rank and arithmetic, other rows
            LpProblem(prob.objective, reversed_rows, prob.bounds),
            LpProblem((1.0, 2.0), ((1.0, 1.0), (1.0, -1.0)), (1.0, 0.5)),
            LpProblem((Fraction(1), 2), ((1, 1), (2, 1)), (1, 1)),
        ]

        def solved_alone(square):
            with mock.patch.object(lp, "_shared", {}):
                sol = simplex_solve(square)
                return sol, verify_solution(square, sol)

        alone = [solved_alone(square) for square in squares]
        for _ in range(3):
            for square, (sol, verdict) in zip(squares, alone):
                assert simplex_solve(square) == sol
                assert verify_solution(square, sol) == verdict
            # an exact=True lift converts the shared float rows afresh
            lifted = simplex_solve(prob, exact=True)
            assert lifted.pivots == 0 and verify_solution(prob, lifted)
        assert lp._shared.keys() == held.keys()
        for key, (rows, lu) in held.items():
            assert lp._shared[key][0] is rows and lp._shared[key][1] is lu

    def test_a_pickled_problem_carries_no_shared_state(self):
        prob = concentration_lp(make_spectrum([0.5, 0.3, 0.2]))
        clone = pickle.loads(pickle.dumps(prob))
        assert clone == prob and hash(clone) == hash(prob)
        assert repr(clone) == repr(prob)
        assert vars(clone).keys() == {"objective", "constraint_matrix", "bounds"}
        assert not _holds_rows_of(clone)
        assert simplex_solve(clone) == simplex_solve(prob)


class TestProblemsAroundTheHeldMatrix:
    """``concentration_lp`` stores the held matrix itself and checks only
    the weights and the bounds, by ``LpProblem``'s rules."""

    @pytest.mark.parametrize(
        "spectrum_number, weight_number",
        [(float, float), (Fraction, float), (float, Fraction), (Fraction, Fraction)],
    )
    def test_the_problem_holds_the_held_tuple(
        self, spectrum_number, weight_number, monkeypatch
    ):
        monkeypatch.setattr(lp, "_shared", {})
        s = make_spectrum([spectrum_number(k) for k in (5, 3, 2)])
        weights = [weight_number(k) for k in (0, 1, 3)]
        exact = Fraction in (spectrum_number, weight_number)
        with mock.patch.object(
            LpProblem, "__init__", side_effect=AssertionError("__init__ called")
        ) as init:
            prob = concentration_lp(s, weights)
        init.assert_not_called()
        assert prob.constraint_matrix is lp._shared[3, exact][0]
        assert _holds_rows_of(prob) and prob.exact == exact
        kind = Fraction if exact else float
        stored = [*prob.objective, *chain(*prob.constraint_matrix), *prob.bounds]
        assert all(type(v) is kind for v in stored)
        # the values __init__ stores for the same vectors
        assert prob == LpProblem(weights, prob.constraint_matrix, vidal_monotones(s))

    @pytest.mark.parametrize(
        "weights, message",
        [
            ((0.0, math.nan, 1.0), "LP objective entries must be finite"),
            ((0.0, math.inf, 1.0), "LP objective entries must be finite"),
            ((0.0, -math.inf, 1.0), "LP objective entries must be finite"),
            ((0.0, "1.5", 1.0), "LP entries must be real numbers"),
            ((0.0, None, 1.0), "LP entries must be real numbers"),
            ((0.0, 10**400, 1.0), "LP objective entries must be finite"),
            ((Fraction(0), math.inf, 1), "LP objective entries must be finite"),
        ],
        ids=["nan", "inf", "-inf", "string", "none", "huge-int", "exact-inf"],
    )
    def test_weights_are_checked_as_lp_problem_checks_them(self, weights, message):
        s = make_spectrum([0.5, 0.3, 0.2])
        held = concentration_lp(s)
        with pytest.raises(ValueError) as built:
            LpProblem(weights, held.constraint_matrix, held.bounds)
        with pytest.raises(ValueError) as concentrated:
            concentration_lp(s, weights)
        assert str(concentrated.value) == str(built.value) == message


def _fresh_problem(weights, raw, zero_tol) -> LpProblem:
    """The concentration LP of exact input by the loops, checked by ``__init__``.

    New rows of ``Fraction(j + 1 - l, j)``, the tails of the reference
    spectrum summed term by term, and ``weights``.
    """
    tails = reference_tails(reference_exact_spectrum(raw, zero_tol))
    n = len(tails)
    rows = [
        [Fraction(j + 1 - l, j) if j >= l else 0 for j in range(1, n + 1)]
        for l in range(1, n + 1)
    ]
    return LpProblem(weights, rows, tails)


class TestHeldLnWeights:
    """An exact matrix is held with its rank's ln weights and their duals.

    ``concentration_lp`` of an exact spectrum with default weights stores
    the held weights tuple as its objective, and the crash check finds its
    duals by identity; explicit weights are converted and solved as before.
    """

    @settings(max_examples=60, deadline=None)
    @given(exact_spectrum_inputs())
    def test_the_default_lp_and_its_solution_equal_the_fraction_loops(self, case):
        raw, zero_tol = case
        with mock.patch.object(lp, "_shared", {}):
            s = make_spectrum(raw, zero_tol)
            n = s.rank
            prob = concentration_lp(s)
            rows, inverse = lp._shared[n, True]
            weights = tuple(map(Fraction, standard_weights("ln", n)))
            assert prob.objective is inverse.ln_weights and inverse.ln_weights == weights
            assert all(type(c) is Fraction for c in inverse.ln_weights)
            fresh = _fresh_problem(weights, raw, zero_tol)
            assert prob == fresh and repr(prob) == repr(fresh)
            lu = lp._factor(fresh.constraint_matrix, exact_module)
            duals = lu.solve_transposed(list(weights))
            assert list(inverse.ln_duals) == duals
            assert exact_module.TailSumInverse(weights).solve_transposed(list(weights)) == duals
            sol = simplex_solve(prob)
            assert "coeffs" not in s.__dict__
        probs, _ = reference_optimal_plan(SchmidtSpectrum(s.coeffs))
        z = optimality_certificate(n, weights).z_values
        objective = reference_fraction_sum(c * p for c, p in zip(weights, probs))
        expected = LpSolution(probs, objective, range(n), (0,) * n + z, "optimal")
        assert sol == expected == simplex_solve(fresh)
        assert repr(sol) == repr(simplex_solve(fresh))
        assert verify_solution(prob, sol)

    @settings(max_examples=40, deadline=None)
    @given(
        exact_spectrum_inputs(max_rank=24),
        st.sampled_from(["ln", "log2", "fractions"]),
        st.data(),
    )
    def test_explicit_weights_never_touch_the_held_pieces(self, case, kind, data):
        raw, zero_tol = case
        s = make_spectrum(raw, zero_tol)
        n = s.rank
        if kind == "fractions":
            weights = data.draw(_exact_weights(n), label="weights")
        else:
            weights = standard_weights(kind, n)
        with mock.patch.object(lp, "_shared", {}):
            concentration_lp(s)
            rows, inverse = lp._shared[n, True]
            held = inverse.ln_weights, inverse.ln_duals
            prob = concentration_lp(s, weights)
            assert prob.constraint_matrix is rows
            assert prob.objective is not inverse.ln_weights
            fresh = _fresh_problem(weights, raw, zero_tol)
            assert prob == fresh and repr(prob) == repr(fresh)
            sol = simplex_solve(prob)
            alone = simplex_solve(fresh)
            assert sol == alone and repr(sol) == repr(alone)
            assert verify_solution(prob, sol) == verify_solution(fresh, alone)
            assert lp._shared[n, True][1] is inverse
            assert (inverse.ln_weights, inverse.ln_duals) == held
            assert all(map(operator.is_, held, (inverse.ln_weights, inverse.ln_duals)))

    def test_evicting_a_rank_drops_its_held_pieces(self, monkeypatch):
        monkeypatch.setattr(lp, "_shared", {})
        monkeypatch.setattr(lp, "_SHARED_ENTRIES", 50)
        s = make_spectrum([Fraction(k) for k in (5, 4, 3, 2, 1)])
        first = concentration_lp(s)
        inverse = weakref.ref(lp._shared[5, True][1])
        # 25 + 36 entries are over the bound, so rank 5 goes
        concentration_lp(make_spectrum([Fraction(k) for k in range(1, 7)]))
        assert (5, True) not in lp._shared
        gc.collect()
        assert inverse() is None
        again = concentration_lp(s)
        assert again == first and again.objective is not first.objective
        assert again.objective is lp._shared[5, True][1].ln_weights


def test_problem_validation():
    with pytest.raises(ValueError, match="row count"):
        LpProblem((1.0,), ((1.0,),), (1.0, 2.0))
    with pytest.raises(ValueError, match="row length"):
        LpProblem((1.0, 2.0), ((1.0,),), (1.0,))


@pytest.mark.parametrize(
    "field, objective, matrix, bounds",
    [
        ("objective", (math.nan,), ((1.0,),), (1.0,)),
        ("constraint_matrix", (1.0,), ((math.inf,),), (1.0,)),
        ("bounds", (1.0,), ((1.0,),), (math.nan,)),
    ],
    ids=["objective", "constraint_matrix", "bounds"],
)
def test_problem_rejects_non_finite_floats(field, objective, matrix, bounds):
    with pytest.raises(ValueError, match=f"LP {field} entries must be finite"):
        LpProblem(objective, matrix, bounds)


@pytest.mark.parametrize(
    "objective, matrix, bounds, message",
    [
        (("1",), (("2",),), ("3",), "real numbers"),
        ((Fraction(1),), (("1/2",),), (Fraction(1),), "real numbers"),
        ((None,), ((1.0,),), (1.0,), "real numbers"),
        ((10**400,), ((1.0,),), (1.0,), "LP objective entries must be finite"),
        ((1.0,), ((1.0,),), (-(10**400),), "LP bounds entries must be finite"),
        ((Fraction(1),), ((math.inf,),), (1,), "LP constraint_matrix entries must be finite"),
    ],
    ids=["string", "fraction-string", "none", "huge-int", "huge-int-bound", "exact-inf"],
)
def test_problem_rejects_entries_that_are_not_finite_reals(
    objective, matrix, bounds, message
):
    with pytest.raises(ValueError, match=message):
        LpProblem(objective, matrix, bounds)


def test_huge_int_is_a_finite_entry_of_an_exact_problem():
    prob = LpProblem((10**400,), ((Fraction(1),),), (1,))
    assert prob.exact
    assert prob.objective == (Fraction(10**400),)


@pytest.mark.parametrize(
    "prob",
    [
        LpProblem((Fraction(10**400),), ((1,),), (1,)),
        LpProblem((1,), ((Fraction(-(10**400)),),), (1,)),
        LpProblem((1,), ((1,),), (Fraction(10**400, 3),)),
    ],
    ids=["objective", "constraint_matrix", "bounds"],
)
def test_solve_of_an_exact_problem_past_the_float_range(prob):
    sol = simplex_solve(prob)
    assert sol.status in ("optimal", "unbounded")
    assert sol == simplex_solve(prob, exact=True)


# ------------------------------------------- sparse kernels vs references

_FLOAT_ENTRIES = st.one_of(
    st.sampled_from([0.0, 0.0, 0.0, 1.0, 0.5, 1e-14, 1e14]),
    st.floats(-0.5, 1.5).map(lambda x: round(x, 2)),
)
_EXACT_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-6, 18), st.integers(1, 6)),
)


def _entries(exact):
    return _EXACT_ENTRIES if exact else _FLOAT_ENTRIES


@st.composite
def _problems(draw, exact):
    entries = _entries(exact)
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    row = st.lists(entries, min_size=n, max_size=n)
    objective = draw(row)
    matrix = draw(st.lists(row, min_size=m, max_size=m))
    bounds = [abs(q) for q in draw(st.lists(entries, min_size=m, max_size=m))]
    return LpProblem(objective, matrix, bounds)


@st.composite
def _square_systems(draw, exact):
    entries = _entries(exact)
    size = draw(st.integers(1, 6))
    row = st.lists(entries, min_size=size, max_size=size)
    matrix = draw(st.lists(row, min_size=size, max_size=size))
    if size > 1 and draw(st.booleans()):
        # the last row repeats the first up to a 1e-14 term: singular or
        # as near to it as the float threshold can see
        twin = list(matrix[0])
        k = draw(st.integers(0, size - 1))
        twin[k] += draw(st.sampled_from([0, Fraction(1, 10**14) if exact else 1e-14]))
        matrix[-1] = twin
    return matrix, draw(row)


def _solve_or_error(prob, exact, solve=simplex_solve):
    try:
        return solve(prob, exact=exact)
    except RuntimeError as exc:
        return str(exc)


def _slack_start(prob, exact=False):
    """Bland's rule from the slack basis alone, without the crash check.

    ``exact`` lifts a float problem to ``Fraction``s, as ``simplex_solve``
    does.
    """
    if exact:
        objective = map(Fraction, prob.objective)
        prob = LpProblem(objective, prob.constraint_matrix, prob.bounds)
    return lp._solve_from_slack_basis(prob, lp._arithmetic(prob.exact))


class TestSparseKernelsMatchDenseReferences:
    """The sparse kernels return what a full dense sweep returns."""

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_pivot(self, exact, data):
        # from the slack basis, so that square problems pivot too
        prob = data.draw(_problems(exact))
        sparse = _solve_or_error(prob, exact, _slack_start)
        with mock.patch.object(lp, "_pivot", reference_pivot):
            dense = _solve_or_error(prob, exact, _slack_start)
        if isinstance(sparse, str) or isinstance(dense, str):
            assert sparse == dense
            return
        assert (sparse.status, sparse.basis) == (dense.status, dense.basis)
        assert sparse.values == dense.values
        assert [type(v) for v in sparse.values] == [type(v) for v in dense.values]
        assert sparse.objective_value == dense.objective_value
        assert sparse.reduced_costs == dense.reduced_costs

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_solve_square(self, exact, data):
        matrix, rhs = data.draw(_square_systems(exact))
        assert_lu_matches_reference(matrix, rhs, exact)

    @pytest.mark.parametrize(
        "matrix",
        [
            # the pivot row's scale of 1e14 must move out with its row
            [[0.0, 1.0], [1e14, 1.0]],
            # the scale must shrink when elimination cancels a row's 1e14
            [[1e14, 1e14], [1e14, 1e14 + 1.0]],
            [[1.0, 1e14], [1.0, 1e14]],
        ],
    )
    def test_solve_square_scale_bookkeeping(self, matrix):
        assert_lu_matches_reference(matrix, [1.0] * len(matrix), exact=False)

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_lu_matches_the_rescanning_kernels(self, exact, data):
        matrix, rhs = data.draw(_square_systems(exact))
        assert_lu_matches_rescanning_kernels(matrix, rhs, exact)

    @pytest.mark.parametrize(
        "matrix, rhs",
        [
            # the scale-bookkeeping matrices above
            ([[0.0, 1.0], [1e14, 1.0]], [1.0, -0.0]),
            ([[1e14, 1e14], [1e14, 1e14 + 1.0]], [1.0, 1.0]),
            ([[1.0, 1e14], [1.0, 1e14]], [1.0, 1.0]),
            # elimination leaves a pivot of 1.5e-13 in a row whose bound
            # has grown to 2: the bound test fails, and the rescan of the
            # remaining row (scale 1.5e-13) accepts the pivot
            ([[1.0, 1.0], [1.0, 1.0 + 1.5e-13]], [1.0, 0.0]),
            # the same with 5e-14 left: the rescan rejects it
            ([[1.0, 1.0], [1.0, 1.0 + 5e-14]], [1.0, 1.0]),
            # elimination doubles row 1's 1e3 while its pivot becomes
            # 1.5e-10: only the raised bound (2e3) sends it to the rescan,
            # which finds it singular
            ([[1.0, 0.0, 1e3], [1.0, 1.5e-10, -1e3], [0.0, 0.0, 1.0]], [1.0, 1.0, 1.0]),
            # a pivot of exactly 1e-13 * max(scale, 1) is singular: the
            # bound test sends it to the rescan, which rejects it
            ([[1e-13]], [1.0]),
            # w_1 = 0.0 and u = -1 make a term of -0.0, which would turn
            # the -0.0 start of w_2 into 0.0
            ([[1.0, -1.0], [0.0, 1.0]], [0.0, -0.0]),
            # w_1 overflows to inf, which a zero entry of U must not
            # multiply into a NaN
            ([[1e-12, 0.0], [0.0, 1.0]], [1e300, 1.0]),
        ],
    )
    def test_lu_matches_the_rescanning_kernels_on_fixed_cases(self, matrix, rhs):
        assert_lu_matches_rescanning_kernels(matrix, rhs, exact=False)


def assert_lu_matches_rescanning_kernels(matrix, rhs, exact):
    """``_factor`` and both solves equal the rescanning references bit for bit.

    The same singular decision; otherwise the same ``steps`` and ``upper``
    and the same solutions of A and A^T, compared by ``repr`` so that a
    zero's sign and each value's type count too, in both arithmetics: one
    ``Lu`` serves floats and ``Fraction``s.
    """
    try:
        lu = lp._factor(matrix, lp._arithmetic(exact))
    except ZeroDivisionError:
        lu = None
    try:
        reference = reference_factor(matrix, exact)
    except ZeroDivisionError:
        reference = None
    assert (lu is None) == (reference is None)
    if lu is None:
        return
    assert type(lu) is lp.Lu
    assert repr((lu.steps, lu.upper)) == repr(reference)
    assert repr(lu.solve(rhs)) == repr(reference_lu_solve(reference, rhs))
    assert repr(lu.solve_transposed(rhs)) == repr(
        reference_lu_solve_transposed(reference, rhs)
    )


_TERM_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_TERM_EXACT = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.integers(-(10**6), 10**6),
    st.fractions(max_denominator=10**30),
)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_sub_dot_is_the_term_by_term_difference(exact, data):
    """``_sub_dot`` is the sequential loop, compared by ``repr``: the same
    float bits, or the same exact number of the same type."""
    entries = _TERM_EXACT if exact else _TERM_FLOATS
    x = data.draw(entries)
    us = data.draw(st.lists(entries, max_size=8))
    vector = data.draw(st.lists(entries, min_size=len(us), max_size=len(us)))
    terms = [(k, us[k]) for k in data.draw(st.permutations(range(len(us))))]
    expected = x
    for k, u in terms:
        expected -= u * vector[k]
    assert repr(lp._sub_dot(x, terms, vector)) == repr(expected)


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(st.integers(1, 60), min_size=1, max_size=9),
    weights=st.none() | st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=7), min_size=9, max_size=9
    ),
)
def test_exact_results_are_fractions(coeffs, weights):
    """Every exact value the kernels return is a ``Fraction``, integers too.

    Covers the crash basis (ln weights) and the pivots (random ``Fraction``
    weights, which often fail the crash check), single levels and ties.
    """
    s = make_spectrum([Fraction(c) for c in coeffs])
    if weights is not None:
        weights = weights[: s.rank]
    prob = concentration_lp(s, weights)
    sol = simplex_solve(prob, exact=True)
    plan = optimal_plan(s)
    exact_values = [
        *s.coeffs, *plan.probabilities, *sol.values, sol.objective_value,
        *sol.reduced_costs, *constraint_residuals(prob, sol.values),
    ]
    assert all(type(v) is Fraction for v in exact_values)
    assert verify_solution(prob, sol)


def test_exact_substitutions_make_linearly_many_fractions():
    # the crash check of a rank-24 exact concentration LP: one Fraction per
    # solved entry and division, not one per product and difference (about
    # n^2 before integer accumulation)
    n = 24
    prob = concentration_lp(make_spectrum([Fraction(k) for k in range(n, 0, -1)]))
    made = 0
    construct = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return construct(cls, *args, **kwargs)

    with mock.patch.object(Fraction, "__new__", counting):
        sol = simplex_solve(prob, exact=True)
    assert sol.pivots == 0
    assert made <= 6 * n



def test_exact_crash_solve_compares_no_fractions():
    # the sign tests of an exact solve read numerators; on a concentration
    # LP the crash basis settles it without a single Fraction comparison
    s = make_spectrum([Fraction(k) for k in range(18, 0, -1)])
    prob = concentration_lp(s)
    compared = 0

    def counting(name):
        original = getattr(Fraction, name)

        def compare(self, other):
            nonlocal compared
            compared += 1
            return original(self, other)

        return mock.patch.object(Fraction, name, compare)

    with counting("__lt__"), counting("__le__"), counting("__gt__"), counting("__ge__"):
        sol = simplex_solve(prob)
    assert sol.pivots == 0 and compared == 0
    assert sol.values == optimal_plan(s).probabilities
    assert verify_solution(prob, sol)


def test_both_arithmetics_offer_every_name_the_kernels_read():
    # the kernels of lp and verify read the arithmetic they are handed as
    # ex.<name>; each name must exist on both sides, so that no kernel can
    # reach for one that only floats or only Fractions have
    names = {"zero", "tol", "convert", "dots", "signs"}
    read = set()
    for module in (lp, verify):
        read |= set(re.findall(r"\bex\.(\w+)", inspect.getsource(module)))
    assert read == names
    assert lp._arithmetic(False) is lp._Float
    assert lp._arithmetic(True) is exact_module
    for ex, kind in ((lp._Float, float), (exact_module, Fraction)):
        assert all(hasattr(ex, name) for name in names)
        assert type(ex.zero) is kind and ex.zero == 0
        assert type(ex.convert(1)) is kind
        # a number of the arithmetic converts to itself, so no value moves
        third = kind(1) / 3
        assert ex.convert(third) is third
        assert ex.dots(((1, 2), (3, 4)), (ex.convert(5), ex.convert(6))) == [17, 39]
        values = [ex.convert(-2), ex.zero, ex.convert(0.5)]
        assert [(s > 0) - (s < 0) for s in ex.signs(values)] == [-1, 0, 1]
    assert (lp._Float.tol, exact_module.tol) == (lp.PIVOT_TOL, 0)


_SPARSE_EXACT = st.one_of(
    st.just(Fraction(0)),
    st.just(0),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)
_NONZERO_EXACT = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool)


@st.composite
def _swapping_systems(draw):
    """A sparse non-singular exact matrix P L U and a right-hand side.

    L is unit lower triangular and U upper triangular with a nonzero
    diagonal, both sparse, and P a row permutation other than the
    identity; zeros are ``Fraction(0)`` or int 0.
    """
    size = draw(st.integers(2, 7))
    lower = [
        [draw(_SPARSE_EXACT) if k < i else int(k == i) for k in range(size)]
        for i in range(size)
    ]
    upper = [
        [draw(_NONZERO_EXACT) if k == i else draw(_SPARSE_EXACT) if k > i else 0
         for k in range(size)]
        for i in range(size)
    ]
    product = [
        [sum(lower[i][t] * upper[t][k] for t in range(size)) for k in range(size)]
        for i in range(size)
    ]
    order = draw(st.permutations(range(size)).filter(lambda p: p != sorted(p)))
    rhs = draw(st.lists(_SPARSE_EXACT, min_size=size, max_size=size))
    return [product[i] for i in order], rhs


@settings(max_examples=200, deadline=None)
@given(system=_swapping_systems())
def test_exact_solves_with_row_swaps_match_the_reference(system):
    """Exact LU solves of A and A^T equal dense Gauss-Jordan, as ``Fraction``s."""
    matrix, rhs = system
    lu = lp._factor(matrix, lp._arithmetic(True))
    assume(any(pivot_row != col for col, (pivot_row, _) in enumerate(lu.steps)))
    transposed = [list(column) for column in zip(*matrix)]
    for x, a in ((lu.solve(rhs), matrix), (lu.solve_transposed(rhs), transposed)):
        assert x == reference_solve_square(a, rhs)
        assert all(type(v) is Fraction for v in x)


def _reference_or_singular(matrix, rhs):
    try:
        return reference_solve_square(matrix, rhs)
    except ZeroDivisionError:
        return "singular"


def _norm(rows):
    return max(math.fsum(abs(x) for x in row) for row in rows)


def assert_lu_matches_reference(matrix, rhs, exact):
    """The LU of A solves A and A^T as the dense Gauss-Jordan reference does.

    Exact mode: the same values, and singular exactly when the reference
    is, on A and on A^T.  Float mode: the same singular decision on A, and
    otherwise a backward error ||A x - b|| <= 1e-12 (||A|| ||x|| + ||b||) for
    both solves (the triangular substitution rounds differently from
    Gauss-Jordan, so the last bits may differ).
    """
    transposed = [list(column) for column in zip(*matrix)]
    try:
        lu = lp._factor(matrix, lp._arithmetic(exact))
    except ZeroDivisionError:
        lu = None
    reference = _reference_or_singular(matrix, rhs)
    assert (lu is None) == (reference == "singular")
    if exact:
        reference_t = _reference_or_singular(transposed, rhs)
        assert (reference_t == "singular") == (reference == "singular")
    if lu is None:
        return
    solves = [(matrix, lu.solve(rhs)), (transposed, lu.solve_transposed(rhs))]
    for a, x in solves:
        if exact:
            assert x == reference_solve_square(a, rhs)
            assert all(type(v) is Fraction for v in x)
            continue
        residual = [
            math.fsum([*(u * v for u, v in zip(row, x)), -b])
            for row, b in zip(a, rhs)
        ]
        scale = _norm(a) * max(map(abs, x)) + max(map(abs, rhs))
        assert max(map(abs, residual)) <= 1e-12 * scale


def _twin_problem(n, exact):
    """A concentration LP plus a variable whose column copies column 0.

    Returns it with a claimed optimum whose basis holds both columns, so
    its basis matrix is singular.
    """
    coeffs = [Fraction(n - i, 1) for i in range(n)] if exact else [
        float(n - i) for i in range(n)
    ]
    prob = concentration_lp(make_spectrum(coeffs))
    matrix = tuple(row + (row[0],) for row in prob.constraint_matrix)
    twin = LpProblem(prob.objective + (prob.objective[0],), matrix, prob.bounds)
    basis = (0, n, *range(2, n))
    return twin, LpSolution((0,) * (n + 1), 0, basis, (), "optimal")


@st.composite
def _claims(draw, exact):
    """A problem and a claimed optimum: the solver's, or a drawn basis's.

    A third of the draws are the singular twin-column cases.
    """
    if draw(st.integers(0, 2)) == 0:
        return _twin_problem(draw(st.integers(2, 8)), exact)
    prob = draw(_problems(exact))
    sol = _solve_or_error(prob, exact)
    if isinstance(sol, str) or sol.status != "optimal":
        sol = LpSolution((0,) * prob.num_variables, 0, (), (), "optimal")
    if draw(st.booleans()):
        columns = range(prob.num_variables + prob.num_constraints)
        basis = draw(st.permutations(columns))[: prob.num_constraints]
        sol = LpSolution(sol.values, sol.objective_value, basis, (), "optimal")
    return prob, sol


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_verify_matches_dense_reference(exact, data):
    """The shared-LU verification gives the dense reference's verdict.

    Exact mode: the same verdict.  Float mode: the absolute tolerance lies
    below the rounding of large values (1e14 / 0.38 is off its exact value
    by 0.03), so the verdict is pinned up to rounding: whatever the exact
    reference accepts at thresholds tightened by 1e-12 of the instance's
    scale is accepted, and whatever it rejects at thresholds loosened by as
    much is rejected.
    """
    prob, sol = data.draw(_claims(exact))
    verdict = verify_solution(prob, sol)
    if exact:
        assert verdict == reference_verify(prob, sol)
    else:
        assert reference_verify(prob, sol, slack=-1e-12) <= verdict
        assert verdict <= reference_verify(prob, sol, slack=1e-12)


@st.composite
def _bases(draw):
    """An exact problem and a basis of m distinct extended columns, slacks included."""
    prob = draw(_problems(exact=True))
    columns = range(prob.num_variables + prob.num_constraints)
    return prob, draw(st.permutations(columns))[: prob.num_constraints]


@settings(max_examples=200, deadline=None)
@given(case=_bases())
def test_basis_point_solves_the_basis_exactly(case):
    """``_basis_point`` gives B x_B = q and B^T y = c_B exactly, or raises
    ``ZeroDivisionError`` exactly when B is singular; every value is a
    ``Fraction``, so no int entry of a slack column leaks a float."""
    prob, basis = case
    n, m = prob.num_variables, prob.num_constraints
    b = [
        [row[j] if j < n else Fraction(int(j == n + i)) for j in basis]
        for i, row in enumerate(prob.constraint_matrix)
    ]
    costs = [prob.objective[j] if j < n else 0 for j in basis]
    try:
        reference_solve_square(b, list(prob.bounds))
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            lp._basis_point(prob, basis, lp._arithmetic(True))
        return
    x, y = lp._basis_point(prob, basis, lp._arithmetic(True))
    assert all(type(v) is Fraction for v in chain(x, y))
    assert len(x) == n + m and len(y) == m
    assert all(x[j] == 0 for j in set(range(n + m)) - set(basis))
    x_b = [x[j] for j in basis]
    assert [sum(map(operator.mul, row, x_b)) for row in b] == list(prob.bounds)
    assert [sum(map(operator.mul, col, y)) for col in zip(*b)] == costs


@settings(max_examples=60, deadline=None)
@given(case=_concentration_lps(min_rank=1).filter(lambda case: case[1]), data=st.data())
def test_exact_verification_is_exact(case, data):
    """An exact optimum verifies; moving one value or the objective by any
    nonzero ``Fraction``, however small, fails."""
    prob, _, _ = case
    sol = simplex_solve(prob)
    assert prob.exact and verify_solution(prob, sol)
    k = data.draw(st.integers(0, prob.num_variables), label="moved")
    shift = data.draw(st.fractions().filter(bool), label="shift")
    assert not verify_solution(prob, _moved(sol, k, shift))


@settings(max_examples=60, deadline=None)
@given(case=_concentration_lps(min_rank=1), data=st.data())
def test_verification_rejects_a_claim_that_is_not_finite(case, data):
    """Replacing one claimed value, or the objective, by NaN or an infinity
    fails the check in both arithmetics, and raises nothing."""
    prob, _, _ = case
    sol = simplex_solve(prob)
    k = data.draw(st.integers(0, prob.num_variables), label="replaced")
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]), label="by")
    values, objective = list(sol.values), sol.objective_value
    if k < len(values):
        values[k] = bad
    else:
        objective = bad
    claim = LpSolution(values, objective, sol.basis, sol.reduced_costs, "optimal")
    assert verify_solution(prob, claim) is False


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_verification_rejects_a_basis_that_is_not_m_distinct_columns(exact, data):
    """A solver basis with one index replaced by a negative one, by one past
    the last extended column, or by another index of the basis fails."""
    prob = data.draw(_problems(exact), label="problem")
    sol = _solve_or_error(prob, exact)
    assume(not isinstance(sol, str) and sol.status == "optimal")
    n, m = prob.num_variables, prob.num_constraints
    basis = list(sol.basis)
    k = data.draw(st.integers(0, m - 1), label="replaced")
    ways = ["negative", "past the end", "repeat"][: 3 if m > 1 else 2]
    way = data.draw(st.sampled_from(ways), label="by")
    if way == "negative":
        basis[k] = data.draw(st.integers(-(n + m), -1))
    elif way == "past the end":
        basis[k] = data.draw(st.integers(n + m, 2 * (n + m)))
    else:
        basis[k] = data.draw(st.sampled_from(basis[:k] + basis[k + 1 :]))
    claim = LpSolution(sol.values, sol.objective_value, basis, sol.reduced_costs, "optimal")
    assert verify_solution(prob, claim) is False
