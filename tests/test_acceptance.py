"""Acceptance suite: one test per release criterion.

Each test prints a single pass line on success (run with ``-s`` or ``-rA``
to see them); a pytest failure is the corresponding fail line.  Tolerances
are pinned here and should not be loosened.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from entmanip import (
    LpProblem,
    asymptotic_yield_curve,
    average_target,
    build_ensemble_povm,
    concentration_lp,
    constraint_residuals,
    ensemble_feasible,
    entropy,
    make_ensemble,
    make_spectrum,
    max_conversion_probability,
    nielsen_feasible,
    optimal_plan,
    optimality_certificate,
    simplex_solve,
    simulate,
    single_shot_povm,
    uniform_spectrum,
    vidal_monotones,
)
from util import (
    apply_povm_element,
    constraint_matrix_inverse,
    enumerate_vertices,
    max_rank,
    random_ensemble,
    random_spectrum,
)

WORKED = make_spectrum([0.5, 0.3, 0.2])
WORKED_YIELD = 0.2 * math.log(2) + 0.6 * math.log(3)


def _passed(k: int, message: str) -> None:
    print(f"[criterion {k}] PASS: {message}")


def test_criterion_1_closed_form_vs_lp():
    started = time.monotonic()
    rng = np.random.default_rng(20260809)
    checked = 0
    for n in range(2, 9):
        for _ in range(200):
            s = random_spectrum(rng, n)
            plan = optimal_plan(s)
            sol = simplex_solve(concentration_lp(s))
            assert sol.status == "optimal"
            assert sol.values == pytest.approx(plan.probabilities, abs=1e-9)
            assert float(sol.objective_value) == pytest.approx(
                plan.expected_entanglement, abs=1e-9
            )
            if n <= 4:
                oracle = enumerate_vertices(concentration_lp(s))
                assert float(oracle.objective_value) == pytest.approx(
                    plan.expected_entanglement, abs=1e-9
                )
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"triple-agreement sweep took {elapsed:.1f}s"
    _passed(1, f"{checked} spectra, closed form = simplex (= enumeration for "
               f"N<=4) within 1e-9 in {elapsed:.1f}s")


def test_criterion_2_worked_instance():
    plan = optimal_plan(WORKED)
    assert plan.probabilities == pytest.approx((0.2, 0.2, 0.6), abs=1e-12)
    assert plan.expected_entanglement == pytest.approx(WORKED_YIELD, abs=1e-12)

    prob = concentration_lp(WORKED)
    sol = simplex_solve(prob)
    oracle = enumerate_vertices(prob)
    assert sol.values == pytest.approx((0.2, 0.2, 0.6), abs=1e-9)
    assert float(sol.objective_value) == pytest.approx(WORKED_YIELD, abs=1e-9)
    assert float(oracle.objective_value) == pytest.approx(WORKED_YIELD, abs=1e-9)
    _passed(2, f"(0.5,0.3,0.2) -> plan (0.2,0.2,0.6), yield "
               f"{plan.expected_entanglement:.6f} nats by three routes")


def test_criterion_3_saturation():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(500):
        s = random_spectrum(rng, int(rng.integers(1, 9)))
        residuals = constraint_residuals(
            concentration_lp(s), optimal_plan(s).probabilities
        )
        worst = max(worst, max(abs(float(r)) for r in residuals))
    assert worst <= 1e-10

    for _ in range(50):
        weights = [int(x) for x in rng.integers(1, 30, size=int(rng.integers(1, 7)))]
        total = sum(weights)
        s = make_spectrum([Fraction(w, total) for w in weights])
        residuals = constraint_residuals(
            concentration_lp(s), optimal_plan(s).probabilities
        )
        assert all(r == 0 for r in residuals), "exact saturation failed"
    _passed(3, f"max |B p - q| = {worst:.2e} over 500 float spectra; "
               f"exactly 0 on 50 rational spectra")


def test_criterion_4_optimality_certificate():
    cert = optimality_certificate(64)
    assert cert.passed
    for k in range(3, 65):
        expected = (
            (k - 2) * math.log(k - 2) if k > 2 else 0.0
        ) + k * math.log(k) - 2 * (k - 1) * math.log(k - 1)
        assert cert.z_values[k - 1] == pytest.approx(expected, abs=1e-12)
        assert cert.z_values[k - 1] >= 0.0

    worst = 0.0
    for n in range(1, 13):
        matrix = np.array(
            [
                [(j + 1 - l) / j if j >= l else 0.0 for j in range(1, n + 1)]
                for l in range(1, n + 1)
            ]
        )
        residual = np.max(
            np.abs(np.linalg.inv(matrix) - np.array(constraint_matrix_inverse(n)))
        )
        worst = max(worst, residual)
    assert worst <= 1e-10
    _passed(4, f"z_k >= 0 for k in 3..64; inverse-matrix residual "
               f"{worst:.2e} for N <= 12")


def test_criterion_5_povm_completeness_and_outcomes():
    rng = np.random.default_rng(55)
    worst_completeness = 0.0

    for _ in range(250):
        s = random_spectrum(rng, int(rng.integers(1, 10)))
        povm = single_shot_povm(s)
        for i in range(povm.support_rank):
            total = math.fsum(el.diag[i] ** 2 for el in povm.elements)
            worst_completeness = max(worst_completeness, abs(total - 1.0))
        plan = optimal_plan(s)
        for j, el in enumerate(povm.elements, start=1):
            prob, post = apply_povm_element(el.diag, s)
            assert prob == pytest.approx(plan.probabilities[j - 1], abs=1e-9)
            if prob > 0:
                assert post.coeffs == pytest.approx((1 / j,) * j, abs=1e-9)

    for _ in range(250):
        e = random_ensemble(rng, int(rng.integers(1, 6)), 6)
        povm = build_ensemble_povm(e)
        avg = average_target(e)
        for i in range(povm.support_rank):
            total = math.fsum(el.diag[i] ** 2 for el in povm.elements)
            worst_completeness = max(worst_completeness, abs(total - 1.0))
        for el, (p, target) in zip(povm.elements, e.entries):
            prob, post = apply_povm_element(el.diag, avg)
            assert prob == pytest.approx(p, abs=1e-9)
            assert post.coeffs == pytest.approx(target.coeffs, abs=1e-9)

    assert worst_completeness <= 1e-12
    _passed(5, f"completeness residual {worst_completeness:.2e} over 500 "
               f"measurements; outcomes reproduce targets within 1e-9")


def test_criterion_6_monte_carlo():
    trials = 100000
    plan = optimal_plan(WORKED)
    povm = single_shot_povm(WORKED)
    report = simulate(povm, WORKED, trials=trials, seed=2026)
    again = simulate(povm, WORKED, trials=trials, seed=2026)
    assert report == again, "same seed must give identical reports"

    statistic = 0.0
    dof = -1
    for p_hat, p, count in zip(
        report.empirical_probs, plan.probabilities, report.counts
    ):
        bound = 4.0 * math.sqrt(p * (1.0 - p) / trials)
        assert abs(p_hat - p) <= bound
        if p > 0:
            statistic += (count - p * trials) ** 2 / (p * trials)
            dof += 1
    critical = stats.chi2.ppf(0.999, dof)
    assert statistic < critical
    _passed(6, f"10^5 trials: max deviation {report.max_abs_deviation:.2e} "
               f"within binomial bounds, chi2 {statistic:.2f} < {critical:.2f}")


def test_criterion_7_irreversibility_and_asymptotics():
    s = make_spectrum([0.8, 0.2])
    limit = entropy(s)
    assert limit == pytest.approx(0.500402, abs=1e-6)
    curve = dict(asymptotic_yield_curve(s, 16))
    for n in (1, 2, 4, 8, 16):
        assert curve[n] <= limit + 1e-12
    gap_start = limit - curve[1]
    gap_end = limit - curve[16]
    assert gap_end < gap_start
    _passed(7, f"per-copy yield <= S = {limit:.6f} nats for n in 1..16; gap "
               f"shrinks {gap_start:.4f} -> {gap_end:.4f}")


def _lp_feasibility_oracle(source, avg_tails) -> bool:
    """Feasible iff the scaled conversion LP reaches probability one."""
    source_tails = list(vidal_monotones(source))
    n = max(len(source_tails), len(avg_tails))
    source_tails += [0.0] * (n - len(source_tails))
    avg_tails = list(avg_tails) + [0.0] * (n - len(avg_tails))
    prob = LpProblem(
        (1.0,), tuple((avg_tails[l],) for l in range(n)), tuple(source_tails)
    )
    sol = simplex_solve(prob)
    assert sol.status == "optimal"
    return float(sol.values[0]) >= 1.0 - 1e-9


def _averaged_tails(ensemble):
    n = max_rank(ensemble)
    avg = [0.0] * n
    for p, target in ensemble.entries:
        tails = list(vidal_monotones(target)) + [0.0] * n
        for i in range(n):
            avg[i] += p * tails[i]
    return avg


def test_criterion_8_feasibility_oracle_equivalence():
    rng = np.random.default_rng(88)
    agreements = 0

    for _ in range(250):
        source = random_spectrum(rng, int(rng.integers(1, 7)))
        target = random_spectrum(rng, int(rng.integers(1, 7)))
        direct = nielsen_feasible(source, target).feasible
        via_lp = _lp_feasibility_oracle(source, vidal_monotones(target))
        assert direct == via_lp
        agreements += 1

    for _ in range(150):
        source = random_spectrum(rng, int(rng.integers(1, 7)))
        ensemble = random_ensemble(rng, int(rng.integers(1, 5)), 6)
        direct = ensemble_feasible(source, ensemble).feasible
        via_lp = _lp_feasibility_oracle(source, _averaged_tails(ensemble))
        assert direct == via_lp
        agreements += 1

    for _ in range(100):
        # boundary-saturated: the source's own optimal concentration
        # ensemble meets every constraint with equality
        source = random_spectrum(rng, int(rng.integers(2, 7)))
        plan = optimal_plan(source)
        ensemble = make_ensemble(
            [
                (p, uniform_spectrum(j))
                for j, p in enumerate(plan.probabilities, start=1)
                if p > 0
            ]
        )
        report = ensemble_feasible(source, ensemble)
        assert report.feasible, "saturated boundary must classify feasible"
        assert max(abs(g) for g in report.slack) <= 1e-10
        assert _lp_feasibility_oracle(source, _averaged_tails(ensemble))
        agreements += 1

    _passed(8, f"{agreements} instances: monotone checks agree with the LP "
               f"oracle, saturated boundaries included")


def test_criterion_9_indicator_measure_variant():
    rng = np.random.default_rng(99)
    pair_target = uniform_spectrum(2)
    checked = 0
    differing = 0
    for _ in range(100):
        raw = np.sort(rng.random(3) + 0.05)[::-1]
        raw[0] += 0.05  # ensure a strict leading gap
        s = make_spectrum(raw.tolist())
        sol = simplex_solve(concentration_lp(s, weights=(0.0, 1.0, 1.0)))
        assert sol.status == "optimal"
        expected = max_conversion_probability(s, pair_target)
        assert float(sol.objective_value) == pytest.approx(expected, abs=1e-9)

        plan = optimal_plan(s)
        entangled_mass_lp = math.fsum(float(v) for v in sol.values[1:])
        entangled_mass_plan = math.fsum(plan.probabilities[1:])
        if s.coeffs[0] > s.coeffs[1] + 1e-9:
            assert abs(entangled_mass_lp - entangled_mass_plan) > 1e-9
            differing += 1
        checked += 1
    assert differing == checked
    _passed(9, f"{checked} spectra: indicator objective equals the best "
               f"two-level conversion probability; all plans differ from the "
               f"yield-optimal one")
