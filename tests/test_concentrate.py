"""Closed-form concentration plan, certificate, measurement, yield curves."""

import math
from fractions import Fraction
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest

from entmanip import (
    ConcentrationPlan,
    SchmidtSpectrum,
    asymptotic_yield_curve,
    concentration_lp,
    entropy,
    make_spectrum,
    optimal_plan,
    optimality_certificate,
    simplex_solve,
    single_shot_povm,
    standard_weights,
    uniform_spectrum,
    verify_solution,
    vidal_monotones,
)
from entmanip import concentrate
from entmanip.concentrate import CERT_TOL, OptimalityCertificate
from entmanip.schmidt import NORM_TOL
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from util import (
    apply_povm_element,
    constraint_matrix_inverse,
    expanded_yield_curve,
    highs_optimum,
    max_entangled_monotone,
    random_spectrum,
    reference_optimal_plan,
    type_class_yield_bound,
)

WORKED_SPECTRUM = [0.5, 0.3, 0.2]
WORKED_PLAN = (0.2, 0.2, 0.6)
WORKED_YIELD = 0.2 * math.log(2) + 0.6 * math.log(3)  # 0.7977968093128549


class TestMaxEntangledMonotone:
    def test_interior_value(self):
        assert max_entangled_monotone(4, 2) == pytest.approx(0.75)

    @pytest.mark.parametrize("levels", [1, 2, 5, 17])
    def test_first_index_is_one(self, levels):
        assert max_entangled_monotone(levels, 1) == pytest.approx(1.0)

    def test_vanishes_beyond_rank(self):
        assert max_entangled_monotone(3, 5) == 0.0

    def test_matches_uniform_spectrum_tails(self):
        for levels in (1, 2, 3, 6):
            tails = vidal_monotones(uniform_spectrum(levels))
            for l in range(1, levels + 1):
                assert max_entangled_monotone(levels, l) == pytest.approx(
                    tails[l - 1], abs=1e-12
                )


class TestOptimalPlan:
    def test_product_state(self):
        plan = optimal_plan(make_spectrum([1.0]))
        assert plan.probabilities == (1.0,)
        assert plan.expected_entanglement == 0.0

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_uniform_spectrum_is_a_fixed_point(self, n):
        plan = optimal_plan(uniform_spectrum(n))
        assert plan.probabilities[-1] == pytest.approx(1.0, abs=1e-12)
        assert all(abs(p) <= 1e-12 for p in plan.probabilities[:-1])
        assert plan.expected_entanglement == pytest.approx(
            math.log(n), abs=1e-12
        )

    def test_worked_example(self):
        plan = optimal_plan(make_spectrum(WORKED_SPECTRUM))
        assert plan.probabilities == pytest.approx(WORKED_PLAN, abs=1e-12)
        assert plan.expected_entanglement == pytest.approx(
            WORKED_YIELD, abs=1e-12
        )

    def test_telescoping_sum(self):
        rng = np.random.default_rng(79)
        for _ in range(100):
            s = random_spectrum(rng, int(rng.integers(1, 12)))
            plan = optimal_plan(s)
            assert math.fsum(plan.probabilities) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_plan_of_a_spectrum_normalized_within_norm_tol(self):
        s = SchmidtSpectrum((0.5 + 5e-10, 0.5))
        plan = optimal_plan(s)
        assert plan.probabilities == pytest.approx((0.0, 1.0), abs=1e-9)
        prob = concentration_lp(s)
        sol = simplex_solve(prob)
        assert sol.status == "optimal"
        assert verify_solution(prob, sol)
        assert sol.values == pytest.approx(plan.probabilities, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        raw=st.lists(
            st.one_of(
                st.floats(0.0, 1e6),
                st.fractions(min_value=0, max_value=50, max_denominator=40),
                st.sampled_from([1.0, 0.5, Fraction(1, 2), 3]),
            ),
            min_size=1,
            max_size=20,
        ).filter(lambda raw: any(v > 1e-12 for v in raw)),
    )
    def test_matches_the_per_level_loop_bit_for_bit(self, raw):
        s = make_spectrum(raw)
        plan = optimal_plan(s)
        probabilities, expected = reference_optimal_plan(s)
        assert repr(plan.probabilities) == repr(probabilities)
        assert repr(plan.expected_entanglement) == repr(expected)
        kind = Fraction if isinstance(s.coeffs[0], Fraction) else float
        assert all(type(p) is kind for p in plan.probabilities)

    def test_plan_sum_is_held_to_norm_tol(self):
        ConcentrationPlan((0.5 + 5e-10, 0.5), 0.0)
        with pytest.raises(ValueError, match="sum"):
            ConcentrationPlan((0.5 + 2e-9, 0.5), 0.0)
        # an exact sum compares with the float bound exactly: a sum off 1 by
        # NORM_TOL itself passes, and one a hair past it does not
        at_bound = Fraction(1) + Fraction(NORM_TOL)
        ConcentrationPlan((at_bound,), 0.0)
        with pytest.raises(ValueError, match="sum"):
            ConcentrationPlan((at_bound + Fraction(1, 10**30),), 0.0)

    @settings(max_examples=300, deadline=None)
    @given(
        raw=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=30),
        sign=st.sampled_from((1, -1)),
        u=st.floats(0.0, 1.0),
    )
    @example(raw=[0.1, 0.03], sign=-1, u=0.06)
    @example(raw=[0.19, 0.02], sign=1, u=0.09)
    def test_plan_of_a_spectrum_at_the_norm_tol_edge(self, raw, sign, u):
        # the telescoped plan sum can round past NORM_TOL where the
        # coefficient sum does not; the plan is still the closed form
        raw = sorted(raw, reverse=True)
        total = math.fsum(raw)
        scale = 1 + sign * 1e-9 * (1 - u * 1e-6)
        coeffs = tuple(r / total * scale for r in raw)
        assume(abs(math.fsum(coeffs) - 1) <= 1e-9)
        plan = optimal_plan(SchmidtSpectrum(coeffs))
        assert plan.probabilities == tuple(
            j * (a - b) for j, (a, b) in enumerate(zip(coeffs, coeffs[1:] + (0,)), 1)
        )
        assert plan.expected_entanglement == math.fsum(
            p * math.log(j) for j, p in enumerate(plan.probabilities, 1) if j > 1
        )

    def test_yield_bounded_by_entropy(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            s = random_spectrum(rng, int(rng.integers(2, 10)))
            plan = optimal_plan(s)
            gap = entropy(s) - plan.expected_entanglement
            assert gap >= -1e-12
            if max(
                s.coeffs[i] - s.coeffs[i + 1] for i in range(s.rank - 1)
            ) > 1e-6:
                assert gap > 1e-12  # non-uniform spectra lose entanglement

    def test_uniform_saturates_entropy(self):
        for n in (1, 2, 5, 16):
            s = uniform_spectrum(n)
            assert optimal_plan(s).expected_entanglement == pytest.approx(
                entropy(s), abs=1e-12
            )

    def test_monotone_conservation(self):
        rng = np.random.default_rng(89)
        for _ in range(50):
            s = random_spectrum(rng, int(rng.integers(1, 9)))
            plan = optimal_plan(s)
            tails = vidal_monotones(s)
            for l in range(1, s.rank + 1):
                conserved = math.fsum(
                    p * max_entangled_monotone(j, l)
                    for j, p in enumerate(plan.probabilities, start=1)
                )
                assert conserved == pytest.approx(tails[l - 1], abs=1e-10)


class TestConcentrationLp:
    def test_single_level(self):
        prob = concentration_lp(make_spectrum([1.0]))
        sol = simplex_solve(prob)
        assert sol.values == pytest.approx((1.0,))

    def test_worked_matrix_and_bounds(self):
        prob = concentration_lp(make_spectrum(WORKED_SPECTRUM))
        assert prob.bounds == pytest.approx((1.0, 0.5, 0.2), abs=1e-15)
        assert prob.constraint_matrix[1] == pytest.approx(
            (0.0, 0.5, 2.0 / 3.0), abs=1e-15
        )

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError, match="weights"):
            concentration_lp(make_spectrum([0.5, 0.5]), weights=(1.0,))

    def test_fraction_weights_make_an_exact_matrix(self):
        # the weights make the problem exact, so the matrix must not hold
        # the binary rounding of 1/3 or 2/3
        n = 3
        prob = concentration_lp(
            make_spectrum(WORKED_SPECTRUM), [Fraction(0), Fraction(1), Fraction(1)]
        )
        assert prob.exact
        assert prob.constraint_matrix == tuple(
            tuple(Fraction(j + 1 - l, j) if j >= l else 0 for j in range(1, n + 1))
            for l in range(1, n + 1)
        )

    def test_simplex_reproduces_plan(self):
        rng = np.random.default_rng(97)
        for _ in range(60):
            s = random_spectrum(rng, int(rng.integers(1, 9)))
            plan = optimal_plan(s)
            sol = simplex_solve(concentration_lp(s))
            assert sol.status == "optimal"
            assert sol.values == pytest.approx(plan.probabilities, abs=1e-9)
            assert float(sol.objective_value) == pytest.approx(
                plan.expected_entanglement, abs=1e-9
            )

    def test_saturation(self):
        from entmanip import constraint_residuals

        rng = np.random.default_rng(101)
        for _ in range(100):
            s = random_spectrum(rng, int(rng.integers(1, 10)))
            prob = concentration_lp(s)
            plan = optimal_plan(s)
            residuals = constraint_residuals(prob, plan.probabilities)
            assert max(abs(float(r)) for r in residuals) <= 1e-10


class TestStandardWeights:
    def test_ln(self):
        assert standard_weights("ln", 3) == pytest.approx(
            (0.0, math.log(2), math.log(3))
        )

    def test_indicator(self):
        assert standard_weights("indicator", 4) == (0.0, 1.0, 1.0, 1.0)

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown"):
            standard_weights("nats", 3)


class TestOptimalityCertificate:
    def test_third_value(self):
        cert = optimality_certificate(3)
        assert cert.z_values[2] == pytest.approx(
            3 * math.log(3) - 4 * math.log(2), abs=1e-15
        )
        assert cert.z_values[2] == pytest.approx(0.523248143764548, abs=1e-12)

    def test_all_nonnegative_up_to_64(self):
        cert = optimality_certificate(64)
        assert cert.passed
        assert all(z >= 0.0 for z in cert.z_values)

    def test_convexity_oracle(self):
        # x ln x is convex, so the second difference of k ln k is >= 0;
        # z_k is exactly that second difference
        for k in range(3, 65):
            f = lambda x: x * math.log(x) if x > 0 else 0.0
            second_diff = f(k) - 2 * f(k - 1) + f(k - 2)
            assert optimality_certificate(k).z_values[k - 1] == pytest.approx(
                second_diff, abs=1e-12
            )

    def test_inverse_matches_direct_inversion(self):
        for n in range(1, 13):
            matrix = np.array(
                [
                    [(j + 1 - l) / j if j >= l else 0.0 for j in range(1, n + 1)]
                    for l in range(1, n + 1)
                ]
            )
            direct = np.linalg.inv(matrix)
            closed = np.array(constraint_matrix_inverse(n))
            assert np.max(np.abs(direct - closed)) <= 1e-10

    def test_z_equals_weights_dot_inverse(self):
        n = 10
        weights = np.array(standard_weights("ln", n))
        inverse = np.array(constraint_matrix_inverse(n))
        z = weights @ inverse
        assert optimality_certificate(n).z_values == pytest.approx(
            tuple(z), abs=1e-12
        )


def _z_by_substitution(weights):
    """Solve z B = c exactly, column by column (B upper triangular)."""
    n = len(weights)
    column = lambda l, j: Fraction(j + 1 - l, j)
    z = []
    for j in range(1, n + 1):
        known = sum(z[l - 1] * column(l, j) for l in range(1, j))
        z.append((weights[j - 1] - known) / column(j, j))
    return tuple(z)


class TestCertificateForAnyWeights:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9)),
            min_size=1,
            max_size=30,
        )
    )
    def test_exact_weights_give_exact_z(self, weights):
        cert = optimality_certificate(len(weights), weights)
        z = _z_by_substitution(weights)
        assert cert.z_values == z
        assert cert.passed == all(v >= 0 for v in z)

    @pytest.mark.parametrize("kind", ["ln", "log2", "indicator"])
    def test_float_weights_match_substitution(self, kind):
        weights = standard_weights(kind, 40)
        z = _z_by_substitution([Fraction(c) for c in weights])
        cert = optimality_certificate(40, weights)
        assert cert.z_values == pytest.approx([float(v) for v in z], abs=1e-12)
        assert cert.passed == (kind != "indicator")

    def test_ln_is_the_default(self):
        assert optimality_certificate(64) == optimality_certificate(
            64, standard_weights("ln", 64)
        )

    def test_indicator_fails_at_level_three(self):
        cert = optimality_certificate(3, standard_weights("indicator", 3))
        assert cert.z_values == (0.0, 2.0, -1.0)
        assert not cert.passed

    def test_weight_count_must_match(self):
        with pytest.raises(ValueError, match="expected 3 weights"):
            optimality_certificate(3, (0.0, 1.0))

    @pytest.mark.parametrize("weights", [(0, 1e-14, 1e-14), (0, 1e-320, 1e-320)])
    def test_tiny_weights_fail_as_their_scaled_copies_do(self, weights):
        # z = (0, 2c, -c) is negative at level 3 at any scale; an absolute
        # tolerance passed it for tiny c
        cert = optimality_certificate(3, weights)
        assert cert.z_values[2] < 0 and not cert.passed
        assert not optimality_certificate(3, (0, 1, 1)).passed

    def test_an_overflowed_value_fails(self):
        # f(2) = 1.6e308 and z_3 = f(3) - 2 f(2) overflows to -inf, so the
        # scale of f is infinite too
        cert = optimality_certificate(3, (0, 8e307, 0))
        assert cert.z_values == (0, 1.6e308, -math.inf)
        assert not cert.passed


def _convex_weights(steps):
    """Weights c_j = f(j) / j, f(0) = 0, f(j) - f(j-1) = sum(steps[:j]).

    Nonnegative steps give c_1 = steps[0] >= 0 and a convex f(j) = j c_j,
    the certificate's condition.
    """
    f = increment = 0
    weights = []
    for j, step in enumerate(steps, start=1):
        increment += step
        f += increment
        weights.append(f / j)
    return weights


def _weights_near_the_boundary():
    """Float weights whose certificate values sit at any distance from 0.

    Convex weights have z equal to their steps, up to rounding; a step of
    0 or one of -1e-13 puts a value within the rounding of f or just past
    it.  No weight is subnormal, or within 2^40 of it, so that scaling by
    2^k for |k| <= 40 is exact.
    """
    step = st.one_of(
        st.just(0.0), st.just(-1e-13), st.floats(-1.0, -1e-6), st.floats(1e-6, 1e3)
    )
    convex = st.lists(step, min_size=1, max_size=30).map(_convex_weights)
    plain = st.lists(
        st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6)),
        min_size=1,
        max_size=30,
    )
    return st.one_of(convex, plain)


@settings(max_examples=200, deadline=None)
@given(weights=_weights_near_the_boundary(), k=st.integers(-40, 40))
@example(weights=[0.0, 1e-14, 1e-14], k=40)
def test_scaled_weights_scale_z_exactly_and_keep_the_verdict(weights, k):
    n = len(weights)
    cert = optimality_certificate(n, weights)
    scaled = optimality_certificate(n, [math.ldexp(c, k) for c in weights])
    assert scaled.z_values == tuple(math.ldexp(z, k) for z in cert.z_values)
    assert scaled.passed == cert.passed


class TestCertificateMargin:
    """``OptimalityCertificate.margin`` crosses 0 where ``passed`` flips."""

    @settings(max_examples=200, deadline=None)
    @given(
        z=st.lists(
            st.fractions(min_value=1, max_value=20, max_denominator=60),
            min_size=2,
            max_size=40,
        ),
        data=st.data(),
        step=st.integers(-3, 3),
    )
    def test_moving_one_weight_across_the_boundary(self, z, data, step):
        # Weights whose z is drawn: f = j c_j is z's double running sum.
        # Then z_{j+1} = 2 j d, and raising c_j by x raises f(j) by j x:
        # z_{j+1} falls by 2 j x, z_j and z_{j+2} rise by j x and stay
        # above 1/2, so only z_{j+1} can cross 0, at x = d.
        n = len(z)
        j = data.draw(st.integers(1, n - 1), label="j")
        d = data.draw(
            st.fractions(0, Fraction(1, 2 * n), max_denominator=10**6), label="d"
        )
        z[j] = 2 * j * d
        weights = [f / k for k, f in enumerate(accumulate(accumulate(z)), start=1)]
        assert optimality_certificate(n, weights).z_values == tuple(z)
        x = d + Fraction(step, 1000 * n)
        weights[j - 1] += x
        cert = optimality_certificate(n, weights)
        k, value = cert.margin
        assert cert.passed == (value >= 0) == (x <= d)
        assert value == min(cert.z_values) == cert.z_values[k - 1]
        assert all(v > value for v in cert.z_values[: k - 1])
        if x > d:
            assert (k, value) == (j + 1, -2 * j * (x - d))

    @settings(max_examples=200, deadline=None)
    @given(weights=_weights_near_the_boundary())
    def test_float_certificates(self, weights):
        cert = optimality_certificate(len(weights), weights)
        k, value = cert.margin
        z = cert.z_values
        low = min(z)
        assert cert.passed == (value >= 0)
        assert z[k - 1] == low and all(v > low for v in z[: k - 1])
        tol = CERT_TOL * max(map(abs, accumulate(accumulate(z))))
        assert value == low + tol

    def test_an_overflow_sits_at_the_margin(self):
        # z_3 = f(1) + f(3) - 2 f(2) is inf - inf
        cert = optimality_certificate(3, (0, 8e307, 8e307))
        assert math.isnan(cert.z_values[2])
        k, value = cert.margin
        assert k == 3 and math.isnan(value) and not cert.passed

    def test_is_derived_not_stored(self):
        cert = optimality_certificate(3, (Fraction(0), 1, 1))
        assert cert.margin == (3, -1)
        assert "margin" not in cert.__dict__

    def test_holds_at_least_one_value(self):
        with pytest.raises(ValueError, match="at least one value"):
            OptimalityCertificate(())


@st.composite
def _certified_cases(draw):
    """A rank 2-40 spectrum and weights meant to pass the certificate:
    exact ``Fraction`` spectra with exact convex weights, or float spectra
    with ln, log2 or float convex weights."""
    n = draw(st.integers(2, 40))
    if draw(st.booleans()):
        raw = draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
        steps = st.builds(Fraction, st.integers(0, 20), st.integers(1, 9))
        weights = _convex_weights(draw(st.lists(steps, min_size=n, max_size=n)))
        return make_spectrum([Fraction(r) for r in raw]), weights
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["ln", "log2", "convex"]))
    if kind == "convex":
        steps = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
        weights = _convex_weights(draw(steps))
    else:
        weights = standard_weights(kind, n)
    return make_spectrum(raw), weights


@settings(max_examples=60, deadline=None)
@given(_certified_cases())
@example(
    # HiGHS stopped 3.4e-13 (1e-11 relative) short of this optimum
    (make_spectrum([1.0] * 14 + [0.5]), _convex_weights([0.0] * 13 + [1e-11, 1.0]))
)
def test_certified_closed_form_is_the_lp_optimum(case):
    s, weights = case
    cert = optimality_certificate(s.rank, weights)
    assume(cert.passed)
    exact = isinstance(weights[0], Fraction)
    probs = optimal_plan(s).probabilities
    prob = concentration_lp(s, weights)
    simplex = simplex_solve(prob, exact=exact).objective_value
    highs = highs_optimum(prob.objective, prob.constraint_matrix, prob.bounds)
    if exact:
        closed = sum(c * p for c, p in zip(weights, probs))
        assert simplex == closed
    else:
        closed = math.fsum(c * p for c, p in zip(weights, probs))
        assert math.isclose(simplex, closed, rel_tol=1e-12)
    # HiGHS stops within its 1e-10 feasibility tolerances: a primal one on
    # each row moves the optimum by up to 1e-10 times the sum of the duals,
    # which are the certificate's z, and a dual one on each reduced cost by
    # up to 1e-10 times sum(x), which row 1 bounds by 1
    highs_tol = 1e-10 * (1 + float(sum(cert.z_values)))
    assert math.isclose(highs, closed, rel_tol=1e-12, abs_tol=highs_tol)


class TestSingleShotPovm:
    def test_uniform_pair(self):
        povm = single_shot_povm(make_spectrum([0.5, 0.5]))
        first, second = povm.elements
        assert first.diag == (0.0, 0.0)
        assert second.diag == pytest.approx((1.0, 1.0), abs=1e-15)
        prob, post = apply_povm_element(second.diag, make_spectrum([0.5, 0.5]))
        assert prob == pytest.approx(1.0, abs=1e-15)
        assert post.coeffs == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_worked_example(self):
        s = make_spectrum(WORKED_SPECTRUM)
        povm = single_shot_povm(s)
        third = povm.elements[2]
        assert third.diag == pytest.approx(
            (math.sqrt(0.2 / 0.5), math.sqrt(0.2 / 0.3), 1.0), abs=1e-12
        )
        prob, post = apply_povm_element(third.diag, s)
        assert prob == pytest.approx(0.6, abs=1e-12)
        assert post.coeffs == pytest.approx((1 / 3,) * 3, abs=1e-12)

    def test_outcomes_match_plan_and_post_states_are_uniform(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            s = random_spectrum(rng, int(rng.integers(1, 9)))
            povm = single_shot_povm(s)
            plan = optimal_plan(s)
            for j, element in enumerate(povm.elements, start=1):
                prob, post = apply_povm_element(element.diag, s)
                assert prob == pytest.approx(
                    plan.probabilities[j - 1], abs=1e-12
                )
                if prob > 0:
                    assert post.rank == j
                    assert post.coeffs == pytest.approx(
                        (1.0 / j,) * j, abs=1e-12
                    )

    def test_completeness_residual(self):
        rng = np.random.default_rng(107)
        for _ in range(100):
            s = random_spectrum(rng, int(rng.integers(1, 17)))
            povm = single_shot_povm(s)
            for i in range(povm.support_rank):
                total = math.fsum(el.diag[i] ** 2 for el in povm.elements)
                assert abs(total - 1.0) <= 1e-12


class TestAsymptoticYieldCurve:
    def test_maximally_entangled_saturates(self):
        s = uniform_spectrum(2)
        curve = asymptotic_yield_curve(s, 5)
        for _, y in curve:
            assert y == pytest.approx(entropy(s), abs=1e-12)

    def test_first_point_is_single_copy_plan(self):
        s = make_spectrum(WORKED_SPECTRUM)
        curve = asymptotic_yield_curve(s, 1)
        assert curve[0][0] == 1
        assert curve[0][1] == pytest.approx(WORKED_YIELD, abs=1e-12)

    def test_skewed_pair_trends_toward_entropy(self):
        s = make_spectrum([0.8, 0.2])
        limit = entropy(s)
        curve = dict(asymptotic_yield_curve(s, 16))
        for n in (1, 2, 4, 8, 16):
            assert curve[n] <= limit + 1e-12
        assert limit - curve[16] < limit - curve[1]

    @settings(max_examples=60, deadline=None)
    @given(
        distinct=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4),
        picks=st.lists(st.integers(0, 3), min_size=1, max_size=4),
        max_n=st.integers(1, 6),
    )
    def test_matches_expanded_spectra(self, distinct, picks, max_n):
        # picking ranks 1-4 from at most four values forces ties often
        s = make_spectrum([distinct[i % len(distinct)] for i in picks])
        curve = asymptotic_yield_curve(s, max_n)
        oracle = expanded_yield_curve(s, max_n)
        assert [n for n, _ in curve] == list(range(1, max_n + 1))
        for (_, y), (_, ref) in zip(curve, oracle):
            assert abs(y - ref) <= 1e-12
            assert y <= entropy(s) + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        distinct=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3, unique=True),
        ties=st.lists(st.integers(1, 3), min_size=3, max_size=3),
        data=st.data(),
    )
    def test_between_the_type_class_bound_and_the_entropy(self, distinct, ties, data):
        # each distinct value held 1-3 times; two of them up to a few
        # hundred copies, three up to a few dozen
        s = make_spectrum([a for a, m in zip(distinct, ties) for _ in range(m)])
        levels = len(set(s.coeffs))
        max_n = data.draw(st.integers(1, 300 if levels <= 2 else 40), label="max_n")
        limit = entropy(s)
        for n, y in asymptotic_yield_curve(s, max_n):
            assert type_class_yield_bound(s, n) - 1e-12 <= y <= limit + 1e-12

    def test_rank_three_runs_to_a_hundred_copies(self):
        s = make_spectrum([0.5, 0.3, 0.2])
        limit = entropy(s)
        curve = dict(asymptotic_yield_curve(s, 100))
        assert curve[100] < limit
        assert limit - curve[100] < limit - curve[16]

    def test_type_class_cap(self):
        assert concentrate.SIZE_CAP == 1 << 20
        s = make_spectrum([1.0 + i / 64 for i in range(64)])
        with pytest.raises(ValueError, match="cap"):
            asymptotic_yield_curve(s, 5)

    def test_a_curve_of_exactly_the_cap_is_computed(self):
        # rank 2 up to n = 6 copies has comb(2 + 6, 6) - 1 = 27 type classes
        s = make_spectrum([0.7, 0.3])
        classes = math.comb(2 + 6, 6) - 1
        with mock.patch.object(concentrate, "SIZE_CAP", classes):
            assert len(asymptotic_yield_curve(s, 6)) == 6
        with mock.patch.object(concentrate, "SIZE_CAP", classes - 1):
            with pytest.raises(ValueError, match=f"curve needs {classes} type classes"):
                asymptotic_yield_curve(s, 6)
