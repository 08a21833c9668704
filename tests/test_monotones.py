"""Tail-sum monotones and the LQCC feasibility criteria."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entmanip import (
    LpProblem,
    SchmidtSpectrum,
    TargetEnsemble,
    ensemble_feasible,
    ensemble_probability,
    make_ensemble,
    make_spectrum,
    max_conversion_probability,
    nielsen_feasible,
    simplex_solve,
    uniform_spectrum,
    vidal_monotones,
)
from entmanip.monotones import FEASIBILITY_TOL
from entmanip.schmidt import NORM_TOL
from util import (
    concentrate_toward_top,
    random_spectrum,
    reference_ensemble_probability,
    reference_max_conversion_probability,
    reference_tails,
)


# Exact spectra of rank 1-5 normalised from small integer weights, so every
# monotone and slack is a Fraction and tol=0 comparisons are exact.
exact_spectra = st.lists(st.integers(0, 9), min_size=1, max_size=5).filter(any).map(
    lambda weights: make_spectrum([Fraction(w) for w in weights])
)

float_spectra = st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8).map(
    make_spectrum
)

# Valid spectra whose coefficients sum to anything within NORM_TOL of 1:
# a scale of 1 + shift keeps them ordered and positive.  Half the shifts sit
# at the edges, where the sums of source and targets differ the most.
_NORM_SHIFTS = (st.sampled_from([-0.99, 0.99]) | st.floats(-0.99, 0.99)).map(
    lambda u: u * NORM_TOL
)
edge_spectra = st.tuples(float_spectra, _NORM_SHIFTS).map(
    lambda pair: SchmidtSpectrum(tuple(a * (1 + pair[1]) for a in pair[0].coeffs))
)

any_spectra = st.one_of(float_spectra, exact_spectra, edge_spectra)

# An exact spectrum whose last tail is 0.0 as a float.
tiny_tail = make_spectrum([Fraction(1, 500), 2.0, 5e-324], 0)


def brute_force_tails(coeffs):
    """Oracle: each monotone summed directly from its definition."""
    return tuple(
        math.fsum(coeffs[i] for i in range(l, len(coeffs)))
        for l in range(len(coeffs))
    )


class TestVidalMonotones:
    def test_product_state(self):
        assert vidal_monotones(make_spectrum([1.0])) == (1.0,)

    def test_worked_example(self):
        values = vidal_monotones(make_spectrum([0.5, 0.3, 0.2]))
        assert values == pytest.approx((1.0, 0.5, 0.2), abs=1e-15)
        assert values == pytest.approx(
            brute_force_tails((0.5, 0.3, 0.2)), abs=1e-15
        )

    def test_uniform(self):
        values = vidal_monotones(make_spectrum([0.25] * 4))
        assert values == pytest.approx((1.0, 0.75, 0.5, 0.25), abs=1e-15)

    def test_against_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = random_spectrum(rng, int(rng.integers(1, 10)))
            assert vidal_monotones(s) == pytest.approx(
                brute_force_tails(s.coeffs), abs=1e-13
            )

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(float_spectra, exact_spectra))
    def test_tails_are_positive_and_nonincreasing(self, s):
        tails = vidal_monotones(s)
        assert type(tails) is tuple
        assert len(tails) == s.rank
        assert all(t > 0 for t in tails)
        assert all(a >= b for a, b in zip(tails, tails[1:]))
        if isinstance(s.coeffs[0], Fraction):
            assert tails[0] == 1
            assert [a - b for a, b in zip(tails, tails[1:] + (0,))] == list(s.coeffs)

    @pytest.mark.parametrize(
        "s",
        [uniform_spectrum(39_500), SchmidtSpectrum((0.5 + 5e-10, 0.5))],
        ids=["uniform-39500", "sum-one-plus-5e-10"],
    )
    def test_valid_spectrum_whose_sum_is_not_one_to_1e_12(self, s):
        # the running sum of 39,500 equal floats misses 1 by about 1e-12
        tails = vidal_monotones(s)
        assert len(tails) == s.rank
        product = make_spectrum([1.0])
        assert nielsen_feasible(s, product).feasible
        assert ensemble_feasible(s, make_ensemble([(1.0, product)])).feasible
        assert max_conversion_probability(s, product) == 1.0

    def test_reconstruction_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = random_spectrum(rng, int(rng.integers(1, 10)))
            tails = vidal_monotones(s)
            diffs = [
                tails[i] - (tails[i + 1] if i + 1 < len(tails) else 0.0)
                for i in range(len(tails))
            ]
            rebuilt = make_spectrum(diffs, zero_tol=0.0)
            assert rebuilt.coeffs == pytest.approx(s.coeffs, abs=1e-12)


class TestNielsenFeasible:
    def test_feasible_pair(self):
        report = nielsen_feasible(
            make_spectrum([0.6, 0.4]), make_spectrum([0.8, 0.2])
        )
        assert report.feasible
        assert report.slack == pytest.approx((0.0, 0.2), abs=1e-15)

    def test_infeasible_pair(self):
        report = nielsen_feasible(
            make_spectrum([0.8, 0.2]), make_spectrum([0.6, 0.4])
        )
        assert not report.feasible
        assert report.violated_indices == (2,)

    def test_identity_always_feasible(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            s = random_spectrum(rng, int(rng.integers(1, 8)))
            assert nielsen_feasible(s, s).feasible

    def test_larger_target_rank_is_infeasible_not_an_error(self):
        report = nielsen_feasible(
            make_spectrum([0.5, 0.5]), make_spectrum([0.5, 0.3, 0.2])
        )
        assert not report.feasible
        assert 3 in report.violated_indices

    def test_transitivity(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a = random_spectrum(rng, int(rng.integers(2, 7)))
            b = concentrate_toward_top(rng, a)
            c = concentrate_toward_top(rng, b)
            assert nielsen_feasible(a, b).feasible
            assert nielsen_feasible(b, c).feasible
            assert nielsen_feasible(a, c).feasible

    @settings(max_examples=300, deadline=None)
    @given(any_spectra, any_spectra, st.sampled_from([0, FEASIBILITY_TOL]))
    @example(make_spectrum([0.5, 0.3, 0.2]), tiny_tail, 0)
    @example(make_spectrum([Fraction(1), Fraction(1), Fraction(1)]), make_spectrum([0.5, 0.5]), 0)
    @example(make_spectrum([1.0]), make_spectrum([Fraction(1)]), FEASIBILITY_TOL)
    @example(make_spectrum([0.5, 0.5]), tiny_tail, 0)
    def test_report_equals_the_loop_oracle(self, a, b, tol):
        # term-by-term tails, each zero-filled in its own arithmetic past
        # the shorter vector
        for source, target in ((a, b), (b, a)):
            s, t = reference_tails(source.coeffs), reference_tails(target.coeffs)
            n = max(len(s), len(t))
            s, t = s + (0,) * (n - len(s)), t + (0,) * (n - len(t))
            slack = [x - y for x, y in zip(s, t)]
            report = nielsen_feasible(source, target, tol)
            assert list(map(repr, report.slack)) == list(map(repr, slack))
            violated = tuple(l for l, gap in enumerate(slack, start=1) if gap < -tol)
            assert report.violated_indices == violated

    def test_an_exact_tail_below_the_float_range_past_the_source_rank(self):
        # the exact last tail is 0.0 as a float, but the slack stays exact,
        # so the rank-2 source still cannot reach the rank-3 target
        source = make_spectrum([0.5, 0.5])
        report = nielsen_feasible(source, tiny_tail, 0)
        assert report.violated_indices == (3,)
        assert type(report.slack[2]) is Fraction and report.slack[2] < 0
        ensemble = make_ensemble([(Fraction(1), tiny_tail)])
        assert ensemble_feasible(source, ensemble, 0).violated_indices == (3,)
        assert ensemble_probability(source, ensemble) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(exact_spectra, exact_spectra, exact_spectra)
    def test_transitivity_exact(self, a, b, c):
        if nielsen_feasible(a, b, tol=0).feasible and nielsen_feasible(b, c, tol=0).feasible:
            assert nielsen_feasible(a, c, tol=0).feasible


class TestEnsembleFeasible:
    def test_identity_singleton(self):
        s = make_spectrum([0.5, 0.5])
        assert ensemble_feasible(s, make_ensemble([(1.0, s)])).feasible

    def test_saturated_boundary_is_feasible(self):
        source = make_spectrum([0.75, 0.25])
        ensemble = make_ensemble(
            [(0.5, make_spectrum([0.5, 0.5])), (0.5, make_spectrum([1.0]))]
        )
        report = ensemble_feasible(source, ensemble)
        assert report.feasible
        # avg E_2 = 0.25 meets the source exactly
        assert report.slack[1] == pytest.approx(0.0, abs=1e-15)

    def test_infeasible(self):
        report = ensemble_feasible(
            make_spectrum([0.9, 0.1]),
            make_ensemble([(1.0, make_spectrum([0.5, 0.5]))]),
        )
        assert not report.feasible
        assert report.violated_indices == (2,)

    def test_singleton_matches_nielsen(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            source = random_spectrum(rng, int(rng.integers(1, 7)))
            target = random_spectrum(rng, int(rng.integers(1, 7)))
            single = ensemble_feasible(source, make_ensemble([(1.0, target)]))
            pair = nielsen_feasible(source, target)
            assert single.feasible == pair.feasible
            assert single.slack == pytest.approx(pair.slack, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(float_spectra, exact_spectra, edge_spectra),
        st.one_of(float_spectra, exact_spectra, edge_spectra),
    )
    def test_singleton_report_is_nielsen_bit_for_bit(self, a, b):
        for source, target in ((a, b), (b, a)):
            single = ensemble_feasible(source, make_ensemble([(1, target)]))
            pair = nielsen_feasible(source, target)
            assert single.violated_indices == pair.violated_indices
            assert list(map(repr, single.slack)) == list(map(repr, pair.slack))

    @settings(max_examples=100, deadline=None)
    @given(exact_spectra, exact_spectra)
    def test_singleton_report_equals_nielsen_exact(self, source, target):
        single = make_ensemble([(Fraction(1), target)])
        for tol in (0, 1e-9):
            assert ensemble_feasible(source, single, tol) == nielsen_feasible(
                source, target, tol
            )

    def test_valid_inputs_at_the_normalisation_edge_are_not_refused(self):
        h = 0.495e-9
        source = SchmidtSpectrum((0.5 + h, 0.5 + h))
        target = SchmidtSpectrum((0.6 - h, 0.4 - h))
        ensemble = TargetEnsemble(((0.5 - h, target), (0.5 - h, target)))
        assert ensemble_feasible(source, ensemble).feasible
        assert nielsen_feasible(source, target).feasible

    @settings(max_examples=300, deadline=None)
    @given(
        edge_spectra,
        st.lists(st.tuples(st.integers(1, 9), edge_spectra), min_size=1, max_size=4),
        _NORM_SHIFTS,
        st.sampled_from([0, FEASIBILITY_TOL]),
    )
    def test_edge_inputs_get_a_verdict(self, source, entries, shift, tol):
        total = sum(w for w, _ in entries)
        ensemble = TargetEnsemble(
            tuple((w / total * (1 + shift), t) for w, t in entries)
        )
        report = ensemble_feasible(source, ensemble, tol)
        assert report.violated_indices == tuple(
            l for l, gap in enumerate(report.slack, start=1) if gap < -tol
        )


class TestMaxConversionProbability:
    def test_identity(self):
        s = make_spectrum([0.7, 0.3])
        assert max_conversion_probability(s, s) == pytest.approx(1.0, abs=1e-15)

    def test_worked_example(self):
        p = max_conversion_probability(
            make_spectrum([0.75, 0.25]), make_spectrum([0.5, 0.5])
        )
        assert p == pytest.approx(0.5, abs=1e-15)

    def test_rank_obstruction(self):
        p = max_conversion_probability(
            make_spectrum([0.5, 0.5]), make_spectrum([0.5, 0.3, 0.2])
        )
        assert p == 0.0

    def test_probability_one_iff_feasible(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            source = random_spectrum(rng, int(rng.integers(1, 7)))
            target = random_spectrum(rng, int(rng.integers(1, 7)))
            p = max_conversion_probability(source, target)
            feasible = nielsen_feasible(source, target).feasible
            assert (p >= 1.0 - 1e-9) == feasible

    @settings(max_examples=200, deadline=None)
    @given(exact_spectra, exact_spectra)
    def test_probability_one_exactly_iff_feasible_exact(self, source, target):
        p = max_conversion_probability(source, target)
        assert (p == 1.0) == nielsen_feasible(source, target, tol=0).feasible

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(float_spectra, exact_spectra),
        st.one_of(float_spectra, exact_spectra),
    )
    def test_bit_for_bit_equal_to_loop_oracle(self, a, b):
        # a float spectrum on either side gives the float ratio, bit for bit;
        # two exact spectra give the exact one
        exact = type(a.coeffs[0]) is type(b.coeffs[0]) is Fraction
        for source, target in ((a, b), (b, a)):
            p = max_conversion_probability(source, target)
            if exact:
                assert type(p) is Fraction
                assert p == reference_max_conversion_probability(source, target, Fraction)
            else:
                assert type(p) is float
                assert p.hex() == reference_max_conversion_probability(source, target).hex()

    def test_exact_pairs_give_exact_probabilities(self):
        half, nudge = Fraction(1, 2), Fraction(1, 10**10)  # nudge < NORM_TOL
        pair = make_spectrum([Fraction(1), Fraction(1)])
        cases = [
            (make_spectrum([Fraction(3), Fraction(1)]), Fraction(1, 2)),
            # every tail above the target's: clamped to 1
            (SchmidtSpectrum((half + nudge, half + nudge)), Fraction(1)),
            (make_spectrum([Fraction(1)]), Fraction(0)),  # rank obstruction
        ]
        for source, expected in cases:
            p = max_conversion_probability(source, pair)
            assert type(p) is Fraction and p == expected

    def test_a_target_tail_below_the_float_range(self):
        # the last tail of this exact target is 0.0 as a float: the ranks
        # decide the obstruction before any ratio, and its ratio is skipped
        tiny = make_spectrum([Fraction(1, 500), 2.0, 5e-324], 0)
        last = vidal_monotones(tiny)[-1]
        assert last > 0 and float(last) == 0.0
        assert repr(max_conversion_probability(make_spectrum([0.5, 0.5]), tiny)) == "0.0"
        source = make_spectrum([0.5, 0.3, 0.2])
        assert nielsen_feasible(source, tiny).feasible
        assert repr(max_conversion_probability(source, tiny)) == "1.0"
        exact = make_spectrum([Fraction(1, 2)] * 2)
        p = max_conversion_probability(exact, tiny)
        assert type(p) is Fraction and p == 0

    def test_matches_lp_optimum(self):
        # one-variable LP: maximize p with p * E_l(target) <= E_l(source)
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            source = random_spectrum(rng, n)
            target = random_spectrum(rng, int(rng.integers(1, n + 1)))
            source_tails = vidal_monotones(source)
            target_tails = vidal_monotones(target)
            rows = tuple(
                (target_tails[l] if l < len(target_tails) else 0.0,)
                for l in range(n)
            )
            problem = LpProblem((1.0,), rows, source_tails)
            solution = simplex_solve(problem)
            assert solution.status == "optimal"
            expected = max_conversion_probability(source, target)
            assert float(solution.values[0]) == pytest.approx(expected, abs=1e-9)


# Exact ensembles of 1-4 targets of rank 1-7, with Fraction probabilities.
exact_entries = st.lists(
    st.tuples(
        st.integers(1, 9),
        st.lists(st.integers(0, 9), min_size=1, max_size=7).filter(any).map(
            lambda weights: make_spectrum([Fraction(w) for w in weights])
        ),
    ),
    min_size=1,
    max_size=4,
).map(lambda pairs: [(Fraction(w, sum(v for v, _ in pairs)), t) for w, t in pairs])

exact_sources = st.lists(st.integers(0, 9), min_size=1, max_size=9).filter(any).map(
    lambda weights: make_spectrum([Fraction(w) for w in weights])
)


class TestEnsembleProbability:
    @settings(max_examples=200, deadline=None)
    @given(exact_sources, exact_entries)
    def test_the_largest_feasible_scale_exact(self, source, entries):
        ensemble = make_ensemble(entries)
        lam = ensemble_probability(source, ensemble)
        assert type(lam) is Fraction and 0 <= lam <= 1
        assert lam == reference_ensemble_probability(source, ensemble.entries, Fraction)
        assert (lam == 1) == ensemble_feasible(source, ensemble, 0).feasible
        for _, target in ensemble.entries:  # one target: Vidal's probability
            single = make_ensemble([(Fraction(1), target)])
            assert ensemble_probability(source, single) == max_conversion_probability(
                source, target
            )

        # the rest, 1 - x, goes to a product state
        def scaled(x):
            rest = (1 - x, make_spectrum([Fraction(1)]))
            return make_ensemble([*((x * p, t) for p, t in ensemble.entries), rest])

        if lam > 0:
            assert ensemble_feasible(source, scaled(lam), 0).feasible
        above = lam * (1 + Fraction(1, 10**6)) if lam > 0 else Fraction(1, 10**6)
        if above < 1:
            assert not ensemble_feasible(source, scaled(above), 0).feasible

    @settings(max_examples=300, deadline=None)
    @given(
        any_spectra,
        st.lists(st.tuples(st.integers(1, 9), any_spectra), min_size=1, max_size=4),
        st.booleans(),
    )
    @example(make_spectrum([0.5, 0.3, 0.2]), [(1, tiny_tail), (3, make_spectrum([1.0]))], True)
    @example(make_spectrum([0.5, 0.5]), [(1, tiny_tail), (1, make_spectrum([1.0]))], False)
    def test_bit_for_bit_equal_to_loop_oracle(self, source, weighted, exact_p):
        # a float anywhere gives the float ratio, bit for bit; exact
        # spectra and probabilities give the exact one
        total = sum(w for w, _ in weighted)
        ensemble = make_ensemble(
            [(Fraction(w, total) if exact_p else w / total, t) for w, t in weighted]
        )
        spectra = (source, *(t for _, t in weighted))
        p = ensemble_probability(source, ensemble)
        if exact_p and all(type(s.coeffs[0]) is Fraction for s in spectra):
            assert type(p) is Fraction
            expected = reference_ensemble_probability(source, ensemble.entries, Fraction)
            assert p == expected
        else:
            assert type(p) is float
            expected = reference_ensemble_probability(source, ensemble.entries)
            assert p.hex() == expected.hex()

    def test_an_int_probability_of_1_beside_another_entry(self):
        # probabilities may sum to 1 within NORM_TOL, so an int 1 need not
        # be the only entry, and the rank-3 target must count (index 1
        # fails too, as the probabilities sum to 1 + 1e-10)
        source, target = make_spectrum([0.5, 0.5]), make_spectrum([0.6, 0.4])
        ensemble = TargetEnsemble(((1, target), (1e-10, make_spectrum([1.0] * 3))))
        assert ensemble_probability(source, ensemble) == 0.0
        assert ensemble_feasible(source, ensemble, 0.0).violated_indices == (1, 3)

    def test_a_float_average_that_underflows_past_the_source_rank(self):
        # 1e-300 times the last tail, 5e-31, is 0.0: the ranks give 0, and
        # the float feasibility test passes index 3
        source = make_spectrum([0.5, 0.5])
        target = make_spectrum([1.0, 1.0, 1e-30], 0)
        ensemble = make_ensemble([(1.0, make_spectrum([1.0])), (1e-300, target)])
        assert ensemble_probability(source, ensemble) == 0.0
        assert ensemble_feasible(source, ensemble, 0).feasible

    def test_worked_example(self):
        # E(source) = (1, 2/5); the average of 1/2 (1/2, 1/2) and 1/2 (1)
        # has tails (1, 1/4), and (1/2, 1/2) alone (1, 1/2)
        source = make_spectrum([Fraction(3, 5), Fraction(2, 5)])
        half = make_spectrum([Fraction(1), Fraction(1)])
        product = make_spectrum([Fraction(1)])
        mixed = make_ensemble([(Fraction(1, 2), half), (Fraction(1, 2), product)])
        assert ensemble_probability(source, mixed) == 1
        assert ensemble_probability(source, make_ensemble([(1, half)])) == Fraction(4, 5)
        three = make_spectrum([Fraction(1)] * 3)
        ranked = make_ensemble([(Fraction(1, 2), three), (Fraction(1, 2), product)])
        assert ensemble_probability(source, ranked) == 0


def test_ensemble_probabilities_must_sum_to_one():
    s = make_spectrum([0.5, 0.5])
    with pytest.raises(ValueError, match="sum"):
        make_ensemble([(0.4, s), (0.4, s)])


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_tolerance_must_be_finite_and_nonnegative(tol):
    source, target = make_spectrum([0.9, 0.1]), make_spectrum([0.5, 0.5])
    with pytest.raises(ValueError, match="tolerance"):
        nielsen_feasible(source, target, tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        ensemble_feasible(source, make_ensemble([(1.0, target)]), tol=tol)


def test_nan_probability_ensemble_gets_no_verdict():
    # a NaN probability makes every slack NaN, and no index reads NaN as violated
    s = make_spectrum([0.5, 0.5])
    with pytest.raises(ValueError):
        ensemble_feasible(s, TargetEnsemble(((math.nan, s), (1.0, s))))
