"""Monte Carlo protocol simulation: reproducibility and statistics."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from entmanip import (
    DiagonalPovm,
    IncompletePovmError,
    PovmElement,
    SimulationReport,
    average_target,
    build_ensemble_povm,
    make_ensemble,
    make_spectrum,
    optimal_plan,
    simulate,
    single_shot_povm,
    uniform_spectrum,
)
from entmanip import sim
from entmanip.sim import _CHUNK_TRIALS, _numpy_tally, _python_tally, counter_uniforms
from util import random_ensemble, random_spectrum, yield_statistics


def binomial_bound(p: float, trials: int) -> float:
    return 4.0 * math.sqrt(p * (1.0 - p) / trials)


def chi_square_statistic(report) -> tuple[float, int]:
    """Goodness-of-fit statistic over outcomes with nonzero expectation."""
    statistic = 0.0
    dof = -1
    for count, expected_p in zip(report.counts, report.expected_probs):
        if expected_p <= 0.0:
            assert count == 0
            continue
        expected = expected_p * report.trials
        statistic += (count - expected) ** 2 / expected
        dof += 1
    return statistic, max(dof, 1)


class TestCounterUniforms:
    def test_partition_independent(self):
        whole = counter_uniforms(42, 0, 1000)
        parts = np.concatenate(
            [counter_uniforms(42, 0, 400), counter_uniforms(42, 400, 600)]
        )
        assert np.array_equal(whole, parts)

    def test_range_and_spread(self):
        u = counter_uniforms(7, 0, 100000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.01

    def test_seed_sensitivity(self):
        assert not np.array_equal(
            counter_uniforms(1, 0, 100), counter_uniforms(2, 0, 100)
        )

    @pytest.mark.parametrize(
        "seed, start, multiples",
        [
            (0, 0, [7956156453446585, 3886858653415212, 238094247788840, 8744927430068624]),
            (2**64 - 1, 0, [8051922005355685, 8219944852094672, 1976917772619344, 3839178615387440]),
            (0, 2**40, [887180520247730, 408896150279600, 2236591560848092, 6428908691148668]),
            (2**64 - 1, 2**40 - 2, [78477317493866, 7999822389837012, 3686695341870573, 2367499419355937]),
        ],
    )
    def test_golden_values(self, seed, start, multiples):
        # every variate is k * 2^-53 for a 53-bit k; these pin the hash bit
        # for bit, which recorded simulation counts depend on
        u = counter_uniforms(seed, start, len(multiples))
        assert u.tolist() == [k * 2.0**-53 for k in multiples]


_REPORT_VALUES = (
    "trials", "seed", "labels", "counts", "empirical_probs", "expected_probs",
    "mean_yield", "max_abs_deviation",
)
_WORKED = make_spectrum([0.5, 0.3, 0.2])
_TIED = make_spectrum([5, 4, 4, 2, 1])
_HALVES = make_ensemble([(0.5, make_spectrum([1.0])), (0.5, make_spectrum([0.5, 0.5]))])
# The repr of every value of a report, pinned bit for bit: the tally and
# the statistics derived from it.  70001 trials span two chunks.
_GOLDEN_REPORTS = [
    (
        single_shot_povm(_WORKED), _WORKED, 1000, 3,
        ["1000", "3", "(1, 2, 3)", "(204, 207, 589)", "(0.204, 0.207, 0.589)",
         "(0.2, 0.19999999999999996, 0.6)", "0.7905641044014253",
         "0.01100000000000001"],
    ),
    (
        single_shot_povm(_TIED), _TIED, 70001, 11,
        ["70001", "11", "(1, 2, 3, 4, 5)", "(4380, 0, 26590, 17375, 21656)",
         "(0.06257053470664704, 0.0, 0.37985171640405135, 0.24821073984657363, "
         "0.30936700904272796)",
         "(0.06249999999999999, 0.0, 0.37500000000000006, 0.25, 0.3125)",
         "1.259309905741575", "0.004851716404051298"],
    ),
    (
        build_ensemble_povm(_HALVES), average_target(_HALVES), 997, 2**64 - 1,
        ["997", "18446744073709551615", "(1, 2)", "(514, 483)",
         "(0.5155466399197592, 0.4844533600802407)", "(0.5, 0.5)",
         "0.33579748065241083", "0.015546639919759297"],
    ),
]


class TestSimulate:
    def test_identity_povm(self):
        povm = DiagonalPovm((PovmElement(1, (1.0, 1.0)),))
        report = simulate(povm, make_spectrum([0.6, 0.4]), trials=500, seed=3)
        assert report.counts == (500,)
        assert report.empirical_probs == (1.0,)
        assert report.mean_yield == 0.0  # ln(1)

    def test_deterministic_for_fixed_seed(self):
        s = make_spectrum([0.5, 0.3, 0.2])
        povm = single_shot_povm(s)
        a = simulate(povm, s, trials=10000, seed=11)
        b = simulate(povm, s, trials=10000, seed=11)
        assert a == b

    def test_single_shot_within_binomial_bound(self):
        s = make_spectrum([0.5, 0.3, 0.2])
        trials = 100000
        report = simulate(single_shot_povm(s), s, trials=trials, seed=2026)
        plan = optimal_plan(s)
        for p_hat, p in zip(report.empirical_probs, plan.probabilities):
            assert abs(p_hat - p) <= binomial_bound(p, trials)

    def test_ensemble_povm_distribution(self):
        rng = np.random.default_rng(131)
        trials = 100000
        for _ in range(5):
            e = random_ensemble(rng, int(rng.integers(2, 5)), 4)
            povm = build_ensemble_povm(e)
            avg = average_target(e)
            report = simulate(povm, avg, trials=trials, seed=99)
            for p_hat, (p, _) in zip(report.empirical_probs, e.entries):
                assert abs(p_hat - p) <= binomial_bound(p, trials)

    def test_chi_square_fit(self):
        # one retry is budgeted: a 99.9% test fails a fair generator about
        # once per thousand runs, so a single deterministic rerun with the
        # alternate seed keeps the suite stable without hiding real bias
        rng = np.random.default_rng(137)
        failures = 0
        for k in range(20):
            s = random_spectrum(rng, int(rng.integers(2, 7)))
            povm = single_shot_povm(s)
            for attempt, seed in enumerate((1000 + k, 5000 + k)):
                report = simulate(povm, s, trials=100000, seed=seed)
                statistic, dof = chi_square_statistic(report)
                if statistic < stats.chi2.ppf(0.999, dof):
                    break
                failures += 1
                assert attempt == 0, (
                    f"chi-square failed twice for {s.coeffs}: {statistic}"
                )
        assert failures <= 2

    def test_mean_yield_converges(self):
        s = make_spectrum([0.5, 0.3, 0.2])
        povm = single_shot_povm(s)
        truth = optimal_plan(s).expected_entanglement
        small = simulate(povm, s, trials=1000, seed=17)
        large = simulate(povm, s, trials=1000000, seed=17)
        assert abs(large.mean_yield - truth) < abs(small.mean_yield - truth)

    def test_uniform_state_yield_is_exact(self):
        s = uniform_spectrum(4)
        report = simulate(single_shot_povm(s), s, trials=1234, seed=5)
        assert report.mean_yield == pytest.approx(math.log(4), abs=1e-15)
        assert report.max_abs_deviation == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("povm, state, trials, seed, golden", _GOLDEN_REPORTS)
    def test_golden_reports(self, povm, state, trials, seed, golden):
        report = simulate(povm, state, trials=trials, seed=seed)
        assert [repr(getattr(report, name)) for name in _REPORT_VALUES] == golden

    def test_chunked_tally_matches_one_shot_in_bounded_memory(self):
        s = make_spectrum([0.5, 0.3, 0.2])
        povm = single_shot_povm(s)
        trials, seed = 10**6, 5

        tracemalloc.start()
        try:
            cdf = np.cumsum(povm.outcome_probabilities(s))
            cdf[-1] = max(cdf[-1], 1.0)
            outcomes = np.searchsorted(
                cdf, counter_uniforms(seed, 0, trials), side="right"
            )
            one_shot = np.bincount(np.minimum(outcomes, 2), minlength=3)
            del outcomes
            one_shot_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            report = simulate(povm, s, trials=trials, seed=seed)
            streamed_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

        assert report.counts == tuple(int(c) for c in one_shot)
        # one uint64 per trial alone takes 8 MB; the chunks stay far below
        assert one_shot_peak > 8 * trials
        assert streamed_peak < one_shot_peak / 4

    @settings(max_examples=60, deadline=None)
    @given(
        raw=st.lists(
            st.one_of(st.integers(1, 4), st.floats(0.01, 1.0)), min_size=1, max_size=64
        ),
        trials=st.one_of(
            st.integers(1, 50),
            st.integers(_CHUNK_TRIALS - 2, _CHUNK_TRIALS + 2),
            st.integers(2 * _CHUNK_TRIALS - 1, 2 * _CHUNK_TRIALS + 1),
            st.integers(_CHUNK_TRIALS, 3 * _CHUNK_TRIALS),
        ),
        # seeds past 64 bits and negative ones are taken mod 2**64
        seed=st.integers(-(2**80), 2**80),
        short=st.booleans(),
    )
    def test_sorted_chunk_tally_matches_per_trial_search(self, raw, trials, seed, short):
        # integer weights tie, and tied coefficients are zero-probability
        # outcomes of the single-shot measurement
        s = make_spectrum(raw)
        povm = single_shot_povm(s)
        if short:
            # shrink the last element within POVM_TOL, so that the outcome
            # cdf ends below 1 before the top-edge guard
            *first, last = povm.elements
            diag = tuple(d * math.sqrt(1 - 4e-11) for d in last.diag)
            povm = DiagonalPovm((*first, PovmElement(last.label, diag)))
        expected = povm.outcome_probabilities(s)
        cdf = np.cumsum(expected)
        if short:
            assert cdf[-1] < 1.0
        cdf[-1] = max(cdf[-1], 1.0)
        outcomes = np.searchsorted(cdf, counter_uniforms(seed, 0, trials), side="right")
        per_trial = np.bincount(np.minimum(outcomes, s.rank - 1), minlength=s.rank)

        report = simulate(povm, s, trials=trials, seed=seed)
        assert report.counts == tuple(int(c) for c in per_trial)
        assert all(c == 0 for c, p in zip(report.counts, expected) if p == 0)

    @settings(max_examples=40, deadline=None)
    @given(
        raw=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12).filter(
            lambda raw: sum(raw) > 0
        ),
        trials=st.one_of(st.integers(0, 2000), st.just(_CHUNK_TRIALS)),
        seed=st.integers(-(2**80), 2**80),
    )
    def test_python_tally_matches_the_numpy_tally(self, raw, trials, seed):
        # zero weights are zero-probability outcomes; the two tallies serve
        # runs on either side of one chunk and must count alike
        cdf = list(itertools.accumulate(w / sum(raw) for w in raw))
        cdf[-1] = max(cdf[-1], 1.0)
        counts = _python_tally(cdf, seed, trials)
        assert counts == _numpy_tally(cdf, seed, trials)
        assert sum(counts) == trials
        assert all(c == 0 for c, w in zip(counts, raw) if w == 0)

    def test_one_chunk_runs_need_no_numpy_array(self):
        s = make_spectrum([0.5, 0.3, 0.2])
        povm = single_shot_povm(s)
        with mock.patch.object(sim, "counter_uniforms", side_effect=AssertionError):
            small = simulate(povm, s, trials=_CHUNK_TRIALS, seed=9)
        large = simulate(povm, s, trials=_CHUNK_TRIALS + 1, seed=9)
        assert sum(small.counts) == _CHUNK_TRIALS
        assert sum(large.counts) == _CHUNK_TRIALS + 1

    def test_incomplete_on_state_support(self):
        povm = single_shot_povm(make_spectrum([0.6, 0.4]))
        with pytest.raises(IncompletePovmError):
            simulate(povm, make_spectrum([0.5, 0.3, 0.2]), trials=10, seed=0)
        # a library caller that catches ValueError still catches it
        with pytest.raises(ValueError):
            simulate(povm, make_spectrum([0.5, 0.3, 0.2]), trials=10, seed=0)

    def test_rejects_nonpositive_trials(self):
        s = make_spectrum([1.0])
        with pytest.raises(ValueError):
            simulate(single_shot_povm(s), s, trials=0, seed=0)

    @pytest.mark.parametrize(
        "labels, counts, expected_probs",
        [((2,), (1, 1), (0.5,)), ((1, 2), (1, 1), (0.5,)), ((1, 2), (2,), (0.5, 0.5))],
    )
    def test_report_rejects_unequal_lengths(self, labels, counts, expected_probs):
        with pytest.raises(ValueError, match="differ in length"):
            SimulationReport(
                trials=2, seed=0, labels=labels, counts=counts,
                expected_probs=expected_probs,
            )


class TestYieldStatistics:
    def test_deterministic_outcome(self):
        povm = DiagonalPovm((PovmElement(1, (1.0,)),))
        report = simulate(povm, make_spectrum([1.0]), trials=100, seed=1)
        mean, stderr = yield_statistics(report)
        assert mean == 0.0
        assert stderr == 0.0

    def test_worked_spectrum_within_four_stderr(self):
        s = make_spectrum([0.5, 0.3, 0.2])
        report = simulate(single_shot_povm(s), s, trials=100000, seed=31)
        mean, stderr = yield_statistics(report)
        truth = 0.2 * math.log(2) + 0.6 * math.log(3)
        assert stderr > 0
        assert abs(mean - truth) <= 4 * stderr

    def test_needs_two_trials(self):
        povm = DiagonalPovm((PovmElement(1, (1.0,)),))
        report = simulate(povm, make_spectrum([1.0]), trials=1, seed=1)
        with pytest.raises(ValueError):
            yield_statistics(report)
