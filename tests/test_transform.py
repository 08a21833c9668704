"""Average targets, duplicate merging, and the ensemble measurement."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmanip import (
    DiagonalPovm,
    PovmElement,
    average_target,
    build_ensemble_povm,
    ensemble_feasible,
    make_ensemble,
    make_spectrum,
    merge_duplicates,
    vidal_monotones,
)
from entmanip.schmidt import padded_average
from util import apply_povm_element, max_rank, random_ensemble, random_spectrum


def padded(coeffs, n):
    return tuple(coeffs) + (0.0,) * (n - len(coeffs))


class TestAverageTarget:
    def test_singleton(self):
        s = make_spectrum([0.6, 0.4])
        avg = average_target(make_ensemble([(1.0, s)]))
        assert avg.coeffs == pytest.approx(s.coeffs, abs=1e-15)

    def test_convex_combination(self):
        ensemble = make_ensemble(
            [(0.5, make_spectrum([1.0])), (0.5, make_spectrum([0.5, 0.5]))]
        )
        assert average_target(ensemble).coeffs == pytest.approx(
            (0.75, 0.25), abs=1e-15
        )

    def test_monotones_average_linearly(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            e = random_ensemble(rng, int(rng.integers(1, 6)), 6)
            avg = average_target(e)
            n = max(avg.rank, max_rank(e))
            avg_tails = padded(vidal_monotones(avg), n)
            by_hand = [0.0] * n
            for p, target in e.entries:
                tails = padded(vidal_monotones(target), n)
                for i in range(n):
                    by_hand[i] += p * tails[i]
            assert avg_tails == pytest.approx(by_hand, abs=1e-12)


def _loop_average(pairs, n):
    """The per-caller averaging loop that ``padded_average`` replaced."""
    avg = [0.0] * n
    for p, values in pairs:
        values = padded(values, n)
        for i in range(n):
            avg[i] += p * values[i]
    return avg


class TestPaddedAverage:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1.0),
                st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_float_average_is_the_loop_bit_for_bit(self, pairs):
        n = max(len(values) for _, values in pairs)
        got = padded_average(pairs)
        assert [x.hex() for x in got] == [
            x.hex() for x in _loop_average(pairs, n)
        ]

    def test_exact_ensemble_averages_exactly(self):
        one = make_spectrum([Fraction(1)])
        pair = make_spectrum([Fraction(1), Fraction(1)])
        e = make_ensemble([(Fraction(1, 3), one), (Fraction(2, 3), pair)])
        assert padded_average(
            ((p, t.coeffs) for p, t in e.entries)
        ) == [Fraction(2, 3), Fraction(1, 3)]
        avg = average_target(e)
        assert avg.coeffs == (Fraction(2, 3), Fraction(1, 3))
        assert all(isinstance(a, Fraction) for a in avg.coeffs)


class TestMergeDuplicates:
    def test_merges_equal_targets(self):
        s = make_spectrum([0.5, 0.5])
        merged, die = merge_duplicates(make_ensemble([(0.3, s), (0.7, s)]))
        assert len(merged.entries) == 1
        assert merged.entries[0][0] == pytest.approx(1.0, abs=1e-15)
        (group,) = die.groups
        assert [j for j, _ in group.members] == [1, 2]
        assert [r for _, r in group.members] == pytest.approx([0.3, 0.7])

    def test_distinct_targets_unchanged(self):
        e = make_ensemble(
            [(0.4, make_spectrum([0.9, 0.1])), (0.6, make_spectrum([0.5, 0.5]))]
        )
        merged, die = merge_duplicates(e)
        assert merged.entries == e.entries
        assert all(len(g.members) == 1 for g in die.groups)

    def test_merge_preserves_average(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            e = random_ensemble(rng, int(rng.integers(2, 6)), 4)
            # plant a duplicate so there is something to merge
            p0, t0 = e.entries[0]
            pairs = list(e.entries) + [(p0, t0)]
            total = 1.0 + p0
            doubled = make_ensemble([(p / total, t) for p, t in pairs])
            merged, _ = merge_duplicates(doubled)
            assert len(merged.entries) < len(doubled.entries)
            assert average_target(merged).coeffs == pytest.approx(
                average_target(doubled).coeffs, abs=1e-12
            )

    def test_die_expansion_recovers_distribution(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            e = random_ensemble(rng, int(rng.integers(2, 6)), 4)
            p0, t0 = e.entries[0]
            pairs = list(e.entries) + [(p0, t0)]
            total = 1.0 + p0
            doubled = make_ensemble([(p / total, t) for p, t in pairs])
            merged, die = merge_duplicates(doubled)
            recovered = {}
            for (p_merged, _), group in zip(merged.entries, die.groups):
                for outcome, rel in group.members:
                    recovered[outcome] = p_merged * rel
            for j, (p, _) in enumerate(doubled.entries, start=1):
                assert recovered[j] == pytest.approx(p, abs=1e-12)


class TestBuildEnsemblePovm:
    def test_singleton_gives_identity(self):
        s = make_spectrum([0.6, 0.4])
        povm = build_ensemble_povm(make_ensemble([(1.0, s)]))
        (element,) = povm.elements
        assert element.diag == pytest.approx((1.0, 1.0), abs=1e-15)

    def test_worked_example(self):
        ensemble = make_ensemble(
            [(0.5, make_spectrum([1.0])), (0.5, make_spectrum([0.5, 0.5]))]
        )
        povm = build_ensemble_povm(ensemble)
        first, second = povm.elements
        assert first.diag == pytest.approx(
            (math.sqrt(0.5 / 0.75), 0.0), abs=1e-15
        )
        assert second.diag == pytest.approx(
            (math.sqrt(0.25 / 0.75), 1.0), abs=1e-15
        )

    def test_completeness_and_outcome_probabilities(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            e = random_ensemble(rng, int(rng.integers(1, 6)), 6)
            povm = build_ensemble_povm(e)
            avg = average_target(e)
            for i in range(povm.support_rank):
                total = math.fsum(el.diag[i] ** 2 for el in povm.elements)
                assert abs(total - 1.0) <= 1e-10
            probs = povm.outcome_probabilities(avg)
            assert math.fsum(probs) == pytest.approx(1.0, abs=1e-10)
            for w, (p, _) in zip(probs, e.entries):
                assert w == pytest.approx(p, abs=1e-10)

    def test_probability_conservation_on_any_supported_state(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            e = random_ensemble(rng, int(rng.integers(1, 6)), 6)
            povm = build_ensemble_povm(e)
            state = random_spectrum(
                rng, int(rng.integers(1, povm.support_rank + 1))
            )
            probs = povm.outcome_probabilities(state)
            assert math.fsum(probs) == pytest.approx(1.0, abs=1e-10)


_SPECTRA = st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5).map(make_spectrum)


@st.composite
def _feasible_cases(draw):
    """A source and a target ensemble that it can reach.

    Targets come from a pool of at most three spectra, so duplicates that
    merge are common.  The source mixes the ensemble's average with the
    uniform spectrum on at least as many levels: its tail sums are at least
    the average's, so the ensemble is feasible from it.
    """
    pool = draw(st.lists(_SPECTRA, min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=5))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(picks), max_size=len(picks)))
    total = math.fsum(weights)
    ensemble = make_ensemble([(w / total, pool[k]) for w, k in zip(weights, picks)])
    avg = average_target(ensemble)
    levels = avg.rank + draw(st.integers(0, 2))
    t = draw(st.floats(0.0, 1.0))
    source = make_spectrum(
        [(1 - t) * a + t / levels for a in padded(avg.coeffs, levels)], zero_tol=0.0
    )
    return source, ensemble


@settings(max_examples=200, deadline=None)
@given(_feasible_cases())
def test_povm_reproduces_any_feasible_ensemble(case):
    source, ensemble = case
    assert ensemble_feasible(source, ensemble).feasible
    merged, die = merge_duplicates(ensemble)
    povm = build_ensemble_povm(merged)
    outcome = povm.outcome_probabilities(average_target(merged))
    for w, (p, _) in zip(outcome, merged.entries):
        assert abs(w - p) <= 1e-9
    # the die splits each merged outcome back into the original entries
    for group in die.groups:
        for j, r in group.members:
            assert abs(outcome[group.representative - 1] * r - ensemble.entries[j - 1][0]) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(case=_feasible_cases(), other=_SPECTRA, data=st.data())
def test_permuting_an_ensemble_changes_no_verdict_and_relabels_the_povm(case, other, data):
    """The verdict from any source is the same for every order of the
    entries, the ensemble's own average (the tightest feasible source)
    included, and element k of the measurement moves with entry k.  The
    average is summed in entry order, so the diagonals agree to within
    1e-15, not bit for bit."""
    source, ensemble = case
    order = data.draw(st.permutations(range(len(ensemble.entries))), label="order")
    permuted = make_ensemble([ensemble.entries[k] for k in order])
    for s in (source, average_target(ensemble), other):
        assert ensemble_feasible(s, permuted).feasible == ensemble_feasible(s, ensemble).feasible
    elements = build_ensemble_povm(ensemble).elements
    for element, k in zip(build_ensemble_povm(permuted).elements, order):
        assert len(element.diag) == len(elements[k].diag)
        assert max(map(abs, np.subtract(element.diag, elements[k].diag))) <= 1e-15


@settings(max_examples=300, deadline=None)
@given(
    targets=st.lists(_SPECTRA, min_size=1, max_size=5),
    data=st.data(),
    delta=st.floats(-9e-10, 9e-10),
    exact=st.booleans(),
)
def test_probabilities_off_one_within_tolerance_give_a_complete_povm(
    targets, data, delta, exact
):
    """``TargetEnsemble`` accepts probabilities that sum to 1 within
    ``NORM_TOL``; the measurement divides by the sum of its numerators, so
    it is complete to rounding and yields target j with p_j / sum p from the
    normalised average, in float and in exact arithmetic."""
    weights = data.draw(
        st.lists(st.floats(0.05, 1.0), min_size=len(targets), max_size=len(targets))
    )
    if exact:
        targets = [make_spectrum([Fraction(a) for a in t.coeffs]) for t in targets]
        weights = [Fraction(w) for w in weights]
        delta = Fraction(delta)
    total = sum(weights)
    probs = [w / total * (1 + delta) for w in weights]
    e = make_ensemble(zip(probs, targets))
    povm = build_ensemble_povm(e)
    for i in range(povm.support_rank):
        assert abs(math.fsum(el.diag[i] ** 2 for el in povm.elements) - 1.0) <= 1e-15
    outcome = povm.outcome_probabilities(average_target(e))
    mass = math.fsum(map(float, probs))
    for w, p in zip(outcome, probs):
        assert abs(w - float(p) / mass) <= 1e-15


class TestApplyPovmElement:
    def test_identity_element(self):
        s = make_spectrum([0.7, 0.3])
        prob, post = apply_povm_element((1.0, 1.0), s)
        assert prob == pytest.approx(1.0, abs=1e-15)
        assert post.coeffs == pytest.approx(s.coeffs, abs=1e-15)

    def test_projection(self):
        prob, post = apply_povm_element((1.0, 0.0), make_spectrum([0.5, 0.5]))
        assert prob == pytest.approx(0.5, abs=1e-15)
        assert post.coeffs == (1.0,)

    def test_zero_probability_marker(self):
        prob, post = apply_povm_element((0.0, 0.0), make_spectrum([0.5, 0.5]))
        assert prob == 0.0
        assert post is None

    def test_short_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            apply_povm_element((1.0,), make_spectrum([0.5, 0.5]))

    def test_protocol_end_to_end(self):
        # the full pipeline: average state, feasibility from a source on
        # the boundary, measurement construction, outcome verification
        rng = np.random.default_rng(43)
        for _ in range(50):
            e = random_ensemble(rng, int(rng.integers(1, 6)), 6)
            avg = average_target(e)
            assert ensemble_feasible(avg, e).feasible
            povm = build_ensemble_povm(e)
            for element, (p, target) in zip(povm.elements, e.entries):
                prob, post = apply_povm_element(element.diag, avg)
                assert prob == pytest.approx(p, abs=1e-9)
                assert post.rank == target.rank
                assert post.coeffs == pytest.approx(target.coeffs, abs=1e-9)


class TestDiagonalPovmValidation:
    def test_incomplete_set_rejected(self):
        with pytest.raises(ValueError, match="incomplete"):
            DiagonalPovm((PovmElement(1, (0.5, 0.5)),))

    def test_unequal_diagonal_lengths_rejected(self):
        with pytest.raises(ValueError, match="full support"):
            DiagonalPovm(
                (PovmElement(1, (1.0, 0.0)), PovmElement(2, (0.0, 1.0, 1.0)))
            )

    def test_support_rank_is_the_diagonal_length(self):
        povm = DiagonalPovm(
            (PovmElement(1, (1.0, 0.0, 0.6)), PovmElement(2, (0.0, 1.0, 0.8)))
        )
        assert povm.support_rank == 3

    @pytest.mark.parametrize("label", [0, -1])
    def test_label_below_one_rejected(self, label):
        # yields are ln(label), so a label below 1 has none
        with pytest.raises(ValueError, match="labels must be >= 1"):
            PovmElement(label, (1.0,))

    def test_negative_diagonal_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PovmElement(1, (-0.1, 1.0))

    @pytest.mark.parametrize("big", [1.0 + 1e-9, 1e300, math.inf])
    def test_diagonal_above_one_rejected(self, big):
        # no complete measurement has a diagonal above 1, and squaring 1e300
        # in the completeness sum would overflow
        with pytest.raises(ValueError, match="at most 1"):
            PovmElement(1, (big, 0.0))
