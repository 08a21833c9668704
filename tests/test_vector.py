"""The numpy passes of large float spectra against the scalar code.

Each kernel that hands large float spectra to ``entmanip.vector`` is run
twice on the same input: once with ``VECTOR_RANK`` out of reach, which
keeps the scalar code, and once with it at 1, which sends every rank to
the numpy passes.  The results must be equal and have the same ``repr``,
so every float is the same bit for bit; an input that raises must raise
the same ``ValueError`` on both paths.  The spectra drawn are held as
tuples, which the passes convert, or as the arrays that ``make_spectrum``
builds by the passes.
"""

import copy
import math
import pickle
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entmanip import (
    SchmidtSpectrum,
    TargetEnsemble,
    ensemble_feasible,
    ensemble_probability,
    make_ensemble,
    make_spectrum,
    max_conversion_probability,
    nielsen_feasible,
    optimal_plan,
    schmidt,
    vector,
)
from entmanip.monotones import FEASIBILITY_TOL, FeasibilityReport
from entmanip.schmidt import VECTOR_RANK, ZERO_TOL, vector_sized


@contextmanager
def _rank_from(rank):
    with mock.patch.object(schmidt, "VECTOR_RANK", rank):
        yield


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


def _both_paths(name, f, *args):
    """``f(*args)`` on the scalar and on the vector path, as reprs.

    The vector run must call the pass ``vector.<name>``.
    """
    with _rank_from(math.inf):
        scalar = _outcome(f, *args)
    with _rank_from(1):
        with mock.patch.object(vector, name, wraps=getattr(vector, name)) as pass_:
            vectored = _outcome(f, *args)
    assert pass_.called
    return scalar, vectored


# Ties, entries under and at each zero_tol, zeros, and magnitudes far enough
# apart that the division by the sum underflows.
_ENTRY = st.one_of(
    st.sampled_from([0.0, 0.7, 0.5, 0.25, 1.0, 1e-13, ZERO_TOL, 1e-3, 1e-300, 1e300, 5e-324]),
    st.floats(0, 1),
    st.floats(0, 1e300),
)
_ENTRIES = st.lists(_ENTRY, min_size=1, max_size=40)
_ZERO_TOL = st.sampled_from([0.0, ZERO_TOL, 1e-3, Fraction(1, 3)])


def _spectrum(raw):
    with _rank_from(math.inf):
        try:
            return make_spectrum(raw)
        except ValueError:
            return make_spectrum([1.0])


def _held_by_array(raw):
    with _rank_from(1):
        try:
            return make_spectrum(raw)
        except ValueError:
            return make_spectrum([1.0] * 3)


# tuple-held spectra, which each pass converts, and array-held ones
_SPECTRA = st.one_of(_ENTRIES.map(_spectrum), _ENTRIES.map(_held_by_array))


def test_the_threshold_is_a_constant_rank():
    assert VECTOR_RANK == 256
    assert not vector_sized(VECTOR_RANK - 1)
    assert vector_sized(VECTOR_RANK)  # numpy is loaded here
    with mock.patch.dict("sys.modules", {"numpy": None}):
        assert not vector_sized(10**6)
    with mock.patch.object(vector, "normalised", wraps=vector.normalised) as pass_:
        make_spectrum([0.5] * (VECTOR_RANK - 1))
        assert not pass_.called
        make_spectrum([0.5] * VECTOR_RANK)
        assert pass_.called


@settings(max_examples=300, deadline=None)
@given(_ENTRIES, _ZERO_TOL)
@example([0.7] * 7, ZERO_TOL)  # the residual fold puts a tie out of order
@example([1e300, 1e-300, 1e-300], 0.0)  # the division underflows
@example([0.5, -0.0, 1e-13], ZERO_TOL)
@example([0.0, 0.0], 0.0)
@example([1e308, 1e308], ZERO_TOL)
@example([0.5, math.nan], ZERO_TOL)
@example([0.5, -1.0], ZERO_TOL)
@example([math.inf, 1.0], ZERO_TOL)
def test_make_spectrum(raw, zero_tol):
    scalar, vectored = _both_paths("normalised", make_spectrum, raw, zero_tol)
    assert scalar == vectored


@settings(max_examples=200, deadline=None)
@given(_SPECTRA)
def test_optimal_plan(s):
    scalar, vectored = _both_paths("plan_probabilities", optimal_plan, s)
    assert scalar == vectored


_TOL = st.sampled_from([0.0, FEASIBILITY_TOL, 1e-3])


@settings(max_examples=200, deadline=None)
@given(_SPECTRA, _SPECTRA, _TOL)
def test_nielsen_feasible(source, target, tol):
    # ranks that differ are compared with zeros filled in; both orders of a
    # pair are drawn, so infeasible pairs come up as often as feasible ones
    for a, b in ((source, target), (target, source)):
        scalar, vectored = _both_paths("slack", nielsen_feasible, a, b, tol)
        assert scalar == vectored


@settings(max_examples=200, deadline=None)
@given(_SPECTRA, st.lists(st.tuples(st.floats(0.01, 1), _SPECTRA), min_size=1, max_size=4), _TOL)
def test_ensemble_feasible(source, pairs, tol):
    total = math.fsum(p for p, _ in pairs)
    ensemble = make_ensemble([(p / total, t) for p, t in pairs])
    scalar, vectored = _both_paths("slack", ensemble_feasible, source, ensemble, tol)
    assert scalar == vectored


@settings(max_examples=200, deadline=None)
@given(_SPECTRA, _SPECTRA)
@example(SchmidtSpectrum((0.5, 0.5)), SchmidtSpectrum((1 - 5e-324, 5e-324)))  # overflows
def test_max_conversion_probability(source, target):
    for a, b in ((source, target), (target, source)):
        scalar, vectored = _both_paths("min_ratio", max_conversion_probability, a, b)
        assert scalar == vectored


@settings(max_examples=200, deadline=None)
@given(_SPECTRA, st.lists(st.tuples(st.floats(1e-300, 1), _SPECTRA), min_size=1, max_size=4))
@example(  # the averaged last tail underflows to 0.0, and has no ratio
    SchmidtSpectrum((0.5, 0.5)),
    [(1.0, SchmidtSpectrum((1.0,))), (1e-300, SchmidtSpectrum((1.0, 1e-300)))],
)
def test_ensemble_probability(source, pairs):
    total = math.fsum(p for p, _ in pairs)
    ensemble = make_ensemble([(p / total, t) for p, t in pairs])
    for a in (source, *(t for _, t in pairs)):
        scalar, vectored = _both_paths("min_ratio", ensemble_probability, a, ensemble)
        assert scalar == vectored


@pytest.mark.parametrize("p", [1.0, 1 - 1e-10, 1 + 1e-10])
def test_a_one_entry_ensemble(p):
    # a float p, 1 or within NORM_TOL of it, is multiplied in on both paths
    source, target = SchmidtSpectrum((0.5, 0.3, 0.2)), SchmidtSpectrum((0.6, 0.4))
    ensemble = TargetEnsemble(((p, target),))
    scalar, vectored = _both_paths("slack", ensemble_feasible, source, ensemble, 0.0)
    assert scalar == vectored
    scalar, vectored = _both_paths("min_ratio", ensemble_probability, source, ensemble)
    assert scalar == vectored


class TestArrayHeldSpectra:
    """A spectrum that ``make_spectrum`` builds by numpy passes holds an array.

    It acts as the tuple-held spectrum of the same values, and the numpy
    kernels read its array: its ``coeffs`` tuple is built only when code
    reads it.
    """

    @settings(max_examples=300, deadline=None)
    @given(_ENTRIES, _ZERO_TOL)
    @example([0.7] * 7, ZERO_TOL)  # the residual fold puts a tie out of order
    @example([1e300, 1e-300, 1e-300], 0.0)  # the division underflows
    def test_acts_as_the_tuple_held_spectrum(self, raw, zero_tol):
        with _rank_from(math.inf):
            try:
                scalar = make_spectrum(raw, zero_tol)
            except ValueError:
                return  # both paths raise the same error: test_make_spectrum
        with _rank_from(1):
            held = make_spectrum(raw, zero_tol)
        assert "_array" not in scalar.__dict__
        assert held.rank == scalar.rank
        assert "coeffs" not in held.__dict__
        assert [a.hex() for a in held.coeffs] == [a.hex() for a in scalar.coeffs]
        assert all(type(a) is float for a in held.coeffs)
        assert held == scalar and scalar == held
        assert hash(held) == hash(scalar)
        assert repr(held) == repr(scalar)
        assert pickle.dumps(held) == pickle.dumps(scalar)
        for twin in (pickle.loads(pickle.dumps(held)), copy.copy(held), copy.deepcopy(held)):
            assert twin == held and repr(twin) == repr(held)

    def test_the_array_is_read_only(self):
        with _rank_from(1):
            s = make_spectrum([0.5, 0.3, 0.2])
        with pytest.raises(ValueError):
            s._array[0] = 1.0

    @settings(max_examples=100, deadline=None)
    @given(_ENTRIES, _ENTRIES, st.floats(0.01, 0.99))
    def test_the_kernels_leave_coeffs_unbuilt(self, source_raw, target_raw, p):
        source, target = _held_by_array(source_raw), _held_by_array(target_raw)
        with _rank_from(1):
            optimal_plan(source)
            for a, b in ((source, target), (target, source)):
                nielsen_feasible(a, b)
                max_conversion_probability(a, b)
            ensemble_feasible(source, make_ensemble([(p, source), (1 - p, target)]))
        assert "coeffs" not in source.__dict__
        assert "coeffs" not in target.__dict__

    def test_a_tuple_held_spectrum_is_given_no_array(self):
        s = SchmidtSpectrum((0.5, 0.3, 0.2))
        with _rank_from(1):
            optimal_plan(s)
            nielsen_feasible(s, s)
            max_conversion_probability(s, s)
            ensemble_feasible(s, make_ensemble([(1.0, s)]))
        assert "_array" not in s.__dict__

    def test_a_rank_1e5_spectrum_holds_8_bytes_a_coefficient(self):
        raw = [1.0 / k for k in range(1, 10**5 + 1)]
        make_spectrum(raw[:VECTOR_RANK])  # the first call loads the module
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            s = make_spectrum(raw)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert "_array" in s.__dict__ and s.rank == 10**5
        # 800 kB of float64 values, against 3.2 MB as a tuple of floats
        assert held <= 10**6


class TestArrayHeldSlack:
    """A report that the numpy passes make holds its slack as an array.

    It acts as the scalar path's report of the same spectra: its ``slack``
    tuple is built only when code reads it.
    """

    @settings(max_examples=200, deadline=None)
    @given(_SPECTRA, _SPECTRA, _TOL)
    def test_acts_as_the_tuple_held_report(self, source, target, tol):
        with _rank_from(math.inf):
            scalar = nielsen_feasible(source, target, tol)
        with _rank_from(1):
            held = nielsen_feasible(source, target, tol)
        assert "_array" not in scalar.__dict__
        assert "slack" not in held.__dict__
        assert held.violated_indices == scalar.violated_indices
        assert held.feasible == scalar.feasible
        assert [a.hex() for a in held.slack] == [a.hex() for a in scalar.slack]
        assert all(type(a) is float for a in held.slack)
        assert held.margin == scalar.margin
        assert held == scalar and scalar == held
        assert hash(held) == hash(scalar)
        assert repr(held) == repr(scalar)
        assert pickle.dumps(held) == pickle.dumps(scalar)
        for twin in (pickle.loads(pickle.dumps(held)), copy.copy(held), copy.deepcopy(held)):
            assert twin == held and repr(twin) == repr(held)

    @settings(max_examples=100, deadline=None)
    @given(_SPECTRA, _SPECTRA, st.floats(0.01, 0.99))
    def test_the_kernels_leave_slack_unbuilt(self, source, target, p):
        with _rank_from(1):
            reports = [
                nielsen_feasible(source, target),
                nielsen_feasible(target, source),
                ensemble_feasible(source, make_ensemble([(p, source), (1 - p, target)])),
            ]
        for report in reports:
            assert "_array" in report.__dict__
            assert "slack" not in report.__dict__
            assert isinstance(report.feasible, bool)
            assert "slack" not in report.__dict__

    def test_the_array_is_read_only(self):
        s = SchmidtSpectrum((0.5, 0.3, 0.2))
        with _rank_from(1):
            report = nielsen_feasible(s, s)
        with pytest.raises(ValueError):
            report._array[0] = 1.0

    def test_a_rank_1e5_report_holds_8_bytes_an_index(self):
        raw = [1.0 / k for k in range(1, 10**5 + 1)]
        source = make_spectrum(raw)
        target = make_spectrum([v * v for v in raw])
        nielsen_feasible(source, source)  # the first call loads the module
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = nielsen_feasible(source, target)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert report.feasible and len(report.slack) == 10**5
        # 800 kB of float64 values, against 3.2 MB as a tuple of floats
        assert held <= 10**6


class TestScalarFallback:
    """Values that are not plain floats never reach the numpy passes."""

    @pytest.fixture(autouse=True)
    def no_vector(self):
        with _rank_from(1):
            with mock.patch.multiple(
                vector,
                normalised=mock.DEFAULT,
                plan_probabilities=mock.DEFAULT,
                tails=mock.DEFAULT,
                slack=mock.DEFAULT,
                min_ratio=mock.DEFAULT,
            ) as passes:
                yield
            for name, pass_ in passes.items():
                assert not pass_.called, name

    @pytest.mark.parametrize("entry", [1, Fraction(1, 2), True, np.float64(0.5)])
    def test_a_non_float_entry_in_make_spectrum(self, entry):
        raw = [0.5] * (VECTOR_RANK - 1) + [entry]
        s = make_spectrum(raw)
        assert len(s.coeffs) == VECTOR_RANK

    def test_an_exact_spectrum(self):
        s = make_spectrum([Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)])
        t = SchmidtSpectrum((0.5, 0.5))
        optimal_plan(s)
        nielsen_feasible(s, t)
        nielsen_feasible(t, s)
        max_conversion_probability(s, t)
        ensemble_feasible(t, make_ensemble([(1.0, s)]))
        ensemble_probability(t, make_ensemble([(0.5, s), (0.5, t)]))

    def test_an_int_first_coefficient(self):
        # the only place a valid spectrum can hold an int
        s = SchmidtSpectrum((1, 1e-12))
        optimal_plan(s)
        nielsen_feasible(s, s)

    def test_a_tolerance_that_is_not_a_float(self):
        s = SchmidtSpectrum((0.5, 0.5))
        nielsen_feasible(s, s, tol=0)
        nielsen_feasible(s, s, tol=Fraction(1, 10**9))


@pytest.mark.parametrize("rank", [2, 300])
class TestOutOfRangeIntegers:
    """An int or ``Fraction`` past the float range is a ``ValueError``."""

    def test_make_spectrum(self, rank):
        with pytest.raises(ValueError, match="coefficients must have a finite sum"):
            make_spectrum([10**400] + [1] * (rank - 1))

    @pytest.mark.parametrize("big", [10**400, Fraction(10**400)])
    def test_spectrum_with_an_infinite_entry(self, rank, big):
        coeffs = (math.inf, big) + (1,) * (rank - 2)
        with pytest.raises(ValueError, match="not normalized: sum = inf"):
            SchmidtSpectrum(coeffs)

    def test_spectrum_whose_sum_overflows(self, rank):
        # fsum raises on the overflow of its partial sums
        with pytest.raises(ValueError, match="not normalized: sum = inf"):
            SchmidtSpectrum((1e308,) * rank)


class TestMargin:
    """``FeasibilityReport.margin`` crosses ``-tol`` where ``feasible`` flips."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 50), min_size=2, max_size=12, unique=True),
        st.data(),
        st.sampled_from([0.0, FEASIBILITY_TOL, 1e-4]),
        st.integers(-3, 3),
    )
    def test_moving_one_target_tail_across_tol(self, weights, data, tol, step):
        # A strictly decreasing exact spectrum, its gaps at least 1/600;
        # moving x of mass from level l - 1 to level l raises the target
        # tail E_l by x and no other, and keeps the order.
        source = make_spectrum([Fraction(w) for w in weights])
        l = data.draw(st.integers(2, source.rank), label="l")
        x = Fraction(tol) + Fraction(step, 10**15)
        coeffs = list(source.coeffs)
        coeffs[l - 2] -= x
        coeffs[l - 1] += x
        report = nielsen_feasible(source, SchmidtSpectrum(coeffs), tol)
        index, low = report.margin
        assert report.feasible == (low >= -tol) == (x <= tol)
        if x > 0:
            assert (index, low) == (l, -x)
        else:
            assert (index, low) == (1, 0)

    @settings(max_examples=200, deadline=None)
    @given(_SPECTRA, _SPECTRA, _TOL, st.booleans())
    def test_float_reports(self, source, target, tol, vectored):
        with _rank_from(1 if vectored else math.inf):
            report = nielsen_feasible(source, target, tol)
        index, low = report.margin
        assert low == min(report.slack) == report.slack[index - 1]
        assert all(gap > low for gap in report.slack[: index - 1])
        assert report.feasible == (low >= -tol)

    def test_is_derived_not_stored(self):
        report = FeasibilityReport((), (0.5, -0.25, -0.25, 0.0))
        assert report.margin == (2, -0.25)
        assert "margin" not in report.__dict__
