"""Spectrum construction, decomposition and entropy."""

import ast
import copy
import math
import pickle
import warnings
from fractions import Fraction
from itertools import repeat
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import entmanip

from entmanip import (
    AmplitudeMatrix,
    ConcentrationPlan,
    DiagonalPovm,
    DieGroup,
    PovmElement,
    SchmidtSpectrum,
    TargetEnsemble,
    concentration_lp,
    entropy,
    make_ensemble,
    make_spectrum,
    max_conversion_probability,
    nielsen_feasible,
    optimal_plan,
    schmidt_decompose,
    simplex_solve,
    single_shot_povm,
    uniform_spectrum,
    vidal_monotones,
)
from entmanip import amplitudes, schmidt
from entmanip.amplitudes import _SMALL_SIDE, _SMALL_WORK
from entmanip.exact import exact_sum, integer_ratios, ratio_dot
from entmanip.schmidt import NORM_TOL, ZERO_TOL, holds_fraction
from util import (
    exact_spectrum_inputs,
    random_unitary,
    reference_exact_spectrum,
    reference_fraction_sum,
    reference_max_conversion_probability,
    reference_optimal_plan,
    reference_tails,
)


def svd_oracle_2x2(matrix):
    """Squared singular values of a real 2x2 matrix, via the Gram matrix.

    Independent of the SVD route: the eigenvalues of M M^T solve the
    characteristic quadratic in closed form.
    """
    g = matrix @ matrix.T
    tr = g[0, 0] + g[1, 1]
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    disc = math.sqrt(tr * tr - 4.0 * det)
    return (tr + disc) / 2.0, (tr - disc) / 2.0


class TestSchmidtDecompose:
    def test_product_state(self):
        m = np.zeros((2, 2))
        m[0, 0] = 1.0
        assert schmidt_decompose(m).coeffs == (1.0,)

    def test_maximally_entangled(self):
        m = np.diag([1.0, 1.0]) / math.sqrt(2)
        s = schmidt_decompose(m)
        assert s.coeffs == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_against_gram_matrix_oracle(self):
        m = np.array([[0.6, 0.48], [0.0, 0.64]])
        expected = svd_oracle_2x2(m)
        # frozen from the oracle above
        assert expected == pytest.approx(
            (0.8202249209540069, 0.17977507904599305), abs=1e-15
        )
        s = schmidt_decompose(m)
        assert s.coeffs == pytest.approx(expected, abs=1e-12)

    def test_against_eigvalsh_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            d_a, d_b = rng.integers(1, 6, size=2)
            z = rng.standard_normal((d_a, d_b)) + 1j * rng.standard_normal((d_a, d_b))
            z = z / np.linalg.norm(z)
            expected = np.linalg.eigvalsh(z @ z.conj().T)[::-1]
            expected = np.clip(expected, 0.0, None)
            expected = expected[expected > 1e-12]
            s = schmidt_decompose(z)
            assert np.asarray(s.coeffs) == pytest.approx(expected, abs=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            z = z / np.linalg.norm(z)
            u = random_unitary(rng, n)
            v = random_unitary(rng, n)
            base = np.asarray(schmidt_decompose(z).coeffs)
            rotated = np.asarray(schmidt_decompose(u @ z @ v).coeffs)
            assert rotated == pytest.approx(base, abs=1e-10)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            schmidt_decompose(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            schmidt_decompose(np.zeros((0, 0)))


def _lapack_squares(m):
    singular = np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)
    return sorted((singular**2).tolist())


def _padded(values, n):
    return sorted([*values, *[0.0] * (n - len(values))])


@st.composite
def _small_matrices(draw, sides=st.integers(1, _SMALL_SIDE)):
    """A normalized complex matrix, some columns zero, duplicated or tiny."""
    rows, cols = draw(sides), draw(sides)
    parts = st.floats(-1, 1, allow_subnormal=False)
    pairs = st.lists(st.tuples(parts, parts), min_size=cols, max_size=cols)
    m = np.array(draw(st.lists(pairs, min_size=rows, max_size=rows)), dtype=float)
    m = m.view(complex)[..., 0]
    for j in range(cols):
        kind = draw(st.sampled_from(["plain", "plain", "zero", "duplicate", "tiny"]))
        if kind == "zero":
            m[:, j] = 0
        elif kind == "duplicate":
            m[:, j] = m[:, draw(st.integers(0, cols - 1))]
        elif kind == "tiny":
            m[:, j] *= draw(st.sampled_from([1e-9, 1e-100, 1e-160]))
    norm = np.linalg.norm(m)
    assume(norm > 1e-100)
    return m / norm


@st.composite
def _long_matrices(draw):
    """A normalized Gaussian matrix whose smaller side is at most
    ``_SMALL_SIDE`` and whose work is at ``_SMALL_WORK`` or just past it."""
    side = draw(st.integers(1, _SMALL_SIDE))
    long_side = _SMALL_WORK // (side * side) + draw(st.integers(0, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.standard_normal((side, long_side)) + 1j * rng.standard_normal((side, long_side))
    m /= np.linalg.norm(m)
    return m.T.copy() if draw(st.booleans()) else m


@settings(max_examples=150, deadline=None)
@given(_small_matrices(st.integers(1, 2 * _SMALL_SIDE)))
def test_a_matrix_and_its_transpose_have_one_spectrum(m):
    # which party's index runs along the rows changes no Schmidt
    # coefficient, on either side of _SMALL_SIDE (Jacobi or LAPACK)
    spectra = [schmidt_decompose(a, zero_tol=0.0).coeffs for a in (m, m.T)]
    n = max(map(len, spectra))
    assert np.allclose(*(_padded(s, n) for s in spectra), rtol=0, atol=2e-15)


def test_a_transposed_array_is_decomposed_as_its_copy():
    # m.T is a view in Fortran order, which cannot be viewed as floats
    # along its last axis until AmplitudeMatrix copies it to C order
    rng = np.random.default_rng(3)
    m = rng.normal(size=(9, 12)) + 1j * rng.normal(size=(9, 12))
    m /= np.linalg.norm(m)
    assert not m.T.flags.c_contiguous
    assert schmidt_decompose(m.T).coeffs == schmidt_decompose(m.T.copy()).coeffs
    assert AmplitudeMatrix(m.T).entries.flags.c_contiguous


def test_a_single_row_block_does_not_depend_on_the_layout():
    # a smaller side of 65 would leave a last block of one row, which numpy
    # multiplies by gemv and rounds differently in C and Fortran order
    rng = np.random.default_rng(11)
    m = rng.normal(size=(65, 70)) + 1j * rng.normal(size=(65, 70))
    m /= np.linalg.norm(m)
    spectra = {
        schmidt_decompose(a).coeffs
        for a in (m, np.asfortranarray(m), m.T, m.T.copy())
    }
    assert len(spectra) == 1


class TestSmallMatrixJacobi:
    """Small matrices are decomposed in pure Python."""

    # Both methods are backward stable, each within about 1e-15 of the
    # 40-digit squared singular values (LAPACK up to 8.9e-16 on such
    # matrices, Jacobi 3.3e-16), so they can differ by a little more than
    # either one's error.
    TOL = 2e-15

    @settings(max_examples=200, deadline=None)
    @given(_small_matrices())
    def test_matches_lapack(self, m):
        squares = _lapack_squares(m)
        jacobi = schmidt_decompose(m.tolist(), zero_tol=0.0).coeffs
        assert np.allclose(
            _padded(jacobi, len(squares)), squares, rtol=0, atol=self.TOL
        )
        # the rank that the default zero_tol keeps is LAPACK's too
        kept = sum(v > ZERO_TOL for v in squares)
        assert schmidt_decompose(m).rank == kept

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            _small_matrices(st.integers(_SMALL_SIDE, _SMALL_SIDE + 1)),
            _long_matrices(),
        )
    )
    def test_the_shape_picks_the_path(self, m):
        side = min(m.shape)
        small = side <= _SMALL_SIDE and side * m.size <= _SMALL_WORK
        wrapped = mock.patch.object(
            amplitudes, "_jacobi_squared_singular_values",
            wraps=amplitudes._jacobi_squared_singular_values,
        )
        with wrapped as jacobi:
            from_array = schmidt_decompose(m)
            from_lists = schmidt_decompose(m.tolist())
            from_value = schmidt_decompose(AmplitudeMatrix(m))
        assert jacobi.call_count == (3 if small else 0)
        # the container does not matter, bit for bit
        assert from_array.coeffs == from_lists.coeffs == from_value.coeffs
        squares = _lapack_squares(m)
        reference = make_spectrum(squares, zero_tol=0.0).coeffs
        coeffs = schmidt_decompose(m, zero_tol=0.0).coeffs
        n = len(squares)
        assert np.allclose(
            _padded(coeffs, n), _padded(reference, n), rtol=0, atol=self.TOL
        )

    @settings(max_examples=100, deadline=None)
    @given(
        _small_matrices(st.integers(1, _SMALL_SIDE + 1)),
        st.sampled_from(["nan", "inf", "huge", "scale", "row", "empty", "flat", "deep"]),
        st.data(),
    )
    def test_both_paths_raise_the_same_message(self, m, defect, data):
        if defect in ("nan", "inf", "huge"):
            i = data.draw(st.integers(0, m.shape[0] - 1))
            j = data.draw(st.integers(0, m.shape[1] - 1))
            m[i, j] = {"nan": math.nan, "inf": complex(0, math.inf), "huge": 1e200}[defect]
        elif defect == "scale":
            m = m * data.draw(st.floats(0.5, 2).filter(lambda f: abs(f * f - 1) > 1e-6))
        elif defect == "row":
            m = m[0]
        elif defect == "empty":
            m = m[:0]
        elif defect == "flat":
            m = m.reshape(-1, 1, 1)
        else:
            m = m[np.newaxis]
        messages = []
        for entries in (m, m.tolist()):
            for decompose in (schmidt_decompose, AmplitudeMatrix):
                with pytest.raises(ValueError) as exc:
                    decompose(entries)
                messages.append(str(exc.value))
        assert len(set(messages)) == 1, messages

    def test_a_norm_past_the_float_range_is_inf(self):
        # each square is finite, their sum is not
        for m in ([[1.2e154, 1.2e154]], [[1e200, 0.0]]):
            for decompose in (schmidt_decompose, AmplitudeMatrix):
                with pytest.raises(ValueError, match=r"\|psi\|\^2 = inf"):
                    decompose(m)

    def test_ragged_rows_are_left_to_numpy(self):
        with pytest.raises(ValueError, match="inhomogeneous"):
            schmidt_decompose([[1.0, 0.0], [0.0]])

    def test_subnormal_overlap_keeps_the_norms(self):
        # |u_p^H u_q| = 1e-310 is subnormal, and a rotation by g/|g| there
        # would drift the norms; its tangent underflows and it is skipped
        x = 1e-310
        columns = [[1 + 0j, 0j], [complex(x), complex(0, x)]]
        assert amplitudes._jacobi_squared_singular_values(columns) == [1.0, 0.0]
        assert columns == [[1 + 0j, 0j], [complex(x), complex(0, x)]]
        m = [[1.0, x], [0.0, complex(0, x)]]
        assert schmidt_decompose(m, zero_tol=0.0).coeffs == (1.0,)


    # Sweeps that full-rank complex matrices up to 8x8 took at most, in
    # 40000 Gaussian and uniform draws.  Rank-deficient ones took up to 27
    # while Jacobi went on rotating columns of rounding noise.
    FULL_RANK_SWEEPS = 8

    @staticmethod
    def _sweeps(m):
        """``schmidt_decompose(m, zero_tol=0.0)`` and the Jacobi sweeps it took."""
        with mock.patch.object(amplitudes, "_sweep", wraps=amplitudes._sweep) as sweep:
            spectrum = schmidt_decompose(m, zero_tol=0.0)
        return spectrum, sweep.call_count

    @settings(max_examples=200, deadline=None)
    @given(_small_matrices())
    def test_zero_and_duplicate_columns_converge_like_full_rank(self, m):
        assert self._sweeps(m.tolist())[1] <= self.FULL_RANK_SWEEPS

    def test_duplicate_column_pairs(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m[:, 3], m[:, 6], m[:, 5] = m[:, 1], m[:, 2], 0
        m /= np.linalg.norm(m)
        spectrum, sweeps = self._sweeps(m.tolist())
        assert sweeps <= self.FULL_RANK_SWEEPS
        squares = _lapack_squares(m)
        assert np.allclose(
            _padded(spectrum.coeffs, len(squares)), squares, rtol=0, atol=self.TOL
        )
        assert schmidt_decompose(m).rank == 5

    def test_an_overlap_at_rounding_level_is_not_rotated(self):
        # rows 3 and 4 are equal, and so are columns 2 and 4; rows 0 and 2
        # end with |g| at 1 to 1.4 eps |u_0| |u_2|, rounding noise for rows of
        # 7 entries, and rotating them by it went on for all 30 sweeps
        rows = [
            [(-0.1049174552789923+0.3964547139630145j), 0j, 0.07574684947414384j,
             (-0.26172442584826155+0j), 0.07574684947414384j, 0j,
             (0.32568421082893056+0j)],
            [0j, 0j, (0.3184611408613622+3.964547139630145e-11j),
             (0.3801255925266064+0.024322558118437143j),
             (0.3184611408613622+3.964547139630145e-11j), 0j, 0.23987453888844798j],
            [0.0009813590774734858j, 0j, (0.060349264009967145-0.0052517308873178915j),
             (0.11279572572976898+0j), (0.060349264009967145-0.0052517308873178915j),
             0j, 0j],
            *[[(-0.10687086932741402+0j), 0j,
               (-0.050772304673584505-0.12969523477582234j),
               (-0.19822735698150726+0.14184379565572122j),
               (-0.050772304673584505-0.12969523477582234j), 0j,
               (-0.022147705525069433+0j)]] * 2,
        ]
        spectrum, sweeps = self._sweeps(rows)
        assert sweeps <= self.FULL_RANK_SWEEPS
        squares = _lapack_squares(rows)
        assert np.allclose(
            _padded(spectrum.coeffs, len(squares)), squares, rtol=0, atol=self.TOL
        )

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(1, _SMALL_SIDE), st.integers(0, 2**32 - 1))
    def test_full_rank_rotates_every_pair_as_before(self, data, rows, seed):
        # no column of a Gaussian matrix with at most as many columns as
        # rows is negligible, so the result is that of sweeps that leave
        # no pair alone, bit for bit
        cols = data.draw(st.integers(1, rows))
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        columns = [list(c) for c in m.T.tolist()]
        plain = [list(c) for c in columns]
        norms = [amplitudes._squared_norm(c) for c in plain]
        for _ in range(amplitudes._MAX_SWEEPS):
            if not amplitudes._sweep(plain, norms, 0.0):
                break
        assert amplitudes._jacobi_squared_singular_values(columns) == norms
        assert columns == plain


class TestReducedDensityMatrix:
    """Larger matrices: eigenvalues of the reduced density matrix."""

    @settings(max_examples=100, deadline=None)
    @given(_small_matrices(st.integers(_SMALL_SIDE + 1, 3 * _SMALL_SIDE)))
    def test_matches_lapack(self, m):
        before = m.copy()
        squares = _lapack_squares(m)
        coeffs = schmidt_decompose(m, zero_tol=0.0).coeffs
        assert np.array_equal(m, before)  # the caller's array is left as it was
        # rounding below zero is clamped, so every coefficient kept is positive
        assert all(c > 0 for c in coeffs)
        assert np.allclose(
            _padded(coeffs, len(squares)), squares, rtol=0,
            atol=TestSmallMatrixJacobi.TOL,
        )
        kept = sum(v > ZERO_TOL for v in squares)
        assert schmidt_decompose(m).rank == kept

    def test_negative_eigenvalues_of_a_rank_deficient_matrix(self):
        rng = np.random.default_rng(0)
        left = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
        right = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
        m = left @ right
        m /= np.linalg.norm(m)
        smallest = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a):
            w = eigvalsh(a)
            smallest.append(w.min())
            return w

        with mock.patch.object(np.linalg, "eigvalsh", recording):
            assert schmidt_decompose(m).rank == 3
            assert all(c > 0 for c in schmidt_decompose(m, zero_tol=0.0).coeffs)
        assert smallest and max(smallest) < 0

    def test_a_complex_array_is_checked_without_a_copy(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(9, 10)) + 1j * rng.normal(size=(9, 10))
        m /= np.linalg.norm(m)
        assert amplitudes._amplitude_array(m) is m
        held = AmplitudeMatrix(m).entries
        assert not np.shares_memory(held, m) and not held.flags.writeable


class TestMakeSpectrum:
    def test_sorts(self):
        assert make_spectrum([0.2, 0.5, 0.3]).coeffs == (0.5, 0.3, 0.2)

    def test_strips_zeros(self):
        assert make_spectrum([0.5, 0.5, 0.0]).coeffs == (0.5, 0.5)

    def test_renormalizes(self):
        assert make_spectrum([2, 1, 1]).coeffs == (0.5, 0.25, 0.25)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = make_spectrum(rng.random(int(rng.integers(1, 9))) + 1e-3)
            again = make_spectrum(s.coeffs)
            assert again.coeffs == s.coeffs

    def test_a_coefficient_lost_to_underflow_is_dropped(self):
        # 1e-300 / 1e300 underflows to 0, which a spectrum cannot hold
        s = make_spectrum([1e300, 1e-300], zero_tol=0.0)
        assert s.coeffs == (1.0,)
        assert entropy(s) == 0.0

    @given(
        st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=8),
        st.sampled_from([0.0, ZERO_TOL]),
    )
    def test_the_stored_result_is_a_valid_spectrum(self, raw, zero_tol):
        # the result is stored without the constructor's checks, and it
        # passes them; built again from its own coefficients it is unchanged
        assume(max(raw) > zero_tol)  # else nothing survives the stripping
        s = make_spectrum(raw, zero_tol=zero_tol)
        assert SchmidtSpectrum(s.coeffs) == s
        assert make_spectrum(s.coeffs, zero_tol=0.0) == s

    def test_stable_sort_keeps_tied_order(self):
        # ties must not be reshuffled between runs
        a = make_spectrum([0.25, 0.25, 0.5])
        b = make_spectrum([0.25, 0.25, 0.5])
        assert a.coeffs == b.coeffs

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            make_spectrum([0.5, -0.1, 0.6])

    @pytest.mark.parametrize(
        "raw", [[0.5, math.nan, 0.5], [math.inf, 1.0], [1e308, 1e308]]
    )
    def test_rejects_non_finite(self, raw):
        with pytest.raises(ValueError):
            make_spectrum(raw)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            make_spectrum([0.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_spectrum([])


_MIXED_ENTRIES = st.one_of(
    st.integers(0, 9),
    st.floats(0, 1),
    st.fractions(min_value=0, max_value=9, max_denominator=12),
)


class TestOneArithmetic:
    """Any Fraction makes a spectrum exact; without one it is float."""

    @given(
        st.lists(_MIXED_ENTRIES, min_size=1, max_size=8).filter(
            lambda raw: any(v > ZERO_TOL for v in raw)
        )
    )
    def test_make_spectrum_stores_one_arithmetic(self, raw):
        s = make_spectrum(raw)
        if not any(isinstance(v, Fraction) for v in raw):
            assert all(type(c) is float for c in s.coeffs)
            return
        assert all(type(c) is Fraction for c in s.coeffs)
        assert sum(s.coeffs) == 1
        # every kept input, exactly, in its sorted place
        kept = sorted((Fraction(v) for v in raw if v > ZERO_TOL), reverse=True)
        total = sum(kept)
        assert [c * total for c in s.coeffs] == kept

    def test_mixed_input_makes_an_exact_spectrum(self):
        s = make_spectrum([Fraction(1, 3), 0.5, 1])
        assert s.coeffs == (Fraction(6, 11), Fraction(3, 11), Fraction(2, 11))
        assert all(type(c) is Fraction for c in s.coeffs)
        assert sum(s.coeffs) == 1

    def test_mixed_coefficients_are_stored_as_fractions(self):
        s = SchmidtSpectrum((Fraction(1, 2), 0.25, Fraction(1, 4)))
        assert s.coeffs == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
        assert all(type(c) is Fraction for c in s.coeffs)

    def test_exact_input_meets_zero_tol_exactly(self):
        at = Fraction(1e-12)
        s = make_spectrum([Fraction(1), at, at + Fraction(1, 10**40)], zero_tol=1e-12)
        assert s.rank == 2
        with pytest.raises(ValueError, match="zero"):
            make_spectrum([Fraction(1)], zero_tol=math.inf)

    def test_infinite_entry_beside_a_fraction_is_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            make_spectrum([Fraction(1), math.inf])


_SUMMANDS = st.one_of(
    st.fractions(max_denominator=10**20),
    st.integers(-(10**30), 10**30),
    st.booleans(),
    st.just(Fraction(0)),
)


class TestExactSum:
    """The integer-ratio accumulator adds as term-by-term ``Fraction``s do."""

    @given(st.lists(_SUMMANDS, max_size=24))
    def test_equals_builtin_sum(self, values):
        total = exact_sum(values)
        assert type(total) is Fraction
        assert total == sum(values) == reference_fraction_sum(values)

    @given(
        st.lists(st.tuples(_SUMMANDS, _SUMMANDS), max_size=24),
        st.fractions(max_denominator=10**6),
    )
    def test_ratio_dot_continues_a_start(self, pairs, start):
        terms = [(*integer_ratios([u])[0], *integer_ratios([v])[0]) for u, v in pairs]
        num, den = ratio_dot(terms, *start.as_integer_ratio())
        assert den > 0
        assert Fraction(num, den) == start + sum(u * v for u, v in pairs)

    def test_integer_totals_stay_fractions(self):
        assert type(exact_sum([])) is Fraction
        assert type(exact_sum([1, True, Fraction(-2)])) is Fraction
        assert exact_sum([Fraction(1, 2), Fraction(1, 2)]) == 1
        assert type(exact_sum([Fraction(1, 2), Fraction(1, 2)])) is Fraction


# entries near and at the strip edge of the zero_tol values below
_EDGE_ENTRIES = st.sampled_from([
    0, False, True, 0.0, 1e-12, Fraction(1e-12), Fraction(1, 10**12),
    Fraction(1e-12) + Fraction(1, 10**40), Fraction(1, 3), Fraction(2, 6),
    0.25, Fraction(1, 4), 2, 1.5,
])
_SPECTRUM_ENTRIES = st.one_of(
    _EDGE_ENTRIES,
    st.fractions(min_value=0, max_value=1000, max_denominator=10**9),
    st.floats(min_value=0, max_value=1e6),
    st.integers(0, 1000),
    st.booleans(),
)
_ZERO_TOLS = st.sampled_from([
    0, 1e-12, Fraction(1, 3), Fraction(1, 4), 0.25, Fraction(1e-12), 1,
    -1.0, math.inf, -math.inf, math.nan,
])


class TestExactMakeSpectrum:
    """Exact ``make_spectrum`` equals the entry-by-entry ``Fraction`` algorithm."""

    @given(
        st.lists(_SPECTRUM_ENTRIES, max_size=10),
        st.fractions(min_value=0, max_value=10, max_denominator=50),
        st.randoms(use_true_random=False),
        _ZERO_TOLS,
    )
    def test_matches_the_fraction_reference(self, raw, fraction, rng, zero_tol):
        raw.insert(rng.randint(0, len(raw)), fraction)  # one Fraction at least
        expected = reference_exact_spectrum(raw, zero_tol)
        try:
            coeffs = make_spectrum(raw, zero_tol=zero_tol).coeffs
        except ValueError as exc:
            assert str(exc) == expected
            return
        assert coeffs == expected
        assert all(type(c) is Fraction for c in coeffs)

    def test_ties_and_mixed_types(self):
        raw = [True, Fraction(1, 2), 0.5, 1, Fraction(2, 4), 0]
        s = make_spectrum(raw)
        assert s.coeffs == reference_exact_spectrum(raw)
        assert s.coeffs == (Fraction(2, 7),) * 2 + (Fraction(1, 7),) * 3

    @pytest.mark.parametrize("zero_tol", [0, 1e-12, Fraction(1, 3), math.inf, math.nan])
    def test_strip_edge(self, zero_tol):
        raw = [Fraction(1, 3), Fraction(1e-12), 1e-12, Fraction(1, 10**13), 1]
        expected = reference_exact_spectrum(raw, zero_tol)
        if isinstance(expected, str):
            with pytest.raises(ValueError, match="zero_tol"):
                make_spectrum(raw, zero_tol=zero_tol)
        else:
            assert make_spectrum(raw, zero_tol=zero_tol).coeffs == expected

    def test_single_level_is_fraction_one(self):
        (c,) = make_spectrum([Fraction(5)]).coeffs
        assert type(c) is Fraction and c == 1


_SIGN_ENTRIES = st.one_of(
    _SPECTRUM_ENTRIES,
    st.sampled_from([-1, -0.5, -0.0, Fraction(-1, 3), math.nan, math.inf, -math.inf]),
)


class TestExactSigns:
    """Exact input is tested ``v >= 0`` in turn, a ``Fraction`` by its numerator."""

    @given(
        st.lists(_SIGN_ENTRIES, max_size=10),
        st.fractions(min_value=-10, max_value=10, max_denominator=50),
        st.randoms(use_true_random=False),
    )
    def test_the_messages_of_the_fraction_reference(self, raw, fraction, rng):
        raw.insert(rng.randint(0, len(raw)), fraction)
        expected = reference_exact_spectrum(raw)
        try:
            coeffs = make_spectrum(raw).coeffs
        except ValueError as exc:
            assert str(exc) == expected
            return
        assert coeffs == expected

    def test_a_value_that_is_no_number_raises_as_its_comparison_does(self):
        # the first failing comparison raises, in input order
        with pytest.raises(TypeError):
            make_spectrum([Fraction(1), "1/2"])
        with pytest.raises(ValueError, match="nonnegative"):
            make_spectrum([Fraction(-1), "1/2"])


class TestHeldNumerators:
    """An exact ``make_spectrum`` holds its numerators over their sum.

    It acts as the tuple-held spectrum of its coefficients, and the exact
    kernels read the numerators without building ``coeffs``, held or put
    over a common denominator for a tuple-held spectrum.
    """

    @settings(max_examples=150, deadline=None)
    @given(exact_spectrum_inputs())
    def test_acts_as_the_tuple_held_spectrum(self, case):
        raw, zero_tol = case
        expected = reference_exact_spectrum(raw, zero_tol)
        twin = SchmidtSpectrum(make_spectrum(raw, zero_tol).coeffs)
        held = make_spectrum(raw, zero_tol)
        numerators, den = held.__dict__["_ratios"]
        assert den == sum(numerators) and held.rank == len(expected)
        assert "coeffs" not in held.__dict__
        # a first read that pickles builds the same state as the tuple's
        assert pickle.dumps(held) == pickle.dumps(twin)
        assert held.coeffs == expected and all(type(c) is Fraction for c in held.coeffs)
        assert held == twin and twin == held
        assert hash(held) == hash(twin) and repr(held) == repr(twin)
        fresh = make_spectrum(raw, zero_tol)
        clones = pickle.loads(pickle.dumps(fresh)), copy.copy(fresh), copy.deepcopy(fresh)
        for clone in clones:
            assert clone == twin and repr(clone) == repr(twin)
            assert "_ratios" not in clone.__dict__

    @settings(max_examples=100, deadline=None)
    @given(exact_spectrum_inputs(), st.floats(0.01, 0.99))
    @example(([Fraction(1, 500), 2.0, 5e-324], 0), 0.5)  # a coefficient below floats
    def test_the_kernels_equal_the_fraction_loops(self, case, p):
        raw, zero_tol = case
        held = make_spectrum(raw, zero_tol)
        twin = SchmidtSpectrum(make_spectrum(raw, zero_tol).coeffs)
        other = make_spectrum([p, 1 - p])
        povm = single_shot_povm(make_spectrum([1.0] * held.rank))
        for s in (held, twin):
            coeffs = reference_exact_spectrum(raw, zero_tol)
            tails = vidal_monotones(s)
            assert tails == reference_tails(coeffs)
            assert all(type(t) is Fraction for t in tails)
            plan = optimal_plan(s)
            probs, expected = reference_optimal_plan(SchmidtSpectrum(coeffs))
            assert plan.probabilities == probs
            assert all(type(q) is Fraction for q in plan.probabilities)
            assert plan.expected_entanglement.hex() == expected.hex()
            floats = [float(a) for a in coeffs]
            # a coefficient below the float range is 0.0 here, and its
            # term is 0 ln 0 := 0
            assert entropy(s).hex() == (
                -math.fsum(a * math.log(a) for a in floats if a > 0)
            ).hex()
            outcomes = [
                math.fsum(el.diag[i] ** 2 * a for i, a in enumerate(floats))
                for el in povm.elements
            ]
            assert povm.outcome_probabilities(s) == tuple(outcomes)
            # an exact target's tail below the float range is 0.0 as a
            # float, whose ratio both skip
            for pair in ((s, other), (other, s)):
                assert max_conversion_probability(*pair).hex() == (
                    reference_max_conversion_probability(*pair).hex()
                )
            q = max_conversion_probability(s, make_spectrum([Fraction(1)] * 3))
            assert type(q) is Fraction
            assert q == reference_max_conversion_probability(
                s, make_spectrum([Fraction(1)] * 3), Fraction
            )

    def test_a_float_spectrum_of_an_int_makes_the_ratio_a_float(self):
        # ``SchmidtSpectrum((1,))`` holds no Fraction, so it is float
        s = make_spectrum([Fraction(1, 2)] * 2)
        one = SchmidtSpectrum((1,))
        assert repr(max_conversion_probability(s, one)) == "1.0"
        assert repr(max_conversion_probability(one, s)) == "0.0"

    def test_the_exact_pipeline_leaves_coeffs_unbuilt(self):
        s = make_spectrum([Fraction(k) for k in (7, 5, 5, 3, 2, 1)])
        other = make_spectrum([0.7, 0.3])
        prob = concentration_lp(s)
        assert simplex_solve(prob).pivots == 0
        optimal_plan(s)
        entropy(s)
        vidal_monotones(s)
        nielsen_feasible(s, other)
        max_conversion_probability(other, s)
        single_shot_povm(make_spectrum([1.0] * 6)).outcome_probabilities(s)
        assert s.norm_residual == 0
        assert "coeffs" not in s.__dict__


class TestNormResidual:
    """``norm_residual`` is |sum - 1|, derived when read, not stored."""

    @settings(max_examples=100, deadline=None)
    @given(exact_spectrum_inputs())
    def test_zero_for_every_exact_make_spectrum(self, case):
        s = make_spectrum(*case)
        residual = s.norm_residual
        assert residual == 0 and type(residual) is Fraction
        assert SchmidtSpectrum(s.coeffs).norm_residual == 0
        assert "norm_residual" not in s.__dict__

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(0.01, 1), min_size=1, max_size=12),
        st.integers(-3000, 3000).map(lambda k: Fraction(k, 10**12)),
        st.booleans(),
    )
    def test_within_norm_tol_for_every_spectrum_the_constructor_accepts(
        self, raw, shift, exact
    ):
        total = math.fsum(raw)
        coeffs = sorted((v / total for v in raw), reverse=True)
        if exact:
            coeffs = [Fraction(v) for v in coeffs]
            coeffs[0] += shift
        else:
            coeffs[0] += float(shift)
        try:
            s = SchmidtSpectrum(coeffs)
        except ValueError:
            return
        residual = s.norm_residual
        assert residual <= NORM_TOL
        if exact:
            assert residual == abs(sum(s.coeffs) - 1)
        else:
            assert residual == abs(math.fsum(s.coeffs) - 1.0)

    def test_an_array_held_spectrum_is_summed_without_its_tuple(self):
        with mock.patch.object(schmidt, "VECTOR_RANK", 1):
            s = make_spectrum([0.7, 0.2, 0.1, 0.05])
        assert "_array" in s.__dict__
        assert s.norm_residual == 0.0 and "coeffs" not in s.__dict__


class TestSpectrumValidation:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            SchmidtSpectrum((0.3, 0.7))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            SchmidtSpectrum((0.5, 0.3))

    def test_rejects_zero_entry(self):
        with pytest.raises(ValueError, match="positive"):
            SchmidtSpectrum((1.0, 0.0))

    @given(
        st.lists(
            st.one_of(
                st.fractions(min_value=-1, max_value=2, max_denominator=10**6),
                st.floats(-1, 2),
                st.sampled_from([0, 1, Fraction(1, 2), 0.5, Fraction(1, 3)]),
            ),
            min_size=1,
            max_size=8,
        ),
        st.fractions(min_value=0, max_value=1, max_denominator=100),
        st.randoms(use_true_random=False),
        st.booleans(),
    )
    def test_exact_checks_match_the_fraction_comparisons(self, raw, fraction, rng, fix):
        # the values are ordered as given, a Fraction beside a float
        # compared exactly, with the messages of the entry-by-entry
        # Fraction checks
        raw.insert(rng.randint(0, len(raw)), fraction)  # one Fraction at least
        if fix and all(v > 0 for v in raw):  # a valid spectrum, types mixed
            total = sum(map(Fraction, raw))
            raw = sorted((v / total for v in raw), reverse=True)
        values = [Fraction(v) for v in raw]
        if not all(v > 0 for v in values):
            expected = "spectrum coefficients must be strictly positive"
        elif not all(u >= v for u, v in zip(values, values[1:])):
            expected = "spectrum coefficients must be nonincreasing"
        elif abs(sum(values) - 1) > 1e-9:
            expected = f"spectrum is not normalized: sum = {sum(values)!r}"
        else:
            assert SchmidtSpectrum(raw).coeffs == tuple(values)
            return
        with pytest.raises(ValueError) as exc:
            SchmidtSpectrum(raw)
        assert str(exc.value) == expected

    @pytest.mark.parametrize(
        "coeffs, message",
        [
            ((math.nan, Fraction(1)), "strictly positive"),
            ((Fraction(1), math.nan), "strictly positive"),
            ((Fraction(1, 2), -math.inf), "strictly positive"),
            ((Fraction(1, 2), math.inf), "nonincreasing"),
            ((math.inf, Fraction(1, 2)), r"not normalized: sum = inf"),
        ],
    )
    def test_non_finite_entry_beside_a_fraction(self, coeffs, message):
        with pytest.raises(ValueError, match=message):
            SchmidtSpectrum(coeffs)


_PAIR = SchmidtSpectrum((0.5, 0.5))

# A valid vector of each validated value type, and how to build the type.
_VALID_VECTORS = {
    "SchmidtSpectrum": (SchmidtSpectrum, (0.5, 0.3, 0.2)),
    "ConcentrationPlan": (lambda p: ConcentrationPlan(p, 0.5), (0.2, 0.2, 0.6)),
    "TargetEnsemble": (
        lambda p: TargetEnsemble(tuple(zip(p, repeat(_PAIR)))),
        (0.2, 0.3, 0.5),
    ),
    # the zero entry is dropped, so a NaN in its place must not be
    "make_ensemble": (lambda p: make_ensemble(zip(p, repeat(_PAIR))), (0.5, 0.5, 0.0)),
    "DieGroup": (lambda r: DieGroup(1, tuple(enumerate(r, start=1))), (0.2, 0.3, 0.5)),
    "PovmElement": (lambda d: PovmElement(1, d), (1.0, 0.5, 0.0)),
    # a bare element, so that the completeness test is what meets the NaN
    "DiagonalPovm": (
        lambda d: DiagonalPovm((SimpleNamespace(label=1, diag=d),)),
        (1.0, 1.0, 1.0),
    ),
}


@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("kind", sorted(_VALID_VECTORS))
def test_nan_entry_is_rejected(kind, position):
    build, values = _VALID_VECTORS[kind]
    build(values)
    with pytest.raises(ValueError):
        build(values[:position] + (math.nan,) + values[position + 1 :])
    with pytest.raises(ValueError):
        build((math.nan,))


@pytest.mark.parametrize(
    "kind, values",
    [
        ("ConcentrationPlan", (10**400,)),
        ("ConcentrationPlan", (1e308, 1e308)),
        ("TargetEnsemble", (10**400,)),
        ("TargetEnsemble", (1e308, 1e308)),
    ],
)
def test_a_sum_past_the_float_range_is_a_value_error(kind, values):
    # math.fsum raises OverflowError on an int past the float range and on
    # partial sums that overflow
    build, _ = _VALID_VECTORS[kind]
    with pytest.raises(ValueError, match=r"probabilities sum to inf, not 1"):
        build(values)


@pytest.mark.parametrize("expected", [math.nan, math.inf, -math.inf])
def test_plan_needs_a_finite_expected_entanglement(expected):
    with pytest.raises(ValueError, match="finite"):
        ConcentrationPlan((1.0,), expected)


class TestEntropy:
    def test_product_state(self):
        assert entropy(make_spectrum([1.0])) == 0.0

    def test_uniform_pair(self):
        assert entropy(make_spectrum([0.5, 0.5])) == pytest.approx(
            math.log(2), abs=1e-15
        )

    def test_skewed_pair_against_high_precision_oracle(self):
        # -0.8 ln 0.8 - 0.2 ln 0.2 evaluated at 50 decimal digits
        expected = 0.50040242353818787953318793889310513060480113929211
        assert entropy(make_spectrum([0.8, 0.2])) == pytest.approx(
            expected, abs=1e-15
        )

    def test_uniform_is_log_n(self):
        for n in range(1, 65):
            assert entropy(uniform_spectrum(n)) == pytest.approx(
                math.log(n), abs=1e-12
            )


class TestAmplitudeMatrix:
    def test_dimensions(self):
        m = AmplitudeMatrix(np.array([[1.0, 0.0]]))
        assert m.entries.shape == (1, 2)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            AmplitudeMatrix(np.array([1.0, 0.0]))

    def test_overflowing_norm_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"\|psi\|\^2 = inf"):
                AmplitudeMatrix([[1e300, 0.0], [0.0, 0.0]])


class TestNumericKind:
    # ``kind`` names what the entries are; any Fraction makes them exact,
    # so a mixed list is exact too
    @pytest.mark.parametrize(
        "values, kind",
        [
            ([], "float"),
            ([0.5, 0.5], "float"),
            ([1, 2], "float"),
            ([np.float64(0.5), 0.5], "float"),
            ([Fraction(1, 2), Fraction(1, 2)], "exact"),
            ([Fraction(1, 2), 1, True], "exact"),
            ([Fraction(1, 2), 0.5], "mixed"),
            ([Fraction(1, 2), np.int64(1)], "mixed"),
        ],
    )
    def test_kinds(self, values, kind):
        assert holds_fraction(values) == (kind != "float")
        assert holds_fraction(iter(values)) == (kind != "float")

    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False),
                st.integers(),
                st.booleans(),
                st.fractions(),
            )
        )
    )
    def test_matches_the_per_entry_tests(self, values):
        # the per-entry definitions it replaced in schmidt, concentrate and lp
        has_fraction = any(isinstance(v, Fraction) for v in values)
        assert holds_fraction(values) == has_fraction

    def test_no_per_entry_fraction_test_in_the_package(self):
        # isinstance(v, Fraction) per entry is an ABC check, ten times the
        # cost of one holds_fraction scan over a long float vector
        comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        found = []
        for path in sorted(Path(entmanip.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for comp in ast.walk(tree):
                if not isinstance(comp, comprehensions):
                    continue
                for node in ast.walk(comp):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "isinstance"
                        and len(node.args) == 2
                        and "Fraction" in ast.unparse(node.args[1])
                    ):
                        found.append(f"{path.name}:{node.lineno}")
        assert not found, f"per-entry Fraction tests at {found}; use holds_fraction"
