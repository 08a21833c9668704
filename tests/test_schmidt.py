"""Spectrum construction, decomposition and entropy."""

import ast
import math
import warnings
from fractions import Fraction
from itertools import repeat
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
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
    entropy,
    make_ensemble,
    make_spectrum,
    schmidt_decompose,
    uniform_spectrum,
)
from entmanip.schmidt import ZERO_TOL, holds_fraction
from util import random_unitary


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
