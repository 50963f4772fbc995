import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gfflab.basis import build_hermite_basis, build_interval_basis
from gfflab.fields import sample_gff
from gfflab.hilbert_scale import (
    CoefficientField,
    apply_lambda_power,
    duality_pairing,
    hs_embedding_defect,
    hs_embedding_is_hilbert_schmidt,
    norm_gamma,
    unit_field,
)

# magnitudes below ~1e-150 square into denormals, where summation order
# changes the result; clip them to exact zero (which stays covered)
coeff_lists = st.lists(
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False).map(
        lambda v: 0.0 if abs(v) < 1e-30 else v
    ),
    min_size=1,
    max_size=24,
)
gammas = st.floats(-2.0, 2.0, allow_nan=False)


def field_from(coeffs):
    basis = build_interval_basis("dirichlet", 0.0, 1.0, len(coeffs))
    return CoefficientField(basis, np.array(coeffs))


class TestNormGamma:
    def test_single_mode_gamma_one(self):
        basis = build_interval_basis("dirichlet", 0.0, 1.0, 4)
        assert norm_gamma(unit_field(basis, 1), 1.0) == pytest.approx(np.pi, rel=1e-15)

    @given(coeff_lists)
    def test_gamma_zero_is_euclidean(self, coeffs):
        f = field_from(coeffs)
        assert norm_gamma(f, 0.0) == pytest.approx(float(np.linalg.norm(coeffs)), rel=1e-12, abs=1e-300)

    def test_decaying_sequence_against_exact_rational_sum(self):
        # oracle: norm^2 = pi^(-2) * sum 1/k^4 in exact Fraction arithmetic
        K = 1000
        basis = build_interval_basis("dirichlet", 0.0, 1.0, K)
        f = CoefficientField(basis, 1.0 / np.arange(1, K + 1))
        exact = Fraction(0)
        for k in range(1, K + 1):
            exact += Fraction(1, k**4)
        expected = math.sqrt(float(exact)) / math.pi
        assert norm_gamma(f, -1.0) == pytest.approx(expected, rel=5e-14)

    def test_zero_mode_basis_rejected(self):
        basis = build_interval_basis("neumann", 0.0, 1.0, 4)
        f = unit_field(basis, 2)
        with pytest.raises(ValueError, match="lambda_1 > 0"):
            norm_gamma(f, -1.0)
        assert norm_gamma(f, 0.0) == 1.0  # gamma = 0 stays legal

    def test_truncation_monotonicity(self):
        K = 32
        basis = build_interval_basis("dirichlet", 0.0, 1.0, K)
        rngv = np.random.default_rng(5).standard_normal(K)
        norms = []
        for n in range(1, K + 1):
            c = np.zeros(K)
            c[:n] = rngv[:n]
            norms.append(norm_gamma(CoefficientField(basis, c), 0.7))
        assert np.all(np.diff(norms) >= -1e-15)


class TestLambdaPower:
    @given(coeff_lists)
    def test_power_zero_is_identity(self, coeffs):
        f = field_from(coeffs)
        assert np.array_equal(apply_lambda_power(f, 0.0).coeffs, f.coeffs)

    @given(coeff_lists, st.floats(-2.0, 2.0, allow_nan=False))
    def test_round_trip(self, coeffs, p):
        f = field_from(coeffs)
        back = apply_lambda_power(apply_lambda_power(f, p), -p)
        assert np.allclose(back.coeffs, f.coeffs, rtol=1e-14, atol=1e-300)

    def test_unit_mode_square(self):
        basis = build_interval_basis("dirichlet", 0.0, 1.0, 5)
        out = apply_lambda_power(unit_field(basis, 3), 2.0)
        assert out.coeffs[2] == pytest.approx(basis.lambdas_squared[2], rel=1e-15)

    def test_poisson_solve_is_inverse_square(self):
        # solving Lambda^2 v = g with unit diffusivity
        basis = build_interval_basis("dirichlet", 0.0, 1.0, 8)
        g = CoefficientField(basis, np.arange(1.0, 9.0))
        v = apply_lambda_power(g, -2.0)
        assert np.allclose(v.coeffs * basis.lambdas_squared, g.coeffs, rtol=1e-15)

    @given(coeff_lists, gammas, st.floats(-1.5, 1.5, allow_nan=False))
    def test_norm_shift_identity(self, coeffs, gamma, p):
        f = field_from(coeffs)
        lhs = norm_gamma(apply_lambda_power(f, p), gamma)
        rhs = norm_gamma(f, gamma + p)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


class TestDualityPairing:
    def test_orthonormal_modes(self):
        basis = build_interval_basis("dirichlet", 0.0, 1.0, 6)
        for j in range(1, 7):
            for k in range(1, 7):
                val = duality_pairing(unit_field(basis, j), unit_field(basis, k))
                assert val == (1.0 if j == k else 0.0)

    def test_unit_pair_independent_of_lambda(self):
        for ab in ((0.0, 1.0), (0.0, 0.1), (-3.0, 5.0)):
            basis = build_interval_basis("dirichlet", *ab, 3)
            assert duality_pairing(unit_field(basis, 1), unit_field(basis, 1), 0.0, 1.0) == 1.0

    @given(coeff_lists, gammas)
    def test_gamma_does_not_change_value(self, coeffs, gamma):
        f = field_from(coeffs)
        g = CoefficientField(f.basis, np.array(coeffs)[::-1].copy())
        base = duality_pairing(f, g, 0.0, 0.0)
        assert duality_pairing(f, g, 0.0, gamma) == base

    @given(coeff_lists, st.floats(-1.0, 1.0, allow_nan=False), gammas)
    def test_cauchy_schwarz(self, coeffs, gamma0, gamma):
        f = field_from(coeffs)
        g = CoefficientField(f.basis, np.array(coeffs)[::-1].copy())
        val = abs(duality_pairing(f, g, gamma0, gamma))
        bound = norm_gamma(f, gamma0 + gamma) * norm_gamma(g, gamma0 - gamma)
        assert val <= bound * (1.0 + 1e-12) + 1e-300

    def test_symmetry(self):
        basis = build_interval_basis("dirichlet", 0.0, 1.0, 5)
        f = CoefficientField(basis, np.array([1.0, -2.0, 0.5, 0.0, 3.0]))
        g = CoefficientField(basis, np.array([0.3, 1.1, -0.7, 2.0, -1.0]))
        assert duality_pairing(f, g, 0.5, 1.0) == duality_pairing(g, f, 0.5, 1.0)


class TestEmbedding:
    def test_partial_sums_approach_basel_value(self):
        # oracle: partial sums of 1/(k pi)^2 in exact rational arithmetic
        K = 10000
        basis = build_interval_basis("dirichlet", 0.0, 1.0, K)
        val = hs_embedding_defect(basis, 1.0, 0.0)
        partial = Fraction(0)
        for k in range(1, K + 1):
            partial += Fraction(1, k**2)
        assert val == pytest.approx(float(partial) / math.pi**2, rel=1e-13)
        assert abs(val - 1.0 / 6.0) < 1e-3  # Basel limit over pi^2

    def test_equal_levels_count_terms(self, dirichlet16):
        assert hs_embedding_defect(dirichlet16, 0.3, 0.3) == 16.0

    def test_partial_sums_nondecreasing(self, dirichlet16):
        vals = [hs_embedding_defect(dirichlet16, 1.0, 0.0, terms=n) for n in range(1, 17)]
        assert np.all(np.diff(vals) > 0.0)

    def test_threshold_interval(self, dirichlet16):
        assert hs_embedding_is_hilbert_schmidt(dirichlet16, 1.0, 0.0)  # 1 > 1/2
        assert not hs_embedding_is_hilbert_schmidt(dirichlet16, 0.5, 0.0)  # boundary

    def test_threshold_hermite_boundary_excluded(self, hermite16):
        # alpha = 1/2 so the threshold is exactly 1; the boundary fails
        assert not hs_embedding_is_hilbert_schmidt(hermite16, 1.0, 0.0)
        assert hs_embedding_is_hilbert_schmidt(hermite16, 1.01, 0.0)


class TestCoefficientField:
    def test_length_mismatch_rejected(self, dirichlet16):
        with pytest.raises(ValueError, match="coefficients"):
            CoefficientField(dirichlet16, np.zeros(4))

    def test_caller_array_stays_writeable(self, dirichlet16, rng):
        a = np.arange(16.0)
        f = CoefficientField(dirichlet16, a)
        assert a.flags.writeable and not f.coeffs.flags.writeable
        a[0] = 5.0
        assert f.coeffs[0] == 0.0
        sample = sample_gff(dirichlet16, 1.0, rng)
        CoefficientField(dirichlet16, sample.coeffs)
        assert sample.coeffs.flags.writeable

    @given(coeff_lists)
    def test_parseval_at_gamma_zero(self, coeffs):
        f = field_from(coeffs)
        assert norm_gamma(f, 0.0) ** 2 == pytest.approx(float(np.sum(np.square(coeffs))), rel=1e-12, abs=1e-300)
