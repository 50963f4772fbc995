import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gfflab.basis import build_interval_basis
from gfflab.greens import (
    EULER_GAMMA,
    KernelKind,
    KernelSpec,
    bessel_k,
    gamma_fn,
    heat_kernel,
    heat_poisson_identity,
    heat_semigroup,
    log_divergence_check,
    potential_massive,
    potential_zero_mass,
    series_green,
)
from gfflab.hilbert_scale import CoefficientField, norm_gamma
from gfflab.quadrature import composite_legendre, gauss_hermite_unweighted


def bessel_cosh_oracle(p, x, cutoff=80.0):
    """Adaptive-width quadrature of the integral representation
    int_0^inf exp(-x cosh u) cosh(p u) du."""
    u_max = math.acosh(cutoff / x) if x < cutoff else 2.0
    u, w = composite_legendre(0.0, u_max, 80, 20)
    return float(np.sum(w * np.exp(-x * np.cosh(u)) * np.cosh(p * u)))


def gamma_integral_oracle(z):
    """Quadrature of int_0^inf t^(z-1) exp(-t) dt, substituted t = u^2 so
    half-integer powers stay smooth at the origin."""
    u, w = composite_legendre(0.0, 9.0, 120, 16)
    return float(np.sum(w * 2.0 * u ** (2.0 * z - 1.0) * np.exp(-u * u)))


class TestGamma:
    def test_against_stdlib(self):
        for z in (0.5, 1.0, 1.5, 2.0, 2.5, 3.7, 5.0, 10.2, 0.1, 0.9):
            assert gamma_fn(z) == pytest.approx(math.gamma(z), rel=1e-12)

    def test_against_integral_definition(self):
        for z in (1.5, 2.0, 3.0, 4.5):
            assert gamma_fn(z) == pytest.approx(gamma_integral_oracle(z), rel=1e-10)

    def test_half_integer_values(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert gamma_fn(1.5) == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-14)

    def test_poles_rejected(self):
        with pytest.raises(ValueError, match="pole"):
            gamma_fn(0.0)
        with pytest.raises(ValueError, match="pole"):
            gamma_fn(-2.0)


class TestBesselK:
    def test_half_order_closed_form(self):
        for x in (0.1, 1.0, 10.0):
            expected = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
            assert bessel_k(0.5, x) == expected
            assert bessel_k(-0.5, x) == expected

    def test_half_order_against_integral_oracle(self):
        for x in (0.1, 1.0, 10.0):
            assert bessel_k(0.5, x) == pytest.approx(bessel_cosh_oracle(0.5, x), rel=1e-10)

    def test_k0_against_integral_oracle(self):
        for x in (0.05, 0.5, 1.0, 1.99, 2.0, 2.01, 3.0, 7.0, 20.0):
            assert bessel_k(0.0, x) == pytest.approx(bessel_cosh_oracle(0.0, x), rel=1e-10)

    def test_k0_small_argument_log_constant(self):
        # K0(x) + log(x) -> log 2 - euler_gamma
        limit = math.log(2.0) - EULER_GAMMA
        assert bessel_k(0.0, 1e-6) + math.log(1e-6) == pytest.approx(limit, abs=1e-5)

    def test_branch_continuity_at_two(self):
        lo = bessel_k(0.0, 2.0 - 1e-12)
        hi = bessel_k(0.0, 2.0 + 1e-12)
        assert lo == pytest.approx(hi, rel=1e-11)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="x > 0"):
            bessel_k(0.0, 0.0)
        with pytest.raises(ValueError, match="order"):
            bessel_k(1.0, 1.0)


class TestHeatKernel:
    def test_unit_prefactor_time(self):
        spec = KernelSpec(KernelKind.HEAT, d=1, nu=1.0, eps=0.0)
        assert heat_kernel(spec, 1.0 / (4.0 * math.pi), 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_three_dimensional_plugin(self):
        spec = KernelSpec(KernelKind.HEAT, d=3, nu=1.0, eps=1.0)
        expected = math.exp(-1.0) * (4.0 * math.pi) ** -1.5
        assert heat_kernel(spec, 1.0, [0.0, 0.0, 0.0]) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("eps", [0.0, 0.5, 2.0])
    def test_mass_decays_with_rate_eps(self, eps):
        # quadrature oracle over the line with Gauss-Hermite scaling
        spec = KernelSpec(KernelKind.HEAT, d=1, nu=1.0, eps=eps)
        t = 0.7
        x, w = gauss_hermite_unweighted(160)
        scale = math.sqrt(4.0 * spec.nu * t)
        vals = np.array([heat_kernel(spec, t, scale * v) for v in x])
        assert scale * float(np.sum(w * vals)) == pytest.approx(math.exp(-eps * t), rel=1e-10)

    def test_semigroup_by_quadrature(self):
        # int G(t, x - z) G(s, z) dz = G(t + s, x) in d = 1
        spec = KernelSpec(KernelKind.HEAT, d=1, nu=0.8, eps=0.3)
        t, s, x = 0.4, 0.9, 0.6
        z, w = composite_legendre(-25.0, 25.0, 120, 16)
        conv = float(np.sum(w * [heat_kernel(spec, t, x - v) * heat_kernel(spec, s, v) for v in z]))
        assert conv == pytest.approx(heat_kernel(spec, t + s, x), rel=1e-8)

    def test_symmetry_exact(self):
        spec = KernelSpec(KernelKind.HEAT, d=2, nu=1.3, eps=0.2)
        assert heat_kernel(spec, 0.5, [0.3, -0.4]) == heat_kernel(spec, 0.5, [-0.3, 0.4])

    def test_nonpositive_time_rejected(self):
        spec = KernelSpec(KernelKind.HEAT, d=1)
        with pytest.raises(ValueError, match="t > 0"):
            heat_kernel(spec, 0.0, 0.0)


class TestPotentials:
    def test_massive_1d_at_origin(self):
        spec = KernelSpec(KernelKind.MASSIVE_POTENTIAL, d=1, nu=1.0, eps=1.0)
        assert potential_massive(spec, 0.0) == pytest.approx(0.5, rel=1e-15)

    def test_massive_3d_unit_radius(self):
        spec = KernelSpec(KernelKind.MASSIVE_POTENTIAL, d=3, nu=1.0, eps=1.0)
        assert potential_massive(spec, [1.0, 0.0, 0.0]) == pytest.approx(
            math.exp(-1.0) / (4.0 * math.pi), rel=1e-15
        )

    def test_massive_2d_against_time_quadrature(self):
        # independent oracle: adaptive composite rule in log time
        spec = KernelSpec(KernelKind.MASSIVE_POTENTIAL, d=2, nu=1.0, eps=1.0)
        u, w = composite_legendre(math.log(1e-8), math.log(60.0), 300, 16)
        t = np.exp(u)
        heat = KernelSpec(KernelKind.HEAT, d=2, nu=1.0, eps=1.0)
        vals = np.array([heat_kernel(heat, ti, 1.0) * ti for ti in t])
        oracle = float(np.sum(w * vals))
        assert potential_massive(spec, 1.0) == pytest.approx(oracle, rel=1e-6)

    def test_massive_radially_decreasing(self):
        for d in (1, 2, 3):
            spec = KernelSpec(KernelKind.MASSIVE_POTENTIAL, d=d, nu=1.0, eps=1.0)
            radii = np.linspace(0.2, 4.0, 25)
            vals = [potential_massive(spec, r) for r in radii]
            assert np.all(np.diff(vals) < 0.0)

    def test_massive_requires_positive_mass(self):
        spec = KernelSpec(KernelKind.MASSIVE_POTENTIAL, d=2, nu=1.0, eps=0.0)
        with pytest.raises(ValueError, match="eps > 0"):
            potential_massive(spec, 1.0)

    @pytest.mark.parametrize("d", [0, 4, 5])
    def test_massive_unsupported_dimension_rejected_at_spec(self, d):
        with pytest.raises(ValueError, match="d in 1, 2, 3"):
            KernelSpec(KernelKind.MASSIVE_POTENTIAL, d=d, nu=1.0, eps=1.0)

    def test_massive_singular_at_origin_2d(self):
        spec = KernelSpec(KernelKind.MASSIVE_POTENTIAL, d=2, nu=1.0, eps=1.0)
        with pytest.raises(ValueError, match="singular"):
            potential_massive(spec, [0.0, 0.0])

    def test_zero_mass_newtonian_constant(self):
        spec = KernelSpec(KernelKind.ZERO_MASS_POTENTIAL, d=3, nu=1.0)
        assert potential_zero_mass(spec, 1.0) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)

    def test_zero_mass_log_zero_at_unit_radius(self):
        spec = KernelSpec(KernelKind.ZERO_MASS_POTENTIAL, d=2, nu=1.0)
        assert potential_zero_mass(spec, [1.0, 0.0]) == 0.0

    def test_zero_mass_limit_of_massive_3d(self):
        z = KernelSpec(KernelKind.ZERO_MASS_POTENTIAL, d=3, nu=1.0)
        m = KernelSpec(KernelKind.MASSIVE_POTENTIAL, d=3, nu=1.0, eps=1e-8)
        assert abs(potential_massive(m, 2.0) - potential_zero_mass(z, 2.0)) < 1e-4

    def test_zero_mass_rejects_1d(self):
        spec = KernelSpec(KernelKind.ZERO_MASS_POTENTIAL, d=1, nu=1.0)
        with pytest.raises(ValueError, match="d >= 2"):
            potential_zero_mass(spec, 1.0)

    def test_massive_symmetric_in_sign(self):
        spec = KernelSpec(KernelKind.MASSIVE_POTENTIAL, d=3, nu=1.0, eps=2.0)
        assert potential_massive(spec, [0.4, -0.3, 0.1]) == potential_massive(
            spec, [-0.4, 0.3, -0.1]
        )


class TestLogDivergence:
    def test_residuals_shrink(self):
        r = log_divergence_check(1.0, 1.0, [1e-6, 1e-8])
        assert abs(r[1]) < abs(r[0])
        # the limit constant of the residual
        assert r[1] == pytest.approx((math.log(2.0) - EULER_GAMMA) / (2.0 * math.pi), abs=1e-6)

    def test_residual_two_ways(self):
        # quadrature route to Phi_eps as an independent check of the residual
        nu, xr, eps = 1.0, 1.0, 1e-4
        # the mass only cuts the time integral off at t ~ 1/eps
        u, w = composite_legendre(math.log(1e-8), math.log(60.0 / eps), 400, 16)
        t = np.exp(u)
        heat = KernelSpec(KernelKind.HEAT, d=2, nu=nu, eps=eps)
        phi_eps_quad = float(np.sum(w * np.array([heat_kernel(heat, ti, xr) * ti for ti in t])))
        z2 = KernelSpec(KernelKind.ZERO_MASS_POTENTIAL, d=2, nu=nu)
        residual_quad = phi_eps_quad - potential_zero_mass(z2, xr) + math.log(eps) / (4 * math.pi * nu)
        residual_bessel = log_divergence_check(nu, xr, [eps])[0]
        assert residual_bessel == pytest.approx(residual_quad, abs=1e-6)

    def test_slope_matches_log_coefficient(self):
        nu = 1.7
        eps_list = [1e-3, 1e-4, 1e-5, 1e-6]
        vals = [
            potential_massive(KernelSpec(KernelKind.MASSIVE_POTENTIAL, d=2, nu=nu, eps=e), 1.0)
            for e in eps_list
        ]
        slope = float(np.polyfit(np.log(eps_list), vals, 1)[0])
        assert slope == pytest.approx(-1.0 / (4.0 * math.pi * nu), rel=0.01)


class TestSeriesGreen:
    def test_bridge_covariance_diagonal(self):
        basis = build_interval_basis("dirichlet", 0.0, 1.0, 10000)
        assert series_green(basis, 1.0, 0.5, 0.5) == pytest.approx(0.25, abs=1e-4)

    def test_bridge_covariance_off_diagonal(self):
        basis = build_interval_basis("dirichlet", 0.0, 1.0, 10000)
        # closed form min(x, y) (1 - max(x, y))
        assert series_green(basis, 1.0, 0.3, 0.7) == pytest.approx(0.3 * (1 - 0.7), abs=1e-4)

    def test_boundary_exactly_zero(self):
        basis = build_interval_basis("dirichlet", 0.0, 1.0, 50)
        assert series_green(basis, 1.0, 0.0, 0.7) == 0.0
        assert series_green(basis, 1.0, 0.4, 1.0) == 0.0

    def test_symmetry_bitwise(self):
        basis = build_interval_basis("dirichlet", 0.0, 1.0, 64)
        assert series_green(basis, 1.3, 0.21, 0.68) == series_green(basis, 1.3, 0.68, 0.21)

    def test_diffusivity_scales_inverse(self):
        basis = build_interval_basis("dirichlet", 0.0, 1.0, 32)
        v1 = series_green(basis, 1.0, 0.3, 0.4)
        v2 = series_green(basis, 2.0, 0.3, 0.4)
        assert v2 == pytest.approx(0.5 * v1, rel=1e-14)

    def test_constant_mode_rejected(self):
        basis = build_interval_basis("neumann", 0.0, 1.0, 8)
        with pytest.raises(ValueError, match="lambda_1 > 0"):
            series_green(basis, 1.0, 0.3, 0.4)


class TestHeatPoissonIdentity:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_whole_space_unit_parameters(self, d):
        spec = KernelSpec(KernelKind.HEAT, d=d, nu=1.0, eps=1.0)
        lhs, rhs = heat_poisson_identity(spec, [1.0] + [0.0] * (d - 1))
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_whole_space_3d_yukawa_value(self):
        spec = KernelSpec(KernelKind.HEAT, d=3, nu=1.0, eps=1.0)
        lhs, _ = heat_poisson_identity(spec, 1.0)
        assert lhs == pytest.approx(math.exp(-1.0) / (4.0 * math.pi), rel=1e-6)

    def test_displacement_form(self):
        spec = KernelSpec(KernelKind.HEAT, d=2, nu=1.0, eps=1.0)
        a, b = heat_poisson_identity(spec, [1.3, 0.4], [0.3, 0.4])
        c, d_ = heat_poisson_identity(spec, 1.0)
        assert (a, b) == (c, d_)

    def test_bounded_truncation_error_bound(self):
        basis = build_interval_basis("dirichlet", 0.0, 1.0, 200)
        spec = KernelSpec(KernelKind.SERIES_GREEN, basis=basis, nu=1.0, series_terms=200)
        T = 0.5
        lhs, rhs = heat_poisson_identity(spec, 0.3, 0.7, t_max=T)
        hx = np.abs([math.sqrt(2) * math.sin(k * math.pi * 0.3) for k in range(1, 201)])
        hy = np.abs([math.sqrt(2) * math.sin(k * math.pi * 0.7) for k in range(1, 201)])
        bound = math.exp(-basis.lambdas_squared[0] * T) / basis.lambdas_squared[0] * float(
            np.sum(hx * hy)
        )
        assert abs(lhs - rhs) <= bound

    def test_bounded_infinite_horizon_matches_series(self):
        basis = build_interval_basis("dirichlet", 0.0, 1.0, 100)
        spec = KernelSpec(KernelKind.SERIES_GREEN, basis=basis, nu=2.0, series_terms=100)
        lhs, rhs = heat_poisson_identity(spec, 0.3, 0.7)
        assert lhs == rhs == pytest.approx(series_green(basis, 2.0, 0.3, 0.7), rel=1e-15)


def assert_within_ulps(values, expected, ulps=2):
    expected = np.asarray(expected, dtype=float)
    assert np.all(np.abs(values - expected) <= ulps * np.spacing(np.abs(expected)))


class TestArrayKernels:
    """An array call agrees with per-element scalar calls; a scalar (and a
    single point in d >= 2) still gives a Python float."""

    def points(self, d):
        pts = np.random.default_rng(3).uniform(-3.0, 3.0, size=(7, 5, d))
        return pts[..., 0] if d == 1 else pts

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_heat_kernel(self, d):
        spec = KernelSpec(KernelKind.HEAT, d=d, nu=0.7, eps=0.4)
        pts = self.points(d)
        vals = heat_kernel(spec, 0.8, pts)
        assert vals.shape == (7, 5)
        assert_within_ulps(vals, [[heat_kernel(spec, 0.8, p) for p in row] for row in pts])
        times = np.array([0.1, 0.5, 2.0])
        assert_within_ulps(heat_kernel(spec, times, 1.5), [heat_kernel(spec, t, 1.5) for t in times])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_potential_massive(self, d):
        spec = KernelSpec(KernelKind.MASSIVE_POTENTIAL, d=d, nu=1.3, eps=0.6)
        pts = self.points(d)
        vals = potential_massive(spec, pts)
        assert vals.shape == (7, 5)
        assert_within_ulps(vals, [[potential_massive(spec, p) for p in row] for row in pts])

    @pytest.mark.parametrize("d", [2, 3])
    def test_potential_zero_mass(self, d):
        spec = KernelSpec(KernelKind.ZERO_MASS_POTENTIAL, d=d, nu=1.3)
        pts = self.points(d)
        vals = potential_zero_mass(spec, pts)
        assert_within_ulps(vals, [[potential_zero_mass(spec, p) for p in row] for row in pts])

    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_bessel_k_across_branches(self, p):
        x = np.array([1e-3, 0.5, 1.9999, 2.0, 2.0001, 7.0, 40.0])
        assert_within_ulps(bessel_k(p, x), [bessel_k(p, v) for v in x])

    def test_scalar_inputs_give_float(self):
        heat = KernelSpec(KernelKind.HEAT, d=2, nu=1.0, eps=0.0)
        mass2 = KernelSpec(KernelKind.MASSIVE_POTENTIAL, d=2, nu=1.0, eps=1.0)
        zero3 = KernelSpec(KernelKind.ZERO_MASS_POTENTIAL, d=3, nu=1.0)
        for value in (
            heat_kernel(heat, 0.5, 0.3),
            heat_kernel(heat, 0.5, [0.3, 0.1]),
            potential_massive(mass2, 1.0),
            potential_massive(mass2, np.array([0.6, 0.8])),
            potential_zero_mass(zero3, 2.0),
            bessel_k(0.0, 3.0),
            bessel_k(0.5, np.float64(1.0)),
        ):
            assert type(value) is float

    def test_singular_point_in_array_rejected(self):
        spec = KernelSpec(KernelKind.MASSIVE_POTENTIAL, d=3, nu=1.0, eps=1.0)
        with pytest.raises(ValueError, match="singular"):
            potential_massive(spec, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


class TestHeatSemigroup:
    @given(st.floats(0.01, 3.0), st.floats(0.01, 2.0))
    @example(1.7714305196791273, 1.0 / 3.0)
    def test_chapman_kolmogorov_on_coefficients(self, t, s):
        basis = build_interval_basis("dirichlet", 0.0, 1.0, 12)
        f = CoefficientField(basis, np.linspace(-1.0, 1.0, 12))
        two_steps = heat_semigroup(heat_semigroup(f, 1.0, t), 1.0, s)
        one_step = heat_semigroup(f, 1.0, t + s)
        # exp(-x) carries about eps |x| relative error from the rounding of
        # its argument x = lambda_k^2 nu (t + s), so the bound grows with x
        rtol = 4.0 * np.finfo(float).eps * (1.0 + basis.lambdas_squared * (t + s))
        # atol floor: coefficients this small sit in the denormal range
        # where the two exponentiation orders underflow differently
        gap = np.abs(two_steps.coeffs - one_step.coeffs)
        assert np.all(gap <= rtol * np.abs(one_step.coeffs) + 1e-250)

    @given(st.floats(0.0, 2.0), st.floats(-1.0, 1.5))
    def test_exponential_decay_rate(self, t, gamma):
        basis = build_interval_basis("dirichlet", 0.0, 1.0, 12)
        f = CoefficientField(basis, np.linspace(0.2, 1.0, 12))
        decayed = norm_gamma(heat_semigroup(f, 1.0, t), gamma)
        bound = math.exp(-basis.lambdas_squared[0] * t) * norm_gamma(f, gamma)
        assert decayed <= bound * (1.0 + 1e-12)
