import math

import numpy as np
import pytest

from gfflab import quadrature
from gfflab.basis import build_box_basis, build_hermite_basis, build_interval_basis, evaluate_matrix
from gfflab.cli import parse_config_text
from gfflab.experiments import MASS_RANGE, exp_log_divergence_2d
from gfflab.greens import (
    EULER_GAMMA,
    _as_points,
    _k0_large,
    _k0_small,
    bessel_k,
    heat_kernel,
    heat_poisson_identity,
    potential_massive,
    potential_zero_mass,
    series_green,
)
from gfflab.quadrature import composite_legendre, gauss_hermite_unweighted


def bessel_cosh_oracle(p, x, cutoff=80.0):
    """Adaptive-width quadrature of the integral representation
    int_0^inf exp(-x cosh u) cosh(p u) du."""
    u_max = math.acosh(cutoff / x) if x < cutoff else 2.0
    u, w = composite_legendre(0.0, u_max, 80, 20)
    return float(np.sum(w * np.exp(-x * np.cosh(u)) * np.cosh(p * u)))


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

    @pytest.mark.parametrize("p", [0.0, 0.5])
    @pytest.mark.parametrize("x", [math.nan, [1.0, math.nan, 5.0]], ids=["scalar", "array"])
    def test_nan_is_rejected(self, p, x):
        with pytest.raises(ValueError, match="x > 0"):
            bessel_k(p, x)


def where_k0(x):
    """K_0 as bessel_k computed it before the branch guard: both branches on
    every call, then np.where. The oracle of the bit-identity test."""
    x = np.asarray(x, dtype=float)
    return np.where(x <= 2.0, _k0_small(np.minimum(x, 2.0)), _k0_large(np.maximum(x, 2.0)))


class TestK0BranchGuard:
    def test_rule_is_built_only_when_a_point_needs_it(self):
        quadrature.gauss_hermite.cache_clear()
        bessel_k(0.0, [0.1, 1.0, 2.0])
        assert quadrature.gauss_hermite.cache_info().currsize == 0
        bessel_k(0.0, [1.0, 5.0])
        assert quadrature.gauss_hermite.cache_info().currsize == 1

    def test_values_match_the_where_formula_bit_for_bit(self):
        x = np.concatenate((
            np.linspace(0.01, 4.0, 401),
            [2.0, np.nextafter(2.0, 3.0), np.nextafter(2.0, 1.0), 1e-300, 700.0],
        ))
        assert bessel_k(0.0, x).view(np.int64).tobytes() == where_k0(x).view(np.int64).tobytes()
        for part in (x[x <= 2.0], x[x > 2.0]):
            assert bessel_k(0.0, part).tobytes() == where_k0(part).tobytes()
        for v in (0.5, 2.0, np.nextafter(2.0, 3.0), 5.0):
            value = bessel_k(0.0, v)
            assert type(value) is float and value == float(where_k0(v))


class TestHeatKernel:
    def test_unit_prefactor_time(self):
        assert heat_kernel(1.0 / (4.0 * math.pi), 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_three_dimensional_plugin(self):
        expected = math.exp(-1.0) * (4.0 * math.pi) ** -1.5
        assert heat_kernel(1.0, [0.0, 0.0, 0.0], d=3, eps=1.0) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("eps", [0.0, 0.5, 2.0])
    def test_mass_decays_with_rate_eps(self, eps):
        # quadrature oracle over the line with Gauss-Hermite scaling
        nu, t = 1.0, 0.7
        x, w = gauss_hermite_unweighted(160)
        scale = math.sqrt(4.0 * nu * t)
        vals = np.array([heat_kernel(t, scale * v, nu=nu, eps=eps) for v in x])
        assert scale * float(np.sum(w * vals)) == pytest.approx(math.exp(-eps * t), rel=1e-10)

    def test_semigroup_by_quadrature(self):
        # int G(t, x - z) G(s, z) dz = G(t + s, x) in d = 1
        kw = dict(nu=0.8, eps=0.3)
        t, s, x = 0.4, 0.9, 0.6
        z, w = composite_legendre(-25.0, 25.0, 120, 16)
        conv = float(np.sum(w * [heat_kernel(t, x - v, **kw) * heat_kernel(s, v, **kw) for v in z]))
        assert conv == pytest.approx(heat_kernel(t + s, x, **kw), rel=1e-8)

    def test_symmetry_exact(self):
        kw = dict(d=2, nu=1.3, eps=0.2)
        assert heat_kernel(0.5, [0.3, -0.4], **kw) == heat_kernel(0.5, [-0.3, 0.4], **kw)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError, match="t > 0"):
            heat_kernel(0.0, 0.0)


class TestPotentials:
    def test_massive_1d_at_origin(self):
        assert potential_massive(0.0, d=1, nu=1.0, eps=1.0) == pytest.approx(0.5, rel=1e-15)

    def test_massive_3d_unit_radius(self):
        assert potential_massive([1.0, 0.0, 0.0], d=3, nu=1.0, eps=1.0) == pytest.approx(
            math.exp(-1.0) / (4.0 * math.pi), rel=1e-15
        )

    def test_massive_2d_against_time_quadrature(self):
        # independent oracle: adaptive composite rule in log time
        u, w = composite_legendre(math.log(1e-8), math.log(60.0), 300, 16)
        t = np.exp(u)
        vals = np.array([heat_kernel(ti, 1.0, d=2, nu=1.0, eps=1.0) * ti for ti in t])
        oracle = float(np.sum(w * vals))
        assert potential_massive(1.0, d=2, nu=1.0, eps=1.0) == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_massive_1d_at_extreme_parameters(self, scale):
        # eps * nu leaves the floats here; sqrt(eps) * sqrt(nu) does not
        value = potential_massive(1.0, d=1, nu=scale, eps=scale)
        assert value == pytest.approx(math.exp(-1.0) / (2.0 * scale), rel=1e-15)

    def test_massive_radially_decreasing(self):
        for d in (1, 2, 3):
            radii = np.linspace(0.2, 4.0, 25)
            vals = [potential_massive(r, d=d, nu=1.0, eps=1.0) for r in radii]
            assert np.all(np.diff(vals) < 0.0)

    def test_massive_requires_positive_mass(self):
        with pytest.raises(ValueError, match="eps > 0"):
            potential_massive(1.0, d=2, nu=1.0, eps=0.0)
        # the time rule's scale 1/sqrt(eps nu) needs a mass as well
        with pytest.raises(ValueError, match="eps > 0"):
            heat_poisson_identity(1.0, d=2, nu=1.0, eps=0.0)

    def test_zero_mass_singular_at_the_origin(self):
        with pytest.raises(ValueError, match="zero-mass potential is singular at x = 0"):
            potential_zero_mass(0.0, d=3, nu=1.0)

    @pytest.mark.parametrize("d", [0, 4, 5])
    def test_massive_unsupported_dimension_rejected_at_spec(self, d):
        with pytest.raises(ValueError, match="d in 1, 2, 3"):
            potential_massive(1.0, d=d, nu=1.0, eps=1.0)
        # the identity checks d before integrating
        with pytest.raises(ValueError, match="d in 1, 2, 3"):
            heat_poisson_identity(1.0, d=d, nu=1.0, eps=1.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda **kw: heat_kernel(1.0, 0.5, **kw),
            lambda **kw: potential_massive(0.5, d=1, **kw),
            lambda **kw: heat_poisson_identity(0.5, d=1, **kw),
        ],
        ids=["heat_kernel", "potential_massive", "heat_poisson_identity"],
    )
    def test_kernel_parameters_checked_per_call(self, call):
        with pytest.raises(ValueError, match="nu must be positive"):
            call(nu=0.0, eps=1.0)
        with pytest.raises(ValueError, match="eps must be non-negative"):
            call(nu=1.0, eps=-1.0)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: heat_kernel(1.0, 0.5, nu=math.nan), "nu must be finite, got nan"),
            (lambda: heat_kernel(1.0, 0.5, nu=math.inf), "nu must be finite, got inf"),
            (lambda: heat_kernel(math.nan, 0.5), "t must be finite, got nan"),
            (lambda: heat_kernel(np.array([1.0, math.inf]), 0.5), r"t must be finite, got \[ 1. inf\]"),
            (lambda: heat_kernel(1.0, 0.5, eps=math.nan), "eps must be finite, got nan"),
            (lambda: potential_massive(0.5, d=1, nu=1.0, eps=math.inf), "eps must be finite, got inf"),
            (lambda: potential_massive(0.5, d=3, nu=1.0, eps=math.nan), "eps must be finite, got nan"),
            (lambda: potential_zero_mass(1.0, d=3, nu=math.nan), "nu must be finite, got nan"),
            (lambda: heat_poisson_identity(0.5, d=1, nu=math.nan, eps=1.0), "nu must be finite, got nan"),
        ],
        ids=["heat_kernel-nu-nan", "heat_kernel-nu-inf", "heat_kernel-t-nan", "heat_kernel-t-inf",
             "heat_kernel-eps-nan", "potential_massive-eps-inf", "potential_massive-eps-nan-3d",
             "potential_zero_mass-nu-nan", "heat_poisson_identity-nu-nan"],
    )
    def test_non_finite_parameters_rejected(self, call, message):
        # each of these returned nan or 0.0 without an error
        with pytest.raises(ValueError, match=message):
            call()

    def test_zero_mass_rejects_nonpositive_nu(self):
        with pytest.raises(ValueError, match="nu must be positive"):
            potential_zero_mass(1.0, d=3, nu=-1.0)

    def test_massive_singular_at_origin_2d(self):
        with pytest.raises(ValueError, match="singular"):
            potential_massive([0.0, 0.0], d=2, nu=1.0, eps=1.0)

    def test_zero_mass_newtonian_constant(self):
        value = potential_zero_mass(1.0, d=3, nu=1.0)
        assert value == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)

    def test_zero_mass_riesz_constant_in_d4_and_d5(self):
        # Gamma(d/2 - 1) / (4 pi^(d/2)) is 1 / (4 pi^2) in d = 4 and 1 / (8 pi^2) in d = 5
        nu, r = 0.7, 1.3
        x4, x5 = [r, 0.0, 0.0, 0.0], [0.0, r, 0.0, 0.0, 0.0]
        assert potential_zero_mass(x4, d=4, nu=nu) == pytest.approx(1.0 / (4.0 * math.pi**2 * nu * r**2), rel=1e-14)
        assert potential_zero_mass(x5, d=5, nu=nu) == pytest.approx(1.0 / (8.0 * math.pi**2 * nu * r**3), rel=1e-14)

    def test_zero_mass_log_zero_at_unit_radius(self):
        assert potential_zero_mass([1.0, 0.0], d=2, nu=1.0) == 0.0

    def test_zero_mass_limit_of_massive_3d(self):
        massive = potential_massive(2.0, d=3, nu=1.0, eps=1e-8)
        assert abs(massive - potential_zero_mass(2.0, d=3, nu=1.0)) < 1e-4

    def test_zero_mass_rejects_1d(self):
        with pytest.raises(ValueError, match="d >= 2"):
            potential_zero_mass(1.0, d=1, nu=1.0)

    def test_massive_symmetric_in_sign(self):
        kw = dict(d=3, nu=1.0, eps=2.0)
        assert potential_massive([0.4, -0.3, 0.1], **kw) == potential_massive(
            [-0.4, 0.3, -0.1], **kw
        )


def log_residual(nu, x, eps):
    """r(eps) in the planar expansion Phi_eps = Phi_0 - log(eps)/(4 pi nu) + r(eps)."""
    phi = potential_massive(x, d=2, nu=nu, eps=eps)
    return phi - potential_zero_mass(x, d=2, nu=nu) + math.log(eps) / (4.0 * math.pi * nu)


class TestLogDivergence:
    def test_residuals_shrink(self):
        r = [log_residual(1.0, 1.0, eps) for eps in (1e-6, 1e-8)]
        assert abs(r[1]) < abs(r[0])
        # the limit constant of the residual
        assert r[1] == pytest.approx((math.log(2.0) - EULER_GAMMA) / (2.0 * math.pi), abs=1e-6)

    def test_residual_two_ways(self):
        # quadrature route to Phi_eps as an independent check of the residual
        nu, xr, eps = 1.0, 1.0, 1e-4
        # the mass only cuts the time integral off at t ~ 1/eps
        u, w = composite_legendre(math.log(1e-8), math.log(60.0 / eps), 400, 16)
        t = np.exp(u)
        heat = np.array([heat_kernel(ti, xr, d=2, nu=nu, eps=eps) * ti for ti in t])
        phi_eps_quad = float(np.sum(w * heat))
        phi0 = potential_zero_mass(xr, d=2, nu=nu)
        residual_quad = phi_eps_quad - phi0 + math.log(eps) / (4 * math.pi * nu)
        residual_bessel = log_residual(nu, xr, eps)
        assert residual_bessel == pytest.approx(residual_quad, abs=1e-6)

    def test_experiment_residual_column(self):
        cfg = parse_config_text("experiment = log_divergence_2d\nnu = 1.7\n")
        rows = exp_log_divergence_2d(cfg).rows
        assert len(rows) == 4
        for row in rows:
            assert row["residual"] == log_residual(1.7, 1.0, row["eps"])

    def test_slope_matches_log_coefficient(self):
        nu = 1.7
        eps_list = [1e-3, 1e-4, 1e-5, 1e-6]
        vals = [potential_massive(1.0, d=2, nu=nu, eps=e) for e in eps_list]
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

    def test_zero_diffusivity_rejected(self, dirichlet16):
        with pytest.raises(ValueError, match="nu must be positive, got 0.0"):
            series_green(dirichlet16, 0.0, 0.3, 0.4)

    @pytest.mark.parametrize("nu", [math.nan, math.inf])
    def test_non_finite_diffusivity_rejected(self, dirichlet16, nu):
        # nan gave nan and inf gave 0.0 without an error
        with pytest.raises(ValueError, match=f"nu must be finite, got {nu}"):
            series_green(dirichlet16, nu, 0.3, 0.4)

    def test_diffusivity_scales_inverse(self):
        basis = build_interval_basis("dirichlet", 0.0, 1.0, 32)
        v1 = series_green(basis, 1.0, 0.3, 0.4)
        v2 = series_green(basis, 2.0, 0.3, 0.4)
        assert v2 == pytest.approx(0.5 * v1, rel=1e-14)

    @pytest.mark.parametrize(
        "make, x, y",
        [
            (lambda: build_interval_basis("dirichlet", 0.0, 1.0, 10**5), 0.3, 0.7),
            (lambda: build_box_basis(2, 1.0, 500), (0.3, 0.8), (0.6, 0.25)),
            (lambda: build_hermite_basis(2, 300), (0.4, -1.1), (-0.2, 0.7)),
        ],
        ids=["dirichlet", "box2", "hermite2"],
    )
    def test_one_evaluation_matches_two_bit_for_bit(self, make, x, y):
        basis = make()
        hx = evaluate_matrix(basis, _as_points(basis, x))[0]
        hy = evaluate_matrix(basis, _as_points(basis, y))[0]
        two_calls = float(np.sum(hx * hy / (basis.lambdas_squared * 1.3)))
        assert series_green(basis, 1.3, x, y).hex() == two_calls.hex()

    @pytest.mark.parametrize("terms", [1, 1000, 99999, 10**5])
    def test_partial_sums_match_the_old_formula_bit_for_bit(self, terms):
        # the old formula squared every lambda, then sliced and divided anew;
        # a basis of `terms` modes has the first columns and lambdas of a
        # larger one, bit for bit
        full = build_interval_basis("dirichlet", 0.0, 1.0, 10**5)
        hx, hy = evaluate_matrix(full, np.array([0.3, 0.7]))[:, :terms]
        old = float(np.sum(hx * hy / (full.lambdas_squared[:terms] * 1.3)))
        basis = build_interval_basis("dirichlet", 0.0, 1.0, terms)
        assert series_green(basis, 1.3, 0.3, 0.7).hex() == old.hex()

    def test_constant_mode_rejected(self):
        basis = build_interval_basis("neumann", 0.0, 1.0, 8)
        with pytest.raises(ValueError, match="lambda_1 > 0"):
            series_green(basis, 1.0, 0.3, 0.4)


class TestHeatPoissonIdentity:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_whole_space_unit_parameters(self, d):
        lhs, rhs = heat_poisson_identity([1.0] + [0.0] * (d - 1), d=d, nu=1.0, eps=1.0)
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_whole_space_3d_yukawa_value(self):
        lhs, _ = heat_poisson_identity(1.0, d=3, nu=1.0, eps=1.0)
        assert lhs == pytest.approx(math.exp(-1.0) / (4.0 * math.pi), rel=1e-6)

    @staticmethod
    def worst_whole_space_relerr(nu, eps):
        """The worst relerr of heat_poisson's three whole-space rows."""
        pairs = [heat_poisson_identity(1.0, d=d, nu=nu, eps=eps) for d in (1, 2, 3)]
        return max(abs(lhs - rhs) / abs(rhs) for lhs, rhs in pairs)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_unit_parameters_keep_the_unscaled_rule(self, d):
        # tau = 1 at nu = eps = 1, so the registered cells keep their bits
        t, w = quadrature.half_line_nodes(256)
        lhs, _ = heat_poisson_identity(1.0, d=d, nu=1.0, eps=1.0)
        assert lhs == float(np.sum(w * heat_kernel(t, 1.0, d=d, nu=1.0, eps=1.0)))

    @pytest.mark.parametrize("nu", [1e-8, 1e-3, 1.0, 1e3, 1e8])
    def test_time_rule_meets_the_default_tolerance_across_the_mass_range(self, nu):
        # the relerr depends on the mass alone; 0.0219 is its worst point inside
        lo, hi = MASS_RANGE
        for m in [*np.geomspace(lo, hi, 25), 0.0219]:
            assert self.worst_whole_space_relerr(nu, m * m * nu) < 1e-7, (nu, m)

    def test_time_rule_misses_the_default_tolerance_below_the_mass_range(self):
        # measured: the worst relerr first exceeds 1e-6 at m = 0.0128
        m = 0.01
        assert m < MASS_RANGE[0]
        assert self.worst_whole_space_relerr(1.0, m * m) > 1e-6

    def test_bounded_truncation_error_bound(self):
        # the per-mode time integral int_0^T e^{-lambda^2 nu t} dt is closed form;
        # its truncation at T stays below the first mode's e^{-lambda_1^2 nu T} bound
        basis = build_interval_basis("dirichlet", 0.0, 1.0, 200)
        T = 0.5
        h = evaluate_matrix(basis, np.array([0.3, 0.7]))
        lam2 = basis.lambdas_squared
        lhs = float(np.sum(h[0] * h[1] * (1.0 - np.exp(-lam2 * T)) / lam2))
        rhs = series_green(basis, 1.0, 0.3, 0.7)
        hx = np.abs([math.sqrt(2) * math.sin(k * math.pi * 0.3) for k in range(1, 201)])
        hy = np.abs([math.sqrt(2) * math.sin(k * math.pi * 0.7) for k in range(1, 201)])
        bound = math.exp(-basis.lambdas_squared[0] * T) / basis.lambdas_squared[0] * float(
            np.sum(hx * hy)
        )
        assert abs(lhs - rhs) <= bound

    def test_bounded_infinite_horizon_matches_series(self):
        # T = infinity: the time integral is 1 / (lambda^2 nu) for every mode
        basis = build_interval_basis("dirichlet", 0.0, 1.0, 100)
        h = evaluate_matrix(basis, np.array([0.3, 0.7]))
        lhs = float(np.sum(h[0] * h[1] / (basis.lambdas_squared * 2.0)))
        assert lhs == pytest.approx(series_green(basis, 2.0, 0.3, 0.7), rel=1e-15)


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
        kw = dict(d=d, nu=0.7, eps=0.4)
        pts = self.points(d)
        vals = heat_kernel(0.8, pts, **kw)
        assert vals.shape == (7, 5)
        assert_within_ulps(vals, [[heat_kernel(0.8, p, **kw) for p in row] for row in pts])
        times = np.array([0.1, 0.5, 2.0])
        assert_within_ulps(
            heat_kernel(times, 1.5, **kw), [heat_kernel(t, 1.5, **kw) for t in times]
        )

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_potential_massive(self, d):
        kw = dict(d=d, nu=1.3, eps=0.6)
        pts = self.points(d)
        vals = potential_massive(pts, **kw)
        assert vals.shape == (7, 5)
        assert_within_ulps(vals, [[potential_massive(p, **kw) for p in row] for row in pts])

    @pytest.mark.parametrize("d", [2, 3])
    def test_potential_zero_mass(self, d):
        kw = dict(d=d, nu=1.3)
        pts = self.points(d)
        vals = potential_zero_mass(pts, **kw)
        assert_within_ulps(vals, [[potential_zero_mass(p, **kw) for p in row] for row in pts])

    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_bessel_k_across_branches(self, p):
        x = np.array([1e-3, 0.5, 1.9999, 2.0, 2.0001, 7.0, 40.0])
        assert_within_ulps(bessel_k(p, x), [bessel_k(p, v) for v in x])

    def test_scalar_inputs_give_float(self):
        for value in (
            heat_kernel(0.5, 0.3, d=2),
            heat_kernel(0.5, [0.3, 0.1], d=2),
            potential_massive(1.0, d=2, nu=1.0, eps=1.0),
            potential_massive(np.array([0.6, 0.8]), d=2, nu=1.0, eps=1.0),
            potential_zero_mass(2.0, d=3, nu=1.0),
            bessel_k(0.0, 3.0),
            bessel_k(0.5, np.float64(1.0)),
        ):
            assert type(value) is float

    def test_singular_point_in_array_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            potential_massive(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), d=3, nu=1.0, eps=1.0)
