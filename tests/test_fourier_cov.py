import math

import numpy as np
import pytest

from gfflab.fourier_cov import (
    TestFunction,
    _pair_integral_tensor2d,
    gaussian_bump,
    gff_covariance,
    heat_pairing,
    hhat_norms,
    make_s0_function,
    massive_limit_covariance,
    surface_measure,
    transient_covariance,
    two_sided_covariance,
)
from gfflab.experiments import FOURIER_LIMITS_EPS_RANGE, _massive_physical_oracle
from gfflab.greens import potential_zero_mass
from gfflab.quadrature import composite_legendre, gauss_legendre


class TestMakeS0Function:
    def test_exactly_zero_below_floor(self):
        f = make_s0_function(4.0, 0.25)
        for r in (0.0, 0.1, 1.0, 2.0):
            assert float(f.fhat_radial(np.array([r]))[0]) == 0.0

    def test_conjugate_symmetry_of_transform(self):
        f = make_s0_function(4.0, 0.25)
        xi = np.array([3.0, -3.0, 4.5, -4.5])
        vals = f.fhat(xi)
        assert vals[0] == np.conj(vals[1])
        assert vals[2] == np.conj(vals[3])

    def test_physical_values_need_a_closed_form(self):
        assert gaussian_bump(0.3, 0.8).physical(0.3) == 1.0
        with pytest.raises(ValueError, match="no closed physical form"):
            make_s0_function(4.0, 0.25).physical(0.0)

    def test_narrow_annulus_rejected(self):
        with pytest.raises(ValueError, match="floor"):
            make_s0_function(1.0, 0.5)

    def test_rapid_decay_of_transform(self):
        # (1 + r^2)^(d+1) |fhat| stays bounded on the grid and is tiny at
        # the declared cutoff
        for f in (make_s0_function(4.0, 0.25), gaussian_bump(0.0, 1.0)):
            r = np.linspace(0.0, f.xi_cut, 400)
            weighted = (1.0 + r * r) ** (f.d + 1) * np.abs(f.fhat_radial(r))
            assert np.all(np.isfinite(weighted))
            assert weighted[-1] < 1e-6 * (weighted.max() + 1e-300)

class TestGffCovariance:
    def test_positive_for_equal_arguments(self):
        f = make_s0_function(4.0, 0.25)
        assert gff_covariance(f, f) > 0.0

    def test_disjoint_annuli_vanish(self):
        f = make_s0_function(4.0, 0.25)
        g = make_s0_function(40.0, 0.25)
        assert abs(gff_covariance(f, g)) < 1e-10

    def test_floor_enforced_in_low_dimension(self):
        f = make_s0_function(4.0, 0.25)
        g = gaussian_bump(0.0, 1.0)
        with pytest.raises(ValueError, match="floor"):
            gff_covariance(f, g)

    def test_gaussian_3d_against_newton_shell_oracle(self):
        # physical-space oracle via the shell average of the Riesz kernel:
        # v(r) = (1/nu) [ (1/r) int_0^r f s^2 ds + int_r^inf f s ds ]
        width = 0.8
        f = gaussian_bump([0.0, 0.0, 0.0], width, d=3)

        def fr(r):
            return np.exp(-0.5 * r * r / width**2)

        r, w = composite_legendre(0.0, 12.0 * width, 160, 16)
        inner_cum = np.cumsum(w * fr(r) * r * r)
        outer_total = float(np.sum(w * fr(r) * r))
        outer_cum = outer_total - np.cumsum(w * fr(r) * r)
        v = inner_cum / r + outer_cum
        oracle = 4.0 * math.pi * float(np.sum(w * fr(r) * v * r * r))
        value = gff_covariance(f, f, check_floor=False)
        assert value == pytest.approx(oracle, rel=1e-5)

    def test_riesz_kernel_consistency_check(self):
        # sanity for the oracle construction itself: potentials at two radii
        value = potential_zero_mass(2.0, d=3, nu=1.0)
        assert value == pytest.approx(1.0 / (8.0 * math.pi), rel=1e-14)

    def test_bilinearity(self):
        f1 = make_s0_function(4.0, 0.25)
        f2 = make_s0_function(5.0, 0.3)
        g = make_s0_function(4.5, 0.3)

        def combo(r):
            return 2.0 * f1.fhat_radial(r) - 0.7 * f2.fhat_radial(r)

        fc = TestFunction(
            kind="custom", d=1, profile=combo,
            xi_floor=min(f1.xi_floor, f2.xi_floor),
            xi_cut=max(f1.xi_cut, f2.xi_cut), center=None,
        )
        lhs = gff_covariance(fc, g)
        rhs = 2.0 * gff_covariance(f1, g) - 0.7 * gff_covariance(f2, g)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_radial_reduction_against_tensor_grid(self):
        f = make_s0_function(4.0, 0.25, d=2)
        radial = gff_covariance(f, f)
        tensor = _pair_integral_tensor2d(f, f, lambda r: 1.0 / (r * r))
        assert radial == pytest.approx(tensor, abs=1e-8)

    def test_radial_rule_is_64_panels_of_16(self):
        f = make_s0_function(4.0, 0.25)
        g = make_s0_function(5.0, 0.3)
        r, w = composite_legendre(2.5, 7.0, 64, 16)
        integrand = f.fhat_radial(r) * g.fhat_radial(r) * (1.0 / (r * r)) * r**0
        assert gff_covariance(f, g) == surface_measure(1) * math.fsum(w * integrand)

    def test_surface_measures(self):
        assert surface_measure(1) == pytest.approx(2.0, rel=1e-14)
        assert surface_measure(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert surface_measure(3) == pytest.approx(4.0 * math.pi, rel=1e-14)

    def test_surface_measure_dimension_recursion(self):
        # |S^(d+1)| = 2 pi |S^(d-1)| / d ties every dimension to d = 1 and d = 2
        for d in range(1, 7):
            assert surface_measure(d + 2) == pytest.approx(2.0 * math.pi * surface_measure(d) / d, rel=1e-14)


class TestTwoSidedCovariance:
    def test_equals_gff_covariance_for_a_mean_zero_pair(self):
        # fhat(0) = 0 on both sides: no subtraction, no cross term, no tail
        f = make_s0_function(4.0, 0.25)
        g = make_s0_function(5.0, 0.6)
        assert f.xi_cut != g.xi_cut
        assert two_sided_covariance(f, g) == gff_covariance(f, g)
        assert two_sided_covariance(g, f) == gff_covariance(g, f)


class TestTransientCovariance:
    def test_zero_time_zero_start(self):
        f = make_s0_function(4.0, 0.25)
        assert transient_covariance(f, f, 0.0, 1.0, 1.0) == 0.0

    def test_limit_reaches_free_field(self):
        f = make_s0_function(4.0, 0.25)
        t_star = 40.0 / (1.0 * (f.params["freq"] / 2.0) ** 2)
        limit = gff_covariance(f, f, nu_scale=0.5)
        val = transient_covariance(f, f, t_star, 1.0, 1.0)
        assert abs(val - limit) / limit < 1e-8

    def test_noise_term_monotone_in_time(self):
        f = make_s0_function(4.0, 0.25)
        times = [0.01, 0.05, 0.1, 0.5, 1.0]
        vals = [transient_covariance(f, f, t, 1.0, 1.0) for t in times]
        assert np.all(np.diff(vals) > 0.0)

    def test_phi_term_against_direct_quadrature(self):
        # oracle: separate quadrature of the rank-one heat-smoothed pairing
        f = make_s0_function(4.0, 0.25)
        phi = gaussian_bump(0.0, 1.0)
        for t in (0.05, 0.2):
            r, w = gauss_legendre(f.xi_floor, f.xi_cut, 4096)
            pairing = 2.0 * float(
                np.sum(w * np.exp(-t * r * r) * phi.fhat_radial(r) * f.fhat_radial(r))
            )
            assert heat_pairing(phi, f, t, 1.0) ** 2 == pytest.approx(pairing**2, rel=1e-8, abs=1e-300)

    def test_phi_term_decays(self):
        f = make_s0_function(4.0, 0.25)
        phi = gaussian_bump(0.0, 1.0)
        vals = [heat_pairing(phi, f, t, 1.0) ** 2 for t in (0.05, 0.1, 0.2, 0.4)]
        assert np.all(np.diff(vals) < 0.0)
        assert vals[-1] >= 0.0

    def test_negative_time_rejected(self):
        f = make_s0_function(4.0, 0.25)
        with pytest.raises(ValueError, match="non-negative"):
            transient_covariance(f, f, -1.0, 1.0, 1.0)


class TestMassiveLimit:
    def test_against_physical_space_oracle_1d(self, massive_oracle_1d):
        fg = gaussian_bump(0.3, 0.8)
        value = massive_limit_covariance(fg, fg, 1.0, 1.0, 1.0)
        assert value == pytest.approx(massive_oracle_1d, rel=1e-6)

    def test_large_mass_decay(self):
        f = gaussian_bump(0.0, 1.0)
        v1 = massive_limit_covariance(f, f, 1.0, 100.0)
        v2 = massive_limit_covariance(f, f, 1.0, 1000.0)
        assert v2 < v1
        assert v2 == pytest.approx(0.1 * v1, rel=0.1)  # ~ 1/eps decay

    def test_massless_limit_on_annulus_functions(self):
        f = make_s0_function(4.0, 0.25)
        limit = gff_covariance(f, f, nu_scale=0.5)
        val = massive_limit_covariance(f, f, 1.0, 1e-8)
        assert abs(val - limit) < 1e-4

    def test_nonpositive_mass_rejected(self):
        f = gaussian_bump(0.0, 1.0)
        with pytest.raises(ValueError, match="eps"):
            massive_limit_covariance(f, f, 1.0, 0.0)

    @staticmethod
    def massive_vs_physical_relerr(eps, nu=1.0):
        """The relerr of fourier_limits' massive_vs_physical row."""
        fg = gaussian_bump(0.3, 0.8)
        oracle = _massive_physical_oracle(fg, nu, eps, 1.0)
        return abs(massive_limit_covariance(fg, fg, nu, eps) - oracle) / oracle

    @pytest.mark.parametrize("nu", [1e-3, 1.0, 1e3])
    def test_rule_meets_the_default_tolerance_across_the_eps_range(self, nu):
        for eps in np.geomspace(*FOURIER_LIMITS_EPS_RANGE, 13):
            assert self.massive_vs_physical_relerr(eps, nu) < 1e-7, (nu, eps)

    @pytest.mark.parametrize("eps", [1e-4, 1e4])
    def test_rule_misses_the_default_tolerance_past_the_eps_range(self, eps):
        # measured: the relerr first exceeds 1e-6 at eps = 5.7e-4 and 4.1e3
        lo, hi = FOURIER_LIMITS_EPS_RANGE
        assert not lo <= eps <= hi
        assert self.massive_vs_physical_relerr(eps) > 1e-6


class TestHhatNorms:
    def test_gamma_zero_is_l2_norm(self):
        f = make_s0_function(4.0, 0.25)
        r, w = gauss_legendre(f.xi_floor, f.xi_cut, 1024)
        l2 = 2.0 * float(np.sum(w * f.fhat_radial(r) ** 2))
        assert hhat_norms(f, 0.0, "homogeneous") == pytest.approx(l2, rel=1e-12)
        assert hhat_norms(f, 0.0, "bessel", eps=1.0) == pytest.approx(l2, rel=1e-12)

    def test_bessel_equivalence_factor(self):
        f = gaussian_bump(0.0, 1.0)
        for gamma in (-1.5, -0.5, 0.5, 1.5):
            n1 = hhat_norms(f, gamma, "bessel", eps=1.0)
            n2 = hhat_norms(f, gamma, "bessel", eps=2.0)
            hi = max(2.0**gamma, 1.0)
            lo = min(2.0**gamma, 1.0)
            assert lo * n1 * (1 - 1e-12) <= n2 <= hi * n1 * (1 + 1e-12)

    def test_annulus_functions_finite_for_all_gammas(self):
        f = make_s0_function(4.0, 0.25)
        for gamma in np.linspace(-3.0, 3.0, 13):
            assert np.isfinite(hhat_norms(f, float(gamma), "homogeneous"))

    def test_divergent_homogeneous_rejected(self):
        f = gaussian_bump(0.0, 1.0)
        with pytest.raises(ValueError, match="diverges"):
            hhat_norms(f, -0.5, "homogeneous")

    def test_unknown_variant(self):
        f = gaussian_bump(0.0, 1.0)
        with pytest.raises(ValueError, match="variant"):
            hhat_norms(f, 0.0, "weighted")


class TestRealness:
    def test_complex_center_pair_real_result(self):
        f = gaussian_bump(0.4, 1.0)
        g = gaussian_bump(-0.2, 0.7)
        val = massive_limit_covariance(f, g, 1.0, 1.0)
        assert isinstance(val, float)
        # cross-check symmetry f <-> g (a real bilinear form)
        assert val == pytest.approx(massive_limit_covariance(g, f, 1.0, 1.0), rel=1e-12)

    def test_imaginary_parts_cancel_over_full_line(self):
        # the half-line reduction drops Im by Hermitian symmetry; summing the
        # raw complex integrand over both half lines must agree
        f = gaussian_bump(0.4, 1.0)
        g = gaussian_bump(-0.2, 0.7)
        r, w = gauss_legendre(0.0, min(f.xi_cut, g.xi_cut), 2048)
        xi = np.concatenate([-r[::-1], r])
        wts = np.concatenate([w[::-1], w])
        integrand = f.fhat(xi) * np.conj(g.fhat(xi)) / (xi * xi + 1.0)
        total = np.sum(wts * integrand)
        assert abs(total.imag) < 1e-12 * abs(total.real)
        half = massive_limit_covariance(f, g, 1.0, 1.0, sigma=math.sqrt(2.0))
        assert half == pytest.approx(float(total.real), rel=1e-10)
