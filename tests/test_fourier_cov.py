import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from gfflab.fourier_cov import (
    PHASE_MAX,
    TestFunction,
    _angular_average,
    _pair_integral,
    _radial_spectrum,
    gaussian_bump,
    gff_covariance,
    heat_pairing,
    make_s0_function,
    massive_limit_covariance,
    ou_decay,
    ou_variance,
    surface_measure,
    transient_covariance,
    two_sided_covariance,
)
from gfflab.experiments import FOURIER_LIMITS_EPS_RANGE, _massive_physical_oracle
from gfflab.greens import potential_zero_mass
from gfflab.quadrature import composite_legendre, gauss_legendre, tensor_grid


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name, make",
        [
            ("center", lambda v: gaussian_bump(v, 0.8)),
            ("center", lambda v: gaussian_bump([0.0, v], 0.8, d=2)),
            ("width", lambda v: gaussian_bump(0.3, v)),
            ("freq", lambda v: make_s0_function(v, 0.25)),
            ("width", lambda v: make_s0_function(4.0, v)),
        ],
        ids=["bump_center", "bump_center_2d", "bump_width", "s0_freq", "s0_width"],
    )
    def test_non_finite_arguments_rejected(self, name, make, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            make(value)

    def test_narrow_annulus_rejected(self):
        with pytest.raises(ValueError, match="floor"):
            make_s0_function(1.0, 0.5)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError, match="^freq must be positive, got -1.0$"):
            make_s0_function(-1.0, 0.25)

    def test_bump_width_and_centre_dimension_checked(self):
        with pytest.raises(ValueError, match="width must be positive"):
            gaussian_bump(0.0, 0.0)
        with pytest.raises(ValueError, match="center has dimension 2, expected 3"):
            gaussian_bump((0.0, 0.0), 1.0, d=3)

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
            d=1, profile=combo,
            xi_floor=min(f1.xi_floor, f2.xi_floor),
            xi_cut=max(f1.xi_cut, f2.xi_cut), center=None,
        )
        lhs = gff_covariance(fc, g)
        rhs = 2.0 * gff_covariance(f1, g) - 0.7 * gff_covariance(f2, g)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_radial_reduction_against_tensor_grid(self):
        # the 256^2 tensor Gauss-Legendre grid of [-cut, cut]^2, which has no
        # node at the origin, summed here apart from the pairing
        f = make_s0_function(4.0, 0.25, d=2)
        xi, w = tensor_grid([gauss_legendre(-f.xi_cut, f.xi_cut, 256)] * 2)
        tensor = math.fsum(w * np.abs(f.fhat(xi)) ** 2 / (xi**2).sum(axis=1))
        assert gff_covariance(f, f) == pytest.approx(tensor, abs=1e-8)

    def test_radial_rule_is_64_panels_of_16(self):
        f = make_s0_function(4.0, 0.25)
        g = make_s0_function(5.0, 0.3)
        r, w = composite_legendre(2.5, 7.0, 64, 16)
        integrand = f.fhat_radial(r) * g.fhat_radial(r) * (1.0 / (r * r)) * r**0
        assert gff_covariance(f, g) == surface_measure(1) * math.fsum(w * integrand)

    def test_pair_across_dimensions_rejected(self):
        with pytest.raises(ValueError, match="different dimensions"):
            gff_covariance(make_s0_function(4.0, 0.25), make_s0_function(4.0, 0.25, d=2))

    def test_shifted_pair_in_d3(self):
        # two unit bumps D apart: 4 pi . pi / (2 D) erf(D / 2), from the
        # integral of exp(-r^2) sin(D r) / r over r > 0
        f = gaussian_bump((0.0, 0.0, 0.0), 1.0, d=3)
        for distance in (0.5, 2.0):
            g = gaussian_bump((0.48 * distance, -0.64 * distance, 0.6 * distance), 1.0, d=3)
            want = 4.0 * math.pi * math.pi / (2.0 * distance) * math.erf(distance / 2.0)
            assert gff_covariance(f, g) == pytest.approx(want, rel=1e-14), distance

    def test_shifted_pair_in_d4_rejected(self):
        f = gaussian_bump(np.zeros(4), 1.0, d=4)
        g = gaussian_bump((1.0, 0.0, 0.0, 0.0), 1.0, d=4)
        with pytest.raises(ValueError, match="^shifted pairs are supported only for d <= 3, got d = 4$"):
            gff_covariance(f, g)

    def test_subtracted_shifted_pair_in_d2_rejected(self):
        f = gaussian_bump((0.0, 0.0), 1.0, d=2)
        g = gaussian_bump((1.0, 0.0), 1.0, d=2)
        with pytest.raises(ValueError, match="^subtracted pairs off the origin are supported only in d = 1$"):
            _pair_integral(f, g, lambda q: 1.0 / q, (1.0, 1.0))

    def test_surface_measures(self):
        assert surface_measure(1) == pytest.approx(2.0, rel=1e-14)
        assert surface_measure(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert surface_measure(3) == pytest.approx(4.0 * math.pi, rel=1e-14)

    def test_surface_measure_dimension_recursion(self):
        # |S^(d+1)| = 2 pi |S^(d-1)| / d ties every dimension to d = 1 and d = 2
        for d in range(1, 7):
            assert surface_measure(d + 2) == pytest.approx(2.0 * math.pi * surface_measure(d) / d, rel=1e-14)


class TestSpectrumMasses:
    """The masses of the radial spectrum against Parseval: the centred bump
    of width w has the integral pi^(d/2) w^d of fhat^2 over R^d. The sums
    are formed here, apart from the pairing."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_radial_spectrum(self, d):
        for width in (0.7, 1.0, 2.0):
            f = gaussian_bump(np.zeros(d), width, d)
            r, (q, mass) = _radial_spectrum(d, 0.0, f.xi_cut)
            assert np.array_equal(q, r * r)
            total = float(np.sum(mass * f.fhat_radial(r) ** 2))
            assert total == pytest.approx(math.pi ** (d / 2) * width**d, rel=1e-14), width

    def test_radial_mass_in_d1_is_twice_the_weight(self):
        r, (_, mass) = _radial_spectrum(1, 2.0, 7.0)
        assert np.array_equal(mass, 2.0 * composite_legendre(2.0, 7.0, 64, 16)[1])


class TestTwoSidedCovariance:
    def test_equals_gff_covariance_for_a_mean_zero_pair(self):
        # fhat(0) = 0 on both sides: no subtraction, no cross term, no tail
        f = make_s0_function(4.0, 0.25)
        g = make_s0_function(5.0, 0.6)
        assert f.xi_cut != g.xi_cut
        assert two_sided_covariance(f, g) == gff_covariance(f, g)
        assert two_sided_covariance(g, f) == gff_covariance(g, f)

    def test_phase_past_the_bound_is_named(self):
        # a unit bump (xi_cut = 12) at a = PHASE_MAX / 12 = 100 against itself:
        # 2 pi E|N(a, 1)| - 2 sqrt(pi) from min(|x|, |y|) on each side of 0
        f = gaussian_bump(PHASE_MAX / 12.0)
        assert two_sided_covariance(f, f) == pytest.approx(200.0 * math.pi - 2.0 * math.sqrt(math.pi), rel=1e-14)
        # the product fhat conj(ghat) carries the difference of the centres,
        # so bumps at +-a/2 reach as far as two at a
        far = PHASE_MAX / 12.0 + 0.01
        for a, b in [(far, far), (0.0, far), (0.5 * far, -0.5 * far)]:
            with pytest.raises(ValueError, match="^centres too far apart for the radial rule"):
                two_sided_covariance(gaussian_bump(a), gaussian_bump(b))

    def test_cross_term_past_the_bound_is_named(self):
        # a width-0.1 bump g at c runs the cross term on its own rule up to
        # its cut 120: at c = 10 the pair meets the closed form within 2.2e-15
        # relative (measured), at c = 30 the rule lost the phase (1.2e-5 off)
        # and the pair is refused. With g wholly right of the unit bump f,
        # E W[f] W[g] = int |x| f int g / 2 = width sqrt(2 pi).
        f, width = gaussian_bump(0.0), 0.1
        near, far = gaussian_bump(10.0, width), gaussian_bump(30.0, width)
        assert two_sided_covariance(f, near) == pytest.approx(width * math.sqrt(2.0 * math.pi), rel=1e-14)
        with pytest.raises(ValueError, match="^centres too far apart for the radial rule"):
            two_sided_covariance(f, far)


class TestTransientCovariance:
    def test_zero_time_zero_start(self):
        f = make_s0_function(4.0, 0.25)
        assert transient_covariance(f, f, 0.0, 1.0, 1.0) == 0.0

    def test_limit_reaches_free_field(self):
        f = make_s0_function(4.0, 0.25)
        t_star = 40.0 / (1.0 * (4.0 / 2.0) ** 2)
        limit = 0.5 * gff_covariance(f, f)
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

    def test_zero_diffusivity_rejected(self):
        f = make_s0_function(4.0, 0.25)
        with pytest.raises(ValueError, match="nu must be positive, got 0.0"):
            transient_covariance(f, f, 1.0, 0.0, 1.0)


class TestLawArguments:
    """One named error per bad argument of the law, before any quadrature."""

    f = make_s0_function(4.0, 0.25)
    calls = {
        "transient": lambda f, t=1.0, nu=1.0, sigma=1.0: transient_covariance(f, f, t, nu, sigma),
        "heat_pairing": lambda f, t=1.0, nu=1.0: heat_pairing(f, f, t, nu),
        "massive": lambda f, nu=1.0, eps=1.0, sigma=1.0: massive_limit_covariance(f, f, nu, eps, sigma),
    }

    @pytest.mark.parametrize(
        "call, name, value, message",
        [
            ("transient", "t", -1.0, "t must be non-negative, got -1.0"),
            ("transient", "t", math.nan, "t must be non-negative, got nan"),
            ("transient", "nu", -1.0, "nu must be positive, got -1.0"),
            ("transient", "nu", math.nan, "nu must be finite, got nan"),
            ("transient", "nu", math.inf, "nu must be finite, got inf"),
            ("transient", "sigma", math.nan, "sigma must be finite, got nan"),
            ("heat_pairing", "t", -1.0, "t must be non-negative, got -1.0"),
            ("heat_pairing", "t", math.nan, "t must be non-negative, got nan"),
            ("heat_pairing", "nu", 0.0, "nu must be positive, got 0.0"),
            ("heat_pairing", "nu", math.nan, "nu must be finite, got nan"),
            ("massive", "nu", math.nan, "nu must be finite, got nan"),
            ("massive", "eps", -1.0, "eps must be positive, got -1.0"),
            ("massive", "eps", math.nan, "eps must be finite, got nan"),
            ("massive", "sigma", math.inf, "sigma must be finite, got inf"),
        ],
    )
    def test_bad_argument_is_named(self, call, name, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            self.calls[call](self.f, **{name: value})

    def test_infinite_time_is_the_stationary_law(self):
        stationary = transient_covariance(self.f, self.f, math.inf, 2.0, 3.0)
        assert stationary == pytest.approx(9.0 / 4.0 * gff_covariance(self.f, self.f), rel=1e-15)
        assert heat_pairing(self.f, self.f, math.inf, 1.0) == 0.0


class TestOuLaw:
    def test_halving_time_plugin(self):
        var = ou_variance(1.0, 1.0, 1.0, math.log(2.0) / 2.0)
        assert var == pytest.approx(0.25, rel=1e-15)

    def test_saturation_is_exact(self):
        assert ou_variance(1.0, 1.0, 1.0, 60.0) == 0.5
        assert ou_decay(1.0, 1.0, 60.0) == pytest.approx(0.0, abs=1e-25)

    def test_infinite_time_is_the_stationary_variance(self):
        for q, nu, sigma in [(1.0, 1.0, 1.0), (4.0, 0.7, 1.3), (np.pi**2 * 7.0, 0.3, 1.7), (1e-3, 4.0, 3.0)]:
            assert ou_variance(q, nu, sigma, math.inf) == sigma**2 / (2.0 * nu * q)

    def test_zero_time_is_the_start(self):
        q = np.array([1e-3, 1.0, 1e6])
        assert np.array_equal(ou_decay(q, 0.7, 0.0), [1.0, 1.0, 1.0])
        assert np.array_equal(ou_variance(q, 0.7, 1.3, 0.0), [0.0, 0.0, 0.0])

    def test_composition_matches_closed_form(self):
        q, nu, sigma = 4.0, 0.7, 1.3
        parts = [0.1, 0.25, 0.4, 0.05, 0.7, 0.3, 0.2]
        var = 0.0
        for dt in parts:
            d, s = ou_decay(q, nu, dt), ou_variance(q, nu, sigma, dt)
            var = var * d * d + s
        direct = ou_variance(q, nu, sigma, sum(parts))
        assert var == pytest.approx(direct, rel=1e-14)

    def test_decay_composition(self):
        q = np.array([1.0, 9.8696, 400.0])
        total = np.ones(3)
        for dt in (0.17, 0.03, 0.8):
            total *= ou_decay(q, 1.0, dt)
        direct = ou_decay(q, 1.0, 1.0)
        assert np.allclose(total, direct, rtol=1e-13)

    def test_zero_frequency_is_brownian(self):
        # sigma times a Brownian motion: variance sigma^2 t, with no warning,
        # and every other frequency keeps its bits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ou_variance(0.0, 1.0, 1.0, 2.0) == 2.0
            var = ou_variance(np.array([0.0, 4.0]), 0.7, 1.3, 0.3)
            assert ou_variance(0.0, 0.7, 1.3, 0.0) == 0.0
        assert var[0] == 1.3**2 * 0.3
        assert var[1] == ou_variance(4.0, 0.7, 1.3, 0.3)

    def test_zero_frequency_has_no_stationary_law(self):
        with pytest.raises(ValueError, match="^the law at q = 0 has no stationary variance"):
            ou_variance(np.array([0.0, 1.0]), 1.0, 1.0, math.inf)

    def test_overflowing_rate_keeps_the_stationary_variance(self):
        # 2 nu q = 3.3e308 overflows for the last mode, whose variance read 0
        q = np.array([1.0, 1.66e8])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decay = ou_decay(q, 1e300, 5.0)
            var = ou_variance(q, 1e300, 1e100, 5.0)
        assert np.array_equal(decay, [0.0, 0.0])
        assert var[1] == 1e200 / 2e300 / 1.66e8
        assert ou_variance(1.66e8, 1e300, 1e100, 5.0) == var[1]  # a scalar q too
        # bit for bit the closed form wherever 2 nu q is finite
        assert var[0] == 1e200 * (-np.expm1(-2e300 * 5.0)) / 2e300
        closed = 1.3**2 * (-np.expm1(-2.0 * 0.7 * 4.0 * 0.3)) / (2.0 * 0.7 * 4.0)
        assert ou_variance(4.0, 0.7, 1.3, 0.3) == closed


def bump_transient_variance(d, width, nu, sigma, t):
    """Var u_t(f) from a zero start for the centred Gaussian bump of the given
    width on R^d, in closed form: with a = width^2, b = 2 t nu and
    alpha = (d - 2) / 2, sigma^2 / (2 nu) S_d width^(2 d) times
    Gamma(alpha) (a^-alpha - (a + b)^-alpha) / 2, or log1p(b / a) / 2 at
    d = 2. It takes neither the law nor the pair rule of fourier_cov."""
    a, b = width * width, 2.0 * t * nu
    alpha = (d - 2) / 2
    if d == 2:
        radial = 0.5 * math.log1p(b / a)
    else:
        radial = 0.5 * math.gamma(alpha) * (a**-alpha - (a + b) ** -alpha)
    sphere = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[d]
    return sigma**2 / (2.0 * nu) * sphere * width ** (2 * d) * radial


class TestTransientAgainstClosedForm:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gaussian_bump(self, d):
        # measured worst relerr 9.7e-15 (d = 3, t nu = 0.01)
        for width in (0.7, 1.0, 2.0):
            f = gaussian_bump(np.zeros(d), width, d)
            for nu in (0.3, 1.0, 4.0):
                for t_nu in (0.01, 0.1, 1.0, 10.0, 100.0):
                    got = transient_covariance(f, f, t_nu / nu, nu, 1.7)
                    want = bump_transient_variance(d, width, nu, 1.7, t_nu / nu)
                    assert got == pytest.approx(want, rel=2e-14), (width, nu, t_nu)

    def test_stationary_gaussian_bump_in_d3(self):
        # t = inf is the free-field covariance, finite for the bump in d = 3;
        # measured worst relerr 2.2e-16
        for width in (0.7, 1.0, 2.0):
            f = gaussian_bump(np.zeros(3), width, 3)
            for nu in (0.3, 1.0, 4.0):
                got = transient_covariance(f, f, math.inf, nu, 1.7)
                want = bump_transient_variance(3, width, nu, 1.7, math.inf)
                assert got == pytest.approx(want, rel=2e-14), (width, nu)

    @pytest.mark.xfail(
        strict=True,
        reason="the uniform radial rule cannot resolve the weight's 1/sqrt(2 t nu) "
        "scale at large t (relerr 1.0e-4); ROADMAP item 4, the graded rule",
    )
    def test_gaussian_bump_at_large_time(self):
        f = gaussian_bump(0.0, 1.0)
        got = transient_covariance(f, f, 1e4, 1.0, 1.7)
        assert got == pytest.approx(bump_transient_variance(1, 1.0, 1.0, 1.7, 1e4), rel=2e-14)


def shifted_bumps_transient_covariance(width, distance, nu, sigma, t):
    """Cov(u_t(f), u_t(g)) from a zero start for two Gaussian bumps of one
    width a distance apart in d = 2, in closed form:
    sigma^2 width^4 pi / (2 nu) [E1(D^2 / (4 (width^2 + 2 t nu))) - E1(D^2 / (4 width^2))],
    from the integral of (exp(-a r^2) - exp(-b r^2)) J0(D r) / r over r > 0."""
    quarter = distance * distance / 4.0
    gap = mpmath.e1(quarter / (width * width + 2.0 * t * nu)) - mpmath.e1(quarter / (width * width))
    return float(sigma**2 * width**4 * mpmath.pi / (2.0 * nu) * gap)


class TestShiftedPairIn2d:
    """Shifted pairs in d = 2 run on the radial rule, ghat times the angular
    average J0(r |Delta|) of the phase."""

    def test_transient_against_closed_form(self):
        # measured worst relerr 2.2e-14 (width 0.7, t nu <= 3)
        for width in (0.7, 1.0, 1.5):
            f = gaussian_bump((0.0, 0.0), width, d=2)
            for distance in (0.5, 1.0, 2.0, 3.0):
                g = gaussian_bump((0.6 * distance, -0.8 * distance), width, d=2)
                for nu in (0.5, 2.0):
                    for t_nu in (0.01, 0.1, 1.0, 3.0):
                        got = transient_covariance(f, g, t_nu / nu, nu, 1.3)
                        want = shifted_bumps_transient_covariance(width, distance, nu, 1.3, t_nu / nu)
                        assert got == pytest.approx(want, rel=5e-14), (width, distance, nu, t_nu)

    @pytest.mark.parametrize(
        "t_nu",
        [
            10.0,
            100.0,
            pytest.param(1e4, marks=pytest.mark.xfail(
                strict=True,
                reason="the uniform radial rule cannot resolve the weight's 1/sqrt(2 t nu) "
                "scale at large t (relerr 8.5e-4); ROADMAP item 4, the graded rule",
            )),
        ],
    )
    def test_transient_at_larger_time(self, t_nu):
        # measured relerr 2.2e-16 at t nu = 10, 3.3e-16 at 100
        f = gaussian_bump((0.0, 0.0), 0.7, d=2)
        g = gaussian_bump((1.8, -2.4), 0.7, d=2)
        got = transient_covariance(f, g, t_nu, 1.0, 1.3)
        assert got == pytest.approx(shifted_bumps_transient_covariance(0.7, 3.0, 1.0, 1.3, t_nu), rel=5e-14)


class TestShiftedHeatPairing:
    """heat_pairing of two bumps of width w a distance D apart in R^d is
    w^(2d) (pi / a)^(d/2) exp(-D^2 / (4 a)) with a = w^2 + t nu, the
    Gaussian integral of exp(-a |xi|^2 - i xi.Delta)."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_against_closed_form(self, d):
        # the unit vectors of the shifts; measured worst absolute error 1.8e-15
        unit = {1: (1.0,), 2: (0.6, -0.8), 3: (0.48, -0.64, 0.6)}[d]
        start = np.full(d, 0.5)
        for width in (0.7, 1.5):
            phi = gaussian_bump(start, width, d)
            for distance in (1.0, 3.0, 6.0):
                f = gaussian_bump(start + distance * np.array(unit), width, d)
                for t_nu in (0.0, 1.0):
                    a = width * width + t_nu
                    want = width ** (2 * d) * (math.pi / a) ** (d / 2) * math.exp(-distance**2 / (4.0 * a))
                    got = heat_pairing(phi, f, t_nu / 2.0, 2.0)
                    assert got == pytest.approx(want, rel=0, abs=1e-14 * width ** (2 * d)), (width, distance, t_nu)


    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_phase_past_the_bound_is_named(self, d):
        # unit bumps (xi_cut = 12) at xi_cut * distance = PHASE_MAX pair within
        # 1.7e-14 of pi^(d/2) exp(-D^2 / 4) = 0 (measured); further apart the
        # rule loses the phase (1e-10 at 1600 in d = 1) and the pair is refused
        f = gaussian_bump(np.zeros(d), 1.0, d)
        at, past = (gaussian_bump(np.eye(d)[-1] * x / 12.0, 1.0, d) for x in (PHASE_MAX, PHASE_MAX + 0.1))
        assert abs(heat_pairing(f, at, 0.0, 1.0)) < 5e-14
        with pytest.raises(ValueError, match="^centres too far apart for the radial rule"):
            heat_pairing(f, past, 0.0, 1.0)


class TestAngularAverage:
    """The mean of cos(x u_1) over the unit sphere of R^d against its closed
    forms in mpmath: cos x, J0(x) and sin x / x."""

    @pytest.mark.parametrize(
        "d, oracle",
        [(1, mpmath.cos), (2, lambda x: mpmath.besselj(0, x)), (3, mpmath.sinc)],
        ids=["cos", "j0", "sinc"],
    )
    def test_against_closed_forms(self, d, oracle):
        # measured worst absolute error 3.3e-15 (J0)
        x = np.linspace(0.0, 500.0, 1001)
        want = np.array([float(oracle(v)) for v in x])
        assert np.max(np.abs(_angular_average(d, x) - want)) < 1e-14

    def test_memory_stays_linear_in_the_arguments(self):
        # 1e4 + 64 nodes of the J0 rule, one at a time: measured peak 0.23 MB,
        # where an outer product of the nodes and arguments would take 80 MB
        x = np.linspace(0.0, 1e4, 1024)
        tracemalloc.start()
        try:
            _angular_average(2, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def bump_massive_variance(d, width, nu, sigma, eps):
    """Stationary variance of the massive law tested against the centred
    Gaussian bump of the given width on R^d, d = 1 or 3, in closed form:
    with a = width^2 and T = pi / (2 sqrt(eps)) exp(a eps) erfc(sqrt(a eps)),
    the integral of exp(-a r^2) / (r^2 + eps) over r > 0, the radial factor
    is T in d = 1 and sqrt(pi / a) / 2 - eps T in d = 3."""
    a = width * width
    tail = math.pi / (2.0 * math.sqrt(eps)) * math.exp(a * eps) * math.erfc(math.sqrt(a * eps))
    radial = tail if d == 1 else 0.5 * math.sqrt(math.pi / a) - eps * tail
    sphere = {1: 2.0, 3: 4.0 * math.pi}[d]
    return sigma**2 / (2.0 * nu) * sphere * width ** (2 * d) * radial


class TestMassiveAgainstClosedForm:
    @pytest.mark.parametrize("d", [1, 3])
    def test_gaussian_bump(self, d):
        # measured worst relerr 4.2e-13 (d = 1, width 0.7, eps = 0.01), where
        # the weight's peak has width sqrt(eps) = 0.1
        for width in (0.7, 1.0, 2.0):
            f = gaussian_bump(np.zeros(d), width, d)
            for nu in (0.3, 1.0, 4.0):
                for eps in (0.01, 0.1, 1.0, 4.0):
                    got = massive_limit_covariance(f, f, nu, eps, 1.7)
                    want = bump_massive_variance(d, width, nu, 1.7, eps)
                    assert got == pytest.approx(want, rel=1e-12), (width, nu, eps)


def mp_massive_bump(width, nu, eps, sigma=1.0):
    """The closed form of experiments._massive_physical_oracle in mpmath at
    40 digits, sigma^2 pi width^2 / (2 nu sqrt(eps)) exp(width^2 eps)
    erfc(width sqrt(eps)), rounded to a float."""
    with mpmath.workdps(40):
        w, nu, eps, sigma = (mpmath.mpf(float(v)) for v in (width, nu, eps, sigma))
        root = mpmath.sqrt(eps)
        value = sigma**2 * mpmath.pi * w**2 / (2 * nu * root) * mpmath.exp(w * w * eps) * mpmath.erfc(w * root)
        return float(value)


class TestMassiveLimit:
    def test_against_physical_space_oracle_1d(self):
        fg = gaussian_bump(0.3, 0.8)
        value = massive_limit_covariance(fg, fg, 1.0, 1.0, 1.0)
        assert value == pytest.approx(_massive_physical_oracle(0.8, 1.0, 1.0, 1.0), rel=1e-13)

    def test_large_mass_decay(self):
        f = gaussian_bump(0.0, 1.0)
        v1 = massive_limit_covariance(f, f, 1.0, 100.0)
        v2 = massive_limit_covariance(f, f, 1.0, 1000.0)
        assert v2 < v1
        assert v2 == pytest.approx(0.1 * v1, rel=0.1)  # ~ 1/eps decay

    def test_massless_limit_on_annulus_functions(self):
        f = make_s0_function(4.0, 0.25)
        limit = 0.5 * gff_covariance(f, f)
        val = massive_limit_covariance(f, f, 1.0, 1e-8)
        assert abs(val - limit) < 1e-4

    def test_nonpositive_mass_rejected(self):
        f = gaussian_bump(0.0, 1.0)
        with pytest.raises(ValueError, match="eps"):
            massive_limit_covariance(f, f, 1.0, 0.0)

    def test_zero_diffusivity_rejected(self):
        f = gaussian_bump(0.0, 1.0)
        with pytest.raises(ValueError, match="nu must be positive, got 0.0"):
            massive_limit_covariance(f, f, 0.0, 1.0)

    @staticmethod
    def massive_vs_physical_relerr(eps, nu=1.0):
        """The relerr of fourier_limits' massive_vs_physical row."""
        fg = gaussian_bump(0.3, 0.8)
        oracle = _massive_physical_oracle(0.8, nu, eps, 1.0)
        return abs(massive_limit_covariance(fg, fg, nu, eps) - oracle) / oracle

    @pytest.mark.parametrize(
        "nu, sigma",
        # and both ends of FIELD_SCALE_RANGE, where exp(width^2 eps) = 1e278 at
        # eps = 1e3 times the scale would overflow before erfc brought it back
        [(1e-3, 1.0), (1.0, 1.0), (1e3, 1.0), (5.1e-51, 1e100), (4.9e49, 1e-100)],
    )
    def test_oracle_matches_mpmath_across_the_eps_range(self, nu, sigma):
        # measured worst relerr 3.6e-14
        for eps in np.geomspace(*FOURIER_LIMITS_EPS_RANGE, 13):
            want = mp_massive_bump(0.8, nu, eps, sigma)
            assert _massive_physical_oracle(0.8, nu, eps, sigma) == pytest.approx(want, rel=1e-13), eps

    @pytest.mark.parametrize("nu", [1e-3, 1.0, 1e3])
    def test_rule_meets_the_default_tolerance_across_the_eps_range(self, nu):
        for eps in np.geomspace(*FOURIER_LIMITS_EPS_RANGE, 13):
            assert self.massive_vs_physical_relerr(eps, nu) < 1e-7, (nu, eps)

    @pytest.mark.parametrize("eps", [1e-4, 1e4])
    def test_rule_misses_the_default_tolerance_past_the_eps_range(self, eps):
        # below the range the radial rule itself misses: against mpmath its
        # relerr is first above 1e-6 at eps = 5.6e-4, and 2.9e-5 at 1e-4.
        # Above it the rule matches mpmath to 1.3e-16 at 1e4, and the range
        # ends where exp(width^2 eps) of the closed form overflows (eps = 1109)
        lo, hi = FOURIER_LIMITS_EPS_RANGE
        assert not lo <= eps <= hi
        fg = gaussian_bump(0.3, 0.8)
        want = mp_massive_bump(0.8, 1.0, eps)
        relerr = abs(massive_limit_covariance(fg, fg, 1.0, eps) - want) / want
        if eps < lo:
            assert relerr > 1e-6
        else:
            assert relerr < 1e-14
            with pytest.raises(OverflowError):
                _massive_physical_oracle(0.8, 1.0, eps, 1.0)


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
