import math

import numpy as np
import pytest

from gfflab import dynamics
from gfflab.basis import build_box_basis, build_hermite_basis, build_interval_basis
from gfflab.dynamics import (
    MC_BLOCK,
    em_oracle_step,
    kakutani_statistic,
    sample_functional_values,
    sample_gaussian,
)
from gfflab.cli import ExperimentConfig
from gfflab.experiments import _stationary_reports, standard_functionals
from gfflab.fields import RngStream, sample_gff
from gfflab.fourier_cov import Spectrum, ou_decay, ou_variance, pairing
from gfflab.stats import ks_gaussian, kolmogorov_sf, report_from_values, summarize_convergence


def one_generator_sample_gaussian(mean, cov, n_samples, stream):
    """sample_gaussian without its tiles: all n_samples rows of normals in
    one draw from the stream's generator and one product with the factor,
    the oracle of the bit-identity test; also returns the BLAS product."""
    evals, evecs = np.linalg.eigh(np.asarray(cov, dtype=float))
    floor = evals.size * np.finfo(float).eps * evals.max(initial=0.0)
    factor = evecs * np.sqrt(np.where(evals > floor, evals, 0.0))
    z = stream.generator().standard_normal((n_samples, evals.size))
    return mean + np.einsum("ij,kj->ik", z, factor), mean + z @ factor.T


@pytest.fixture()
def single_mode():
    return build_interval_basis("dirichlet", 0.0, math.pi, 1)  # lambda = pi/L = 1


class TestExactStep:
    def test_rejects_constant_mode(self):
        basis = build_interval_basis("neumann", 0.0, 1.0, 4)
        with pytest.raises(ValueError, match="lambda_1 > 0"):
            sample_functional_values(basis, 1.0, 1.0, None, 0.1, 100, np.eye(4), RngStream(30, (0,)))

    def test_moments_after_one_step(self, single_mode):
        n = 100000
        stream = RngStream(31, (0,))
        vals = sample_functional_values(
            single_mode, 1.0, 1.0, np.array([1.0]), 1.0, n, np.array([[1.0]]), stream
        )[:, 0]
        mean_target = math.exp(-1.0)
        var_target = 0.5 * (1.0 - math.exp(-2.0))
        assert vals.mean() == pytest.approx(mean_target, abs=3.0 * vals.std(ddof=1) / math.sqrt(n))
        assert vals.var(ddof=1) == pytest.approx(var_target, abs=3.0 * var_target * math.sqrt(2.0 / n))

    def test_against_euler_maruyama_oracle(self, em_moments, em_ensemble):
        # The Euler-Maruyama chain's mean and variance follow exact
        # recursions, so its weak error is checked without sampling noise:
        # the gaps to the exact transition halve with dt (weak order 1, the
        # ratio tends to 2) and Richardson extrapolation leaves O(dt^2).
        decay, var = ou_decay(1.0, 1.0, 1.0), ou_variance(1.0, 1.0, 1.0, 1.0)
        exact = np.array([decay, var])
        dts = [1e-2 / 2**j for j in range(6)]
        gaps = np.array([np.subtract(em_moments(dt), exact) for dt in dts])
        ratios = gaps[:-1] / gaps[1:]
        assert np.all(np.abs(ratios - 2.0) < np.array(dts[:-1])[:, None])
        assert np.all(np.diff(np.abs(ratios - 2.0), axis=0) < 0.0)
        rich = np.array([2.0 * np.array(em_moments(dt / 2)) - em_moments(dt) for dt in dts])
        assert np.all(np.abs(rich - exact) < 0.5 * (np.array(dts)[:, None] / 2) ** 2)
        # Talay-Tubaro: (1 - dt)^(1/dt) = e^-1 (1 - dt/2 - 5 dt^2/24 + ...),
        # so the extrapolated mean is off by e^-1 (5/12) (dt/2)^2
        assert (rich[-1, 0] - decay) / (dts[-1] / 2) ** 2 == pytest.approx(
            math.exp(-1.0) * 5.0 / 12.0, rel=1e-2
        )
        # the stepper itself: an ensemble of n paths at dt = 1e-2 against the
        # recursion's moments at that dt, 3 sigma bands
        n, dt = 100000, 1e-2
        u = em_ensemble(n, dt, 1.0, RngStream(32, (0,)))
        mean, var = em_moments(dt)
        assert u.mean() == pytest.approx(mean, abs=3.0 * math.sqrt(var / n))
        assert u.var(ddof=1) == pytest.approx(var, abs=3.0 * var * math.sqrt(2.0 / n))


class TestEmOracle:
    def test_drift_only_error_is_first_order(self, single_mode, rng):
        errs = []
        for dt in (0.02, 0.01, 0.005):
            u = np.array([1.0])
            steps = int(round(1.0 / dt))
            for _ in range(steps):
                u = em_oracle_step(u, single_mode.lambdas_squared, 1.0, 0.0, dt, rng)
            errs.append(abs(u[0] - math.exp(-1.0)))
        # halving dt roughly halves the deterministic error
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.2)

    def test_stability_guard(self, dirichlet16, rng):
        with pytest.raises(ValueError, match="unstable"):
            em_oracle_step(np.zeros(16), dirichlet16.lambdas_squared, 1.0, 1.0, 1.0, rng)
        # unsorted input: nu lam2 dt is 1.0 at the first mode, 0.01 at the last
        with pytest.raises(ValueError, match="unstable"):
            em_oracle_step(np.zeros(2), np.array([100.0, 1.0]), 1.0, 1.0, 0.01, rng)

    def test_input_validation(self, dirichlet16, rng):
        lam2 = dirichlet16.lambdas_squared
        with pytest.raises(ValueError, match="coefficients"):
            em_oracle_step(np.zeros(4), lam2, 1.0, 1.0, 1e-4, rng)
        with pytest.raises(ValueError, match="coefficients"):
            em_oracle_step(np.zeros((2, 16)), lam2, 1.0, 1.0, 1e-4, rng)
        for nu, sigma in ((0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (1.0, -1.0)):
            with pytest.raises(ValueError, match="nu > 0 and sigma >= 0"):
                em_oracle_step(np.zeros(16), lam2, nu, sigma, 1e-4, rng)
        for dt in (0.0, -1e-4, math.nan):
            with pytest.raises(ValueError, match="step size must be positive"):
                em_oracle_step(np.zeros(16), lam2, 1.0, 1.0, dt, rng)

    def test_returns_an_array_and_keeps_the_input(self, dirichlet16, rng):
        u = np.ones(16)
        out = em_oracle_step(u, dirichlet16.lambdas_squared, 1.0, 0.0, 1e-5, rng)
        assert isinstance(out, np.ndarray) and out.shape == (16,)
        assert np.array_equal(u, np.ones(16))
        assert np.array_equal(out, 1.0 - dirichlet16.lambdas_squared * 1e-5)

    def test_stationary_variance_recovered(self, em_moments, em_ensemble):
        # the chain's stationary variance solves v = (1 - dt)^2 v + dt
        n, dt, t_end = 20000, 1e-2, 8.0
        target = dt / (1.0 - (1.0 - dt) ** 2)
        assert em_moments(dt, t_end)[1] == pytest.approx(target, rel=1e-6)
        assert target == pytest.approx(0.5, abs=0.5 * dt)  # the SDE's 1/2 up to O(dt)
        u = em_ensemble(n, dt, t_end, RngStream(34, (0,)))
        assert u.var(ddof=1) == pytest.approx(target, abs=4.0 * target * math.sqrt(2.0 / n))


class TestEvolve:
    def test_deterministic_decay_curve(self, dirichlet16):
        # without noise the exact transition is the heat flow of the start
        phi = np.zeros(16)
        phi[0] = 1.0
        lam2 = dirichlet16.lambdas_squared[0]
        for t in [0.1, 0.3, 0.6, 1.0]:
            vals = sample_functional_values(
                dirichlet16, 1.0, 0.0, phi, t, 3, phi[:, None], RngStream(32, (0,))
            )
            assert np.allclose(vals, math.exp(-lam2 * t), rtol=1e-13, atol=0.0)

    def test_one_step_vs_two_steps_in_distribution(self, single_mode):
        n = 60000
        one = sample_functional_values(
            single_mode, 1.0, 1.0, np.array([1.0]), 1.0, n, np.array([[1.0]]), RngStream(35, (0,))
        )[:, 0]
        gen = RngStream(36, (0,)).generator()
        state = np.ones(n)
        for _ in range(2):
            d, v = ou_decay(1.0, 1.0, 0.5), ou_variance(1.0, 1.0, 1.0, 0.5)
            state = state * d + math.sqrt(v) * gen.standard_normal(n)
        se_mean = math.hypot(one.std(ddof=1), state.std(ddof=1)) / math.sqrt(n)
        assert one.mean() == pytest.approx(state.mean(), abs=3.0 * se_mean)
        var_se = math.sqrt(2.0 / n) * math.hypot(one.var(ddof=1), state.var(ddof=1))
        assert one.var(ddof=1) == pytest.approx(state.var(ddof=1), abs=3.0 * var_se)

    def test_second_moment_bound_on_truncation(self, dirichlet16):
        # E ||u(t)||^2 at level (1 - gamma) stays below the dissipation bound
        # phi-part: lam^(2-2g) e^(-2 lam^2 nu t) phi^2 <= phi^2 lam^(-2g)/(nu t)
        # noise-part: lam^(2-2g) var <= sigma^2/(2 nu) lam^(-2g)
        nu, sigma, gamma, t = 1.0, 1.0, 0.75, 0.3
        lam2 = dirichlet16.lambdas_squared
        phi = 1.0 / np.arange(1, 17)
        var = ou_variance(lam2, nu, sigma, t)
        second_moment = float(
            np.sum(lam2 ** (1 - gamma) * (np.exp(-2 * nu * lam2 * t) * phi**2 + var))
        )
        bound = float(np.sum(lam2**-gamma * phi**2)) / (nu * t) + sigma**2 / (2 * nu) * float(
            np.sum(lam2**-gamma)
        )
        assert second_moment <= bound


class TestStationary:
    # the invariant law is the free field scaled by sigma / sqrt(2 nu)

    def test_coefficient_variance(self, dirichlet16):
        gen = RngStream(38, (0,)).generator()
        n = 50000
        draws = 1.0 / math.sqrt(2.0) * sample_gff(dirichlet16, 1.0, gen, n=n)
        target = 0.5 / dirichlet16.lambdas_squared
        var = draws.var(axis=0, ddof=1)
        assert np.all(np.abs(var - target) < 4.0 * target * math.sqrt(2.0 / n))

    def test_moments_invariant_under_step(self, dirichlet16):
        gen = RngStream(39, (0,)).generator()
        n = 50000
        lam2 = dirichlet16.lambdas_squared
        scale = 1.0 / math.sqrt(2.0)
        start = scale * gen.standard_normal((n, 16)) / dirichlet16.lambdas
        d, v = ou_decay(lam2, 1.0, 0.37), ou_variance(lam2, 1.0, 1.0, 0.37)
        stepped = start * d + np.sqrt(v) * gen.standard_normal((n, 16))
        target = 0.5 / lam2
        var = stepped.var(axis=0, ddof=1)
        assert np.all(np.abs(var - target) < 4.0 * target * math.sqrt(2.0 / n))
        assert np.abs(stepped.mean(axis=0)).max() < 4.0 * math.sqrt(target.max() / n)

    def test_ks_stationarity_after_five_steps(self, dirichlet16):
        gen = RngStream(40, (0,)).generator()
        n = 5000
        lam2 = dirichlet16.lambdas_squared
        scale = 1.0 / math.sqrt(2.0)
        vals = scale * gen.standard_normal((n, 16)) / dirichlet16.lambdas
        for _ in range(5):
            d, v = ou_decay(lam2, 1.0, 0.2), ou_variance(lam2, 1.0, 1.0, 0.2)
            vals = vals * d + np.sqrt(v) * gen.standard_normal((n, 16))
        for k in (1, 8, 16):
            _, p = ks_gaussian(vals[:, k - 1], 0.0, 0.5 / lam2[k - 1])
            assert p > 1e-3

    def test_cross_mode_independence(self, dirichlet16):
        gen = RngStream(41, (0,)).generator()
        n = 20000
        draws = 1.0 / math.sqrt(2.0) * sample_gff(dirichlet16, 1.0, gen, n=n)
        corr = np.corrcoef(draws.T)
        off = corr - np.diag(np.diag(corr))
        assert np.abs(off).max() < 4.0 / math.sqrt(n)


def old_kakutani_statistic(basis, nu, t, n):
    """kakutani_statistic as written before it worked in place: the oracle
    of the bit-identity test."""
    q = np.exp(-2.0 * nu * basis.lambdas_squared[:n] * t)
    dev = q / (1.0 + np.sqrt(1.0 - q))
    return float(np.sum(dev * dev))


class TestKakutani:
    @pytest.mark.parametrize(
        "make, t",
        [
            (lambda: build_box_basis(3, 1.0, 100000), 0.1),
            (lambda: build_interval_basis("dirichlet", 0.0, 1.0, 100000), 1e-5),
            (lambda: build_hermite_basis(1, 200000), 0.01),
        ],
        ids=["box3", "dirichlet", "hermite1"],
    )
    def test_matches_the_old_formula_bit_for_bit(self, make, t):
        basis = make()
        for n in (1, 10, 100, 1000, 10000, basis.size):
            got = kakutani_statistic(basis, 1.7, t, n)
            assert got.hex() == old_kakutani_statistic(basis, 1.7, t, n).hex()
            assert got > 0.0

    def test_long_time_limit_vanishes(self, dirichlet16):
        assert kakutani_statistic(dirichlet16, 1.0, 50.0) == 0.0

    def test_partial_sums_converge_interval(self):
        basis = build_interval_basis("dirichlet", 0.0, 1.0, 10000)
        s3 = kakutani_statistic(basis, 1.0, 0.1, 1000)
        s4 = kakutani_statistic(basis, 1.0, 0.1, 10000)
        # oracle tail bound: terms fall like exp(-4 nu lam_k^2 t) / 4
        lam2 = basis.lambdas_squared[1000:]
        bound = float(np.sum(np.exp(-4.0 * 0.1 * lam2))) / 4.0 + 1e-300
        assert 0.0 <= s4 - s3 <= max(bound, 1e-12)
        assert s4 - s3 < 1e-12

    def test_partial_sums_converge_hermite(self):
        basis = build_hermite_basis(1, 10000)
        s3 = kakutani_statistic(basis, 1.0, 0.1, 1000)
        s4 = kakutani_statistic(basis, 1.0, 0.1, 10000)
        assert 0.0 <= s4 - s3 < 1e-6

    def test_finite_for_every_positive_time(self):
        for basis in (build_interval_basis("dirichlet", 0.0, 1.0, 5000), build_hermite_basis(1, 5000)):
            for t in (0.01, 0.1, 1.0):
                assert np.isfinite(kakutani_statistic(basis, 1.0, t))

    def test_nonpositive_time_rejected(self, dirichlet16):
        with pytest.raises(ValueError, match="positive"):
            kakutani_statistic(dirichlet16, 1.0, 0.0)

    @pytest.mark.parametrize(
        "nu, t, message",
        [(-1.0, 0.1, "nu must be positive, got -1.0"), (math.nan, 0.1, "nu must be finite, got nan"),
         (1.0, math.nan, "time must be finite, got nan"), (1.0, math.inf, "time must be finite, got inf")],
    )
    def test_bad_diffusivity_or_time_rejected(self, dirichlet16, nu, t, message):
        # the first three returned nan, and t = inf 0.0, without an error
        with pytest.raises(ValueError, match=message):
            kakutani_statistic(dirichlet16, nu, t)

    @pytest.mark.parametrize("terms", [0, 17])
    def test_terms_outside_the_basis_rejected(self, dirichlet16, terms):
        with pytest.raises(ValueError, match=r"terms must be in 1\.\.16"):
            kakutani_statistic(dirichlet16, 1.0, 0.1, terms)


class TestConvergenceCurve:
    def test_transient_mean_for_unit_mode_start(self, dirichlet16):
        phi = np.zeros(16)
        phi[0] = 0.7
        t = 0.05
        w = np.zeros((16, 1))
        w[0, 0] = 1.0
        vals = sample_functional_values(
            dirichlet16, 1.0, 1.0, phi, t, 50000, w, RngStream(42, (0,))
        )[:, 0]
        expected_mean = 0.7 * math.exp(-dirichlet16.lambdas_squared[0] * t)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert vals.mean() == pytest.approx(expected_mean, abs=3.0 * se)

    def test_curve_reaches_stationarity(self, dirichlet64, stream):
        cfg = ExperimentConfig(samples=20000)
        times = [0.02, 0.1, 1.0, 5.0]
        curve = _stationary_reports(
            dirichlet64, cfg, [(t, stream.substream(i)) for i, t in enumerate(times)]
        )
        rows, monotone = summarize_convergence(curve, 4.0)
        assert [t for t, _ in curve] == times
        assert rows[-1]["passed"]
        assert monotone
        assert curve[-1][1].zmax < 4.0
        assert curve[0][1].zmax > 4.0  # far from stationarity at t = 0.02


def _ks_two_sample_p(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov p-value, asymptotic in n a n b / (n a + n b)."""
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(np.sort(a), both, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), both, side="right") / b.size
    n_eff = a.size * b.size / (a.size + b.size)
    return kolmogorov_sf(math.sqrt(n_eff) * float(np.max(np.abs(cdf_a - cdf_b))))


def per_mode_pairings(basis, nu, sigma, start, t, n_samples, weights, stream):
    """Reference sampler: every mode drawn by its exact transition from
    ``start``, in blocks of MC_BLOCK rows from the stream's generator, then
    paired with the weights. It is the per-mode block loop the library used
    before it drew the p pairings through their p x p covariance factor."""
    decay, var = ou_decay(basis.lambdas_squared, nu, t), ou_variance(basis.lambdas_squared, nu, sigma, t)
    sd = np.sqrt(var)
    gen = stream.generator()
    blocks = []
    for b in range((n_samples + MC_BLOCK - 1) // MC_BLOCK):
        m = min(MC_BLOCK, n_samples - b * MC_BLOCK)
        u = sd * gen.standard_normal((m, basis.size))
        u += start * decay
        blocks.append(u @ weights)
    return np.concatenate(blocks, axis=0)


class TestReducedRankSampler:
    """The p x p factor path against the per-mode block loop, which draws
    every mode."""

    N = 20000
    T = 0.05  # far from stationarity, so decay and var both matter

    @pytest.fixture()
    def weights(self, dirichlet16):
        return standard_functionals(dirichlet16)[0]

    def per_mode(self, basis, start, weights, stream):
        return per_mode_pairings(basis, 1.0, 1.0, start, self.T, self.N, weights, stream)

    def assert_same_law(self, reduced, oracle):
        ra, rb = report_from_values(reduced), report_from_values(oracle)
        z = np.abs(ra.empirical - rb.empirical) / np.hypot(ra.stderr, rb.stderr)
        assert z.max() < 4.0
        se_mean = np.sqrt((reduced.var(axis=0, ddof=1) + oracle.var(axis=0, ddof=1)) / self.N)
        assert np.all(np.abs(reduced.mean(axis=0) - oracle.mean(axis=0)) < 4.0 * se_mean)
        for j in range(reduced.shape[1]):
            assert _ks_two_sample_p(reduced[:, j], oracle[:, j]) > 1e-3

    @pytest.mark.parametrize("start", ["zero", "vector"])
    def test_agrees_with_per_mode_oracle(self, dirichlet16, weights, start):
        phi = None if start == "zero" else 3.0 * np.cos(np.arange(16)) / np.arange(1, 17)
        reduced = sample_functional_values(
            dirichlet16, 1.0, 1.0, phi, self.T, self.N, weights, RngStream(45, (0,))
        )
        oracle = self.per_mode(
            dirichlet16, np.zeros(16) if phi is None else phi, weights, RngStream(46, (0,))
        )
        assert reduced.shape == oracle.shape == (self.N, 6)
        self.assert_same_law(reduced, oracle)

    def test_moments_are_exact(self, dirichlet16, weights):
        phi = np.linspace(1.0, -1.0, 16)
        lam2 = dirichlet16.lambdas_squared
        decay, var = ou_decay(lam2, 1.0, self.T), ou_variance(lam2, 1.0, 1.0, self.T)
        vals = sample_functional_values(
            dirichlet16, 1.0, 1.0, phi, self.T, self.N, weights, RngStream(47, (0,))
        )
        target = weights.T @ (var[:, None] * weights)
        assert report_from_values(vals, target=target).zmax < 4.0
        se_mean = np.sqrt(np.diag(target) / self.N)
        assert np.all(np.abs(vals.mean(axis=0) - (decay * phi) @ weights) < 4.0 * se_mean)

    def test_rank_deficient_covariance(self):
        basis = build_interval_basis("dirichlet", 0.0, 1.0, 2)
        w, _ = standard_functionals(basis)  # e3 repeats e2
        vals = sample_functional_values(basis, 1.0, 1.0, None, 1.0, 5000, w, RngStream(48, (0,)))
        assert np.all(np.isfinite(vals))
        # a rounding-level eigenvalue must not put noise on the null direction
        assert np.abs(vals[:, 1] - vals[:, 2]).max() <= 1e-14 * np.abs(vals[:, 1]).max()

    def test_block_layout_of_gaussian_draw(self):
        stream = RngStream(49, (0,))
        n = MC_BLOCK + 10
        vals = sample_gaussian(np.array([1.0, -2.0]), np.diag([4.0, 9.0]), n, stream)
        assert vals.shape == (n, 2)
        # the rows after the first tile continue the same generator
        z = stream.generator().standard_normal((n, 2))[MC_BLOCK:]
        expected = np.array([1.0, -2.0]) + z * [2.0, 3.0]
        assert np.allclose(vals[MC_BLOCK:], expected, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("tile", [1000, 4096, 10**6])
    @pytest.mark.parametrize("n", [1, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 50000])
    @pytest.mark.parametrize("p", [1, 5, 6, "singular"])
    def test_gaussian_draw_matches_one_generator_bit_for_bit(self, monkeypatch, n, p, tile):
        monkeypatch.setattr(dynamics, "MC_BLOCK", tile)
        if p == "singular":  # e3 repeats e2, as in the stationary checks at K = 2
            basis = build_interval_basis("dirichlet", 0.0, 1.0, 2)
            w, _ = standard_functionals(basis)
            cov, mean = w.T @ (w / basis.lambdas_squared[:, None]), np.linspace(-1.0, 1.0, 6)
        else:
            a = RngStream(50, (p,)).generator().standard_normal((p, p + 2))
            cov, mean = a @ a.T, np.arange(p) - 0.5
        stream = RngStream(51, (3,))
        got = sample_gaussian(mean, cov, n, stream)
        want, blas = one_generator_sample_gaussian(mean, cov, n, stream)
        assert got.shape == want.shape == (n, mean.size)
        assert got.view(np.int64).tobytes() == want.view(np.int64).tobytes()
        assert np.allclose(got, blas, rtol=0.0, atol=1e-13 * (1.0 + np.abs(blas).max()))

    @pytest.mark.parametrize("mean", [0.0, np.zeros(2)], ids=["scalar", "vector"])
    def test_zero_factor_row_gives_positive_zero(self, mean):
        # the first functional has no variance: its column is mean + 0 * z,
        # +0.0 in every row and never -0.0 from a negative normal
        vals = sample_gaussian(mean, np.diag([0.0, 1.0]), MC_BLOCK + 10, RngStream(52, (0,)))
        assert np.all(vals[:, 0] == 0.0) and not np.signbit(vals[:, 0]).any()
        assert np.signbit(vals[:, 1]).any()

    def test_draw_holds_its_output_and_one_tile(self, traced_peak):
        # the normals of each tile are drawn into one buffer and the product
        # written into the output's rows; measured 1.43 tiles over the output
        n, p = 50000, 5
        vals, peak = traced_peak(sample_gaussian, np.zeros(p), np.eye(p), n, RngStream(53, (0,)))
        assert peak < vals.nbytes + 2 * MC_BLOCK * p * vals.itemsize


class TestStationaryTarget:
    def test_stationary_target_formula(self, dirichlet16):
        w = np.stack([np.eye(16)[0], np.ones(16)], axis=1)
        lam2 = dirichlet16.lambdas_squared
        target = pairing(Spectrum(lam2, 1.0), w, w, lambda q: ou_variance(q, 2.0, 3.0, math.inf))
        scale = 9.0 / 4.0
        assert target[0, 0] == pytest.approx(scale / lam2[0], rel=1e-14)
        assert target[1, 1] == pytest.approx(scale * float(np.sum(1.0 / lam2)), rel=1e-14)
        assert target[0, 1] == target[1, 0]
