import math
import os

import numpy as np
import pytest

from gfflab.basis import build_hermite_basis, build_interval_basis
from gfflab.dynamics import (
    MC_BLOCK,
    SpectralState,
    convergence_curve,
    em_oracle_step,
    evolve,
    exact_step,
    kakutani_statistic,
    load_checkpoint,
    sample_functional_values,
    sample_gaussian,
    save_checkpoint,
    stationary_sample,
    stationary_target,
    transition_moments,
    zero_state,
)
from gfflab.experiments import standard_functionals
from gfflab.fields import RngStream, sample_gff
from gfflab.stats import ks_gaussian, kolmogorov_sf, report_from_values, summarize_convergence


@pytest.fixture()
def single_mode():
    return build_interval_basis("dirichlet", 0.0, math.pi, 1)  # lambda = pi/L = 1


class TestTransitionMoments:
    def test_halving_time_plugin(self):
        _, var = transition_moments(1.0, 1.0, 1.0, math.log(2.0) / 2.0)
        assert var == pytest.approx(0.25, rel=1e-15)

    def test_saturation_is_exact(self):
        decay, var = transition_moments(1.0, 1.0, 1.0, 60.0)
        assert var == 0.5
        assert decay == pytest.approx(0.0, abs=1e-25)

    def test_composition_matches_closed_form(self):
        lam2, nu, sigma = 4.0, 0.7, 1.3
        parts = [0.1, 0.25, 0.4, 0.05, 0.7, 0.3, 0.2]
        var = 0.0
        for dt in parts:
            d, s = transition_moments(lam2, nu, sigma, dt)
            var = var * d * d + s
        _, direct = transition_moments(lam2, nu, sigma, sum(parts))
        assert var == pytest.approx(direct, rel=1e-14)

    def test_decay_composition(self):
        lam2 = np.array([1.0, 9.8696, 400.0])
        total = np.ones(3)
        for dt in (0.17, 0.03, 0.8):
            total *= transition_moments(lam2, 1.0, 1.0, dt)[0]
        direct = transition_moments(lam2, 1.0, 1.0, 1.0)[0]
        assert np.allclose(total, direct, rtol=1e-13)


class TestExactStep:
    def test_requires_positive_dt(self, dirichlet16, rng):
        state = zero_state(dirichlet16, 1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            exact_step(state, 0.0, rng)

    def test_rejects_constant_mode(self, rng):
        basis = build_interval_basis("neumann", 0.0, 1.0, 4)
        state = zero_state(basis, 1.0, 1.0)
        with pytest.raises(ValueError, match="lambda_1 > 0"):
            exact_step(state, 0.1, rng)

    def test_moments_after_one_step(self, single_mode):
        n = 100000
        stream = RngStream(31, 0)
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
        decay, var = transition_moments(1.0, 1.0, 1.0, 1.0)
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
        u = em_ensemble(n, dt, 1.0, RngStream(32, 0))
        mean, var = em_moments(dt)
        assert u.mean() == pytest.approx(mean, abs=3.0 * math.sqrt(var / n))
        assert u.var(ddof=1) == pytest.approx(var, abs=3.0 * var * math.sqrt(2.0 / n))


class TestEmOracle:
    def test_drift_only_error_is_first_order(self, single_mode, rng):
        errs = []
        for dt in (0.02, 0.01, 0.005):
            state = SpectralState(single_mode, 0.0, np.array([1.0]), 1.0, 0.0)
            steps = int(round(1.0 / dt))
            for _ in range(steps):
                state = em_oracle_step(state, dt, rng)
            errs.append(abs(state.coeffs[0] - math.exp(-1.0)))
        # halving dt roughly halves the deterministic error
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.2)

    def test_stability_guard(self, dirichlet16, rng):
        state = zero_state(dirichlet16, 1.0, 1.0)
        with pytest.raises(ValueError, match="unstable"):
            em_oracle_step(state, 1.0, rng)

    def test_stationary_variance_recovered(self, single_mode):
        gen = RngStream(34, 0).generator()
        n, dt, t_end = 20000, 1e-3, 8.0
        u = np.zeros(n)
        steps = int(round(t_end / dt))
        for _ in range(steps):
            u = u * (1.0 - dt) + math.sqrt(dt) * gen.standard_normal(n)
        var = u.var(ddof=1)
        target = 0.5
        assert var == pytest.approx(target, abs=4.0 * target * math.sqrt(2.0 / n) + 0.5 * dt)


class TestEvolve:
    def test_deterministic_decay_curve(self, dirichlet16, rng):
        phi = np.zeros(16)
        phi[0] = 1.0
        state = SpectralState(dirichlet16, 0.0, phi, 1.0, 0.0)
        times = [0.1, 0.3, 0.6, 1.0]
        path = evolve(state, times, rng)
        lam2 = dirichlet16.lambdas_squared[0]
        for t, st in zip(times, path):
            assert st.coeffs[0] == pytest.approx(math.exp(-lam2 * t), rel=1e-13)
            assert st.t == pytest.approx(t, rel=1e-15)

    def test_one_step_vs_two_steps_in_distribution(self, single_mode):
        n = 60000
        one = sample_functional_values(
            single_mode, 1.0, 1.0, np.array([1.0]), 1.0, n, np.array([[1.0]]), RngStream(35, 0)
        )[:, 0]
        gen = RngStream(36, 0).generator()
        state = np.ones(n)
        for _ in range(2):
            d, v = transition_moments(1.0, 1.0, 1.0, 0.5)
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
        _, var = transition_moments(lam2, nu, sigma, t)
        second_moment = float(
            np.sum(lam2 ** (1 - gamma) * (np.exp(-2 * nu * lam2 * t) * phi**2 + var))
        )
        bound = float(np.sum(lam2**-gamma * phi**2)) / (nu * t) + sigma**2 / (2 * nu) * float(
            np.sum(lam2**-gamma)
        )
        assert second_moment <= bound


class TestStationary:
    def test_equals_scaled_free_field_draw(self, dirichlet64):
        nu, sigma = 2.0, 1.5
        st = stationary_sample(dirichlet64, nu, sigma, RngStream(37, 0).generator())
        w = sample_gff(dirichlet64, 1.0, RngStream(37, 0).generator())
        assert np.array_equal(st.coeffs, sigma / math.sqrt(2.0 * nu) * w.coeffs)

    def test_coefficient_variance(self, dirichlet16):
        gen = RngStream(38, 0).generator()
        n = 50000
        draws = np.array([stationary_sample(dirichlet16, 1.0, 1.0, gen).coeffs for _ in range(n)])
        target = 0.5 / dirichlet16.lambdas_squared
        var = draws.var(axis=0, ddof=1)
        assert np.all(np.abs(var - target) < 4.0 * target * math.sqrt(2.0 / n))

    def test_moments_invariant_under_step(self, dirichlet16):
        gen = RngStream(39, 0).generator()
        n = 50000
        lam2 = dirichlet16.lambdas_squared
        scale = 1.0 / math.sqrt(2.0)
        start = scale * gen.standard_normal((n, 16)) / dirichlet16.lambdas
        d, v = transition_moments(lam2, 1.0, 1.0, 0.37)
        stepped = start * d + np.sqrt(v) * gen.standard_normal((n, 16))
        target = 0.5 / lam2
        var = stepped.var(axis=0, ddof=1)
        assert np.all(np.abs(var - target) < 4.0 * target * math.sqrt(2.0 / n))
        assert np.abs(stepped.mean(axis=0)).max() < 4.0 * math.sqrt(target.max() / n)

    def test_ks_stationarity_after_five_steps(self, dirichlet16):
        gen = RngStream(40, 0).generator()
        n = 5000
        lam2 = dirichlet16.lambdas_squared
        scale = 1.0 / math.sqrt(2.0)
        vals = scale * gen.standard_normal((n, 16)) / dirichlet16.lambdas
        for _ in range(5):
            d, v = transition_moments(lam2, 1.0, 1.0, 0.2)
            vals = vals * d + np.sqrt(v) * gen.standard_normal((n, 16))
        for k in (1, 8, 16):
            _, p = ks_gaussian(vals[:, k - 1], 0.0, 0.5 / lam2[k - 1])
            assert p > 1e-3

    def test_cross_mode_independence(self, dirichlet16):
        gen = RngStream(41, 0).generator()
        n = 20000
        draws = np.array([stationary_sample(dirichlet16, 1.0, 1.0, gen).coeffs for _ in range(n)])
        corr = np.corrcoef(draws.T)
        off = corr - np.diag(np.diag(corr))
        assert np.abs(off).max() < 4.0 / math.sqrt(n)


class TestKakutani:
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


class TestConvergenceCurve:
    def test_transient_mean_for_unit_mode_start(self, dirichlet16):
        phi = np.zeros(16)
        phi[0] = 0.7
        t = 0.05
        w = np.zeros((16, 1))
        w[0, 0] = 1.0
        vals = sample_functional_values(
            dirichlet16, 1.0, 1.0, phi, t, 50000, w, RngStream(42, 0)
        )[:, 0]
        expected_mean = 0.7 * math.exp(-dirichlet16.lambdas_squared[0] * t)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert vals.mean() == pytest.approx(expected_mean, abs=3.0 * se)

    def test_curve_reaches_stationarity(self, dirichlet64, stream):
        fns = [np.eye(64)[0], np.eye(64)[3], 1.0 / np.arange(1, 65)]
        curve = convergence_curve(
            dirichlet64, 1.0, 1.0, None, [0.02, 0.1, 1.0, 5.0], 20000, fns, stream
        )
        summary = summarize_convergence(curve)
        assert summary.passed
        assert summary.monotone
        assert curve[-1][1].zmax < 4.0
        assert curve[0][1].zmax > 4.0  # far from stationarity at t = 0.02

    def test_sample_count_guard(self, dirichlet16, stream):
        with pytest.raises(ValueError, match="100"):
            convergence_curve(dirichlet16, 1.0, 1.0, None, [1.0], 50, [np.ones(16)], stream)

    def test_worker_count_does_not_change_samples(self, dirichlet64):
        w = np.stack([np.eye(64)[0], 1.0 / np.arange(1, 65)], axis=1)
        a = sample_functional_values(dirichlet64, 1.0, 1.0, None, 2.0, 9000, w, RngStream(43, 0), jobs=1)
        b = sample_functional_values(dirichlet64, 1.0, 1.0, None, 2.0, 9000, w, RngStream(43, 0), jobs=3)
        assert np.array_equal(a, b)

    def test_random_start_uses_callable(self, dirichlet16):
        def phi(gen, n):
            return gen.standard_normal((n, 16)) / dirichlet16.lambdas

        vals = sample_functional_values(
            dirichlet16, 1.0, 1.0, phi, 0.01, 2000, np.eye(16)[:, :1], RngStream(44, 0)
        )
        assert vals.shape == (2000, 1)
        assert vals.var() > 0.5 / dirichlet16.lambdas_squared[0]  # start variance dominates


def _ks_two_sample_p(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov p-value, asymptotic in n a n b / (n a + n b)."""
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(np.sort(a), both, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), both, side="right") / b.size
    n_eff = a.size * b.size / (a.size + b.size)
    return kolmogorov_sf(math.sqrt(n_eff) * float(np.max(np.abs(cdf_a - cdf_b))))


class TestReducedRankSampler:
    """The p x p factor path against the per-mode block loop, which a
    callable start always takes; a callable returning a fixed start draws
    the same law as that start given as a vector."""

    N = 20000
    T = 0.05  # far from stationarity, so decay and var both matter

    @pytest.fixture()
    def weights(self, dirichlet16):
        fns, _ = standard_functionals(dirichlet16)
        return np.stack(fns, axis=1)

    def per_mode(self, basis, start, weights, stream):
        fixed = np.broadcast_to(start, (MC_BLOCK, basis.size))
        return sample_functional_values(
            basis, 1.0, 1.0, lambda gen, n: fixed[:n], self.T, self.N, weights, stream
        )

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
            dirichlet16, 1.0, 1.0, phi, self.T, self.N, weights, RngStream(45, 0)
        )
        oracle = self.per_mode(
            dirichlet16, np.zeros(16) if phi is None else phi, weights, RngStream(46, 0)
        )
        assert reduced.shape == oracle.shape == (self.N, 6)
        self.assert_same_law(reduced, oracle)

    def test_moments_are_exact(self, dirichlet16, weights):
        phi = np.linspace(1.0, -1.0, 16)
        decay, var = transition_moments(dirichlet16.lambdas_squared, 1.0, 1.0, self.T)
        vals = sample_functional_values(
            dirichlet16, 1.0, 1.0, phi, self.T, self.N, weights, RngStream(47, 0)
        )
        target = weights.T @ (var[:, None] * weights)
        assert report_from_values(vals, target=target).zmax < 4.0
        se_mean = np.sqrt(np.diag(target) / self.N)
        assert np.all(np.abs(vals.mean(axis=0) - (decay * phi) @ weights) < 4.0 * se_mean)

    def test_rank_deficient_covariance(self):
        basis = build_interval_basis("dirichlet", 0.0, 1.0, 2)
        fns, _ = standard_functionals(basis)  # e3 repeats e2
        w = np.stack(fns, axis=1)
        vals = sample_functional_values(basis, 1.0, 1.0, None, 1.0, 5000, w, RngStream(48, 0))
        assert np.all(np.isfinite(vals))
        # a rounding-level eigenvalue must not put noise on the null direction
        assert np.abs(vals[:, 1] - vals[:, 2]).max() <= 1e-14 * np.abs(vals[:, 1]).max()

    def test_block_layout_of_gaussian_draw(self):
        stream = RngStream(49, 0)
        n = MC_BLOCK + 10
        vals = sample_gaussian(np.array([1.0, -2.0]), np.diag([4.0, 9.0]), n, stream)
        assert vals.shape == (n, 2)
        z = stream.substream(2).generator().standard_normal((10, 2))
        expected = np.array([1.0, -2.0]) + z * [2.0, 3.0]
        assert np.allclose(vals[MC_BLOCK:], expected, rtol=1e-15, atol=0.0)

    def test_worker_count_does_not_change_per_mode_samples(self, dirichlet16, weights):
        def phi(gen, n):
            return gen.standard_normal((n, 16)) / dirichlet16.lambdas

        a, b = (
            sample_functional_values(
                dirichlet16, 1.0, 1.0, phi, 0.1, 9000, weights, RngStream(50, 0), jobs=jobs
            )
            for jobs in (1, 3)
        )
        assert np.array_equal(a, b)


class TestStateAndCheckpoint:
    def test_state_validation(self, dirichlet16):
        with pytest.raises(ValueError, match="coefficients"):
            SpectralState(dirichlet16, 0.0, np.zeros(4), 1.0, 1.0)
        with pytest.raises(ValueError, match="nu > 0"):
            SpectralState(dirichlet16, 0.0, np.zeros(16), 0.0, 1.0)

    def test_round_trip(self, dirichlet16, rng, tmp_path):
        state = exact_step(stationary_sample(dirichlet16, 1.3, 0.8, rng), 0.25, rng)
        path = os.path.join(tmp_path, "state.csv")
        save_checkpoint(state, path, seed_info="seed=2026")
        back = load_checkpoint(path)
        assert np.array_equal(back.coeffs, state.coeffs)
        assert back.t == state.t
        assert back.nu == state.nu
        assert back.sigma == state.sigma
        assert np.array_equal(back.basis.lambdas, state.basis.lambdas)

    def test_header_format(self, dirichlet16, rng, tmp_path):
        state = zero_state(dirichlet16, 1.0, 1.0)
        path = os.path.join(tmp_path, "state.csv")
        save_checkpoint(state, path)
        with open(path) as fh:
            assert fh.readline().strip() == "k,lambda,u_k"

    def test_stationary_target_formula(self, dirichlet16):
        w = np.stack([np.eye(16)[0], np.ones(16)], axis=1)
        target = stationary_target(dirichlet16, 2.0, 3.0, w)
        lam2 = dirichlet16.lambdas_squared
        scale = 9.0 / 4.0
        assert target[0, 0] == pytest.approx(scale / lam2[0], rel=1e-14)
        assert target[1, 1] == pytest.approx(scale * float(np.sum(1.0 / lam2)), rel=1e-14)
        assert target[0, 1] == target[1, 0]
