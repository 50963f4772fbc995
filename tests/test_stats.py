import math

import numpy as np
import pytest

from gfflab.basis import build_interval_basis
from gfflab.fields import RngStream, sample_gff
from gfflab.stats import (
    CovarianceReport,
    _erf_bound,
    kolmogorov_sf,
    ks_gaussian,
    report_from_values,
    summarize_convergence,
)


def per_sample_ks(samples, mu, var):
    """ks_gaussian as it was before the erf bound: math.erf at every sample."""
    xs = np.sort(np.asarray(samples, dtype=float))
    sd = math.sqrt(var)
    cdf = np.array([0.5 * (1.0 + math.erf((v - mu) / (sd * math.sqrt(2.0)))) for v in xs])
    grid = np.arange(1, xs.size + 1) / xs.size
    d = float(max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / xs.size))))
    return d, min(max(kolmogorov_sf(math.sqrt(xs.size) * d), 1e-12), 1.0)


def values_by_draw(sampler, functionals, n_samples, rng):
    """(n_samples, p) matrix of functional values, one sampler draw per row."""
    values = np.empty((n_samples, len(functionals)))
    for i in range(n_samples):
        draw = sampler(rng)
        for j, fn in enumerate(functionals):
            values[i, j] = fn(draw)
    return values


class TestEstimateCovariance:
    def test_scalar_unit_variance(self):
        gen = RngStream(50, (0,)).generator()
        values = gen.standard_normal((100000, 1))
        rep = report_from_values(values, target=np.array([[1.0]]))
        assert rep.zmax < 3.0
        assert rep.passed

    def test_loop_path_matches_core(self):
        gen = RngStream(51, (0,)).generator()
        values = values_by_draw(
            lambda g: g.standard_normal(), [lambda v: v, lambda v: 2.0 * v], 1000, gen
        )
        rep = report_from_values(values, target=np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert rep.empirical[0, 1] == pytest.approx(2.0 * rep.empirical[0, 0], rel=1e-12)

    def test_perfectly_correlated_pair(self):
        gen = RngStream(52, (0,)).generator()
        x = gen.standard_normal(20000)
        values = np.stack([x, x], axis=1)
        rep = report_from_values(values, target=np.array([[1.0, 1.0], [1.0, 1.0]]))
        corr = rep.empirical[0, 1] / rep.empirical[0, 0]
        assert corr == pytest.approx(1.0, rel=1e-12)
        assert rep.passed

    def test_gff_functionals_against_series_green(self):
        basis = build_interval_basis("dirichlet", 0.0, 1.0, 64)
        weights = np.eye(64)[:, [0, 1, 4]]  # e1, e2, e5
        target = weights.T @ (weights / basis.lambdas_squared[:, None])
        gen = RngStream(53, (0,)).generator()
        values = values_by_draw(
            lambda g: sample_gff(basis, 1.0, g),
            [lambda w, j=j: float(w @ weights[:, j]) for j in range(3)],
            20000,
            gen,
        )
        rep = report_from_values(values, target=target)
        assert rep.zmax < 4.0

    def test_degenerate_functional_has_zero_z(self):
        # a zero column against a zero target row is no deviation
        gen = RngStream(54, (0,)).generator()
        values = np.stack([gen.standard_normal(500), np.zeros(500)], axis=1)
        rep = report_from_values(values, target=np.diag([1.0, 0.0]))
        assert np.all(rep.z[1] == 0.0) and np.all(rep.z[:, 1] == 0.0)
        assert rep.passed

    def test_sample_floor(self):
        gen = RngStream(55, (0,)).generator()
        values = values_by_draw(lambda g: g.standard_normal(), [lambda v: v], 50, gen)
        with pytest.raises(ValueError, match="100"):
            report_from_values(values)

    def test_unbiased_over_replications(self):
        # 200 independent replications of a small estimator
        truth = 2.5
        means = []
        for rep_idx in range(200):
            gen = RngStream(56, (rep_idx,)).generator()
            values = math.sqrt(truth) * gen.standard_normal((400, 1))
            means.append(report_from_values(values).empirical[0, 0])
        grand = float(np.mean(means))
        se = float(np.std(means, ddof=1)) / math.sqrt(200)
        assert abs(grand - truth) < 3.0 * se

    def test_symmetry_exact(self):
        gen = RngStream(57, (0,)).generator()
        values = gen.standard_normal((600, 4)) @ np.triu(np.ones((4, 4)))
        rep = report_from_values(values)
        assert np.array_equal(rep.empirical, rep.empirical.T)
        assert np.array_equal(rep.target, rep.target.T)

    def test_ordinary_covariances_keep_their_bits(self):
        gen = RngStream(58, (0,)).generator()
        values = gen.standard_normal((800, 3)) @ np.triu(np.ones((3, 3)))
        rep = report_from_values(values)
        diag = np.diag(rep.empirical)
        old = np.sqrt((np.outer(diag, diag) + rep.empirical**2) / 800)
        assert rep.stderr.tobytes() == old.tobytes()

    @pytest.mark.parametrize("scale", [1e-100, 1e-140, 1e100, 1e140])
    def test_tiny_covariances_keep_their_standard_error(self, scale):
        # c_ii c_jj underflows below ~1e-154 per covariance, and overflows
        # above ~1e154; the z-scores must not depend on the units of the
        # functionals
        gen = RngStream(59, (0,)).generator()
        values = gen.standard_normal((800, 3)) @ np.triu(np.ones((3, 3)))
        target = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 2.0], [1.0, 2.0, 3.0]])
        unit = report_from_values(values, target=target)
        mixed = np.column_stack((values[:, :2], scale * values[:, 2]))
        mixed_target = target * np.array([1.0, 1.0, scale])[:, None] * np.array([1.0, 1.0, scale])
        for rep, ref_scale in (
            (report_from_values(scale * values, target=scale**2 * target), scale**2 * np.ones((3, 3))),
            (report_from_values(mixed, target=mixed_target), np.outer([1.0, 1.0, scale], [1.0, 1.0, scale])),
        ):
            assert np.isfinite(rep.zmax) and rep.passed == unit.passed
            assert np.all(rep.stderr > 0.0)
            np.testing.assert_allclose(rep.stderr, unit.stderr * ref_scale, rtol=1e-12)
            np.testing.assert_allclose(rep.z, unit.z, rtol=1e-9)


class TestKsGaussian:
    def test_calibration_on_true_null(self):
        hits = 0
        for seed in range(100):
            gen = RngStream(58, (seed,)).generator()
            _, p = ks_gaussian(gen.standard_normal(10000), 0.0, 1.0)
            hits += p > 1e-3
        assert hits >= 99

    def test_power_against_shift(self):
        gen = RngStream(59, (0,)).generator()
        _, p = ks_gaussian(gen.standard_normal(10000) + 0.2, 0.0, 1.0)
        assert p < 1e-6

    def test_constant_samples_statistic_one(self):
        d, p = ks_gaussian(np.full(100, 100.0), 0.0, 1.0)
        assert d == pytest.approx(1.0, abs=1e-8)
        assert p == 1e-12  # floored

    def test_input_guards(self):
        with pytest.raises(ValueError, match="50"):
            ks_gaussian(np.zeros(10), 0.0, 1.0)
        with pytest.raises(ValueError, match="variance"):
            ks_gaussian(np.zeros(100), 0.0, 0.0)

    @pytest.mark.parametrize("mu, var", [(0.0, 1.0), (0.3, 0.02), (-2.0, 9.0)])
    def test_matches_per_sample_erf(self, mu, var):
        # the CDF at the few samples the bound keeps equals the per-sample
        # math.erf one bit for bit, also in both tails beyond |z| = 8 where
        # erf saturates
        gen = RngStream(60, (0,)).generator()
        sd = math.sqrt(var)
        z = np.concatenate([gen.standard_normal(5000), [-40.0, -12.5, -8.01, 8.01, 12.5, 40.0]])
        x = mu + sd * z
        assert ks_gaussian(x, mu, var) == per_sample_ks(x, mu, var)

    def test_erf_bound_holds(self):
        z = np.concatenate((np.linspace(-12.0, 12.0, 200001), [-1e300, -30.0, 30.0, 1e300]))
        exact = np.array([math.erf(v) for v in z])
        assert float(np.max(np.abs(_erf_bound(z) - exact))) <= 1.5e-7

    def test_matches_per_sample_erf_on_random_cases(self):
        # ties, far tails, constant samples, shifted and scaled laws, with
        # variances from 1e-12 to 1e12 and n from 50 to 5000
        gen = RngStream(61, (0,)).generator()
        for case in range(300):
            n = int(gen.integers(50, 5001))
            var = 10.0 ** gen.uniform(-12.0, 12.0)
            sd = math.sqrt(var)
            mu = sd * float(gen.normal()) * float(gen.choice([0.0, 1.0, 5.0]))
            x = mu + sd * (10.0 ** gen.uniform(-0.3, 0.3) * gen.standard_normal(n) + gen.choice([0.0, 0.05, 1.0]))
            kind = case % 4
            if kind == 1:
                x = np.round(x / sd * 4.0) / 4.0 * sd
            elif kind == 2:
                x[: n // 10] = mu + sd * gen.choice([-1.0, 1.0], n // 10) * gen.uniform(6.0, 40.0, n // 10)
            elif kind == 3:
                x = np.full(n, mu + sd * gen.uniform(-3.0, 3.0))
            assert ks_gaussian(x, mu, var) == per_sample_ks(x, mu, var), case

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_is_an_error(self, bad):
        x = np.linspace(-2.0, 2.0, 100)
        x[7] = bad
        with pytest.raises(ValueError, match="must be finite"):
            ks_gaussian(x, 0.0, 1.0)
        with pytest.raises(ValueError, match="must be finite"):
            ks_gaussian(np.linspace(-2.0, 2.0, 100), bad, 1.0)

    def test_nan_variance_is_an_error(self):
        with pytest.raises(ValueError, match="variance"):
            ks_gaussian(np.zeros(100), 0.0, math.nan)

    def test_sf_branches_agree(self):
        for lam in (0.35, 0.45, 0.5, 0.55, 0.8, 1.5):
            direct = 2.0 * sum(
                (-1) ** (j - 1) * math.exp(-2.0 * (j * lam) ** 2) for j in range(1, 500)
            )
            assert kolmogorov_sf(lam) == pytest.approx(direct, abs=1e-10)

    def test_sf_monotone(self):
        grid = np.linspace(0.05, 3.0, 60)
        vals = [kolmogorov_sf(float(v)) for v in grid]
        assert np.all(np.diff(vals) <= 0.0)


class TestSummaries:
    def _report(self, emp, target):
        return CovarianceReport(
            labels=["a"],
            empirical=np.array([[emp]]),
            target=np.array([[target]]),
            stderr=np.array([[0.0]]),
            z=np.array([[0.0]]),
            zmax=0.0,
            passed=True,
        )

    def test_single_report(self):
        summary = summarize_convergence([(1.0, self._report(1.0, 1.0))])
        assert len(summary.rows) == 1
        assert summary.monotone

    def test_synthetic_exponential_decay_is_monotone(self):
        reports = [(t, self._report(1.0 + math.exp(-t), 1.0)) for t in (0.5, 1.0, 2.0, 4.0)]
        summary = summarize_convergence(reports)
        assert summary.monotone
        assert [r["transient"] for r in summary.rows] == sorted(
            (r["transient"] for r in summary.rows), reverse=True
        )

    def test_growing_deviation_flagged(self):
        reports = [(t, self._report(1.0 + 0.1 * t, 1.0)) for t in (1.0, 2.0, 3.0)]
        assert not summarize_convergence(reports).monotone

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no reports"):
            summarize_convergence([])
