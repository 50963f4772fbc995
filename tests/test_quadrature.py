
import mpmath
import numpy as np
import pytest

from gfflab.cli import parse_config_text
from gfflab.experiments import exp_fourier_limits, exp_two_sided_cov
from gfflab.quadrature import (
    PANEL_NODES,
    composite_legendre,
    cumulative_legendre,
    gauss_legendre,
)


def mp_legendre_rule(n, start, dps=40):
    """Nodes and weights polished in mpmath from the given start nodes,
    with P_n and P_n' from mpmath's own Legendre function."""
    with mpmath.workdps(dps):
        nodes, weights = [], []
        for x0 in start:
            x = mpmath.findroot(lambda t: mpmath.legendre(n, t), mpmath.mpf(float(x0)))
            dp = n * (x * mpmath.legendre(n, x) - mpmath.legendre(n - 1, x)) / (x * x - 1)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
        return np.array([float(v) for v in nodes]), np.array([float(v) for v in weights])


class TestGaussLegendre:
    def test_against_mpmath(self):
        n = 64
        x, w = gauss_legendre(-1.0, 1.0, n)
        ex, ew = mp_legendre_rule(n, x)
        assert np.all(np.abs(x - ex) <= np.spacing(np.abs(ex)))
        np.testing.assert_allclose(w, ew, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("n", [24, 2048])
    def test_exact_on_monomials(self, n):
        x, w = gauss_legendre(-1.0, 1.0, n)
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(float(np.sum(w * x**k)) - exact) < 1e-14, k

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 24, 255, 256, 1024])
    def test_symmetric_and_normalised(self, n):
        x, w = gauss_legendre(-1.0, 1.0, n)
        assert np.all(x == -x[::-1]) and np.all(w == w[::-1])
        assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
        assert float(np.sum(w)) == pytest.approx(2.0, abs=4e-16)

    def test_nodes_match_golub_welsch(self):
        for n in list(range(1, 33)) + [47, 64, 100, 127, 128, 160, 200, 255, 256]:
            x, _ = gauss_legendre(-1.0, 1.0, n)
            ref, _ = np.polynomial.legendre.leggauss(n)
            assert np.all(np.abs(x - ref) <= 2.0 * np.spacing(np.abs(ref))), n

    def test_array_endpoints_give_one_rule_per_interval(self):
        a = np.array([-1.0, 0.25, 3.0])
        b = np.array([0.5, 0.75, 7.5])
        q, w = gauss_legendre(a, b, 12)
        assert q.shape == w.shape == (3, 12)
        for i in range(3):
            qi, wi = gauss_legendre(a[i], b[i], 12)
            assert np.array_equal(q[i], qi) and np.array_equal(w[i], wi)

    def test_rejects_empty_rule(self):
        with pytest.raises(ValueError, match="at least one"):
            gauss_legendre(0.0, 1.0, 0)


class TestCompositeAndRunning:
    def test_composite_matches_per_panel_rules(self):
        edges = np.linspace(-3.0, 5.0, 41)
        xs, ws = zip(*(gauss_legendre(lo, hi, 16) for lo, hi in zip(edges[:-1], edges[1:])))
        x, w = composite_legendre(-3.0, 5.0, 40, 16)
        assert np.array_equal(x, np.concatenate(xs))
        assert np.array_equal(w, np.concatenate(ws))


def per_panel_polynomial(coeffs, a, b):
    """Values at the composite nodes, and the exact running integral there, of
    the piecewise polynomial sum_m coeffs[p, m] t^m, t the local variable in
    [-1, 1] of panel p."""
    panels, degree = coeffs.shape[0], coeffs.shape[1] - 1
    x, _ = composite_legendre(a, b, panels, PANEL_NODES)
    t, _ = gauss_legendre(-1.0, 1.0, PANEL_NODES)
    powers = t[:, None] ** np.arange(degree + 1)
    values = coeffs @ powers.T
    m = np.arange(degree + 1)
    within = coeffs @ ((t[:, None] ** (m + 1) - (-1.0) ** (m + 1)) / (m + 1)).T
    totals = coeffs @ ((1.0 - (-1.0) ** (m + 1)) / (m + 1))
    half = 0.5 * (b - a) / panels
    exact = half * (np.concatenate(([0.0], np.cumsum(totals)[:-1]))[:, None] + within)
    return x, values.reshape(-1), exact.reshape(-1)


class TestCumulativeLegendre:
    @pytest.mark.parametrize("panels", [1, 3, 40])
    @pytest.mark.parametrize("degree", [0, 1, 7, 15])
    def test_exact_for_per_panel_polynomials(self, panels, degree):
        coeffs = np.random.default_rng(degree * 100 + panels).uniform(-1.0, 1.0, (panels, degree + 1))
        _, values, exact = per_panel_polynomial(coeffs, -3.0, 5.0)
        got = cumulative_legendre(values, -3.0, 5.0)
        scale = 8.0 * float(np.max(np.abs(coeffs))) * (degree + 1)
        assert float(np.max(np.abs(got - exact))) < 4e-16 * scale * panels

    def test_degree_sixteen_is_not_exact(self):
        coeffs = np.zeros((1, PANEL_NODES + 1))
        coeffs[0, -1] = 1.0
        _, values, exact = per_panel_polynomial(coeffs, -1.0, 1.0)
        assert float(np.max(np.abs(cumulative_legendre(values, -1.0, 1.0) - exact))) > 1e-6

    def test_matches_erf_forward_and_reversed(self):
        # relative to erf closed forms in mpmath: the reversed values give the
        # tails, down to 4e-14 of the total next to b, as accurately as the
        # forward ones give the heads
        a, b = -3.0, 5.0
        x, _ = composite_legendre(a, b, 40, PANEL_NODES)
        h = np.exp(-x * x)
        with mpmath.workdps(30):
            c = mpmath.sqrt(mpmath.pi) / 2
            head = np.array([float(c * (mpmath.erf(v) - mpmath.erf(a))) for v in x])
            tail = np.array([float(c * (mpmath.erf(b) - mpmath.erf(v))) for v in x])
        np.testing.assert_allclose(cumulative_legendre(h, a, b), head, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(cumulative_legendre(h[::-1], a, b)[::-1], tail, rtol=1e-13, atol=0.0)

    def test_rows_integrate_constants_and_totals_are_the_rule(self):
        x, w = composite_legendre(0.0, 2.0, 5, PANEL_NODES)
        np.testing.assert_allclose(cumulative_legendre(np.ones(x.size), 0.0, 2.0), x, rtol=0.0, atol=4.5e-16)
        h = np.cos(x)
        # the last node of the last panel stops short of b by that panel's
        # own tail, which the reversed values give
        total = cumulative_legendre(h, 0.0, 2.0)[-1] + cumulative_legendre(h[::-1], 0.0, 2.0)[0]
        assert total == pytest.approx(float(np.sum(w * h)), rel=1e-15)

    def test_rejects_values_off_the_panels(self):
        with pytest.raises(ValueError):
            cumulative_legendre(np.ones(PANEL_NODES + 1), 0.0, 1.0)


class TestExperimentMemory:
    """The quadrature experiments hold no large node table."""

    @pytest.mark.parametrize(
        "name, run",
        # in a fresh process fourier_limits peaks at 0.09 MiB, its largest
        # arrays the 1024 nodes of the radial rule; two_sided_cov builds no
        # node table and peaks at 0.30 MiB
        [("fourier_limits", exp_fourier_limits), ("two_sided_cov", exp_two_sided_cov)],
    )
    def test_experiment_peak_is_below_one_mib(self, name, run, traced_peak):
        cfg = parse_config_text(f"experiment = {name}\n")
        result, peak = traced_peak(run, cfg)
        assert result.summary["passed"]
        assert peak < 2**20
