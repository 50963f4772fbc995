import math

import mpmath
import numpy as np
import pytest

from gfflab.quadrature import (
    composite_legendre,
    gauss_legendre,
    running_integral,
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

    def test_running_integral_ascending_and_descending(self):
        x = np.array([0.1, 0.5, 1.3, 2.0])
        up = running_integral(np.exp, 0.0, x)
        np.testing.assert_allclose(up, np.expm1(x), rtol=1e-14)
        down = running_integral(np.exp, 3.0, x[::-1])
        np.testing.assert_allclose(down, np.exp(x[::-1]) - math.exp(3.0), rtol=1e-14)

    def test_running_integral_calls_integrand_once(self):
        calls = []

        def h(y):
            calls.append(y.shape)
            return y * y

        out = running_integral(h, 0.0, np.linspace(0.5, 4.0, 50))
        assert calls == [(50, 24)]
        assert out[-1] == pytest.approx(4.0**3 / 3.0, rel=1e-14)
