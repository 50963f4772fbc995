import math

import mpmath
import numpy as np
import pytest

from gfflab import experiments, greens, quadrature
from gfflab.cli import parse_config_text
from gfflab.experiments import _massive_physical_oracle, exp_fourier_limits, exp_two_sided_cov
from gfflab.fourier_cov import gaussian_bump
from gfflab.quadrature import (
    TILE_NODES,
    composite_legendre,
    gauss_legendre,
    running_integral,
)

GAPS_PER_TILE = TILE_NODES // 24


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


def untiled_running_integral(h, start, x):
    """running_integral as it was before tiling: one rule for every gap."""
    edges = np.concatenate(([start], np.asarray(x, dtype=float)))
    q, w = gauss_legendre(edges[:-1], edges[1:], 24)
    return np.cumsum(np.sum(w * h(q), axis=-1))


def untiled_massive_oracle(fg, nu, eps, sigma):
    """experiments._massive_physical_oracle as it was before tiling: the
    whole (400 outer x 160 inner) node table per side at once."""
    center = fg.center[0] if fg.center else 0.0
    width = fg.params["width"]
    lo, hi = center - 12.0 * width, center + 12.0 * width
    x, w = composite_legendre(lo, hi, 25, 16)
    edges = np.linspace(lo, x, 11, axis=-1)
    yl, wl = (a.reshape(x.size, -1) for a in gauss_legendre(edges[:, :-1], edges[:, 1:], 16))
    edges = np.linspace(x, hi, 11, axis=-1)
    yr, wr = (a.reshape(x.size, -1) for a in gauss_legendre(edges[:, :-1], edges[:, 1:], 16))
    phi_l = greens.potential_massive(x[:, None] - yl, d=1, nu=nu, eps=nu * eps)
    phi_r = greens.potential_massive(yr - x[:, None], d=1, nu=nu, eps=nu * eps)
    inner = np.sum(wl * phi_l * fg.physical(yl) + wr * phi_r * fg.physical(yr), axis=1)
    return 0.5 * sigma**2 * float(np.sum(w * fg.physical(x) * inner))


class TestTiles:
    """The two nested rules reduce one tile of rows at a time: the same bits
    as the whole table, within a memory budget that the whole table breaks."""

    @pytest.mark.parametrize(
        "gaps", [1, GAPS_PER_TILE - 1, GAPS_PER_TILE, GAPS_PER_TILE + 1, 2048]
    )
    @pytest.mark.parametrize("descending", [False, True])
    def test_running_integral_keeps_every_bit(self, gaps, descending):
        h = lambda y: np.sin(3.0 * y) * np.exp(-0.5 * (y - 0.4) ** 2) + y
        x = np.sort(np.random.default_rng(gaps).uniform(0.0, 20.0, gaps))
        start = 0.0
        if descending:
            x, start = x[::-1], 20.0
        got = running_integral(h, start, x)
        assert got.tobytes() == untiled_running_integral(h, start, x).tobytes()

    def test_running_integral_calls_integrand_once_per_tile(self):
        calls = []

        def h(y):
            calls.append(y.shape)
            return y * y

        x = np.linspace(0.0, 4.0, 2 * GAPS_PER_TILE + 2)[1:]
        out = running_integral(h, 0.0, x)
        assert calls == [(GAPS_PER_TILE, 24), (GAPS_PER_TILE, 24), (1, 24)]
        assert out[-1] == pytest.approx(4.0**3 / 3.0, rel=1e-14)

    def test_running_integral_of_no_gaps_is_empty(self):
        assert running_integral(np.exp, 0.0, np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("tile", [24, 1000])
    def test_running_integral_at_other_tile_sizes(self, tile, monkeypatch):
        monkeypatch.setattr(quadrature, "TILE_NODES", tile)
        x = np.linspace(0.0, 7.0, 2049)[1:]
        got = running_integral(np.cos, 0.0, x)
        assert got.tobytes() == untiled_running_integral(np.cos, 0.0, x).tobytes()

    @pytest.mark.parametrize("tile", [160, 1000, TILE_NODES, 400 * 160])
    @pytest.mark.parametrize("nu, eps", [(1.0, 1.0), (1e-3, 1e-3), (1e3, 1e3)])
    def test_massive_oracle_keeps_every_bit(self, nu, eps, tile, monkeypatch):
        # one outer row per tile, six rows with a short last tile, the default
        # and the whole table in one tile
        monkeypatch.setattr(experiments, "TILE_NODES", tile)
        fg = gaussian_bump(0.3, 0.8)
        assert _massive_physical_oracle(fg, nu, eps, 1.0) == untiled_massive_oracle(fg, nu, eps, 1.0)

    @pytest.mark.parametrize(
        "name, run",
        # untiled: 5.42 MiB (fourier_limits) and 1.96 MiB (two_sided_cov)
        [("fourier_limits", exp_fourier_limits), ("two_sided_cov", exp_two_sided_cov)],
    )
    def test_experiment_peak_is_below_one_mib(self, name, run, traced_peak):
        cfg = parse_config_text(f"experiment = {name}\n")
        result, peak = traced_peak(run, cfg)
        assert result.summary["passed"]
        assert peak < 2**20
