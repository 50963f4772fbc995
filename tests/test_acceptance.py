"""Acceptance suite: one test per certification criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

Every tolerance here is fixed; nothing is calibrated at run time.
"""

import math
import os

import numpy as np
import pytest

from gfflab.basis import build_box_basis, build_hermite_basis, build_interval_basis
from gfflab.cli import load_config, run
from gfflab.dynamics import kakutani_statistic, sample_functional_values
from gfflab.experiments import _massive_physical_oracle, _two_sided_gauss_oracle, standard_functionals
from gfflab.fields import RngStream, covariance_two_sided, sample_brownian_bridge
from gfflab.fourier_cov import (
    gaussian_bump,
    gff_covariance,
    heat_pairing,
    make_s0_function,
    massive_limit_covariance,
    ou_decay,
    ou_variance,
    transient_covariance,
    two_sided_covariance,
)
from gfflab.greens import (
    bessel_k,
    heat_poisson_identity,
    potential_massive,
    series_green,
)
from gfflab.quadrature import composite_legendre
from gfflab.stats import ks_gaussian, report_from_values


def verdict(number: int, name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {name}: {tag}" + (f"  ({detail})" if detail else ""))
    return ok


def stationary_zmax(basis, seed: int) -> float:
    nu = sigma = 1.0
    weights, labels = standard_functionals(basis)
    values = sample_functional_values(
        basis, nu, sigma, None, 5.0, 20000, weights, RngStream(seed, (0,))
    )
    # sigma^2 / (2 nu lambda_k^2) per mode, written out apart from the law
    target = sigma**2 / (2.0 * nu) * weights.T @ (weights / basis.lambdas_squared[:, None])
    report = report_from_values(values, target=target, labels=labels)
    return report.zmax


def test_criterion_01_stationary_bounded_domain():
    basis = build_interval_basis("dirichlet", 0.0, 1.0, 64)
    zmax = stationary_zmax(basis, seed=7)
    ok = verdict(1, "stationary law, interval Laplacian", zmax < 4.0, f"zmax={zmax:.2f}")
    assert ok


def test_criterion_02_ou_exactness(em_moments, em_ensemble):
    # the exact transition against the Euler-Maruyama oracle, lambda = nu = sigma = 1
    n, t_end = 100000, 1.0
    decay, var_exact = ou_decay(1.0, 1.0, t_end), ou_variance(1.0, 1.0, 1.0, t_end)

    # exact one-step draws against the closed form, 3 sigma bands
    basis = build_interval_basis("dirichlet", 0.0, math.pi, 1)  # lambda = 1
    exact = sample_functional_values(
        basis, 1.0, 1.0, np.array([1.0]), t_end, n, np.array([[1.0]]), RngStream(9, (0,))
    )[:, 0]
    sample_ok = abs(exact.mean() - decay) < 3.0 * math.sqrt(var_exact / n) and abs(
        exact.var(ddof=1) - var_exact
    ) < 3.0 * var_exact * math.sqrt(2.0 / n)

    # em_oracle_step on n paths at dt = 1e-2 against the chain's exact
    # moments m <- (1 - dt) m, v <- (1 - dt)^2 v + dt at that dt
    dt = 1e-2
    u = em_ensemble(n, dt, t_end, RngStream(8, (0,)))
    em_mean, em_var = em_moments(dt, t_end)
    em_ok = abs(u.mean() - em_mean) < 3.0 * math.sqrt(em_var / n) and abs(
        u.var(ddof=1) - em_var
    ) < 3.0 * em_var * math.sqrt(2.0 / n)

    # the chain's moments reach the exact ones at weak order 1 (gaps halve
    # with dt) and, extrapolated, at order 2
    exact_moments = np.array([decay, var_exact])
    dts = [1e-2 / 2**j for j in range(6)]
    gaps = np.array([np.subtract(em_moments(h, t_end), exact_moments) for h in dts])
    order_one = bool(np.all(np.abs(gaps[:-1] / gaps[1:] - 2.0) < np.array(dts[:-1])[:, None]))
    rich = 2.0 * np.array(em_moments(dts[-1] / 2, t_end)) - em_moments(dts[-1], t_end)
    order_two = bool(np.all(np.abs(rich - exact_moments) < 0.5 * (dts[-1] / 2) ** 2))

    # the transition variance composed over an uneven partition of [0, 1]
    # reproduces the closed form to 1e-14 relative
    var = 0.0
    for piece in (0.17, 0.03, 0.4, 0.25, 0.15):
        d, s = ou_decay(1.0, 1.0, piece), ou_variance(1.0, 1.0, 1.0, piece)
        var = var * d * d + s
    closed = 0.5 * (1.0 - math.exp(-2.0))
    exactness_ok = abs(var - closed) <= 1e-14 * closed

    ok = verdict(
        2, "exact transition vs Euler-Maruyama oracle",
        sample_ok and em_ok and order_one and order_two and exactness_ok,
        f"EM gap at dt={dts[-1]:.2e}: mean={gaps[-1, 0]:.2e}, var={gaps[-1, 1]:.2e}; "
        f"extrapolated gap={np.max(np.abs(rich - exact_moments)):.2e}",
    )
    assert ok


def test_criterion_03_brownian_bridge_covariance():
    grid = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    modes, n = 1024, 50000
    k = np.arange(1, modes + 1, dtype=float)
    weights = math.sqrt(2.0) * np.sin(np.pi * np.outer(k, grid)) / (k * np.pi)[:, None]
    stream = RngStream(10, (0,))
    chunks = []
    block = 5000
    for b in range(n // block):
        gen = stream.substream(b).generator()
        chunks.append(gen.standard_normal((block, modes)) @ weights)
    values = np.concatenate(chunks, axis=0)
    target = np.minimum.outer(grid, grid) - np.outer(grid, grid)
    report = report_from_values(values, target=target)

    boundary = sample_brownian_bridge(np.array([0.0, 1.0]), RngStream(10, (1,)).generator())
    boundary_ok = boundary[0] == 0.0 and boundary[1] == 0.0

    ok = verdict(
        3, "Brownian bridge covariance", report.zmax < 4.0 and boundary_ok,
        f"zmax={report.zmax:.2f}, boundary exact={boundary_ok}",
    )
    assert ok


def test_criterion_04_greens_identities():
    worst = 0.0
    for d in (1, 2, 3):
        lhs, rhs = heat_poisson_identity([1.0] + [0.0] * (d - 1), d=d, nu=1.0, eps=1.0)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    basis = build_interval_basis("dirichlet", 0.0, 1.0, 10000)
    series_gap = abs(series_green(basis, 1.0, 0.3, 0.7) - 0.09)
    ok = verdict(
        4, "heat kernel time-integral vs potential",
        worst < 1e-6 and series_gap < 1e-4,
        f"worst rel={worst:.1e}, series gap={series_gap:.1e}",
    )
    assert ok


def bessel_cosh_oracle(p: float, x: float) -> float:
    u_max = math.acosh(80.0 / x) if x < 80.0 else 2.0
    u, w = composite_legendre(0.0, u_max, 80, 20)
    return float(np.sum(w * np.exp(-x * np.cosh(u)) * np.cosh(p * u)))


def test_criterion_05_bessel_functions():
    worst_half = max(
        abs(bessel_k(0.5, x) - bessel_cosh_oracle(0.5, x)) / bessel_cosh_oracle(0.5, x)
        for x in (0.1, 1.0, 10.0)
    )
    worst_k0 = max(
        abs(bessel_k(0.0, x) - bessel_cosh_oracle(0.0, x)) / bessel_cosh_oracle(0.0, x)
        for x in (0.1, 1.0, 10.0)
    )
    half_formula = all(
        bessel_k(0.5, x) == math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        for x in (0.1, 1.0, 10.0)
    )
    ok = verdict(
        5, "modified Bessel functions vs integral oracle",
        worst_half < 1e-8 and worst_k0 < 1e-8 and half_formula,
        f"K_1/2 rel={worst_half:.1e}, K_0 rel={worst_k0:.1e}",
    )
    assert ok


def test_criterion_06_log_divergence_slope():
    nu = 1.0
    eps_list = [1e-3, 1e-4, 1e-5, 1e-6]
    vals = [potential_massive(1.0, d=2, nu=nu, eps=e) for e in eps_list]
    slope = float(np.polyfit(np.log(eps_list), vals, 1)[0])
    target = -1.0 / (4.0 * math.pi * nu)
    rel = abs(slope - target) / abs(target)
    ok = verdict(6, "planar small-mass log slope", rel < 0.01, f"rel={rel:.1e}")
    assert ok


def test_criterion_07_one_dimensional_covariance_chain():
    # (f, g, closed form from folded-normal means)
    pairs = [
        (lambda x: np.exp(-0.5 * (x - 0.4) ** 2), lambda x: np.exp(-0.5 * (x + 0.2) ** 2 / 0.49),
         _two_sided_gauss_oracle((0.4, 1.0), (-0.2, 0.7))),
        (lambda x: np.exp(-0.5 * x * x / 1.21), lambda x: np.exp(-0.5 * (x - 1.0) ** 2),
         _two_sided_gauss_oracle((0.0, 1.1), (1.0, 1.0))),
    ]
    worst = max(
        abs(covariance_two_sided(f, g, m) - target)
        for f, g, target in pairs
        for m in ("direct", "antiderivative")
    )
    modes_ok = worst < 1e-6

    s0a = make_s0_function(4.0, 0.25)
    s0b = make_s0_function(5.0, 0.3)
    exact_ok = two_sided_covariance(s0a, s0b) == gff_covariance(s0a, s0b)

    f = gaussian_bump(0.4, 1.0)
    g = gaussian_bump(-0.2, 0.7)
    gap = abs(two_sided_covariance(f, g) - gff_covariance(f, g, check_floor=False))
    not_gff_ok = gap > 1e-3

    ok = verdict(
        7, "two-sided Brownian covariance chain",
        modes_ok and exact_ok and not_gff_ok,
        f"worst closed-form error={worst:.1e}, exact={exact_ok}, mean-gap={gap:.1e}",
    )
    assert ok


def test_criterion_08_whole_space_limit():
    nu = sigma = 1.0
    f = make_s0_function(4.0, 0.25)
    t_star = 40.0 / (nu * (4.0 / 2.0) ** 2)
    limit = sigma**2 / (2.0 * nu) * gff_covariance(f, f)
    val = transient_covariance(f, f, t_star, nu, sigma)
    rel_gap = abs(val - limit) / limit

    phi = gaussian_bump(0.0, 1.0)
    transients = [heat_pairing(phi, f, t, nu) ** 2 for t in (0.05, 0.1, 0.2, 0.4)]
    monotone = all(a > b for a, b in zip(transients[:-1], transients[1:]))

    ok = verdict(
        8, "whole-space covariance limit", rel_gap < 1e-8 and monotone,
        f"rel gap={rel_gap:.1e}, transient monotone={monotone}",
    )
    assert ok


def test_criterion_09_massive_case():
    nu, eps, sigma = 1.0, 1.0, 1.0
    fg = gaussian_bump(0.3, 0.8)
    value = massive_limit_covariance(fg, fg, nu, eps, sigma)
    oracle = _massive_physical_oracle(0.8, nu, eps, sigma)
    oracle_rel = abs(value - oracle) / abs(oracle)

    f = make_s0_function(4.0, 0.25)
    limit = sigma**2 / (2.0 * nu) * gff_covariance(f, f)
    massless_gap = abs(massive_limit_covariance(f, f, nu, 1e-8, sigma) - limit)

    ok = verdict(
        9, "massive stationary covariance", oracle_rel < 1e-6 and massless_gap < 1e-4,
        f"oracle rel={oracle_rel:.1e}, massless gap={massless_gap:.1e}",
    )
    assert ok


def test_criterion_10_kakutani_convergence():
    t = 0.1
    interval = build_interval_basis("dirichlet", 0.0, 1.0, 10000)
    tail_interval = kakutani_statistic(interval, 1.0, t, 10000) - kakutani_statistic(
        interval, 1.0, t, 1000
    )
    hermite = build_hermite_basis(1, 10000)
    tail_hermite = kakutani_statistic(hermite, 1.0, t, 10000) - kakutani_statistic(
        hermite, 1.0, t, 1000
    )
    ok = verdict(
        10, "Gaussian-equivalence partial sums",
        tail_interval < 1e-12 and tail_hermite < 1e-6,
        f"interval tail={tail_interval:.1e}, hermite tail={tail_hermite:.1e}",
    )
    assert ok


def test_criterion_11_weyl_asymptotics():
    interval = build_interval_basis("dirichlet", 0.0, 1.0, 10000)
    k = np.arange(1, 10001, dtype=float)
    interval_err = float(np.max(np.abs(interval.lambdas / k - np.pi)))

    box = build_box_basis(2, 1.0, 10000)
    box_rel = abs(box.lambdas[-1] / math.sqrt(10000) - 2.0 * math.sqrt(math.pi)) / (
        2.0 * math.sqrt(math.pi)
    )

    hermite = build_hermite_basis(1, 10000)
    hermite_rel = abs(hermite.lambdas_squared[-1] / 10000 - 2.0) / 2.0

    ok = verdict(
        11, "eigenvalue growth laws",
        interval_err < 1e-10 and box_rel < 0.05 and hermite_rel < 0.05,
        f"interval={interval_err:.1e}, box rel={box_rel:.1e}, hermite rel={hermite_rel:.1e}",
    )
    assert ok


def test_criterion_12_hermite_stationarity():
    basis = build_hermite_basis(1, 64)
    zmax = stationary_zmax(basis, seed=12)

    # invariance of the stationary law under one extra exact transition
    gen = RngStream(13, (0,)).generator()
    n = 20000
    lam2 = basis.lambdas_squared
    scale = 1.0 / math.sqrt(2.0)
    vals = scale * gen.standard_normal((n, 64)) / basis.lambdas
    d, v = ou_decay(lam2, 1.0, 0.3), ou_variance(lam2, 1.0, 1.0, 0.3)
    vals = vals * d + np.sqrt(v) * gen.standard_normal((n, 64))
    p_values = []
    for kmode in (1, 32, 64):
        _, p = ks_gaussian(vals[:, kmode - 1], 0.0, 0.5 / lam2[kmode - 1])
        p_values.append(p)
    ks_ok = all(p > 1e-3 for p in p_values)

    ok = verdict(
        12, "stationary law, harmonic oscillator", zmax < 4.0 and ks_ok,
        f"zmax={zmax:.2f}, KS p={['%.3f' % p for p in p_values]}",
    )
    assert ok


def test_criterion_13_experiment_determinism(tmp_path):
    body = "experiment = stationary_bd\nM = 2000\nK = 16\nseed = 3\n"
    outputs = []
    for tag in ("one", "two"):
        cfg_path = os.path.join(tmp_path, f"{tag}.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(body + f"output = {tmp_path}/{tag}\n")
        run(load_config(cfg_path))
        with open(f"{tmp_path}/{tag}_stationary_bd.csv", "rb") as fh:
            csv_bytes = fh.read()
        with open(f"{tmp_path}/{tag}_stationary_bd_summary.json", "rb") as fh:
            json_bytes = fh.read()
        outputs.append((csv_bytes, json_bytes))
    ok = verdict(
        13, "byte-identical reruns",
        outputs[0][0] == outputs[1][0] and outputs[0][1] == outputs[1][1],
    )
    assert ok
