"""The experiment registry behind the command-line runner: each experiment
binds samplers, kernels and statistics into one named check that emits CSV
rows, a structured summary, and a pass/fail verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, fields, fourier_cov, greens, stats
from .basis import (
    BasisKind,
    EigenBasis,
    build_box_basis,
    build_hermite_basis,
    build_interval_basis,
    parse_basis_kind,
)
from .fields import RngStream
from .quadrature import composite_legendre, gauss_legendre

# raw-config-key defaults applied per experiment before user overrides
EXPERIMENT_DEFAULTS: dict[str, dict] = {
    "stationary_bd": {"t": 5.0, "K": 64, "M": 20000},
    "stationary_hermite": {"t": 5.0, "K": 64, "M": 20000, "basis.kind": "hermite"},
    "convergence_curve": {"K": 64, "M": 20000, "t_list": "0.1,0.5,1,2"},
    "kakutani": {"t": 0.1, "K": 10000},
    "greens_checks": {"tol.rel": 1e-6},
    "heat_poisson": {"K": 4000, "tol.rel": 1e-6},
    "log_divergence_2d": {},
    "bridge_cov": {"M": 50000, "K": 1024},
    "two_sided_cov": {"tol.rel": 1e-6},
    "fourier_limits": {"tol.rel": 1e-6},
    "weyl": {"K": 10000},
}


@dataclass(eq=False)
class ExperimentResult:
    name: str
    columns: list[str]
    rows: list[dict]
    summary: dict
    passed: bool


def build_basis(cfg) -> EigenBasis:
    kind = parse_basis_kind(cfg.basis_kind)
    if kind is BasisKind.BOX_DIRICHLET:
        return build_box_basis(cfg.d, cfg.side, cfg.modes)
    if kind is BasisKind.HERMITE:
        return build_hermite_basis(cfg.d, cfg.modes)
    return build_interval_basis(kind, cfg.a, cfg.b, cfg.modes)


def standard_functionals(basis: EigenBasis) -> tuple[list[np.ndarray], list[str]]:
    """Six fixed coefficient functionals used by the stationary checks."""
    k = np.arange(1, basis.size + 1, dtype=float)
    units = np.zeros((3, basis.size))  # e1, e2, e3; repeated when K < 3
    units[np.arange(3), np.minimum(np.arange(3), basis.size - 1)] = 1.0
    fns = [
        *units,
        1.0 / k,
        (-1.0) ** (k + 1) / k,
        np.exp(-k / 8.0),
    ]
    labels = ["e1", "e2", "e3", "1/k", "(-1)^(k+1)/k", "exp(-k/8)"]
    return fns, labels


def _report_rows(report: stats.CovarianceReport) -> tuple[list[str], list[dict]]:
    columns = ["i", "j", "label_i", "label_j", "empirical", "target", "stderr", "z"]
    p = len(report.labels)
    rows = [
        {"i": i + 1, "j": j + 1, "label_i": report.labels[i], "label_j": report.labels[j],
         **{c: float(getattr(report, c)[i, j]) for c in columns[4:]}}
        for i in range(p)
        for j in range(i, p)
    ]
    return columns, rows


def _stationary_invariance_pvalues(basis, cfg, stream: RngStream, extra_dt: float = 0.3):
    """KS p-values of the marginals of modes 1, K // 2 and K (the distinct
    ones when K < 4) after one extra exact step from a stationary start (the
    law must not move)."""
    n = min(cfg.samples, 5000)
    gen = stream.generator()
    modes = sorted({1, max(1, basis.size // 2), basis.size})
    idx = np.subtract(modes, 1)
    lam2 = basis.lambdas_squared[idx]
    scale = cfg.sigma / math.sqrt(2.0 * cfg.nu)
    start = scale * gen.standard_normal((n, len(modes))) / basis.lambdas[idx]
    decay, var = dynamics.transition_moments(lam2, cfg.nu, cfg.sigma, extra_dt)
    stepped = start * decay + np.sqrt(var) * gen.standard_normal((n, len(modes)))
    pvalues = [stats.ks_gaussian(stepped[:, j], 0.0, scale**2 / v)[1] for j, v in enumerate(lam2)]
    return list(zip(modes, pvalues))


def _exp_stationary(cfg, name: str) -> ExperimentResult:
    basis = build_basis(cfg)
    fns, labels = standard_functionals(basis)
    stream = RngStream(cfg.seed, 0)
    weights = np.stack(fns, axis=1)
    values = dynamics.sample_functional_values(
        basis, cfg.nu, cfg.sigma, None, cfg.t, cfg.samples, weights, stream, jobs=cfg.jobs
    )
    target = dynamics.stationary_target(basis, cfg.nu, cfg.sigma, weights)
    report = stats.report_from_values(
        values, target=target, labels=labels, z_threshold=cfg.z_threshold,
        seed_info=f"seed={cfg.seed}",
    )
    columns, rows = _report_rows(report)
    ks = _stationary_invariance_pvalues(basis, cfg, RngStream(cfg.seed, 1))
    ks_ok = all(p > cfg.ks_alpha for _, p in ks)
    summary = {
        "experiment": name,
        "zmax": report.zmax,
        "z_threshold": cfg.z_threshold,
        "samples": cfg.samples,
        "t": cfg.t,
        "ks_invariance": {f"mode_{k}": p for k, p in ks},
        "passed": report.passed and ks_ok,
    }
    return ExperimentResult(name, columns, rows, summary, report.passed and ks_ok)


def exp_stationary_bd(cfg) -> ExperimentResult:
    """Stationary covariance of the bounded-domain heat evolution against
    the free-field target, plus one-step invariance of the stationary law."""
    return _exp_stationary(cfg, "stationary_bd")


def exp_stationary_hermite(cfg) -> ExperimentResult:
    """Same stationary check driven by the harmonic-oscillator basis."""
    return _exp_stationary(cfg, "stationary_hermite")


def exp_convergence_curve(cfg) -> ExperimentResult:
    """Approach to the stationary covariance along a time grid: the maximal
    deviation from the limit must shrink and the final time must pass."""
    basis = build_basis(cfg)
    fns, labels = standard_functionals(basis)
    curve = dynamics.convergence_curve(
        basis, cfg.nu, cfg.sigma, None, cfg.t_list, cfg.samples, fns,
        RngStream(cfg.seed, 0), z_threshold=cfg.z_threshold, jobs=cfg.jobs,
    )
    summ = stats.summarize_convergence(curve)
    columns = ["t", "zmax", "transient", "passed"]
    rows = [dict(r) for r in summ.rows]
    summary = {
        "experiment": "convergence_curve",
        "monotone": summ.monotone,
        "final_passed": summ.passed,
        "passed": summ.monotone and summ.passed,
    }
    return ExperimentResult("convergence_curve", columns, rows, summary, summ.monotone and summ.passed)


def exp_kakutani(cfg) -> ExperimentResult:
    """Convergence of the Gaussian-equivalence partial sums in the mode
    count, certifying absolute continuity of the time-t law."""
    basis = build_basis(cfg)
    checkpoints = [n for n in (10, 100, 1000, 10000) if n < basis.size] + [basis.size]
    columns = ["terms", "statistic", "tail_from_previous"]
    rows = []
    prev = None
    for n in checkpoints:
        s = dynamics.kakutani_statistic(basis, cfg.nu, cfg.t, n)
        rows.append(
            {"terms": n, "statistic": s, "tail_from_previous": 0.0 if prev is None else s - prev}
        )
        prev = s
    tail_tol = cfg.rel_tol
    if tail_tol is None:  # tol.rel not set: the default depends on the basis
        tail_tol = 1e-6 if basis.kind is BasisKind.HERMITE else 1e-12
    tail = rows[-1]["statistic"] - rows[max(0, len(rows) - 2)]["statistic"]
    passed = tail < tail_tol
    summary = {
        "experiment": "kakutani",
        "t": cfg.t,
        "statistic": rows[-1]["statistic"],
        "tail": tail,
        "tail_tolerance": tail_tol,
        "passed": passed,
    }
    return ExperimentResult("kakutani", columns, rows, summary, passed)


def _bessel_cosh_oracle(p: float, x: float) -> float:
    """K_p by quadrature of exp(-x cosh u) cosh(p u) on (0, inf)."""
    u_max = math.acosh(80.0 / x) if x < 80.0 else 2.0
    u, w = composite_legendre(0.0, u_max, 60, 20)
    return float(np.sum(w * np.exp(-x * np.cosh(u)) * np.cosh(p * u)))


def exp_greens_checks(cfg) -> ExperimentResult:
    """Closed-form kernels against independent quadrature oracles."""
    columns = ["kernel", "x", "lhs", "rhs", "relerr"]
    rows = []

    def add(kernel, x, lhs, rhs):
        rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        rows.append({"kernel": kernel, "x": float(x), "lhs": lhs, "rhs": rhs, "relerr": rel})

    for x in (0.1, 1.0, 10.0):
        add("bessel_k_half", x, greens.bessel_k(0.5, x), _bessel_cosh_oracle(0.5, x))
    for x in (0.5, 1.0, 5.0):
        add("bessel_k0", x, greens.bessel_k(0.0, x), _bessel_cosh_oracle(0.0, x))

    spec = greens.KernelSpec(greens.KernelKind.HEAT, d=1, nu=cfg.nu, eps=cfg.eps)
    xg, wg = composite_legendre(-40.0, 40.0, 80, 16)
    mass = float(np.sum(wg * greens.heat_kernel(spec, 0.7, xg)))
    add("heat_kernel_mass", 0.7, mass, math.exp(-0.7 * cfg.eps))

    spec2 = greens.KernelSpec(greens.KernelKind.MASSIVE_POTENTIAL, d=2, nu=cfg.nu, eps=cfg.eps)
    lhs, rhs = greens.heat_poisson_identity(
        greens.KernelSpec(greens.KernelKind.HEAT, d=2, nu=cfg.nu, eps=cfg.eps), 1.0
    )
    add("potential_massive_2d", 1.0, greens.potential_massive(spec2, 1.0), lhs)

    z3 = greens.KernelSpec(greens.KernelKind.ZERO_MASS_POTENTIAL, d=3, nu=cfg.nu)
    m3 = greens.KernelSpec(greens.KernelKind.MASSIVE_POTENTIAL, d=3, nu=cfg.nu, eps=1e-8)
    limit_lhs = greens.potential_massive(m3, 2.0)
    limit_rhs = greens.potential_zero_mass(z3, 2.0)
    add("zero_mass_limit_3d", 2.0, limit_lhs, limit_rhs)

    for z in (0.5, 1.5, 3.7):
        add("gamma", z, greens.gamma_fn(z), math.gamma(z))

    worst = max(r["relerr"] for r in rows)
    # the massless limit converges like sqrt(eps) relative; gate it on the
    # absolute gap instead
    passed = abs(limit_lhs - limit_rhs) < 1e-4 and all(
        r["relerr"] < cfg.rel_tol for r in rows if r["kernel"] != "zero_mass_limit_3d"
    )
    summary = {"experiment": "greens_checks", "worst_relerr": worst, "passed": passed}
    return ExperimentResult("greens_checks", columns, rows, summary, passed)


def exp_heat_poisson(cfg) -> ExperimentResult:
    """Time integral of the heat kernel against the potential, whole space
    and bounded interval."""
    columns = ["kernel", "x", "lhs", "rhs", "relerr"]
    rows = []
    for d in (1, 2, 3):
        spec = greens.KernelSpec(greens.KernelKind.HEAT, d=d, nu=cfg.nu, eps=cfg.eps)
        lhs, rhs = greens.heat_poisson_identity(spec, 1.0)
        rows.append(
            {"kernel": f"whole_space_d{d}", "x": 1.0, "lhs": lhs, "rhs": rhs,
             "relerr": abs(lhs - rhs) / abs(rhs)}
        )
    basis = build_interval_basis("dirichlet", 0.0, 1.0, cfg.modes)
    val = greens.series_green(basis, cfg.nu, 0.3, 0.7, cfg.modes)
    exact = (min(0.3, 0.7) - 0.3 * 0.7) / cfg.nu
    rows.append(
        {"kernel": "interval_series", "x": 0.3, "lhs": val, "rhs": exact,
         "relerr": abs(val - exact) / abs(exact)}
    )
    passed = all(
        r["relerr"] < (cfg.rel_tol if r["kernel"].startswith("whole") else 1e-3) for r in rows
    )
    summary = {
        "experiment": "heat_poisson",
        "worst_relerr": max(r["relerr"] for r in rows),
        "passed": passed,
    }
    return ExperimentResult("heat_poisson", columns, rows, summary, passed)


def exp_log_divergence_2d(cfg) -> ExperimentResult:
    """Small-mass blowup of the planar potential: the slope of Phi_eps
    against log(eps) must match -1/(4 pi nu)."""
    eps_list = [1e-3, 1e-4, 1e-5, 1e-6]
    columns = ["eps", "phi_eps", "phi_0", "residual"]
    z2 = greens.KernelSpec(greens.KernelKind.ZERO_MASS_POTENTIAL, d=2, nu=cfg.nu)
    phi0 = greens.potential_zero_mass(z2, 1.0)
    residuals = greens.log_divergence_check(cfg.nu, 1.0, eps_list)
    vals = []
    rows = []
    for eps, res in zip(eps_list, residuals):
        spec = greens.KernelSpec(greens.KernelKind.MASSIVE_POTENTIAL, d=2, nu=cfg.nu, eps=eps)
        v = greens.potential_massive(spec, 1.0)
        vals.append(v)
        rows.append({"eps": eps, "phi_eps": v, "phi_0": phi0, "residual": float(res)})
    slope = float(np.polyfit(np.log(eps_list), vals, 1)[0])
    target = -1.0 / (4.0 * math.pi * cfg.nu)
    rel = abs(slope - target) / abs(target)
    passed = rel < 0.01
    summary = {
        "experiment": "log_divergence_2d",
        "slope": slope,
        "target": target,
        "relerr": rel,
        "passed": passed,
    }
    return ExperimentResult("log_divergence_2d", columns, rows, summary, passed)


def exp_bridge_cov(cfg) -> ExperimentResult:
    """Monte Carlo covariance of the Brownian bridge series against
    min(x, y) - x y, with exact zeros at the endpoints."""
    grid = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    modes = cfg.modes
    k = np.arange(1, modes + 1, dtype=float)
    weights = np.sqrt(2.0) * np.sin(np.pi * np.outer(k, grid)) / (k * np.pi)[:, None]
    target = np.minimum.outer(grid, grid) - np.outer(grid, grid)

    values = dynamics.sample_gaussian(
        np.zeros(grid.size), weights.T @ weights, cfg.samples, RngStream(cfg.seed, 0)
    )
    report = stats.report_from_values(
        values, target=target, labels=[f"x={v}" for v in grid],
        z_threshold=cfg.z_threshold, seed_info=f"seed={cfg.seed}",
    )
    boundary = fields.sample_brownian_bridge(
        np.array([0.0, 1.0]), RngStream(cfg.seed, 1).generator(), modes=modes
    )
    boundary_ok = bool(np.all(boundary == 0.0))
    columns, rows = _report_rows(report)
    passed = report.passed and boundary_ok
    summary = {
        "experiment": "bridge_cov",
        "zmax": report.zmax,
        "boundary_exact_zero": boundary_ok,
        "samples": cfg.samples,
        "modes": modes,
        "passed": passed,
    }
    return ExperimentResult("bridge_cov", columns, rows, summary, passed)


def exp_two_sided_cov(cfg) -> ExperimentResult:
    """The three quadrature routes to the two-sided Brownian covariance
    agree, the annulus route matches the free-field integral exactly, and
    a pair with nonzero mean certifies the two functionals differ."""
    pairs = {
        "gauss_pair": (
            lambda x: np.exp(-0.5 * (x - 0.4) ** 2),
            lambda x: np.exp(-0.5 * (x + 0.2) ** 2 / 0.49),
        ),
        "odd_pair": (
            lambda x: x * np.exp(-x * x),
            lambda x: x * np.exp(-x * x),
        ),
    }
    columns = ["pair", "mode", "value", "spread"]
    rows = []
    worst = 0.0
    for name, (f, g) in pairs.items():
        vals = {m: fields.covariance_two_sided(f, g, m) for m in ("direct", "antiderivative", "fourier")}
        spread = max(vals.values()) - min(vals.values())
        worst = max(worst, spread)
        for m, v in vals.items():
            rows.append({"pair": name, "mode": m, "value": v, "spread": spread})

    s0a = fourier_cov.make_s0_function(4.0, 0.25)
    s0b = fourier_cov.make_s0_function(5.0, 0.3)
    lhs = fields.covariance_two_sided(s0a, s0b, "fourier")
    rhs = fourier_cov.gff_covariance(s0a, s0b, nu_scale=1.0)
    exact_equal = lhs == rhs
    rows.append({"pair": "s0_pair", "mode": "fourier", "value": lhs, "spread": abs(lhs - rhs)})
    rows.append({"pair": "s0_pair", "mode": "gff", "value": rhs, "spread": abs(lhs - rhs)})

    tfa = fourier_cov.gaussian_bump(0.4, 1.0)
    tfb = fourier_cov.gaussian_bump(-0.2, 0.7)
    sub = fields.covariance_two_sided(tfa, tfb, "fourier")
    unsub = fourier_cov.gff_covariance(tfa, tfb, nu_scale=1.0, check_floor=False)
    gap = abs(sub - unsub)
    rows.append({"pair": "nonzero_mean", "mode": "subtracted", "value": sub, "spread": gap})
    rows.append({"pair": "nonzero_mean", "mode": "unsubtracted", "value": unsub, "spread": gap})

    passed = worst < cfg.rel_tol and exact_equal and gap > 1e-3
    summary = {
        "experiment": "two_sided_cov",
        "worst_mode_spread": worst,
        "s0_exact_equality": exact_equal,
        "nonzero_mean_gap": gap,
        "passed": passed,
    }
    return ExperimentResult("two_sided_cov", columns, rows, summary, passed)


def exp_fourier_limits(cfg) -> ExperimentResult:
    """Whole-space limits at covariance level: the finite-time covariance
    reaches the free-field integral, the initial-condition transient
    decays monotonically, and the massive limit matches its physical-space
    oracle and the massless limit."""
    f = fourier_cov.make_s0_function(4.0, 0.25)
    phi = fourier_cov.gaussian_bump(0.0, 1.0)
    columns = ["check", "t_or_eps", "value", "target", "gap"]
    rows = []

    limit = fourier_cov.gff_covariance(f, f, nu_scale=cfg.sigma**2 / (2.0 * cfg.nu))
    t_star = 40.0 / (cfg.nu * (f.params["freq"] / 2.0) ** 2)
    at_t = fourier_cov.transient_covariance(f, f, None, t_star, cfg.nu, cfg.sigma)
    rel_gap = abs(at_t - limit) / limit
    rows.append({"check": "noise_limit", "t_or_eps": t_star, "value": at_t, "target": limit, "gap": rel_gap})

    t_grid = [0.05, 0.1, 0.2, 0.4]
    transients = []
    for t in t_grid:
        full = fourier_cov.transient_covariance(f, f, phi, t, cfg.nu, cfg.sigma)
        noise = fourier_cov.transient_covariance(f, f, None, t, cfg.nu, cfg.sigma)
        transients.append(full - noise)
        rows.append({"check": "phi_transient", "t_or_eps": t, "value": full - noise, "target": 0.0, "gap": full - noise})
    monotone = all(a > b for a, b in zip(transients[:-1], transients[1:]))

    fg = fourier_cov.gaussian_bump(0.3, 0.8)
    val = fourier_cov.massive_limit_covariance(fg, fg, cfg.nu, cfg.eps, cfg.sigma)
    oracle = _massive_physical_oracle(fg, cfg.nu, cfg.eps, cfg.sigma)
    massive_rel = abs(val - oracle) / abs(oracle)
    rows.append({"check": "massive_vs_physical", "t_or_eps": cfg.eps, "value": val, "target": oracle, "gap": massive_rel})

    small = fourier_cov.massive_limit_covariance(f, f, cfg.nu, 1e-8, cfg.sigma)
    eps_gap = abs(small - limit)
    rows.append({"check": "massless_limit", "t_or_eps": 1e-8, "value": small, "target": limit, "gap": eps_gap})

    passed = rel_gap < 1e-8 and monotone and massive_rel < cfg.rel_tol and eps_gap < 1e-4
    summary = {
        "experiment": "fourier_limits",
        "noise_limit_relgap": rel_gap,
        "phi_transient_monotone": monotone,
        "massive_relerr": massive_rel,
        "massless_gap": eps_gap,
        "passed": passed,
    }
    return ExperimentResult("fourier_limits", columns, rows, summary, passed)


def _massive_physical_oracle(fg, nu: float, eps: float, sigma: float) -> float:
    """sigma^2/2 times the double integral of f Phi f with the potential of
    mass nu*eps and diffusivity nu, inner integrals split at the kernel kink."""
    center = fg.center[0] if fg.center else 0.0
    spec = greens.KernelSpec(greens.KernelKind.MASSIVE_POTENTIAL, d=1, nu=nu, eps=nu * eps)
    width = fg.params["width"]
    lo, hi = center - 12.0 * width, center + 12.0 * width
    x, w = gauss_legendre(lo, hi, 400)
    # one 160-node rule on each side of every outer node, all in one call
    yl, wl = gauss_legendre(lo, x, 160)
    yr, wr = gauss_legendre(x, hi, 160)
    phi_l = greens.potential_massive(spec, x[:, None] - yl)
    phi_r = greens.potential_massive(spec, yr - x[:, None])
    inner = np.sum(wl * phi_l * fg.physical(yl) + wr * phi_r * fg.physical(yr), axis=1)
    return 0.5 * sigma**2 * float(np.sum(w * fg.physical(x) * inner))


def exp_weyl(cfg) -> ExperimentResult:
    """Eigenvalue growth laws: exact on the interval, within 5 percent of
    the counting constants for the box and the oscillator."""
    columns = ["kind", "terms", "lambda_K", "ratio", "c_weyl", "relerr"]
    rows = []

    b1 = build_interval_basis("dirichlet", 0.0, 1.0, min(cfg.modes, 10000))
    k = np.arange(1, b1.size + 1, dtype=float)
    interval_err = float(np.max(np.abs(b1.lambdas / k - np.pi)))
    rows.append(
        {"kind": "interval_dirichlet", "terms": b1.size, "lambda_K": float(b1.lambdas[-1]),
         "ratio": float(b1.lambdas[-1] / b1.size), "c_weyl": b1.c_weyl, "relerr": interval_err / np.pi}
    )

    b2 = build_box_basis(2, 1.0, cfg.modes)
    ratio2 = float(b2.lambdas[-1] / math.sqrt(b2.size))
    rel2 = abs(ratio2 - b2.c_weyl) / b2.c_weyl
    rows.append(
        {"kind": "box_d2", "terms": b2.size, "lambda_K": float(b2.lambdas[-1]),
         "ratio": ratio2, "c_weyl": b2.c_weyl, "relerr": rel2}
    )

    b3 = build_hermite_basis(1, cfg.modes)
    ratio3 = float(b3.lambdas_squared[-1] / b3.size)
    rel3 = abs(ratio3 - 2.0) / 2.0
    rows.append(
        {"kind": "hermite_d1", "terms": b3.size, "lambda_K": float(b3.lambdas[-1]),
         "ratio": ratio3, "c_weyl": b3.c_weyl, "relerr": rel3}
    )

    passed = interval_err < 1e-10 and rel2 < 0.05 and rel3 < 0.05
    summary = {
        "experiment": "weyl",
        "interval_max_err": interval_err,
        "box_relerr": rel2,
        "hermite_relerr": rel3,
        "passed": passed,
    }
    return ExperimentResult("weyl", columns, rows, summary, passed)


EXPERIMENTS = {
    "stationary_bd": exp_stationary_bd,
    "stationary_hermite": exp_stationary_hermite,
    "convergence_curve": exp_convergence_curve,
    "kakutani": exp_kakutani,
    "greens_checks": exp_greens_checks,
    "heat_poisson": exp_heat_poisson,
    "log_divergence_2d": exp_log_divergence_2d,
    "bridge_cov": exp_bridge_cov,
    "two_sided_cov": exp_two_sided_cov,
    "fourier_limits": exp_fourier_limits,
    "weyl": exp_weyl,
}
