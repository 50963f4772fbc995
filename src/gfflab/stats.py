"""Monte Carlo estimation and hypothesis testing: empirical covariance
matrices with standard errors and z-scores against analytic targets, a
one-sample Kolmogorov-Smirnov test with the asymptotic p-value, and
convergence-curve summaries.

Accumulations ride on numpy's pairwise summation over arrays laid out in
a fixed order, so estimates are reproducible run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

P_VALUE_FLOOR = 1e-12
DEFAULT_Z_THRESHOLD = 4.0
_erf = np.frompyfunc(math.erf, 1, 1)  # math.erf elementwise, bit for bit
# Abramowitz & Stegun 7.1.26, erf(z) = 1 - t P(t) exp(-z^2) with t = 1 / (1 + p z)
# for z >= 0 and |error| <= 1.5e-7; the coefficients of P from a5 down to a1
_AS_P = 0.3275911
_AS_COEFFS = (1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592)
# the bound moves each KS deviation by at most 7.5e-8 (half its erf error), so
# every sample whose bound deviation is within 4e-7 of the largest one holds
# the exact maximum
_KS_SLACK = 4e-7


@dataclass(eq=False)
class CovarianceReport:
    """Empirical vs target covariance with per-entry z-scores.

    zmax is the largest |empirical - target| / stderr over entries and the
    report passes when it stays below the configured threshold. Entries
    are correlated, so the default threshold 4 is deliberately loose
    (calibrated empirically rather than by a Bonferroni bound).
    """

    labels: list[str]
    empirical: np.ndarray
    target: np.ndarray
    stderr: np.ndarray
    z: np.ndarray
    zmax: float
    passed: bool

    @property
    def max_deviation(self) -> float:
        return float(np.max(np.abs(self.empirical - self.target)))


def report_from_values(
    values: np.ndarray,
    target: np.ndarray | None = None,
    labels: list[str] | None = None,
    z_threshold: float = DEFAULT_Z_THRESHOLD,
) -> CovarianceReport:
    """Build a report from an (n_samples, p) matrix of functional values.

    Uses the unbiased sample covariance; standard errors come from the
    Gaussian fourth-moment formula var(c_ij) ~ (c_ii c_jj + c_ij^2) / n
    with empirical plug-ins. A zero-variance functional whose target row is
    zero has z = 0 on its row instead of failing.
    """
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    if n < 100:
        raise ValueError("fewer than 100 samples gives useless statistics")
    labels = labels if labels is not None else [f"f{j+1}" for j in range(p)]
    centered = values - values.mean(axis=0)
    empirical = centered.T @ centered / (n - 1)
    empirical = 0.5 * (empirical + empirical.T)
    diag = np.diag(empirical)
    with np.errstate(over="ignore"):
        outer = np.outer(diag, diag)
        stderr = np.sqrt((outer + empirical**2) / n)
    # where c_ii c_jj underflows, or overflows (an infinite stderr gives z = 0
    # whatever the draw): sqrt(c_ii) sqrt(c_jj) sqrt((1 + rho^2) / n)
    rescale = ((outer < np.finfo(float).tiny) | (stderr == np.inf)) & np.outer(diag > 0.0, diag > 0.0)
    scale = np.outer(np.sqrt(diag), np.sqrt(diag))[rescale]
    stderr[rescale] = scale * np.sqrt((1.0 + (empirical[rescale] / scale) ** 2) / n)

    if target is None:
        target = empirical.copy()
    target = 0.5 * (np.asarray(target, dtype=float) + np.asarray(target, dtype=float).T)

    diff = np.abs(empirical - target)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(stderr > 0.0, diff / stderr, np.where(diff == 0.0, 0.0, np.inf))
    zmax = float(np.max(z))
    return CovarianceReport(
        labels=labels,
        empirical=empirical,
        target=target,
        stderr=stderr,
        z=z,
        zmax=zmax,
        passed=bool(zmax < z_threshold),
    )


def kolmogorov_sf(lam: float) -> float:
    """Survival function of the asymptotic Kolmogorov distribution."""
    if lam <= 0.0:
        return 1.0
    if lam < 0.5:
        # Jacobi-transformed series, accurate where the direct one cancels
        s = 0.0
        for j in range(1, 20, 2):
            s += math.exp(-(j * math.pi) ** 2 / (8.0 * lam * lam))
        return 1.0 - math.sqrt(2.0 * math.pi) / lam * s
    s = 0.0
    for j in range(1, 200):
        term = math.exp(-2.0 * (j * lam) ** 2)
        s += -term if j % 2 == 0 else term
        if term < 1e-18:
            break
    return 2.0 * s


def _erf_bound(z: np.ndarray) -> np.ndarray:
    """erf within 1.5e-7 by Abramowitz & Stegun 7.1.26, vectorised; |z| is
    capped at 10, beyond which erf is 1 in double precision."""
    a = np.minimum(np.abs(z), 10.0)
    t = 1.0 / (1.0 + _AS_P * a)
    poly = np.zeros_like(t)
    for c in _AS_COEFFS:
        poly = poly * t + c
    return np.copysign(1.0 - poly * t * np.exp(-a * a), z)


def ks_gaussian(samples, mu: float, var: float) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov statistic and asymptotic p-value
    against the normal law N(mu, var). The CDF comes from math.erf, taken
    only at the samples that a 1.5e-7 bound of it cannot rule out as the
    largest deviation; D and p are those of math.erf at every sample."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 50:
        raise ValueError("need at least 50 samples for the KS test")
    if not var > 0.0:
        raise ValueError(f"variance must be positive, got {var}")
    if not (math.isfinite(mu) and np.all(np.isfinite(x))):
        raise ValueError("KS samples and mean must be finite")
    sd = math.sqrt(var)
    z = (x - mu) / (sd * math.sqrt(2.0))
    grid = np.arange(1, n + 1) / n
    cdf = 0.5 * (1.0 + _erf_bound(z))
    dev = np.maximum(grid - cdf, cdf - (grid - 1.0 / n))
    near = np.flatnonzero(dev >= np.max(dev) - _KS_SLACK)
    cdf = 0.5 * (1.0 + _erf(z[near]).astype(float))
    grid = grid[near]
    d = float(max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / n))))
    p = kolmogorov_sf(math.sqrt(n) * d)
    return d, float(min(max(p, P_VALUE_FLOOR), 1.0))


@dataclass(eq=False)
class ConvergenceSummary:
    rows: list[dict]
    monotone: bool
    passed: bool


def summarize_convergence(reports: list[tuple[float, CovarianceReport]]) -> ConvergenceSummary:
    """Per-time zmax and transient magnitude max|empirical - target|, a
    monotone-trend flag (non-increasing transients, with slack for the
    statistical noise floor), and the pass state of the final time."""
    if not reports:
        raise ValueError("no reports to summarize")
    rows = [
        {"t": float(t), "zmax": rep.zmax, "transient": rep.max_deviation, "passed": rep.passed}
        for t, rep in reports
    ]
    monotone = not any(
        cur.max_deviation > prev.max_deviation + 3.0 * float(np.max(cur.stderr))
        for (_, prev), (_, cur) in zip(reports[:-1], reports[1:])
    )
    return ConvergenceSummary(rows=rows, monotone=monotone, passed=rows[-1]["passed"])
