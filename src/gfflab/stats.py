"""Monte Carlo estimation and hypothesis testing: empirical covariance
matrices with standard errors and z-scores against analytic targets, a
one-sample Kolmogorov-Smirnov test with the asymptotic p-value, and
convergence-curve summaries.

Accumulations ride on numpy's pairwise summation over arrays laid out in
a fixed order, so estimates are reproducible run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

P_VALUE_FLOOR = 1e-12
DEFAULT_Z_THRESHOLD = 4.0


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
    samples: int
    seed_info: str = ""
    notes: list[str] = field(default_factory=list)

    @property
    def max_deviation(self) -> float:
        return float(np.max(np.abs(self.empirical - self.target)))


def report_from_values(
    values: np.ndarray,
    target: np.ndarray | None = None,
    labels: list[str] | None = None,
    z_threshold: float = DEFAULT_Z_THRESHOLD,
    seed_info: str = "",
) -> CovarianceReport:
    """Build a report from an (n_samples, p) matrix of functional values.

    Uses the unbiased sample covariance; standard errors come from the
    Gaussian fourth-moment formula var(c_ij) ~ (c_ii c_jj + c_ij^2) / n
    with empirical plug-ins. Zero-variance functionals are flagged in the
    notes instead of failing.
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
    stderr = np.sqrt((np.outer(diag, diag) + empirical**2) / n)

    notes = [f"degenerate functional {labels[j]}" for j in np.flatnonzero(diag == 0.0)]
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
        samples=n,
        seed_info=seed_info,
        notes=notes,
    )


def estimate_covariance(
    sampler,
    functionals,
    n_samples: int,
    rng: np.random.Generator,
    target: np.ndarray | None = None,
    labels: list[str] | None = None,
    z_threshold: float = DEFAULT_Z_THRESHOLD,
    seed_info: str = "",
) -> CovarianceReport:
    """Sample-by-sample estimation: sampler(rng) yields one draw, each
    functional maps a draw to a scalar."""
    if n_samples < 100:
        raise ValueError("fewer than 100 samples gives useless statistics")
    values = np.empty((n_samples, len(functionals)))
    for i in range(n_samples):
        draw = sampler(rng)
        for j, fn in enumerate(functionals):
            values[i, j] = fn(draw)
    return report_from_values(
        values, target=target, labels=labels, z_threshold=z_threshold, seed_info=seed_info
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


def ks_gaussian(samples, mu: float, var: float) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov statistic and asymptotic p-value
    against the normal law N(mu, var)."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 50:
        raise ValueError("need at least 50 samples for the KS test")
    if var <= 0.0:
        raise ValueError(f"variance must be positive, got {var}")
    sd = math.sqrt(var)
    cdf = np.array([0.5 * (1.0 + math.erf((v - mu) / (sd * math.sqrt(2.0)))) for v in x])
    grid = np.arange(1, n + 1) / n
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
    monotone = True
    for (_, prev), (_, cur) in zip(reports[:-1], reports[1:]):
        slack = 3.0 * float(np.max(cur.stderr))
        if cur.max_deviation > prev.max_deviation + slack:
            monotone = False
            break
    return ConvergenceSummary(rows=rows, monotone=monotone, passed=rows[-1]["passed"])


def write_report_csv(report: CovarianceReport, path: str) -> None:
    """Entry-per-row CSV with shortest round-trip floats; metadata rides in
    comment lines so read_report_csv restores the report bit-for-bit."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# samples={report.samples}\n")
        fh.write(f"# zmax={report.zmax!r}\n")
        fh.write(f"# passed={report.passed}\n")
        fh.write(f"# seed_info={report.seed_info}\n")
        fh.write(f"# labels={','.join(report.labels)}\n")
        for note in report.notes:
            fh.write(f"# note={note}\n")
        fh.write("i,j,label_i,label_j,empirical,target,stderr,z\n")
        p = len(report.labels)
        for i in range(p):
            for j in range(p):
                fh.write(
                    f"{i},{j},{report.labels[i]},{report.labels[j]},"
                    f"{float(report.empirical[i, j])!r},{float(report.target[i, j])!r},"
                    f"{float(report.stderr[i, j])!r},{float(report.z[i, j])!r}\n"
                )


def read_report_csv(path: str) -> CovarianceReport:
    meta = {"seed_info": "", "labels": ""}
    notes = []
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                if key == "note":
                    notes.append(value)
                else:
                    meta[key] = value
            elif line and not line.startswith("i,j"):
                rows.append(line.split(","))
    labels = meta["labels"].split(",")
    p = len(labels)
    mats = {name: np.empty((p, p)) for name in ("empirical", "target", "stderr", "z")}
    for row in rows:
        for mat, value in zip(mats.values(), row[4:]):
            mat[int(row[0]), int(row[1])] = float(value)
    return CovarianceReport(
        labels=labels,
        **mats,
        zmax=float(meta["zmax"]),
        passed=meta["passed"] == "True",
        samples=int(meta["samples"]),
        seed_info=meta["seed_info"],
        notes=notes,
    )
