"""Exact per-mode Ornstein-Uhlenbeck transitions of the spectral stochastic
heat equation, the Monte Carlo pairings they give, the Gaussian-equivalence
statistic, and an Euler-Maruyama oracle used only for verification.

Mode k follows the Ornstein-Uhlenbeck law of fourier_cov at q = lambda_k^2:
it relaxes at rate nu * lambda_k^2 toward a centered Gaussian with variance
sigma^2 / (2 nu lambda_k^2); the transition from time zero is sampled
exactly, so no time-discretization error enters production runs.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .basis import EigenBasis
from .fields import RngStream
from .fourier_cov import Spectrum, ou_decay, ou_variance, pairing

MC_BLOCK = 4096  # rows of normals drawn at a time; a memory tile only, the draws do not depend on it


def em_oracle_step(coeffs, lam2, nu: float, sigma: float, dt: float, rng: np.random.Generator) -> np.ndarray:
    """First-order weak Euler-Maruyama step of the modes u_k with eigenvalues
    lam2_k = lambda_k^2, for verification only:
    u_k <- u_k - nu lam2_k u_k dt + sigma sqrt(dt) xi_k."""
    coeffs, lam2 = np.asarray(coeffs, dtype=float), np.asarray(lam2, dtype=float)
    if coeffs.shape != lam2.shape:
        raise ValueError(f"expected {lam2.size} coefficients, got shape {coeffs.shape}")
    if not (nu > 0.0 and sigma >= 0.0):
        raise ValueError("need nu > 0 and sigma >= 0")
    if not dt > 0.0:
        raise ValueError(f"step size must be positive, got {dt}")
    stiff = nu * float(lam2.max()) * dt
    if stiff > 0.1:
        raise ValueError(f"Euler-Maruyama step nu*lam_max^2*dt = {stiff:.3g} > 0.1 is unstable; reduce dt")
    xi = rng.standard_normal(coeffs.shape)
    return coeffs * (1.0 - nu * lam2 * dt) + sigma * math.sqrt(dt) * xi


def kakutani_statistic(basis: EigenBasis, nu: float, t: float, terms: int | None = None) -> float:
    """Partial sum of the Gaussian-equivalence statistic
    sum_{k<=terms} (sqrt(1 - e^{-2 nu lam_k^2 t}) - 1)^2 comparing the
    time-t law with the invariant law; bounded partial sums certify
    absolute continuity. ``terms`` is an integer, a float refused.

    It holds at most two arrays of `terms` floats: the squared eigenvalues
    and their decays, then the decays and one scratch array for
    1 + sqrt(1 - q), each step written in place."""
    for name, value in (("nu", nu), ("time", t)):
        if not 0.0 < value < math.inf:  # NaN included
            raise ValueError(f"{name} must be {'positive' if value <= 0.0 else 'finite'}, got {value}")
    basis.require_positive_spectrum("dynamics")
    try:
        n = basis.size if terms is None else operator.index(terms)
    except TypeError:
        raise ValueError(f"terms must be an integer, got {terms!r}") from None
    if not 1 <= n <= basis.size:
        raise ValueError(f"terms must be in 1..{basis.size}")
    q = ou_decay(np.square(basis.lambdas[:n]), nu, 2.0 * t)
    # sqrt(1-q) - 1 written as -q / (1 + sqrt(1-q)) to avoid cancellation
    root = np.subtract(1.0, q)
    np.sqrt(root, out=root)
    root += 1.0
    q /= root
    return float(np.sum(np.square(q, out=q)))


def sample_gaussian(mean, cov, n_samples: int, stream: RngStream) -> np.ndarray:
    """n_samples rows mean + z factor^T of N(mean, cov), z ~ N(0, I_p) from the
    stream's one generator in tiles of MC_BLOCK rows; einsum rounds a row alike
    at any tile height (a BLAS product does not), so MC_BLOCK changes no bit.
    eigh eigenvalues below p eps times the largest count as zero, so a
    singular cov (repeated functionals) gives exactly repeated columns.

    Each tile of normals is drawn into one buffer owned by the call, its
    product is written straight into its rows of the output and the mean
    is added there in place: the call holds the output and one tile. IEEE
    addition commutes and -0.0 + 0.0 is +0.0, so the bits are those of
    mean + product."""
    evals, evecs = np.linalg.eigh(np.asarray(cov, dtype=float))
    floor = evals.size * np.finfo(float).eps * evals.max(initial=0.0)
    factor = evecs * np.sqrt(np.where(evals > floor, evals, 0.0))
    out = np.empty((n_samples, evals.size))
    tile = np.empty((min(MC_BLOCK, n_samples), evals.size))
    gen = stream.generator()
    for lo in range(0, n_samples, MC_BLOCK):
        rows = out[lo : lo + MC_BLOCK]
        np.einsum("ij,kj->ik", gen.standard_normal(out=tile[: len(rows)]), factor, out=rows)
        rows += mean
    return out


def sample_functional_values(
    basis: EigenBasis,
    nu: float,
    sigma: float,
    phi,
    t: float,
    n_samples: int,
    weights: np.ndarray,
    stream: RngStream,
) -> np.ndarray:
    """Monte Carlo draws of the pairings u[t, f_j] as an (n_samples, p)
    array, using one exact transition from time zero.

    ``phi`` is None (zero start) or a coefficient vector (deterministic
    start); the pairings are then exactly N(W^T (decay phi), W^T diag(var) W)
    with the decay and variance of fourier_cov's law, the covariance paired
    on the spectrum (lambda_k^2, mass 1), drawn by sample_gaussian.
    """
    basis.require_positive_spectrum("dynamics")
    lam2 = basis.lambdas_squared
    mean = 0.0 if phi is None else (ou_decay(lam2, nu, t) * np.asarray(phi, dtype=float)) @ weights
    cov = pairing(Spectrum(lam2, 1.0), weights, weights, lambda q: ou_variance(q, nu, sigma, t))
    return sample_gaussian(mean, cov, n_samples, stream)

