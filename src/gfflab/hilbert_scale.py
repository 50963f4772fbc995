"""Coefficient-space arithmetic for the scale of spaces generated by an
eigen-system: weighted norms, powers of the generating operator, duality
pairings, and the Hilbert-Schmidt embedding test.

Everything here acts on finite truncations; infinite-dimensional statements
are probed through the growth of partial sums in the truncation size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import EigenBasis


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """A finite coefficient sequence f_k = (f, h_k) relative to a basis."""

    basis: EigenBasis
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)  # a copy: the caller's array stays writeable
        if c.shape != (self.basis.size,):
            raise ValueError(
                f"expected {self.basis.size} coefficients, got shape {c.shape}"
            )
        object.__setattr__(self, "coeffs", c)
        self.coeffs.setflags(write=False)


def unit_field(basis: EigenBasis, k: int) -> CoefficientField:
    """The k-th coordinate field e_k (1-based)."""
    if not 1 <= k <= basis.size:
        raise ValueError(f"index {k} out of range 1..{basis.size}")
    c = np.zeros(basis.size)
    c[k - 1] = 1.0
    return CoefficientField(basis, c)


def _require_positive_spectrum(basis: EigenBasis, what: str) -> None:
    if basis.lambda_min <= 0.0:
        raise ValueError(
            f"{what} requires lambda_1 > 0; basis has lambda_1 = {basis.lambda_min}"
            " (Neumann-type constant mode)"
        )


def norm_gamma(f: CoefficientField, gamma: float) -> float:
    """The gamma-norm sqrt(sum_k lambda_k^(2 gamma) f_k^2)."""
    if gamma != 0.0:
        _require_positive_spectrum(f.basis, "norm_gamma with gamma != 0")
        weights = f.basis.lambdas ** (2.0 * gamma)
        return float(np.sqrt(np.sum(weights * f.coeffs**2)))
    return float(np.sqrt(np.sum(f.coeffs**2)))


def apply_lambda_power(f: CoefficientField, p: float) -> CoefficientField:
    """Coefficient-wise multiplication by lambda_k^p (the operator Lambda^p).

    apply_lambda_power(apply_lambda_power(f, p), -p) recovers f up to
    roundoff; with p = -2 and unit diffusivity this solves the Poisson
    problem Lambda^2 v = g.
    """
    if p == 0.0:
        return CoefficientField(f.basis, f.coeffs)
    _require_positive_spectrum(f.basis, "apply_lambda_power with p != 0")
    return CoefficientField(f.basis, f.basis.lambdas**p * f.coeffs)


def duality_pairing(
    f: CoefficientField, g: CoefficientField, gamma0: float = 0.0, gamma: float = 0.0
) -> float:
    """The gamma0-inner-product pairing sum_k lambda_k^(2 gamma0) f_k g_k.

    Pairs the space at level gamma0 + gamma with the one at gamma0 - gamma;
    the value does not depend on gamma for finite truncations, and for
    gamma0 = 0 it reduces to the plain Euclidean pairing.
    """
    if f.basis is not g.basis and not np.array_equal(f.basis.lambdas, g.basis.lambdas):
        raise ValueError("duality pairing requires a shared basis")
    del gamma  # tags the dual pair only; the value depends on gamma0 alone
    if gamma0 != 0.0:
        _require_positive_spectrum(f.basis, "duality_pairing with gamma0 != 0")
        weights = f.basis.lambdas ** (2.0 * gamma0)
        return float(np.sum(weights * f.coeffs * g.coeffs))
    return float(np.sum(f.coeffs * g.coeffs))


def hs_embedding_defect(
    basis: EigenBasis, gamma1: float, gamma2: float, terms: int | None = None
) -> float:
    """Partial Hilbert-Schmidt sum sum_{k<=terms} lambda_k^(2(gamma2-gamma1))
    for the embedding of level gamma1 into level gamma2.

    The partial sums are non-decreasing in ``terms``; they stay bounded as
    the truncation grows exactly when hs_embedding_is_hilbert_schmidt holds.
    """
    n = basis.size if terms is None else terms
    if not 1 <= n <= basis.size:
        raise ValueError(f"terms must be in 1..{basis.size}")
    lam = basis.lambdas[:n]
    with np.errstate(divide="ignore"):
        return float(np.sum(lam ** (2.0 * (gamma2 - gamma1))))


def hs_embedding_is_hilbert_schmidt(
    basis: EigenBasis, gamma1: float, gamma2: float
) -> bool:
    """Whether the embedding of level gamma1 into gamma2 is expected
    Hilbert-Schmidt in the full (untruncated) scale: gamma1 - gamma2 must
    exceed 1/(2 alpha) strictly; the boundary case diverges.
    """
    return gamma1 - gamma2 > 1.0 / (2.0 * basis.alpha)
