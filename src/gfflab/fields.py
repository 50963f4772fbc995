"""Samplers for the Gaussian objects: the truncated free-field series (on
the Dirichlet interval [0, 1], the Brownian bridge), the two-sided Brownian
motion on the line, and the two-sided covariance functional by two
physical-space quadrature routes for callables (TestFunction objects take
the Fourier route, fourier_cov.two_sided_covariance).

Every random stream is a Philox generator keyed by SeedSequence(seed, path):
equal keys repeat a sample, and distinct paths, at any depth, are independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import EigenBasis, build_interval_basis, evaluate_matrix
from .fourier_cov import TestFunction
from .quadrature import composite_legendre, cumulative_legendre


@dataclass(frozen=True)
class RngStream:
    """The Philox generator seeded by SeedSequence(seed, spawn_key=path); a
    negative seed or path entry is numpy's ValueError."""

    seed: int
    path: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(self.seed, spawn_key=self.path)))

    def substream(self, i: int) -> "RngStream":
        return RngStream(self.seed, (*self.path, i))


def sample_gff(basis: EigenBasis, r: float, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """The coefficients zeta_k / lambda_k^r of a truncated free-field draw
    (iid standard normal zeta); r = 1 gives the Green's-function covariance,
    r = 0 white noise. With n, one (n, size) normal block gives n draws as
    rows."""
    basis.require_positive_spectrum("free-field sampling")
    zeta = rng.standard_normal(basis.size if n is None else (n, basis.size))
    return np.divide(zeta, basis.lambdas**r, out=zeta)


def sample_brownian_bridge(
    x_grid, rng: np.random.Generator, modes: int = 512, n: int | None = None
) -> np.ndarray:
    """Brownian bridge on [0, 1], the free field of the Dirichlet interval:
    sample_gff on the first `modes` sine modes of its basis, exactly zero at
    both ends. With n, returns n independent paths as rows of an
    (n, points) array."""
    basis = build_interval_basis("dirichlet", 0.0, 1.0, modes)
    return sample_gff(basis, 1.0, rng, n) @ evaluate_matrix(basis, x_grid).T


def sample_two_sided_bm(x_grid, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Two independent Brownian motions glued at the origin, sampled exactly
    on the grid via independent increments per half line. With n, returns n
    independent paths along a new first axis (one (n, points) normal block
    per half line).

    Covariance is min(|x|, |y|) for points of equal sign and 0 otherwise.
    """
    x = np.asarray(x_grid, dtype=float)
    out = np.zeros(x.shape if n is None else (n, *x.shape))
    for sign in (1.0, -1.0):
        mask = (sign * x) > 0.0
        if not np.any(mask):
            continue
        radii = sign * x[mask]
        uniq, inverse = np.unique(radii, return_inverse=True)
        dt = np.diff(np.concatenate(([0.0], uniq)))
        steps = rng.standard_normal(uniq.size if n is None else (n, uniq.size))
        walk = np.cumsum(steps * np.sqrt(dt), axis=-1)
        out[..., mask] = walk[..., inverse]
    return out


def two_sided_antiderivative(
    f, r_max: float = 20.0, n_nodes: int = 2048
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The signed tail antiderivative used to integrate against the
    two-sided Brownian motion, F(x) = int_{-inf}^x f for x < 0 and
    F(x) = -int_x^{+inf} f for x > 0 (discontinuous at 0 unless f has zero
    mean), tails beyond r_max dropped. Returns (x, w, F(x)) on the rule of
    covariance_two_sided: max(n_nodes // 16, 1) panels of 16 Gauss-Legendre
    nodes on [-r_max, 0] and on [0, r_max], x ascending; f is evaluated once
    per node, and an f that fails the first-moment guard of
    _half_line_values is refused.
    """
    x, w = composite_legendre(0.0, r_max, max(n_nodes // 16, 1), 16)
    pos, neg = _half_line_values(f, x, w, r_max)
    # int_{|x|}^{r_max} f(sign y) dy: the values reversed, cumulated, reversed
    left = cumulative_legendre(neg[::-1], 0.0, r_max)
    right = -cumulative_legendre(pos[::-1], 0.0, r_max)[::-1]
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w)), np.concatenate((left, right))


def _half_line_values(f, x: np.ndarray, w: np.ndarray, r_max: float) -> tuple[np.ndarray, np.ndarray]:
    """f(x) and f(-x) on the rule (x, w) of [0, r_max], after a heuristic
    guard for the finite-first-moment condition: the nodes of the outermost
    eighth of the window must hold at most 2e-3 of int |x f(x)| dx,
    otherwise the covariance integrals are suspect. At r_max = 20 that eighth
    holds 4.4e-2 for 1/(1 + x^2), 2.5e-3 for (1 + x^2)^(-7/4) and 2.3e-3
    for exp(-|x| / 2.25), all refused, and 1.0e-3 for exp(-|x| / 2) and
    6.4e-51 for exp(-2 (x - 10)^2), accepted, the same to 5 digits on 16,
    64 and 128 panels. Every Gaussian of the registry and the tests holds at most
    2.8e-9."""
    pos, neg = f(x), f(-x)
    m = w * (np.abs(x * pos) + np.abs(x * neg))
    total = float(np.sum(m))
    if total > 0.0 and float(np.sum(m[x > 0.875 * r_max])) > 2e-3 * total:
        raise ValueError(
            "int |x f(x)| dx keeps growing across the truncation window; "
            "the first-moment condition appears violated"
        )
    return pos, neg


def covariance_two_sided(f, g, mode: str = "direct", r_max: float = 20.0, n_nodes: int = 2048) -> float:
    """E(W[f] W[g]) for the two-sided Brownian motion, by one of two
    equivalent physical-space routes:

    'direct'          double quadrature of f(x) g(y) min(|x|, |y|) over the
                      two same-sign quadrants;
    'antiderivative'  the integral of F G for the tail antiderivatives.

    ``f`` and ``g`` are rapidly decaying callables (negligible beyond
    r_max, with finite first absolute moment, which _half_line_values
    checks on the route's own nodes), integrated on max(n_nodes // 16, 1)
    panels of 16 Gauss-Legendre nodes over [0, r_max] and its mirror image;
    the inner integrals are the panels' cumulative integrals
    (quadrature.cumulative_legendre), so f and g are evaluated once per
    node and sign. Those panels must resolve f and g
    themselves; nothing checks their width. For f = g = exp(-8 (x - 3)^2)
    over [0, 20], the direct value differs from its value on 4x finer panels
    by 1.8e-13 relative on 16 panels, 2.0e-7 on 8 and 1.9e-2 on 4; the bump
    exp(-128 (x - 3)^2) is off by 1.7e-2 on 16 panels.

    TestFunction objects take the Fourier route, fourier_cov.two_sided_covariance.
    """
    if isinstance(f, TestFunction) or isinstance(g, TestFunction):
        raise ValueError("TestFunction inputs take fourier_cov.two_sided_covariance")

    for name, value in (("n_nodes", n_nodes), ("r_max", r_max)):
        if not value > 0:
            raise ValueError(f"{name} must be positive (got {value})")
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")

    if mode == "direct":
        # f(x) [int_0^x y g(y) dy + x int_x^rmax g] per half line, the inner
        # integrals cumulated on the outer panels, so the min kink sits at a node
        x, w = composite_legendre(0.0, r_max, max(n_nodes // 16, 1), 16)
        total = 0.0
        for fx, gx in zip(_half_line_values(f, x, w, r_max), _half_line_values(g, x, w, r_max)):
            inner_lo = cumulative_legendre(x * gx, 0.0, r_max)
            inner_hi = cumulative_legendre(gx[::-1], 0.0, r_max)[::-1]
            total += float(np.sum(w * fx * (inner_lo + x * inner_hi)))
        return total

    if mode == "antiderivative":
        _, w, fa = two_sided_antiderivative(f, r_max, n_nodes)
        _, _, ga = two_sided_antiderivative(g, r_max, n_nodes)
        return float(np.sum(w * fa * ga))

    raise ValueError(f"unknown mode {mode!r}")
