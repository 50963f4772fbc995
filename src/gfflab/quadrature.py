"""Fixed-node Gauss quadrature helpers shared across the package.

All rules are deterministic for a given node count; node/weight tables are
cached so repeated calls reuse the same arrays.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# nodes per pass of a nested rule (outer rows times the inner nodes of a row):
# each tile is reduced to its row sums before the next one is built, so a
# scratch array holds 32 KiB however many rows there are. At 4096 the traced
# peak of fourier_limits is 0.36 MiB and of two_sided_cov 0.37 MiB (5.42 and
# 1.96 MiB untiled); 2048 runs two_sided_cov about 1.5x slower, and 8192 or
# more gives no lower process RSS. Row sums, and so every bit, do not depend on it.
TILE_NODES = 4096


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_{n-1}(x)) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, p0


@lru_cache(maxsize=128)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [-1, 1] in O(n^2) work (Hale & Townsend, SIAM J.
    Sci. Comput. 35 (2013)): Tricomi's asymptotic nodes on the positive half,
    float Newton steps, then one extended-precision step that also gives the
    weights 2 / ((1 - x^2) P_n'(x)^2), P_n' moved to the new node by P_n''."""
    theta = np.pi * (4.0 * np.arange(1, n // 2 + n % 2 + 1) - 1.0) / (4.0 * n + 2.0)
    x = np.cos(theta) * (
        1.0 - (n - 1.0) / (8.0 * n**3) - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)
    )
    x[n // 2 :] = 0.0  # the middle node of an odd rule
    for _ in range(100):
        p, q = _legendre(n, x)
        dx = p * (x - 1.0) * (x + 1.0) / (n * (x * p - q))
        x = x - dx
        if np.max(np.abs(dx)) < 1e-10:
            break
    x = x.astype(np.longdouble)
    p, q = _legendre(n, x)
    one_minus_x2 = (1 - x) * (1 + x)
    dp = n * (q - x * p) / one_minus_x2
    dx = p / dp
    dp -= dx * (2 * x * dp - n * (n + 1) * p) / one_minus_x2  # Legendre equation
    x -= dx
    w = 2 / ((1 - x) * (1 + x) * dp * dp)
    x = np.concatenate((-x, x[::-1][n % 2 :])).astype(float)
    w = np.concatenate((w, w[::-1][n % 2 :])).astype(float)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(a, b, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [a, b]; array
    endpoints give one rule per interval along a new last axis."""
    if n < 1:
        raise ValueError("need at least one quadrature node")
    x, w = _leggauss(n)
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    half = 0.5 * (b - a)
    return half * x + 0.5 * (a + b), half * w


def composite_legendre(
    a: float, b: float, panels: int, nodes_per_panel: int = 16
) -> tuple[np.ndarray, np.ndarray]:
    """Panel-wise Gauss-Legendre rule on [a, b] (nodes sorted ascending)."""
    edges = np.linspace(a, b, panels + 1)
    x, w = gauss_legendre(edges[:-1], edges[1:], nodes_per_panel)
    return x.reshape(-1), w.reshape(-1)


def running_integral(h, start: float, x) -> np.ndarray:
    """int_start^{x_i} h(y) dy at nodes x ordered away from start: one 24-point
    Gauss-Legendre panel per gap, h called once per tile of TILE_NODES // 24
    gaps, and the panel sums accumulated in node order."""
    b = np.asarray(x, dtype=float)
    a = np.concatenate(([start], b[:-1]))
    sums = np.empty(b.size)
    gaps = max(TILE_NODES // 24, 1)
    for lo in range(0, b.size, gaps):
        q, w = gauss_legendre(a[lo : lo + gaps], b[lo : lo + gaps], 24)
        sums[lo : lo + gaps] = np.sum(w * h(q), axis=-1)
    return np.cumsum(sums)


@lru_cache(maxsize=32)
def gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integrals against exp(-x^2) on the line."""
    x, w = np.polynomial.hermite.hermgauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_hermite_unweighted(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite rule with the weight folded in, for plain integrals
    of functions that already decay like a Gaussian.

    The modified weights are w_i * exp(x_i^2); both factors stay inside
    double-precision range only for n <= 350, so larger requests are
    rejected rather than silently overflowing.
    """
    if n > 350:
        raise ValueError("unweighted Gauss-Hermite overflows beyond 350 nodes")
    x, w = gauss_hermite(n)
    return x, w * np.exp(x * x)


def half_line_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule for integrals over (0, inf) via the map t = s / (1 - s)."""
    s, w = gauss_legendre(0.0, 1.0, n)
    t = s / (1.0 - s)
    return t, w / (1.0 - s) ** 2


def tensor_grid(axes: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product rule from per-axis (nodes, weights) pairs.

    Returns points of shape (n_total, d) and the combined weights.
    """
    mesh = np.meshgrid(*[x for x, _ in axes], indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    w = axes[0][1]
    for _, wi in axes[1:]:
        w = np.multiply.outer(w, wi)
    return pts, w.reshape(-1)
