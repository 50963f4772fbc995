"""Fixed-node Gauss quadrature helpers shared across the package.

All rules are deterministic for a given node count; node/weight tables are
cached so repeated calls reuse the same arrays. The rules a registered run
uses are read from a committed table instead of being solved.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from pathlib import Path

import numpy as np

# the rules of a registered run, (kind, n) in the order of TABLE, which holds
# each rule's nodes then weights: the very bits that _leggauss(n) and
# numpy.polynomial.hermite.hermgauss(n) compute. Read on the first lookup.
TABULATED = (("legendre", 16), ("legendre", 20), ("legendre", 256), ("hermite", 160))
TABLE = Path(__file__).with_name("gauss_rules.npy")

PANEL_NODES = 16  # nodes per panel of cumulative_legendre


@lru_cache(maxsize=1)
def _table() -> dict[tuple[str, int], tuple[np.ndarray, np.ndarray]]:
    """TABLE split into read-only (nodes, weights) views, keyed as TABULATED."""
    flat = np.load(TABLE)
    flat.setflags(write=False)
    rules, start = {}, 0
    for kind, n in TABULATED:
        rules[kind, n] = (flat[start : start + n], flat[start + n : start + 2 * n])
        start += 2 * n
    return rules


def _legendre(n: int, x: np.ndarray):
    """P_0(x), P_1(x), ..., P_n(x) for n >= 1, one at a time by the three-term
    recurrence."""
    p0, p1 = np.ones_like(x), x
    yield p0
    for j in range(2, n + 1):
        yield p1
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    yield p1


@lru_cache(maxsize=128)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [-1, 1] in O(n^2) work (Hale & Townsend, SIAM J.
    Sci. Comput. 35 (2013)): Tricomi's asymptotic nodes on the positive half,
    float Newton steps, then one extended-precision step that also gives the
    weights 2 / ((1 - x^2) P_n'(x)^2), P_n' moved to the new node by P_n''.
    The sizes in TABULATED are read from TABLE, which holds what this solve gives."""
    if ("legendre", n) in TABULATED:
        return _table()["legendre", n]
    theta = np.pi * (4.0 * np.arange(1, n // 2 + n % 2 + 1) - 1.0) / (4.0 * n + 2.0)
    x = np.cos(theta) * (
        1.0 - (n - 1.0) / (8.0 * n**3) - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)
    )
    x[n // 2 :] = 0.0  # the middle node of an odd rule
    for _ in range(100):
        q, p = deque(_legendre(n, x), maxlen=2)
        dx = p * (x - 1.0) * (x + 1.0) / (n * (x * p - q))
        x = x - dx
        if np.max(np.abs(dx)) < 1e-10:
            break
    x = x.astype(np.longdouble)
    q, p = deque(_legendre(n, x), maxlen=2)
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


@lru_cache(maxsize=1)
def _panel_integration() -> np.ndarray:
    """S[j, k] = int_{-1}^{x_j} l_k for the Lagrange basis l_k of the
    PANEL_NODES-point Gauss-Legendre nodes x_j: with the exact expansion
    l_k = sum_m (m + 1/2) w_k P_m(x_k) P_m and int_{-1}^x P_m =
    (P_{m+1} - P_{m-1})(x) / (2m + 1) for m >= 1."""
    x, w = _leggauss(PANEL_NODES)
    p = np.array(list(_legendre(PANEL_NODES, x)))  # p[m, j] = P_m(x_j)
    s = 0.5 * w * ((1.0 + x)[:, None] + (p[2:] - p[:-2]).T @ p[1:-1])
    s.setflags(write=False)
    return s


def cumulative_legendre(values, a: float, b: float) -> np.ndarray:
    """int_a^{x_i} h at the nodes x_i of composite_legendre(a, b, panels,
    PANEL_NODES), from the values h(x_i) in node order: the totals of the
    panels before x_i plus the integral of h's interpolant on its own panel,
    exact for a polynomial of degree < PANEL_NODES on each panel. The values
    reversed give int_{x_i}^b h, reversed."""
    v = np.asarray(values, dtype=float).reshape(-1, PANEL_NODES)
    half = 0.5 * (b - a) / v.shape[0]
    totals = np.cumsum(v @ _leggauss(PANEL_NODES)[1])
    before = np.concatenate(([0.0], totals[:-1]))
    return (half * (before[:, None] + v @ _panel_integration().T)).reshape(-1)


@lru_cache(maxsize=32)
def gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integrals against exp(-x^2) on the line; the
    sizes in TABULATED are read from TABLE, the others solved by numpy."""
    if ("hermite", n) in TABULATED:
        return _table()["hermite", n]
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
