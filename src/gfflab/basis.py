"""Ordered eigen-systems of the interval Laplacian, the tensor-product box
Laplacian, and the harmonic oscillator (Hermite operator) on R^d.

Each basis stores the positive square roots lambda_k of the operator
eigenvalues (so the Laplacian eigenvalue is -lambda_k^2), sorted
non-decreasingly with lexicographic multi-index tie-breaking, together with
the Weyl exponent alpha and the asymptotic constant c_weyl such that
lambda_k ~ c_weyl * k^alpha.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import gauss_hermite_unweighted, gauss_legendre, tensor_grid

HERMITE_SIZE_LIMIT = 10**6


class BasisKind(enum.Enum):
    INTERVAL_DIRICHLET = "interval_dirichlet"
    INTERVAL_NEUMANN = "interval_neumann"
    INTERVAL_MIXED = "interval_mixed"
    BOX_DIRICHLET = "box_dirichlet"
    HERMITE = "hermite"


_INTERVAL_KINDS = (
    BasisKind.INTERVAL_DIRICHLET,
    BasisKind.INTERVAL_NEUMANN,
    BasisKind.INTERVAL_MIXED,
)

_KIND_ALIASES = {
    "dirichlet": BasisKind.INTERVAL_DIRICHLET,
    "neumann": BasisKind.INTERVAL_NEUMANN,
    "mixed": BasisKind.INTERVAL_MIXED,
    "box": BasisKind.BOX_DIRICHLET,
}


def parse_basis_kind(kind: BasisKind | str) -> BasisKind:
    if isinstance(kind, BasisKind):
        return kind
    key = str(kind).strip().lower()
    if key in _KIND_ALIASES:
        return _KIND_ALIASES[key]
    try:
        return BasisKind(key)
    except ValueError:
        raise ValueError(f"unknown basis kind {kind!r}") from None


def sinpi(u):
    """sin(pi * u) with exact zeros at integer u."""
    u = np.asarray(u, dtype=float)
    n = np.floor(u)
    r = u - n
    r = np.where(r > 0.5, 1.0 - r, r)
    s = np.sin(np.pi * r)
    sign = np.where(np.mod(n, 2.0) == 0.0, 1.0, -1.0)
    out = sign * s + 0.0  # normalize -0.0 to +0.0
    return out if out.ndim else float(out)


def cospi(u):
    """cos(pi * u) with exact zeros at half-integer u."""
    return sinpi(np.asarray(u, dtype=float) + 0.5)


def hermite_functions(n_max: int, x) -> np.ndarray:
    """Values of the L2-normalized Hermite functions h_0 .. h_{n_max}.

    Uses the stable recurrence on the functions themselves,
    h_{n+1}(x) = x * sqrt(2/(n+1)) * h_n(x) - sqrt(n/(n+1)) * h_{n-1}(x),
    so no factorials or bare Hermite polynomials ever appear.

    Returns an array of shape (len(x), n_max + 1).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((x.size, n_max + 1))
    out[:, 0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[:, 1] = math.sqrt(2.0) * x * out[:, 0]
    for n in range(1, n_max):
        out[:, n + 1] = (
            math.sqrt(2.0 / (n + 1)) * x * out[:, n]
            - math.sqrt(n / (n + 1)) * out[:, n - 1]
        )
    return out


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """An ordered eigen-system (lambda_k, h_k), immutable after construction."""

    kind: BasisKind
    d: int
    size: int
    lambdas: np.ndarray  # shape (size,), non-decreasing, Lambda h_k = lambda_k h_k
    alpha: float
    c_weyl: float
    domain: tuple[tuple[float, float], ...] | None
    indices: np.ndarray  # (size, d) int64; interval: mode numbers, hermite: degrees

    def __post_init__(self):
        self.lambdas.setflags(write=False)
        self.indices.setflags(write=False)

    @property
    def lambdas_squared(self) -> np.ndarray:
        return self.lambdas * self.lambdas

    @property
    def lambda_min(self) -> float:
        return float(self.lambdas[0])

    def describe(self) -> str:
        """Single-line key=value descriptor, parseable by basis_from_descriptor."""
        if self.kind in _INTERVAL_KINDS:
            a, b = self.domain[0]
            return f"kind={self.kind.value} a={a!r} b={b!r} size={self.size}"
        if self.kind is BasisKind.BOX_DIRICHLET:
            side = self.domain[0][1] - self.domain[0][0]
            return f"kind={self.kind.value} d={self.d} side={side!r} size={self.size}"
        return f"kind={self.kind.value} d={self.d} size={self.size}"


def basis_from_descriptor(text: str) -> EigenBasis:
    """Rebuild a basis from EigenBasis.describe() output."""
    fields = dict(item.split("=", 1) for item in text.split())
    kind = parse_basis_kind(fields["kind"])
    size = int(fields["size"])
    if kind in _INTERVAL_KINDS:
        return build_interval_basis(kind, float(fields["a"]), float(fields["b"]), size)
    if kind is BasisKind.BOX_DIRICHLET:
        return build_box_basis(int(fields["d"]), float(fields["side"]), size)
    return build_hermite_basis(int(fields["d"]), size)


def build_interval_basis(bc: BasisKind | str, a: float, b: float, size: int) -> EigenBasis:
    """Closed-form sine/cosine eigen-system of -d^2/dx^2 on (a, b).

    Dirichlet: h_k = sqrt(2/L) sin(k pi (x-a)/L),        lambda_k = k pi / L.
    Neumann:   constant mode first (lambda_1 = 0), then cosines.
    Mixed (h(a) = h'(b) = 0): lambda_k = (k - 1/2) pi / L.
    """
    kind = parse_basis_kind(bc)
    if kind not in _INTERVAL_KINDS:
        raise ValueError(f"{kind} is not an interval boundary condition")
    if not a < b:
        raise ValueError(f"invalid interval: need a < b, got a={a}, b={b}")
    if size < 1:
        raise ValueError(f"basis size must be positive, got {size}")
    length = b - a
    k = np.arange(1, size + 1, dtype=float)
    if kind is BasisKind.INTERVAL_DIRICHLET:
        lambdas = k * np.pi / length
    elif kind is BasisKind.INTERVAL_MIXED:
        lambdas = (k - 0.5) * np.pi / length
    else:  # Neumann: lambda_1 = 0 constant mode
        lambdas = (k - 1.0) * np.pi / length
    return EigenBasis(
        kind=kind,
        d=1,
        size=size,
        lambdas=lambdas,
        alpha=1.0,
        c_weyl=np.pi / length,
        domain=((float(a), float(b)),),
        indices=np.arange(1, size + 1, dtype=np.int64).reshape(-1, 1),
    )


def _shell_order(d: int, size: int, lo: int, power: int, cap: int):
    """The first `size` multi-indices n in Z^d with every n_i >= lo and
    q(n) = sum_i n_i^power <= cap, in (q, lexicographic n) order, as
    (indices, q); None when fewer than `size` exist.

    Only that region is listed, one axis at a time: each row grows into a
    ragged range whose length is a searchsorted on the per-axis weights.
    As t -> t^power is injective on t >= 0, q and n_1 .. n_{d-1} fix n_d,
    so q * B^(d-1) + (n_1 .. n_{d-1} in base B), B = max coordinate + 1,
    is a unique int64 sort key.
    """
    base = (math.isqrt(cap) if power == 2 else cap) + 1
    if (cap + 1) * base ** (d - 1) > 2**63:
        raise ValueError(f"lattice sort key overflows int64 at d={d}, cap={cap}: size too large")
    values = np.arange(lo, base, dtype=np.int64)
    weights = values**power
    cols, rest = [], np.array([cap], dtype=np.int64)
    for axis in range(d):
        counts = np.searchsorted(weights, rest - (d - 1 - axis) * weights[0], side="right")
        pick = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        rest = np.repeat(rest, counts) - weights[pick]
        cols = [np.repeat(c, counts) for c in cols] + [values[pick]]
    if rest.size < size:
        return None
    key = cap - rest
    for c in cols[:-1]:
        key = key * base + c
    order = np.argsort(key)[:size]
    return np.stack([c[order] for c in cols], axis=1), cap - rest[order]


def build_box_basis(d: int, side: float, size: int) -> EigenBasis:
    """Tensor products of interval Dirichlet eigenfunctions on (0, side)^d.

    lambda^2 = pi^2 |n|^2 / side^2 over multi-indices n in Z_+^d, sorted
    non-decreasingly with lexicographic tie-breaking.
    """
    if d not in (1, 2, 3):
        raise ValueError(f"unsupported dimension {d}")
    if side <= 0:
        raise ValueError(f"box side must be positive, got {side}")
    if size < 1:
        raise ValueError(f"basis size must be positive, got {size}")

    # the Weyl radius of the orthant ball plus d + 1 already holds size
    # points; the loop only guards that bound
    vol = (1.0, math.pi / 4.0, math.pi / 6.0)[d - 1]
    cap = int(((size / vol) ** (1.0 / d) + d + 1) ** 2)
    while (shell := _shell_order(d, size, 1, 2, cap)) is None:
        cap *= 4
    indices, norm2 = shell
    lambdas = np.pi * np.sqrt(norm2.astype(float)) / side

    c_weyl = {
        1: np.pi / side,
        2: 2.0 * math.sqrt(math.pi) / side,
        3: (6.0 * math.pi**2) ** (1.0 / 3.0) / side,
    }[d]
    return EigenBasis(
        kind=BasisKind.BOX_DIRICHLET,
        d=d,
        size=size,
        lambdas=lambdas,
        alpha=1.0 / d,
        c_weyl=c_weyl,
        domain=tuple(((0.0, float(side)),) * d),
        indices=indices,
    )


def build_hermite_basis(d: int, size: int) -> EigenBasis:
    """Eigen-system of -Laplace + |x|^2 on R^d (Hermite functions).

    lambda^2 = 2(n_1 + ... + n_d) + d over degrees n in Z_{>=0}^d, sorted
    non-decreasingly with lexicographic tie-breaking.
    """
    if d not in (1, 2, 3):
        raise ValueError(f"unsupported dimension {d}")
    if size < 1:
        raise ValueError(f"basis size must be positive, got {size}")
    if size > HERMITE_SIZE_LIMIT:
        raise ValueError(f"hermite basis size {size} exceeds {HERMITE_SIZE_LIMIT}")

    if d == 1:
        indices = np.arange(size, dtype=np.int64).reshape(-1, 1)
    else:
        m = 0
        while math.comb(m + d, d) < size:
            m += 1
        indices, _ = _shell_order(d, size, 0, 1, m)

    lam2 = 2.0 * indices.sum(axis=1).astype(float) + d
    return EigenBasis(
        kind=BasisKind.HERMITE,
        d=d,
        size=size,
        lambdas=np.sqrt(lam2),
        alpha=1.0 / (2 * d),
        c_weyl=(2.0**d * math.factorial(d)) ** (1.0 / (2 * d)),
        domain=None,
        indices=indices,
    )


def _interval_axis_values(kind: BasisKind, a: float, b: float, modes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Values h_m(x) for interval eigenfunctions; shape (len(x), len(modes))."""
    length = b - a
    rel = (x - a) / length
    modes = modes.astype(float)
    if kind is BasisKind.INTERVAL_DIRICHLET:
        return math.sqrt(2.0 / length) * sinpi(np.outer(rel, modes))
    if kind is BasisKind.INTERVAL_MIXED:
        return math.sqrt(2.0 / length) * sinpi(np.outer(rel, modes - 0.5))
    out = math.sqrt(2.0 / length) * cospi(np.outer(rel, modes - 1.0))
    out[:, modes == 1.0] = math.sqrt(1.0 / length)
    return out


def evaluate_matrix(basis: EigenBasis, points) -> np.ndarray:
    """Eigenfunction values h_k(x_i) as an array of shape (n_points, size).

    ``points`` is a 1-d array for d = 1 or an (n, d) array otherwise.
    """
    pts = np.asarray(points, dtype=float)
    if basis.d == 1:
        pts = pts.reshape(-1, 1)
    elif pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.shape[1] != basis.d:
        raise ValueError(f"points have dimension {pts.shape[1]}, basis has d={basis.d}")

    if basis.kind in _INTERVAL_KINDS:
        a, b = basis.domain[0]
        _check_in_domain(pts[:, 0], a, b)
        return _interval_axis_values(basis.kind, a, b, basis.indices[:, 0], pts[:, 0])

    # box and Hermite: per-axis columns up to the largest index, then gather
    out = np.ones((pts.shape[0], basis.size))
    for axis in range(basis.d):
        idx = basis.indices[:, axis]
        if basis.kind is BasisKind.HERMITE:
            cols = hermite_functions(int(idx.max()), pts[:, axis])
        else:
            a, b = basis.domain[axis]
            _check_in_domain(pts[:, axis], a, b)
            modes = np.arange(int(idx.max()) + 1)
            cols = _interval_axis_values(BasisKind.INTERVAL_DIRICHLET, a, b, modes, pts[:, axis])
        out *= cols[:, idx]
    return out


def _check_in_domain(x: np.ndarray, a: float, b: float) -> None:
    tol = 1e-12 * max(1.0, abs(a), abs(b))
    if np.any(x < a - tol) or np.any(x > b + tol):
        raise ValueError(f"point outside domain [{a}, {b}]")


def evaluate(basis: EigenBasis, k: int, x) -> float:
    """Value of the k-th eigenfunction (1-based) at a single point."""
    if not 1 <= k <= basis.size:
        raise ValueError(f"eigenfunction index {k} out of range 1..{basis.size}")
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if basis.d == 1:
        vals = evaluate_matrix(basis, pt.reshape(-1))
    else:
        vals = evaluate_matrix(basis, pt.reshape(1, -1))
    return float(vals[0, k - 1])


def gram_matrix(basis: EigenBasis, n_nodes: int | None = None) -> np.ndarray:
    """L2 Gram matrix of the basis under Gauss quadrature.

    Defaults to 4 * size + 16 nodes per axis (Gauss-Legendre on intervals,
    Gauss-Hermite on the line), enough margin for the oscillatory products
    at the sizes exercised in tests. Gauss-Hermite nodes cap at 350, where
    the unweighted rule reaches the double-precision range limit.
    """
    n = n_nodes if n_nodes is not None else 4 * basis.size + 16
    if basis.kind is BasisKind.HERMITE:
        axes = [gauss_hermite_unweighted(min(n, 350))] * basis.d
    else:
        axes = [gauss_legendre(a, b, n) for a, b in basis.domain]
    pts, w = tensor_grid(axes)
    h = evaluate_matrix(basis, pts)
    return h.T @ (w[:, None] * h)


def eigen_residual(basis: EigenBasis, k: int, n_probe: int = 17) -> float:
    """Max pointwise defect of the eigen-equation for h_k via central
    second differences, to be compared against 1e-6 * lambda_k^2.
    """
    lam2 = float(basis.lambdas_squared[k - 1])
    step = 2e-4 / math.sqrt(max(basis.lambdas[k - 1], 1.0))

    if basis.kind in _INTERVAL_KINDS:
        a, b = basis.domain[0]
        margin = 0.05 * (b - a)
        probes = np.linspace(a + margin, b - margin, n_probe).reshape(-1, 1)
    elif basis.kind is BasisKind.BOX_DIRICHLET:
        lo = [a + 0.05 * (b - a) for a, b in basis.domain]
        hi = [b - 0.05 * (b - a) for a, b in basis.domain]
        rng = np.random.default_rng(k)
        probes = rng.uniform(lo, hi, size=(n_probe, basis.d))
    else:
        rng = np.random.default_rng(k)
        probes = rng.uniform(-3.0, 3.0, size=(n_probe, basis.d))

    center = evaluate_matrix(basis, probes)[:, k - 1]
    lap = np.zeros(n_probe)
    for axis in range(basis.d):
        shift = np.zeros(basis.d)
        shift[axis] = step
        up = evaluate_matrix(basis, probes + shift)[:, k - 1]
        dn = evaluate_matrix(basis, probes - shift)[:, k - 1]
        lap += (up - 2.0 * center + dn) / step**2

    residual = -lap - lam2 * center
    if basis.kind is BasisKind.HERMITE:
        residual += (probes**2).sum(axis=1) * center
    return float(np.max(np.abs(residual)))
