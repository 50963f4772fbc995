"""Ordered eigen-systems of the interval Laplacian, the tensor-product box
Laplacian, and the harmonic oscillator (Hermite operator) on R^d.

Each basis stores the positive square roots lambda_k of the operator
eigenvalues (so the Laplacian eigenvalue is -lambda_k^2), sorted
non-decreasingly with lexicographic multi-index tie-breaking, together with
the Weyl constant c_weyl: lambda_k ~ c_weyl * k^(1/d) on a d-dimensional
interval or box, and c_weyl * k^(1/(2d)) for the Hermite operator. The modes
themselves are held as one int64 sort key each, in that order; their
multi-indices are decoded from the keys only where they are read.
"""

from __future__ import annotations

import enum
import math
import operator
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


# the interval kinds, each with the shift of lambda_k = (k - shift) pi / (b - a)
_INTERVAL_SHIFTS = {
    BasisKind.INTERVAL_DIRICHLET: 0.0,
    BasisKind.INTERVAL_NEUMANN: 1.0,  # lambda_1 = 0: the constant mode
    BasisKind.INTERVAL_MIXED: 0.5,
}

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


_SINPI_BLOCK = 8192  # values per pass: the three scratch arrays of a pass stay in cache


def _sinpi_into(v: np.ndarray) -> np.ndarray:
    """sin(pi * v) written over the C-contiguous float array v, with exact
    zeros at integer v; one block of values at a time."""
    flat = v.reshape(-1)
    for lo in range(0, flat.size, _SINPI_BLOCK):
        u = flat[lo : lo + _SINPI_BLOCK]
        n = np.floor(u)
        r = u - n
        s = 1.0 - r
        np.minimum(r, s, out=s)
        s *= np.pi
        np.sin(s, out=s)
        n *= 0.5
        np.floor(n, out=r)
        np.negative(s, out=s, where=r != n)  # odd n
        np.add(s, 0.0, out=u)  # normalize -0.0 to +0.0
    return v


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


class _Handover(np.ndarray):
    """The view a builder passes its own new array in, so that EigenBasis
    keeps that array instead of copying it."""


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """An ordered eigen-system (lambda_k, h_k), immutable after construction.

    Besides lambda_k it holds one sorted int64 key per mode and the key's
    base B, and nothing of size d per mode: the key is the mode number on an
    interval, the degree for Hermite d = 1, and
    q * B^(d-1) + (n_1 .. n_{d-1} in base B) for the box (q = |n|^2) and
    Hermite d >= 2 (q = sum(n)). `size` is the number of eigenvalues, and
    `indices` decodes the multi-indices from the keys on every read.
    """

    kind: BasisKind
    d: int
    lambdas: np.ndarray  # shape (size,), non-decreasing, Lambda h_k = lambda_k h_k
    c_weyl: float
    domain: tuple[tuple[float, float], ...] | None
    keys: np.ndarray  # shape (size,) int64, in the order of lambdas
    key_base: int

    def __post_init__(self):
        for name in ("lambdas", "keys"):
            arr = getattr(self, name)
            # a builder's array is kept; any other is copied, so the caller's stays writeable
            arr = arr.base if type(arr) is _Handover else np.array(arr)
            object.__setattr__(self, name, arr)
            while isinstance(arr, np.ndarray):  # the array and any array it views
                arr.setflags(write=False)
                arr = arr.base

    @property
    def size(self) -> int:
        return self.lambdas.size

    @property
    def indices(self) -> np.ndarray:
        """The (size, d) int64 multi-indices (interval: mode numbers, hermite:
        degrees) as a new frozen array; a view of the keys where they are the
        index itself (interval, Hermite d = 1).

        n_1 .. n_{d-1} are the base-B digits of a key, q its quotient by
        B^(d-1), and n_d^power = q - sum_{i<d} n_i^power, power 2 on the box
        and 1 for Hermite. For power 2 the float square root of that integer
        is exactly n_d: n_d^2 < 2^63 rounds to a double within a relative
        2^-53, so its root lies within less than half a unit in the last
        place of the integer n_d.
        """
        power = 2 if self.kind is BasisKind.BOX_DIRICHLET else 1
        key, base = self.keys, self.key_base
        if power == 1 and self.d == 1:
            return key.reshape(-1, 1)
        indices = np.empty((self.size, self.d), dtype=np.int64)
        last = indices[:, -1]
        spare = np.empty_like(key)  # the quotients before the last one, then the squares
        for axis in range(self.d - 2, -1, -1):
            high = np.floor_divide(key, base, out=last if axis == 0 else spare)  # far faster than np.divmod
            digit = np.multiply(high, base, out=indices[:, axis])
            np.subtract(key, digit, out=digit)
            key = high
        if self.d == 1:
            np.copyto(last, key)
        for axis in range(self.d - 1):
            last -= np.square(indices[:, axis], out=spare) if power == 2 else indices[:, axis]
        if power == 2:
            np.sqrt(last, out=last, casting="unsafe")
        indices.setflags(write=False)
        return indices

    @property
    def lambdas_squared(self) -> np.ndarray:
        return self.lambdas * self.lambdas

    def require_positive_spectrum(self, what: str) -> None:
        """Reject a basis with a constant mode (lambda_1 = 0) for `what`."""
        if (lambda_1 := float(self.lambdas[0])) <= 0.0:
            raise ValueError(
                f"{what} requires lambda_1 > 0; basis has lambda_1 = {lambda_1}"
                " (Neumann-type constant mode)"
            )


def _integer(value, what: str) -> int:
    """value as an int; a float or any other non-integer is refused, not
    truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {value!r}") from None


def _mode_count(size) -> int:
    if (size := _integer(size, "basis size")) < 1:
        raise ValueError(f"basis size must be positive, got {size}")
    return size


def _dimension(d) -> int:
    if (d := _integer(d, "dimension d")) not in (1, 2, 3):
        raise ValueError(f"unsupported dimension {d}")
    return d


def _own_basis(kind: BasisKind, d: int, lambdas, c_weyl: float, domain, keys, base: int) -> EigenBasis:
    """The basis of a builder, which keeps the builder's own new arrays
    lambdas and keys instead of copying them."""
    return EigenBasis(kind, d, lambdas.view(_Handover), c_weyl, domain, keys.view(_Handover), base)


def _box_cap(d: int, size: int) -> int:
    """A bound cap on |n|^2 whose orthant ball {n >= 1 : |n|^2 <= cap} holds
    at least `size` lattice points: each such n owns the unit cube [n - 1, n],
    and those cubes cover the orthant ball of radius sqrt(cap) - sqrt(d), of
    volume vol (sqrt(cap) - sqrt(d))^d. With the Weyl radius
    s = (size / vol)^(1/d), cap = int((s + d + 1)^2) >= (s + d)^2, so that
    volume is at least vol s^d = size."""
    vol = (1.0, math.pi / 4.0, math.pi / 6.0)[d - 1]
    return int(((size / vol) ** (1.0 / d) + d + 1) ** 2)


def require_finite_spectrum(kind: BasisKind, d: int, length: float, size: int) -> None:
    """Reject an interval length b - a or a box side at which pi / length is
    0 or not finite, or lambda_size would not be finite. On the interval
    lambda_size = (size - shift) pi / length exactly; on the box it is at
    most sqrt(cap) pi / side, so the check needs no basis."""
    name = "side" if kind is BasisKind.BOX_DIRICHLET else "b - a"
    top = math.sqrt(_box_cap(d, size)) if kind is BasisKind.BOX_DIRICHLET else size - _INTERVAL_SHIFTS[kind]
    length = float(length)  # a numpy scalar would warn where a float gives inf
    unit, largest = math.pi / length, top * math.pi / length
    if not (0.0 < unit < math.inf and largest < math.inf):
        raise ValueError(
            f"{name} = {length!r} puts the eigenvalues outside the float range:"
            f" pi / ({name}) = {unit!r}, lambda_K up to {largest!r}"
        )


def build_interval_basis(bc: BasisKind | str, a: float, b: float, size: int) -> EigenBasis:
    """Closed-form sine/cosine eigen-system of -d^2/dx^2 on (a, b).

    Dirichlet: h_k = sqrt(2/L) sin(k pi (x-a)/L),        lambda_k = k pi / L.
    Neumann:   constant mode first (lambda_1 = 0), then cosines.
    Mixed (h(a) = h'(b) = 0): lambda_k = (k - 1/2) pi / L.
    """
    kind = parse_basis_kind(bc)
    if kind not in _INTERVAL_SHIFTS:
        raise ValueError(f"{kind} is not an interval boundary condition")
    if not a < b:
        raise ValueError(f"invalid interval: need a < b, got a={a}, b={b}")
    size = _mode_count(size)
    length = b - a
    require_finite_spectrum(kind, 1, length, size)
    keys = np.arange(1, size + 1, dtype=np.int64)  # the mode numbers k
    lambdas = np.arange(1, size + 1, dtype=float)
    lambdas -= _INTERVAL_SHIFTS[kind]
    lambdas *= np.pi
    lambdas /= length
    return _own_basis(kind, 1, lambdas, np.pi / length, ((float(a), float(b)),), keys, size + 1)


def _shell_order(d: int, size: int, lo: int, power: int, cap: int):
    """The sort keys of the first `size` multi-indices n in Z^d with every
    n_i >= lo and q(n) = sum_i n_i^power <= cap, in (q, lexicographic n)
    order, and their base B, as (keys, B). The region must hold at least
    `size` points: _box_cap bounds the box, and the Hermite builder takes
    the first simplex sum(n) <= m with C(m + d, d) >= size points.

    Only that region is listed, one axis at a time: each row grows into a
    ragged run of coordinates lo, lo + 1, .. whose length is a searchsorted
    on the per-axis weights. As t -> t^power is injective on t >= 0, q and
    n_1 .. n_{d-1} fix n_d, so q * B^(d-1) + (n_1 .. n_{d-1} in base B),
    B = max coordinate + 1, is a unique int64 sort key. The keys are sorted
    in the buffer of all listed ones and returned undecoded, as a view of
    its first `size`; EigenBasis.indices decodes them.
    """
    base = (math.isqrt(cap) if power == 2 else cap) + 1
    shift = base ** (d - 1)
    if (cap + 1) * shift > 2**63:
        raise ValueError(f"lattice sort key overflows int64 at d={d}, cap={cap}: size too large")
    weights = np.arange(lo, base, dtype=np.int64) ** power
    key = np.zeros(1, dtype=np.int64)  # q * shift + (n_1 .. n_axis in base B) so far
    for axis in range(d):
        counts = np.searchsorted(weights, cap - key // shift - (d - 1 - axis) * weights[0], side="right")
        key = np.repeat(key, counts)
        # the coordinate n_axis as a running sum of steps of 1 that restarts
        # at lo on each run, so the listing holds two arrays of its length
        runs = counts[counts > 0]
        pick = np.ones_like(key)
        pick[np.cumsum(runs[:-1])] = 1 - runs[:-1]
        pick[:1] = lo
        np.cumsum(pick, out=pick)
        if axis < d - 1:
            key += pick * base ** (d - 2 - axis)
        pick **= power
        pick *= shift
        key += pick
    key.sort()
    return key[:size], base


def _quotients(keys: np.ndarray, shift: int) -> np.ndarray:
    """q = keys // shift as a new float array, converted block by block."""
    return np.floor_divide(keys, shift, out=np.empty(keys.size), casting="unsafe")


def build_box_basis(d: int, side: float, size: int) -> EigenBasis:
    """Tensor products of interval Dirichlet eigenfunctions on (0, side)^d.

    lambda^2 = pi^2 |n|^2 / side^2 over multi-indices n in Z_+^d, sorted
    non-decreasingly with lexicographic tie-breaking.
    """
    d = _dimension(d)
    if side <= 0:
        raise ValueError(f"box side must be positive, got {side}")
    size = _mode_count(size)
    require_finite_spectrum(BasisKind.BOX_DIRICHLET, d, side, size)

    keys, base = _shell_order(d, size, 1, 2, _box_cap(d, size))
    lambdas = _quotients(keys, base ** (d - 1))  # |n|^2
    np.sqrt(lambdas, out=lambdas)
    lambdas *= np.pi
    lambdas /= side

    c_weyl = {
        1: np.pi / side,
        2: 2.0 * math.sqrt(math.pi) / side,
        3: (6.0 * math.pi**2) ** (1.0 / 3.0) / side,
    }[d]
    return _own_basis(BasisKind.BOX_DIRICHLET, d, lambdas, c_weyl, ((0.0, float(side)),) * d, keys, base)


def build_hermite_basis(d: int, size: int) -> EigenBasis:
    """Eigen-system of -Laplace + |x|^2 on R^d (Hermite functions).

    lambda^2 = 2(n_1 + ... + n_d) + d over degrees n in Z_{>=0}^d, sorted
    non-decreasingly with lexicographic tie-breaking.
    """
    d = _dimension(d)
    size = _mode_count(size)
    if size > HERMITE_SIZE_LIMIT:
        raise ValueError(f"hermite basis size {size} exceeds {HERMITE_SIZE_LIMIT}")

    if d == 1:
        keys, base = np.arange(size, dtype=np.int64), size  # the degrees
        lambdas = np.multiply(keys, 2.0)
    else:
        m = 0
        while math.comb(m + d, d) < size:
            m += 1
        keys, base = _shell_order(d, size, 0, 1, m)
        lambdas = _quotients(keys, base ** (d - 1))  # the total degree
        lambdas *= 2.0
    lambdas += d
    np.sqrt(lambdas, out=lambdas)
    c_weyl = (2.0**d * math.factorial(d)) ** (1.0 / (2 * d))
    return _own_basis(BasisKind.HERMITE, d, lambdas, c_weyl, None, keys, base)


def _interval_axis_values(kind: BasisKind, a: float, b: float, modes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Values h_m(x) for interval eigenfunctions; shape (len(x), len(modes)),
    evaluated in place in the buffer of the phases."""
    length = b - a
    rel = (x - a) / length
    if kind is BasisKind.INTERVAL_NEUMANN:
        out = np.outer(rel, modes - 1.0)
        out += 0.5  # cos(pi u) = sin(pi (u + 1/2))
    else:
        out = np.outer(rel, modes - 0.5 if kind is BasisKind.INTERVAL_MIXED else modes)
    _sinpi_into(out)
    out *= math.sqrt(2.0 / length)
    if kind is BasisKind.INTERVAL_NEUMANN:
        out[:, modes == 1] = math.sqrt(1.0 / length)
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
    if not np.isfinite(pts).all():
        raise ValueError("evaluation points must be finite")

    indices = basis.indices
    if basis.kind in _INTERVAL_SHIFTS:
        a, b = basis.domain[0]
        _check_in_domain(pts[:, 0], a, b)
        return _interval_axis_values(basis.kind, a, b, indices[:, 0], pts[:, 0])

    # box and Hermite: per-axis columns up to the largest index, then gather
    out = np.ones((pts.shape[0], basis.size))
    for axis in range(basis.d):
        idx = indices[:, axis]
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

    if basis.kind in _INTERVAL_SHIFTS:
        a, b = basis.domain[0]
        margin = 0.05 * (b - a)
        probes = np.linspace(a + margin, b - margin, n_probe).reshape(-1, 1)
    elif basis.kind is BasisKind.BOX_DIRICHLET:
        lo = [a + 0.05 * (b - a) for a, b in basis.domain]
        hi = [b - 0.05 * (b - a) for a, b in basis.domain]
        probes = np.random.default_rng(k).uniform(lo, hi, size=(n_probe, basis.d))
    else:
        probes = np.random.default_rng(k).uniform(-3.0, 3.0, size=(n_probe, basis.d))

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
