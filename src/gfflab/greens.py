"""Closed-form kernels and the special functions they need: the modified
Bessel functions K_0 and K_{1/2}, whole-space heat kernels and
potentials, and the eigenfunction series for Green's functions on bounded
domains.

Every kernel here has an independent quadrature oracle in the test suite;
nothing in this module integrates the representation its oracle uses.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import EigenBasis, evaluate_matrix
from .quadrature import gauss_hermite, half_line_nodes

EULER_GAMMA = 0.5772156649015328606


def _k0_small(x: np.ndarray) -> np.ndarray:
    """K_0 for 0 < x <= 2 from the convergent log series
    -(log(x/2) + gamma_E) I_0(x) + sum_m (x^2/4)^m / (m!)^2 H_m."""
    q = 0.25 * x * x
    term = np.ones_like(x)
    i0 = np.ones_like(x)
    harmonic = 0.0
    correction = np.zeros_like(x)
    for m in range(1, 200):
        term = term * (q / (m * m))
        harmonic += 1.0 / m
        i0 = i0 + term
        correction = correction + term * harmonic
        if np.all(term * max(harmonic, 1.0) < 1e-18 * i0):
            break
    return -(np.log(0.5 * x) + EULER_GAMMA) * i0 + correction


_K0_GH_NODES = 160


def _k0_large(x: np.ndarray) -> np.ndarray:
    """K_0 for x > 2 from K_0(x) = e^{-x} (2x)^{-1/2} * I(x) with
    I(x) = int_R exp(-v^2) (1 + v^2/(2x))^{-1/2} dv, evaluated by
    Gauss-Hermite quadrature (the integrand is analytic in the strip
    |Im v| < sqrt(2x), so convergence is fast for x >= 2)."""
    v, w = gauss_hermite(_K0_GH_NODES)
    acc = np.sum(w / np.sqrt(1.0 + v * v / (2.0 * x[..., None])), axis=-1)
    return np.exp(-x) / np.sqrt(2.0 * x) * acc


def _float_or_array(out):
    """A 0-d result as a Python float, anything else unchanged."""
    return float(out) if np.ndim(out) == 0 else out


def bessel_k(p: float, x):
    """Modified Bessel function of the second kind for orders 0 and +-1/2,
    elementwise over an array of arguments.

    K_{+-1/2}(x) = sqrt(pi/(2x)) e^{-x} exactly; K_0 is accurate to about
    1e-13 relative across both branches (series below x = 2, quadrature of
    an exact Laplace-type representation above).
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):
        raise ValueError(f"bessel_k requires x > 0, got {x}")
    if p in (0.5, -0.5):
        return _float_or_array(np.sqrt(np.pi / (2.0 * x)) * np.exp(-x))
    if p != 0.0:
        raise ValueError(f"unsupported order {p}; only 0 and +-1/2 are implemented")
    # each branch sees its own range only; the quadrature branch (and its
    # Gauss-Hermite rule) runs only when some point needs it
    out = _k0_small(np.minimum(x, 2.0))
    if np.any(x > 2.0):
        out = np.where(x <= 2.0, out, _k0_large(np.maximum(x, 2.0)))
    return _float_or_array(out)


def _check_kernel_params(nu: float, eps: float = 0.0, t=()) -> None:
    """Named errors: nu > 0, eps >= 0 and each of the times t > 0 (none by
    default), every one of them finite."""
    for name, value in (("nu", nu), ("eps", eps), ("t", t)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value}")
    if nu <= 0.0:
        raise ValueError(f"diffusivity nu must be positive, got {nu}")
    if eps < 0.0:
        raise ValueError(f"mass eps must be non-negative, got {eps}")
    if np.any(np.asarray(t) <= 0.0):
        raise ValueError(f"heat kernel requires t > 0, got {t}")


def _radius(d: int, x) -> np.ndarray:
    """|x| for points given as radii or 1-d coordinates (any shape), or for
    d >= 2 as vectors along the last axis."""
    arr = np.asarray(x, dtype=float)
    if d == 1 or arr.ndim == 0:
        return np.abs(arr)
    return np.sqrt(np.sum(arr * arr, axis=-1))


def heat_kernel(t, x, *, d: int = 1, nu: float = 1.0, eps: float = 0.0):
    """The whole-space kernel (4 pi nu t)^(-d/2) exp(-eps t - |x|^2/(4 nu t)),
    elementwise over broadcast arrays of times and points (see _radius)."""
    _check_kernel_params(nu, eps, t)
    r = _radius(d, x)
    return _float_or_array(
        (4.0 * math.pi * nu * t) ** (-0.5 * d) * np.exp(-eps * t - r * r / (4.0 * nu * t))
    )


def potential_massive(x, *, d: int, nu: float, eps: float):
    """The massive potential, the time integral of the decaying heat kernel,
    elementwise over an array of points (see _radius).

    Closed forms: exponential over 2 sqrt(eps nu) in d = 1, K_0 over
    2 pi nu in d = 2, Yukawa e^{-m|x|}/(4 pi nu |x|) in d = 3.
    """
    _check_kernel_params(nu, eps)
    if d not in (1, 2, 3):
        raise ValueError(f"massive potential needs d in 1, 2, 3, got d = {d}")
    if eps <= 0.0:
        raise ValueError("massive potential requires eps > 0")
    r = _radius(d, x)
    m = math.sqrt(eps / nu)
    if d == 1:
        return _float_or_array(np.exp(-m * r) / (2.0 * math.sqrt(eps) * math.sqrt(nu)))
    if np.any(r == 0.0):
        raise ValueError("massive potential is singular at x = 0 for d >= 2")
    if d == 2:
        return _float_or_array(bessel_k(0.0, m * r) / (2.0 * math.pi * nu))
    return _float_or_array(np.exp(-m * r) / (4.0 * math.pi * nu * r))


def potential_zero_mass(x, *, d: int, nu: float):
    """The zero-mass potential: log kernel in d = 2, Riesz kernel for d >= 3,
    elementwise over an array of points (see _radius).

    There is no zero-mass potential in d = 1 (the one-dimensional field is
    handled through the two-sided Brownian motion instead).
    """
    _check_kernel_params(nu)
    if d < 2:
        raise ValueError("zero-mass potential needs d >= 2")
    r = _radius(d, x)
    if np.any(r == 0.0):
        raise ValueError("zero-mass potential is singular at x = 0")
    if d == 2:
        return _float_or_array(-np.log(r / math.sqrt(nu)) / (2.0 * math.pi * nu))
    return _float_or_array(
        math.gamma(0.5 * d - 1.0) / (4.0 * math.pi ** (0.5 * d) * nu * r ** (d - 2))
    )


def series_green(basis: EigenBasis, nu: float, x, y) -> float:
    """The eigenfunction series sum_k h_k(x) h_k(y) / (nu lambda_k^2) over
    the basis's modes.

    On the unit interval with Dirichlet conditions this converges to the
    Brownian bridge covariance min(x, y) - x y.
    """
    basis.require_positive_spectrum("series Green's function")
    _check_kernel_params(nu)
    pts = np.concatenate((_as_points(basis, x), _as_points(basis, y)))
    hx, hy = evaluate_matrix(basis, pts)
    hx *= hy
    return float(np.sum(np.divide(hx, np.square(basis.lambdas) * nu, out=hx)))


def _as_points(basis: EigenBasis, x) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    return arr.reshape(-1) if basis.d == 1 else arr.reshape(1, -1)


_TIME_QUAD_NODES = 256


def heat_poisson_identity(x, *, d: int, nu: float, eps: float) -> tuple[float, float]:
    """Both sides of 'time integral of the decaying heat kernel equals the
    massive potential' in the whole space R^d at displacement x.

    The left side integrates the heat kernel in time by 256-node
    Gauss-Legendre, mapped to (0, inf) via t = tau s/(1-s) with
    tau = 1/sqrt(eps nu): at |x| = 1 the integrand's exponent
    -(eps t + 1/(4 nu t)) is stationary at t = tau/2, so the accuracy
    depends on the mass sqrt(eps/nu) alone. The right side is the
    closed-form massive potential.
    """
    displacement = float(np.sqrt(np.sum(np.square(x))))
    # the closed form first: it rejects bad nu, eps or d before any quadrature
    rhs = potential_massive(displacement, d=d, nu=nu, eps=eps)
    t, w = half_line_nodes(_TIME_QUAD_NODES)
    tau = 1.0 / (math.sqrt(eps) * math.sqrt(nu))
    t *= tau
    w *= tau
    with np.errstate(under="ignore"):
        lhs = float(np.sum(w * heat_kernel(t, displacement, d=d, nu=nu, eps=eps)))
    return lhs, rhs
