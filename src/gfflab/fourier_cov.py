"""Deterministic Fourier-domain covariance functionals on R^d: test
functions whose transforms vanish near the origin, the free-field
covariance integral, the two-sided Brownian covariance on the line, the
finite-time covariance of the whole-space heat evolution, and massive-case
limits; and the Ornstein-Uhlenbeck law of one frequency q that both the
Fourier weights (q = |xi|^2) and the spectral transitions of dynamics
(q = lambda_k^2) use.

Conventions: unitary Fourier transform fhat(xi) = (2 pi)^(-d/2) *
integral of exp(-i x.xi) f(x) dx, so Parseval holds without extra factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .quadrature import composite_legendre, gauss_legendre, tensor_grid

RADIAL_NODES = 1024  # 64 panels of 16 Gauss-Legendre nodes
TENSOR_NODES = 256
FLOOR_TOL = 1e-12


def _smooth_step(u):
    """C-infinity step: 0 for u <= 0, 1 for u >= 1 (exact at the ends)."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        lo = np.where(u > 0.0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        hi = np.where(u < 1.0, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    out = np.where(u <= 0.0, 0.0, np.where(u >= 1.0, 1.0, lo / (lo + hi)))
    return out


def ou_decay(q, nu: float, t: float):
    """exp(-nu q t), the mean multiplier of the Ornstein-Uhlenbeck law of
    frequency q over time t; 0 where nu q t overflows."""
    with np.errstate(over="ignore"):
        return np.exp(-nu * np.asarray(q, dtype=float) * t)


def ou_variance(q, nu: float, sigma: float, t: float):
    """sigma^2 (1 - exp(-2 nu q t)) / (2 nu q), the variance the law gains
    from a zero start over time t; t = inf gives the stationary
    sigma^2 / (2 nu q), and q + eps the massive law. Where 2 nu q overflows,
    the variance is the stationary sigma^2 / (2 nu) / q."""
    q = np.asarray(q, dtype=float)
    with np.errstate(over="ignore"):
        rate = 2.0 * nu * q
        var = sigma**2 * (-np.expm1(-rate * t)) / rate
    overflow = np.isinf(rate)
    if overflow.any():
        var = np.where(overflow, sigma**2 / (2.0 * nu) / q, var)
    return var


def surface_measure(d: int) -> float:
    """Surface area of the unit sphere in R^d (2 for d = 1)."""
    return 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)


@dataclass(frozen=True, eq=False)
class TestFunction:
    """A test function described through its Fourier transform.

    ``profile`` is the phase-free radial factor F(|xi|); the full transform
    is profile(|xi|) * exp(-i center.xi). ``xi_floor`` is a radius below
    which the transform is certified to vanish (0.0 when there is no such
    floor); ``xi_cut`` bounds the quadrature support.
    """

    __test__ = False  # not a pytest class despite the domain name

    kind: str
    d: int
    profile: Callable[[np.ndarray], np.ndarray]
    xi_floor: float
    xi_cut: float
    center: tuple[float, ...] | None = None
    params: dict = field(default_factory=dict)

    def fhat_radial(self, r):
        return self.profile(np.asarray(r, dtype=float))

    def fhat(self, xi):
        """Transform values at frequency points (n,) for d = 1 or (n, d)."""
        pts = np.asarray(xi, dtype=float)
        if self.d == 1:
            pts = pts.reshape(-1, 1)
        r = np.sqrt((pts**2).sum(axis=1))
        vals = self.profile(r).astype(complex)
        if self.center is not None:
            vals = vals * np.exp(-1j * pts @ np.asarray(self.center))
        return vals

    def physical(self, x):
        """Physical-space values, for test functions that carry a closed form
        in ``params`` (gaussian_bump)."""
        if "physical" not in self.params:
            raise ValueError(f"{self.kind} test function has no closed physical form")
        return self.params["physical"](np.asarray(x, dtype=float))


def gaussian_bump(center=0.0, width: float = 1.0, d: int = 1) -> TestFunction:
    """The Gaussian exp(-|x - center|^2 / (2 width^2)).

    Its transform is width^d * exp(-width^2 |xi|^2 / 2) times the phase
    factor from the shift; fhat(0) is nonzero, so this is not a
    floor-certified test function.
    """
    if width <= 0.0:
        raise ValueError("width must be positive")
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if c.size != d:
        raise ValueError(f"center has dimension {c.size}, expected {d}")
    amp = width**d

    def profile(r):
        return amp * np.exp(-0.5 * (width * r) ** 2)

    def physical(x):
        pts = np.asarray(x, dtype=float)
        if d == 1:
            dist2 = (pts - c[0]) ** 2
        else:
            dist2 = ((pts - c) ** 2).sum(axis=-1)
        return np.exp(-0.5 * dist2 / width**2)

    centered = bool(np.all(c == 0.0))
    return TestFunction(
        kind="gaussian_bump",
        d=d,
        profile=profile,
        xi_floor=0.0,
        xi_cut=12.0 / width,
        center=None if centered else tuple(c),
        params={"width": width, "physical": physical},
    )


def make_s0_function(freq: float, width: float, d: int = 1) -> TestFunction:
    """A radial test function supported on a frequency annulus:
    fhat(xi) = exp(-(|xi| - freq)^2 / (2 width^2)), smoothly cut to exactly
    zero for |xi| <= freq/2 (ramp on [freq/2, 3 freq/4]).

    Requires freq >= 8 * width so the Gaussian factor is already below
    1e-12 where the ramp starts.
    """
    if freq <= 0.0 or width <= 0.0:
        raise ValueError("freq and width must be positive")
    if freq < 8.0 * width:
        raise ValueError(
            f"freq = {freq} too small to clear the annulus floor; need freq >= 8 * width = {8 * width}"
        )

    lo = 0.5 * freq
    ramp = 0.25 * freq

    def profile(r):
        r = np.asarray(r, dtype=float)
        return np.exp(-0.5 * ((r - freq) / width) ** 2) * _smooth_step((r - lo) / ramp)

    return TestFunction(
        kind="s0_annulus",
        d=d,
        profile=profile,
        xi_floor=lo,
        xi_cut=freq + 12.0 * width,
        center=None,
        params={"freq": freq, "width": width},
    )


def _fhat0(f: TestFunction) -> float:
    """fhat(0), which the phase factor of a centre leaves unchanged."""
    return float(f.fhat_radial(np.zeros(1))[0])


def _pair_integral(
    f: TestFunction,
    g: TestFunction,
    weight: Callable[[np.ndarray], np.ndarray],
    subtract: tuple[float, float] = (0.0, 0.0),
) -> float:
    """integral over R^d of (fhat - c_f)(conj(ghat) - c_g) * weight(|xi|)
    with (c_f, c_g) = subtract.

    Radial reduction applies whenever the product has no net phase: absent
    centers, or equal ones with nothing subtracted (fhat - c_f keeps the
    phase of a shifted f); otherwise d = 1 uses Hermitian symmetry on the
    half line and d = 2, with nothing subtracted, a tensor grid. The radial
    and half-line integrals run on RADIAL_NODES / 16 panels of 16
    Gauss-Legendre nodes over the shared support, and the weighted terms
    are summed with math.fsum.
    """
    if f.d != g.d:
        raise ValueError("test functions live in different dimensions")
    d = f.d
    lo, hi = max(f.xi_floor, g.xi_floor), min(f.xi_cut, g.xi_cut)
    if hi <= lo:
        return 0.0
    c_f, c_g = subtract
    radial = f.center == g.center and (f.center is None or not any(subtract))
    if not radial and d != 1:
        if d == 2 and not any(subtract):
            return _pair_integral_tensor2d(f, g, weight)
        raise ValueError("non-radial pairs are supported only for d = 1 and unsubtracted d = 2")

    r, w = composite_legendre(lo, hi, RADIAL_NODES // 16, 16)
    if radial:
        integrand = (f.fhat_radial(r) - c_f) * (g.fhat_radial(r) - c_g) * weight(r) * r ** (d - 1)
        return surface_measure(d) * math.fsum(w * integrand)
    integrand = np.real((f.fhat(r) - c_f) * np.conj(g.fhat(r) - c_g)) * weight(r)
    return 2.0 * math.fsum(w * integrand)


def _pair_integral_tensor2d(
    f: TestFunction,
    g: TestFunction,
    weight: Callable[[np.ndarray], np.ndarray],
) -> float:
    """The unsubtracted pair integral of _pair_integral by a full tensor
    grid in d = 2 (cross-check for the radial path)."""
    hi = min(f.xi_cut, g.xi_cut)
    axis = gauss_legendre(-hi, hi, TENSOR_NODES)
    pts, w2 = tensor_grid([axis, axis])
    vf = f.fhat(pts)
    vg = g.fhat(pts)
    r = np.sqrt((pts**2).sum(axis=1))
    wvals = np.where(r > 0.0, weight(np.maximum(r, 1e-300)), 0.0)
    return float(np.sum(w2 * np.real(vf * np.conj(vg)) * wvals))


def _check_floor(f: TestFunction, name: str) -> None:
    if f.xi_floor <= 0.0 and abs(_fhat0(f)) > FLOOR_TOL:
        raise ValueError(
            f"{name} has fhat(0) != 0 and no annulus floor; the |xi|^-2 "
            "integral diverges in d <= 2"
        )


def gff_covariance(f: TestFunction, g: TestFunction, check_floor: bool = True) -> float:
    """The free-field covariance integral of fhat conj(ghat) over |xi|^2.

    In d <= 2 both functions must carry an annulus floor (the integrand is
    otherwise non-integrable at the origin); pass check_floor=False only
    for diagnostic comparisons of the raw truncated quadrature.
    """
    if check_floor and f.d <= 2:
        _check_floor(f, "f")
        _check_floor(g, "g")
    return _pair_integral(f, g, lambda r: 1.0 / (r * r))


def two_sided_covariance(f: TestFunction, g: TestFunction) -> float:
    """E(W[f] W[g]) for the two-sided Brownian motion on the line: the
    integral of (fhat - fhat(0)) conj(ghat - ghat(0)) over xi^2.

    The subtracted integral runs on the grid of gff_covariance, so the two
    agree exactly when fhat(0) = ghat(0) = 0. Past the smaller of the two
    cuts the transform that ends there is below rounding, and the other one,
    h, leaves the cross term -c h / xi^2 with the first one's c = fhat(0).
    It runs on the same rule up to h's own cut, and is skipped when c = 0.
    The tail 2 fhat(0) ghat(0) / cut of the constant product is exact.
    """
    if f.d != 1 or g.d != 1:
        raise ValueError("the two-sided Brownian motion lives on the line")
    f0, g0 = _fhat0(f), _fhat0(g)
    value = _pair_integral(f, g, lambda r: 1.0 / (r * r), (f0, g0))
    hi = min(f.xi_cut, g.xi_cut)
    h, c = (f, g0) if f.xi_cut > g.xi_cut else (g, f0)
    if c != 0.0 and h.xi_cut > hi:
        r, w = composite_legendre(hi, h.xi_cut, RADIAL_NODES // 16, 16)
        value -= 2.0 * c * math.fsum(w * np.real(h.fhat(r)) / (r * r))
    return value + 2.0 * f0 * g0 / hi


def transient_covariance(f: TestFunction, g: TestFunction, t: float, nu: float, sigma: float) -> float:
    """Covariance of the whole-space heat evolution from a zero start,
    tested against f and g at time t: the integral of fhat conj(ghat)
    sigma^2 (1 - exp(-2 t nu |xi|^2)) / (2 nu |xi|^2), which increases to
    the free-field covariance as t grows.

    A deterministic start phi adds the rank-one product of
    heat_pairing(phi, f, t, nu) and heat_pairing(phi, g, t, nu).
    """
    if t < 0.0:
        raise ValueError(f"time must be non-negative, got {t}")
    if nu <= 0.0:
        raise ValueError(f"nu must be positive, got {nu}")
    return _pair_integral(f, g, lambda r: ou_variance(r * r, nu, sigma, t))


def heat_pairing(phi: TestFunction, f: TestFunction, t: float, nu: float) -> float:
    """The pairing of f with the start phi after heat flow for time t: the
    integral of phihat conj(fhat) exp(-t nu |xi|^2), which decays to zero
    as t grows."""
    return _pair_integral(phi, f, lambda r: ou_decay(r * r, nu, t))


def massive_limit_covariance(
    f: TestFunction, g: TestFunction, nu: float, eps: float, sigma: float = 1.0
) -> float:
    """Stationary covariance of the massive heat evolution:
    sigma^2 * integral of fhat conj(ghat) / (2 nu (|xi|^2 + eps)).

    Finite for arbitrary Schwartz-type inputs (no annulus floor needed);
    as eps -> 0 on floor-certified functions it approaches gff_covariance
    with the factor sigma^2 / (2 nu).
    """
    if eps <= 0.0:
        raise ValueError(f"mass eps must be positive, got {eps}")
    if nu <= 0.0:
        raise ValueError(f"nu must be positive, got {nu}")
    return _pair_integral(f, g, lambda r: ou_variance(r * r + eps, nu, sigma, math.inf))
