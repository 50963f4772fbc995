"""Deterministic Fourier-domain covariance functionals on R^d: test
functions whose transforms vanish near the origin, the free-field
covariance integral, the two-sided Brownian covariance on the line, the
finite-time covariance of the whole-space heat evolution, and massive-case
limits; and the Ornstein-Uhlenbeck law of one frequency q with the one
pairing that sums it over a spectrum (q, mass), which both the Fourier
integrals (q = |xi|^2) and dynamics on a basis (q = lambda_k^2) use.

Conventions: unitary Fourier transform fhat(xi) = (2 pi)^(-d/2) *
integral of exp(-i x.xi) f(x) dx, so Parseval holds without extra factors.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .quadrature import composite_legendre

RADIAL_NODES = 1024  # 64 panels of 16 Gauss-Legendre nodes
# the largest xi_cut * distance whose phase exp(-i xi.Delta) the radial rule
# follows: two unit bumps up to that far apart pair within 1.7e-14 of their
# closed form in d = 1, 2 and 3, against 1e-10 at 1600 and 5e-2 at 3600 in d = 1
PHASE_MAX = 1200.0
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
    frequency q over time t; 0 where nu q t overflows.

    The product, the scale by t and the exp are written in turn into one
    new array the size of q, the only one allocated for a float array q,
    which is not written. A scalar q gives a numpy float."""
    q = np.asarray(q, dtype=float)
    out = np.empty_like(q)
    with np.errstate(over="ignore"):
        np.multiply(q, -nu, out=out)
        out *= t
        np.exp(out, out=out)
    return out if out.ndim else out[()]


def ou_variance(q, nu: float, sigma: float, t: float):
    """sigma^2 (1 - exp(-2 nu q t)) / (2 nu q), the variance the law gains
    from a zero start over time t; t = inf gives the stationary
    sigma^2 / (2 nu q), and q + eps the massive law. Where 2 nu q overflows,
    the variance is the stationary sigma^2 / (2 nu) / q. Where q = 0 the law
    is sigma times a Brownian motion, of variance sigma^2 t, and has no
    stationary variance: t = inf there is a named error."""
    q = np.asarray(q, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        rate = 2.0 * nu * q
        var = sigma**2 * (-np.expm1(-rate * t)) / rate
    overflow = np.isinf(rate)
    if overflow.any():
        var = np.where(overflow, sigma**2 / (2.0 * nu) / q, var)
    zero = q == 0.0
    if zero.any():
        if t == math.inf:
            raise ValueError("the law at q = 0 has no stationary variance: it grows like sigma^2 t")
        var = np.where(zero, sigma**2 * t, var)
    return var


class Spectrum(NamedTuple):
    """Frequencies q_k, lambda_k^2 or |xi_k|^2, and the mass each carries."""
    q: np.ndarray
    mass: np.ndarray | float


def pairing(spectrum: Spectrum, a, b, law: Callable[[np.ndarray], np.ndarray]) -> np.ndarray | float:
    """sum_k a_k b_k mass_k law(q_k): the (p, r) matrix of sums for columns a
    (K, p) and b (K, r); for vectors, the real part of the one sum by math.fsum."""
    q, mass = spectrum
    if np.ndim(a) == 2:
        return a.T @ ((mass * law(q))[:, None] * b)
    return math.fsum(mass * np.real(a * b * law(q)))


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

    d: int
    profile: Callable[[np.ndarray], np.ndarray]
    xi_floor: float
    xi_cut: float
    center: tuple[float, ...] | None = None

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


def _require(**args) -> None:
    """Named errors: d an integer >= 1, a float refused, not truncated; each
    other argument finite but t >= 0 (inf is the stationary law); nu, eps,
    width, freq > 0."""
    for name, value in args.items():
        if name == "d" and not (isinstance(value, numbers.Integral) and value >= 1):
            raise ValueError(f"d must be a positive integer, got {value}")
        if not (value >= 0.0 if name == "t" else np.all(np.isfinite(value))):
            raise ValueError(f"{name} must be {'non-negative' if name == 't' else 'finite'}, got {value}")
        if name in ("nu", "eps", "width", "freq") and value <= 0.0:
            raise ValueError(f"{name} must be positive, got {value}")


def _cut(xi_cut: float, formula: str) -> float:
    """xi_cut, if the radial rule, which squares its nodes, can run up to it;
    a named error where xi_cut or its square is not finite."""
    cut = float(xi_cut)
    if not math.isfinite(cut * cut):
        raise ValueError(f"xi_cut = {formula} is {cut:.6g}, whose square is not finite")
    return xi_cut


def gaussian_bump(center=0.0, width: float = 1.0, d: int = 1) -> TestFunction:
    """The Gaussian exp(-|x - center|^2 / (2 width^2)).

    Its transform is width^d * exp(-width^2 |xi|^2 / 2) times the phase
    factor from the shift; fhat(0) is nonzero, so this is not a
    floor-certified test function.
    """
    c = np.atleast_1d(np.asarray(center, dtype=float))
    _require(d=d, center=c, width=width)
    if c.size != d:
        raise ValueError(f"center has dimension {c.size}, expected {d}")
    amp = width**d

    def profile(r):
        return amp * np.exp(-0.5 * (width * r) ** 2)

    centered = bool(np.all(c == 0.0))
    return TestFunction(
        d=d,
        profile=profile,
        xi_floor=0.0,
        xi_cut=_cut(12.0 / width, f"12 / width at width = {width}"),
        center=None if centered else tuple(c),
    )


def make_s0_function(freq: float, width: float, d: int = 1) -> TestFunction:
    """A radial test function supported on a frequency annulus:
    fhat(xi) = exp(-(|xi| - freq)^2 / (2 width^2)), smoothly cut to exactly
    zero for |xi| <= freq/2 (ramp on [freq/2, 3 freq/4]).

    Requires freq >= 8 * width so the Gaussian factor is already below
    1e-12 where the ramp starts.
    """
    _require(d=d, freq=freq, width=width)
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
        d=d,
        profile=profile,
        xi_floor=lo,
        xi_cut=_cut(freq + 12.0 * width, f"freq + 12 * width at freq = {freq}, width = {width}"),
        center=None,
    )


def _fhat0(f: TestFunction) -> float:
    """fhat(0), which the phase factor of a centre leaves unchanged."""
    return float(f.fhat_radial(np.zeros(1))[0])


def _radial_spectrum(d: int, lo: float, hi: float) -> tuple[np.ndarray, Spectrum]:
    """RADIAL_NODES / 16 panels of 16 Gauss-Legendre nodes r on [lo, hi] and
    their spectrum q = r^2, mass = S_d w r^(d - 1), which is 2 w in d = 1."""
    r, w = composite_legendre(lo, hi, RADIAL_NODES // 16, 16)
    return r, Spectrum(r * r, surface_measure(d) * w * r ** (d - 1))


def _angular_average(d: int, x: np.ndarray) -> np.ndarray:
    """The mean of cos(x u_1) over unit vectors u of R^d: cos x in d = 1,
    J0(x) in d = 2 and sin x / x in d = 3. J0(x) is the mean of
    cos(x sin theta) over [0, pi], summed by the midpoint rule one node at a
    time, so memory stays O(len(x)). With n nodes its error is about
    2 |J_2n(x)| <= 2 (e x / 4n)^(2n), below 1e-21 for n = 64 + floor(max x)."""
    if d == 1:
        return np.cos(x)
    if d == 3:
        return np.sinc(x / math.pi)
    if d != 2:
        raise ValueError(f"shifted pairs are supported only for d <= 3, got d = {d}")
    n = 64 + int(np.max(x))
    return sum(np.cos(x * s) for s in np.sin((np.arange(n) + 0.5) * math.pi / n)) / n


def _require_resolved(hi: float, reach: float) -> float:
    """reach, the largest shift whose phase a pair carries up to |xi| = hi,
    if the radial rule follows that phase; a named error past PHASE_MAX."""
    if hi * reach > PHASE_MAX:
        raise ValueError(
            f"centres too far apart for the radial rule: xi_cut * distance = {hi * reach:.6g} > {PHASE_MAX:g}"
        )
    return reach


def _pair_integral(f: TestFunction, g: TestFunction, law: Callable[[np.ndarray], np.ndarray]) -> float:
    """integral over R^d of fhat conj(ghat) law(|xi|^2): the pairing of the
    transforms on the radial rule of their shared support. The phase
    exp(-i xi.Delta) of centres Delta apart averages over each sphere
    |xi| = r to the angular average at r |Delta|, which multiplies ghat; a
    phase past PHASE_MAX is a named error."""
    if f.d != g.d:
        raise ValueError("test functions live in different dimensions")
    lo, hi = max(f.xi_floor, g.xi_floor), min(f.xi_cut, g.xi_cut)
    if hi <= lo:
        return 0.0
    r, spectrum = _radial_spectrum(f.d, lo, hi)
    fhat, ghat = f.fhat_radial(r), g.fhat_radial(r)
    if f.center != g.center:
        shift = np.linalg.norm(np.subtract(f.center or 0.0, g.center or 0.0))
        ghat = ghat * _angular_average(f.d, r * _require_resolved(hi, shift))
    return pairing(spectrum, fhat, ghat, law)


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
    return _pair_integral(f, g, lambda q: 1.0 / q)


def two_sided_covariance(f: TestFunction, g: TestFunction) -> float:
    """E(W[f] W[g]) for the two-sided Brownian motion on the line: the
    integral of (fhat - fhat(0)) conj(ghat - ghat(0)) over xi^2.

    The subtracted integral, phases and all, runs on the half line of the
    radial rule of gff_covariance by Hermitian symmetry, so the two agree
    exactly when fhat(0) = ghat(0) = 0. Past the smaller of the two
    cuts the transform that ends there is below rounding, and the other one,
    h, leaves the cross term -c h / xi^2 with the first one's c = fhat(0).
    It runs on the same rule up to h's own cut, and is skipped when c = 0;
    h's phase up to that cut is bounded by PHASE_MAX like the pair's.
    The tail 2 fhat(0) ghat(0) / cut of the constant product is exact.
    """
    if f.d != 1 or g.d != 1:
        raise ValueError("the two-sided Brownian motion lives on the line")
    f0, g0 = _fhat0(f), _fhat0(g)
    lo, hi = max(f.xi_floor, g.xi_floor), min(f.xi_cut, g.xi_cut)
    value = 0.0
    if hi > lo:
        (cf,), (cg,) = f.center or (0.0,), g.center or (0.0,)
        _require_resolved(hi, max(abs(cf), abs(cg), abs(cf - cg)))
        xi, spectrum = _radial_spectrum(1, lo, hi)
        value = pairing(spectrum, f.fhat(xi) - f0, np.conj(g.fhat(xi)) - g0, lambda q: 1.0 / q)
    h, c = (f, g0) if f.xi_cut > g.xi_cut else (g, f0)
    if c != 0.0 and h.xi_cut > hi:
        _require_resolved(h.xi_cut, abs((h.center or (0.0,))[0]))
        r, spectrum = _radial_spectrum(1, hi, h.xi_cut)
        value -= pairing(spectrum, h.fhat(r), c, lambda q: 1.0 / q)
    return value + 2.0 * f0 * g0 / hi


def transient_covariance(f: TestFunction, g: TestFunction, t: float, nu: float, sigma: float) -> float:
    """Covariance of the whole-space heat evolution from a zero start,
    tested against f and g at time t: the integral of fhat conj(ghat)
    sigma^2 (1 - exp(-2 t nu |xi|^2)) / (2 nu |xi|^2), which increases to
    the free-field covariance as t grows.

    A deterministic start phi adds the rank-one product of
    heat_pairing(phi, f, t, nu) and heat_pairing(phi, g, t, nu).
    """
    _require(t=t, nu=nu, sigma=sigma)
    return _pair_integral(f, g, lambda q: ou_variance(q, nu, sigma, t))


def heat_pairing(phi: TestFunction, f: TestFunction, t: float, nu: float) -> float:
    """The pairing of f with the start phi after heat flow for time t: the
    integral of phihat conj(fhat) exp(-t nu |xi|^2), which decays to zero
    as t grows."""
    _require(t=t, nu=nu)
    return _pair_integral(phi, f, lambda q: ou_decay(q, nu, t))


def massive_limit_covariance(
    f: TestFunction, g: TestFunction, nu: float, eps: float, sigma: float = 1.0
) -> float:
    """Stationary covariance of the massive heat evolution:
    sigma^2 * integral of fhat conj(ghat) / (2 nu (|xi|^2 + eps)).

    Finite for arbitrary Schwartz-type inputs (no annulus floor needed);
    as eps -> 0 on floor-certified functions it approaches gff_covariance
    with the factor sigma^2 / (2 nu).
    """
    _require(nu=nu, eps=eps, sigma=sigma)
    return _pair_integral(f, g, lambda q: ou_variance(q + eps, nu, sigma, math.inf))
