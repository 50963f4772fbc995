"""Spectral sampling and statistical verification for stochastic heat
equations driven by space-time white noise.

The package builds eigen-systems of the interval/box Laplacian and the
harmonic oscillator, draws the tested pairings of the solution through the
exact per-mode Ornstein-Uhlenbeck transition, samples the Brownian bridge
and the two-sided Brownian motion, and certifies the stationary covariances
against closed-form Green's functions and Fourier-domain quadrature.
"""

from .basis import (
    BasisKind,
    EigenBasis,
    build_box_basis,
    build_hermite_basis,
    build_interval_basis,
)
from .dynamics import kakutani_statistic
from .fields import (
    RngStream,
    covariance_two_sided,
    sample_brownian_bridge,
    sample_two_sided_bm,
)
from .fourier_cov import (
    gaussian_bump,
    gff_covariance,
    make_s0_function,
    massive_limit_covariance,
    transient_covariance,
)
from .greens import bessel_k, heat_kernel, series_green
from .stats import CovarianceReport, ks_gaussian

__version__ = "0.1.0"

__all__ = [
    "BasisKind",
    "EigenBasis",
    "build_box_basis",
    "build_hermite_basis",
    "build_interval_basis",
    "kakutani_statistic",
    "RngStream",
    "covariance_two_sided",
    "sample_brownian_bridge",
    "sample_two_sided_bm",
    "gaussian_bump",
    "gff_covariance",
    "make_s0_function",
    "massive_limit_covariance",
    "transient_covariance",
    "bessel_k",
    "heat_kernel",
    "series_green",
    "CovarianceReport",
    "ks_gaussian",
]
