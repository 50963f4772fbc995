import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from gfflab.basis import build_hermite_basis, build_interval_basis
from gfflab.dynamics import em_oracle_step
from gfflab.fields import RngStream

settings.register_profile(
    "ci",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def dirichlet16():
    return build_interval_basis("dirichlet", 0.0, 1.0, 16)


@pytest.fixture(scope="session")
def dirichlet64():
    return build_interval_basis("dirichlet", 0.0, 1.0, 64)


@pytest.fixture(scope="session")
def hermite16():
    return build_hermite_basis(1, 16)


@pytest.fixture()
def rng():
    return RngStream(2026, (0,)).generator()


@pytest.fixture()
def stream():
    return RngStream(2026, (0,))


@pytest.fixture(scope="session")
def em_moments():
    """Exact mean and variance of the Euler-Maruyama chain of one mode at
    lambda = nu = sigma = 1 after t_end / dt steps from u = u0:
    m <- (1 - dt) m and v <- (1 - dt)^2 v + dt."""

    def moments(dt, t_end=1.0, u0=1.0):
        mean, var = u0, 0.0
        for _ in range(int(round(t_end / dt))):
            mean, var = (1.0 - dt) * mean, (1.0 - dt) ** 2 * var + dt
        return mean, var

    return moments


@pytest.fixture(scope="session")
def em_ensemble():
    """n independent Euler-Maruyama paths from u = 1 at lambda = nu = sigma = 1,
    stepped by em_oracle_step itself as n modes that all have lambda = 1
    (one path per mode)."""

    def paths(n, dt, t_end, stream):
        u, lam2 = np.ones(n), np.ones(n)
        gen = stream.generator()
        for _ in range(int(round(t_end / dt))):
            u = em_oracle_step(u, lam2, 1.0, 1.0, dt, gen)
        return u

    return paths


@pytest.fixture(scope="session")
def traced_memory():
    """fn(*args), the memory it allocated and still holds, and the peak of
    that memory, in bytes, as tracemalloc counts it (numpy reports its array
    buffers there)."""

    def traced(fn, *args):
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc is already tracing")
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, *tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    return traced


@pytest.fixture(scope="session")
def traced_peak(traced_memory):
    """fn(*args) and the peak of the memory it allocated, in bytes."""

    def peak(fn, *args):
        result, _, top = traced_memory(fn, *args)
        return result, top

    return peak


def assert_close(actual, expected, rel=1e-12, abs_tol=0.0, label=""):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    tol = rel * np.maximum(np.abs(expected), 1.0e-300) + abs_tol
    if not np.all(np.abs(actual - expected) <= tol):
        worst = float(np.max(np.abs(actual - expected)))
        raise AssertionError(
            f"{label or 'values'} differ: worst |diff| = {worst:.3e}, "
            f"actual={actual!r}, expected={expected!r}"
        )
