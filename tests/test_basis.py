import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gfflab.basis import (
    BasisKind,
    _shell_order,
    basis_from_descriptor,
    build_box_basis,
    build_hermite_basis,
    build_interval_basis,
    cospi,
    eigen_residual,
    evaluate,
    evaluate_matrix,
    gram_matrix,
    sinpi,
)


def oracle_box(d, size):
    """Full-cube builder: a meshgrid of 1..bound per axis, doubled until the
    inscribed ball holds `size` points, then lexsort on (|n|^2, n)."""
    bound = max(2, int(math.ceil(size ** (1.0 / d))) + 1)
    while True:
        axes = [np.arange(1, bound + 1, dtype=np.int64)] * d
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        norm2 = (grid.astype(float) ** 2).sum(axis=1)
        if np.count_nonzero(norm2 <= float(bound) ** 2) >= size:
            break
        bound *= 2
    keep = np.lexsort((*grid.T[::-1], norm2))[:size]
    return grid[keep], np.pi * np.sqrt(norm2[keep])


def oracle_hermite(d, size):
    """Full-cube builder: a meshgrid of 0..m per axis cut to the simplex
    sum(n) <= m, then lexsort on (sum(n), n)."""
    m = 0
    while math.comb(m + d, d) < size:
        m += 1
    axes = [np.arange(m + 1, dtype=np.int64)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    grid = grid[grid.sum(axis=1) <= m]
    indices = grid[np.lexsort((*grid.T[::-1], grid.sum(axis=1)))[:size]]
    return indices, np.sqrt(2.0 * indices.sum(axis=1).astype(float) + d)


def assert_same_bytes(basis, indices, lambdas):
    assert basis.indices.dtype == indices.dtype and basis.indices.shape == indices.shape
    assert basis.indices.tobytes() == indices.tobytes()
    assert basis.lambdas.tobytes() == lambdas.tobytes()


def bisect_root(fn, lo, hi, iters=200):
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


class TestIntervalBasis:
    def test_dirichlet_eigenvalues(self):
        b = build_interval_basis("dirichlet", 0.0, 1.0, 3)
        assert np.allclose(b.lambdas, [np.pi, 2 * np.pi, 3 * np.pi], rtol=0, atol=0)

    def test_dirichlet_midpoint_value(self):
        b = build_interval_basis("dirichlet", 0.0, 1.0, 1)
        assert evaluate(b, 1, 0.5) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_evaluate_quarter_point(self):
        b = build_interval_basis("dirichlet", 0.0, 1.0, 4)
        assert evaluate(b, 2, 0.25) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_mixed_eigenvalues_against_characteristic_roots(self):
        # oracle: roots of cos(lambda) = 0 located by bisection
        b = build_interval_basis("mixed", 0.0, 1.0, 2)
        roots = [
            bisect_root(math.cos, 1.0, 2.0),
            bisect_root(math.cos, 4.0, 5.0),
        ]
        assert np.allclose(b.lambdas, roots, rtol=1e-13)
        assert np.allclose(b.lambdas, [np.pi / 2, 3 * np.pi / 2], rtol=1e-15)

    def test_neumann_has_constant_mode(self):
        b = build_interval_basis("neumann", 0.0, 2.0, 3)
        assert b.lambdas[0] == 0.0
        assert evaluate(b, 1, 0.3) == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_boundary_values_exact_zero(self):
        b = build_interval_basis("dirichlet", 0.0, 1.0, 7)
        for k in range(1, 8):
            assert evaluate(b, k, 0.0) == 0.0
            assert evaluate(b, k, 1.0) == 0.0

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError, match="a < b"):
            build_interval_basis("dirichlet", 1.0, 0.0, 4)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            build_interval_basis("dirichlet", 0.0, 1.0, 0)


class TestBoxBasis:
    def test_smallest_two_square_sums(self):
        b = build_box_basis(2, 1.0, 4)
        assert np.allclose(b.lambdas_squared / np.pi**2, [2.0, 5.0, 5.0, 8.0], rtol=1e-14)

    def test_degenerate_tensor_matches_interval(self):
        box = build_box_basis(1, 1.0, 12)
        line = build_interval_basis("dirichlet", 0.0, 1.0, 12)
        assert np.array_equal(box.lambdas, line.lambdas)
        for x in (0.13, 0.5, 0.77):
            for k in (1, 5, 12):
                assert evaluate(box, k, x) == evaluate(line, k, x)

    def test_weyl_ratio_against_lattice_count(self):
        b = build_box_basis(2, 1.0, 10000)
        lam = float(b.lambdas[-1])
        # lattice-count oracle: rank of lambda_K among |n| pi values
        r = lam / np.pi
        bound = int(r) + 1
        n1, n2 = np.meshgrid(np.arange(1, bound + 1), np.arange(1, bound + 1))
        count = int(np.count_nonzero(n1**2 + n2**2 <= r * r + 1e-9))
        assert count >= 10000  # lambda_K covers at least K lattice points
        assert lam / math.sqrt(10000) == pytest.approx(2 * math.sqrt(math.pi), rel=0.05)

    def test_tie_break_is_lexicographic(self):
        b = build_box_basis(2, 1.0, 4)
        assert b.indices.tolist() == [[1, 1], [1, 2], [2, 1], [2, 2]]

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            build_box_basis(4, 1.0, 8)

    @pytest.mark.parametrize("d", [2, 3])
    def test_order_matches_tuple_key_sort(self, d):
        # oracle: Python's sort on (|n|^2, n) over a lattice block that holds
        # every index up to the largest norm requested
        bound = 2 * int(math.ceil(3000 ** (1.0 / d))) + 2
        lattice = itertools.product(range(1, bound + 1), repeat=d)
        oracle = sorted(lattice, key=lambda n: (sum(k * k for k in n), n))
        norms = [sum(k * k for k in n) for n in oracle]
        # sizes that end inside a shell of equal eigenvalues, plus plain ones
        ties = [i + 1 for i in range(2999) if norms[i] == norms[i + 1]]
        for size in [1, 2, 7, 100, 3000] + ties[::97][:8]:
            b = build_box_basis(d, 1.0, size)
            assert np.array_equal(b.indices, np.array(oracle[:size])), size
            assert np.array_equal(b.lambdas, np.pi * np.sqrt(norms[:size]))


class TestHermiteBasis:
    def test_eigenvalues_1d(self):
        b = build_hermite_basis(1, 3)
        assert np.allclose(b.lambdas_squared, [1.0, 3.0, 5.0], rtol=1e-15)

    def test_ground_state_normalization(self):
        b = build_hermite_basis(1, 1)
        assert evaluate(b, 1, 0.0) == pytest.approx(np.pi**-0.25, rel=1e-15)

    def test_eigenvalues_2d(self):
        b = build_hermite_basis(2, 3)
        assert np.allclose(b.lambdas_squared, [2.0, 4.0, 4.0], rtol=1e-15)
        assert b.indices.tolist() == [[0, 0], [0, 1], [1, 0]]

    def test_high_degree_against_exact_rational_rodrigues(self):
        # oracle: integer-coefficient Hermite polynomial evaluated at the
        # rational point 13/10 with exact Fraction arithmetic
        n = 20  # basis index 21
        coeffs = [[1], [0, 2]]  # physicists' H_0, H_1
        for m in range(1, n):
            prev, cur = coeffs[m - 1], coeffs[m]
            nxt = [0] + [2 * c for c in cur]
            for i, c in enumerate(prev):
                nxt[i] -= 2 * m * c
            coeffs.append(nxt)
        x = Fraction(13, 10)
        h_poly = sum(c * x**i for i, c in enumerate(coeffs[n]))
        norm = math.pi**-0.25 * 2 ** (-n / 2) / math.sqrt(math.factorial(n))
        expected = float(h_poly) * norm * math.exp(-float(x) ** 2 / 2)
        b = build_hermite_basis(1, 25)
        assert evaluate(b, 21, 1.3) == pytest.approx(expected, rel=1e-12)

    def test_oversized_request_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            build_hermite_basis(1, 10**6 + 1)

    @pytest.mark.parametrize("d", [2, 3])
    def test_order_matches_tuple_key_sort(self, d):
        # every degree up to the largest needed (sum(n) <= 62 for d = 2, 21 for d = 3)
        lattice = itertools.product(range({2: 64, 3: 24}[d]), repeat=d)
        oracle = sorted(lattice, key=lambda n: (sum(n), n))
        for size in [1, 2, 3, 4, 5, 11, 100, 1000, 2000]:
            b = build_hermite_basis(d, size)
            assert np.array_equal(b.indices, np.array(oracle[:size])), size


class TestShellOrder:
    @pytest.mark.parametrize(
        "kind, d, size",
        [("box", 2, 200000), ("box", 3, 100000), ("hermite", 3, 200000)],
    )
    def test_large_sizes_match_lexsort_oracle(self, kind, d, size):
        if kind == "box":
            assert_same_bytes(build_box_basis(d, 1.0, size), *oracle_box(d, size))
        else:
            assert_same_bytes(build_hermite_basis(d, size), *oracle_hermite(d, size))

    @given(
        kind=st.sampled_from(["box", "hermite"]),
        d=st.integers(1, 3),
        start=st.integers(1, 3000),
    )
    def test_sizes_ending_inside_a_tie_shell(self, kind, d, start):
        oracle = oracle_box if kind == "box" else oracle_hermite
        _, lam = oracle(d, start + 200)
        # first size >= start whose last mode shares its eigenvalue with
        # the next one; d = 1 has no ties, so the size stays as drawn
        ties = np.flatnonzero(lam[start - 1:-1] == lam[start:])
        assume(d == 1 or ties.size)
        size = start + int(ties[0]) if ties.size else start
        basis = build_box_basis(d, 1.0, size) if kind == "box" else build_hermite_basis(d, size)
        assert_same_bytes(basis, *oracle(d, size))

    @pytest.mark.parametrize("d, size", [(1, 4 * 10**9), (2, 10**13), (3, 10**15)])
    def test_key_overflow_is_a_named_error(self, d, size):
        # raised before any lattice array is allocated
        with pytest.raises(ValueError, match="overflows int64"):
            build_box_basis(d, 1.0, size)

    def test_short_region_returns_none(self):
        # {n >= 1 : |n|^2 <= 5} holds (1, 1), (1, 2), (2, 1) only
        assert _shell_order(2, 4, 1, 2, 5) is None
        indices, q = _shell_order(2, 3, 1, 2, 5)
        assert indices.tolist() == [[1, 1], [1, 2], [2, 1]]
        assert q.tolist() == [2, 5, 5]


class TestInvariants:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_interval_basis("dirichlet", 0.0, 1.0, 12),
            lambda: build_interval_basis("mixed", 0.0, 1.0, 12),
            lambda: build_interval_basis("neumann", 0.0, 1.0, 12),
            lambda: build_interval_basis("dirichlet", -1.0, 3.0, 12),
            lambda: build_box_basis(2, 1.0, 10),
            lambda: build_hermite_basis(1, 12),
            lambda: build_hermite_basis(2, 8),
        ],
        ids=["dirichlet", "mixed", "neumann", "shifted", "box2", "hermite1", "hermite2"],
    )
    def test_orthonormality(self, make):
        b = make()
        defect = np.abs(gram_matrix(b) - np.eye(b.size)).max()
        assert defect < 1e-8

    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_interval_basis("dirichlet", 0.0, 1.0, 24),
            lambda: build_interval_basis("mixed", 0.0, 1.0, 24),
            lambda: build_box_basis(2, 1.0, 24),
            lambda: build_hermite_basis(1, 24),
            lambda: build_hermite_basis(2, 24),
        ],
        ids=["dirichlet", "mixed", "box2", "hermite1", "hermite2"],
    )
    def test_eigen_residual(self, make):
        b = make()
        for k in (1, 5, 10, 20):
            assert eigen_residual(b, k) < 1e-6 * b.lambdas_squared[k - 1]

    def test_sorting_bitwise_stable(self):
        a = build_box_basis(2, 1.0, 500)
        b = build_box_basis(2, 1.0, 500)
        assert np.array_equal(a.lambdas, b.lambdas)
        assert np.array_equal(a.indices, b.indices)
        h1 = build_hermite_basis(3, 200)
        h2 = build_hermite_basis(3, 200)
        assert np.array_equal(h1.lambdas, h2.lambdas)
        assert np.array_equal(h1.indices, h2.indices)

    def test_lambdas_nondecreasing(self):
        for b in (
            build_box_basis(3, 2.0, 100),
            build_hermite_basis(2, 100),
            build_interval_basis("neumann", 0.0, 1.0, 50),
        ):
            assert np.all(np.diff(b.lambdas) >= 0.0)

    def test_weyl_constant_interval_exact(self):
        b = build_interval_basis("dirichlet", 0.0, 1.0, 1000)
        k = np.arange(1, 1001)
        assert np.max(np.abs(b.lambdas / k - b.c_weyl)) < 1e-10


class TestEvaluation:
    def test_index_out_of_range(self, dirichlet16):
        with pytest.raises(ValueError, match="out of range"):
            evaluate(dirichlet16, 17, 0.5)
        with pytest.raises(ValueError, match="out of range"):
            evaluate(dirichlet16, 0, 0.5)

    def test_point_outside_domain(self, dirichlet16):
        with pytest.raises(ValueError, match="outside"):
            evaluate(dirichlet16, 1, 1.5)

    def test_hermite_accepts_any_real(self, hermite16):
        assert np.isfinite(evaluate(hermite16, 16, 25.0))

    def test_matrix_matches_pointwise(self, dirichlet16):
        pts = np.array([0.1, 0.5, 0.9])
        m = evaluate_matrix(dirichlet16, pts)
        for i, x in enumerate(pts):
            for k in range(1, 17):
                assert m[i, k - 1] == evaluate(dirichlet16, k, x)

    def test_box_evaluation_is_product(self):
        b = build_box_basis(2, 1.0, 6)
        line = build_interval_basis("dirichlet", 0.0, 1.0, 3)
        x = (0.3, 0.8)
        for k in range(1, 7):
            n1, n2 = b.indices[k - 1]
            expected = evaluate(line, int(n1), x[0]) * evaluate(line, int(n2), x[1])
            assert evaluate(b, k, x) == pytest.approx(expected, rel=1e-14)


class TestHelpers:
    def test_sinpi_exact_integer_zeros(self):
        assert sinpi(0.0) == 0.0
        assert sinpi(1.0) == 0.0
        assert sinpi(123456.0) == 0.0
        assert sinpi(0.5) == 1.0
        assert sinpi(1.5) == -1.0

    def test_cospi_exact_half_integer_zeros(self):
        assert cospi(0.5) == 0.0
        assert cospi(1.5) == 0.0
        assert cospi(0.0) == 1.0
        assert cospi(1.0) == -1.0

    def test_descriptor_round_trip(self):
        for b in (
            build_interval_basis("mixed", -0.5, 2.0, 9),
            build_box_basis(2, 1.5, 7),
            build_hermite_basis(2, 11),
        ):
            back = basis_from_descriptor(b.describe())
            assert back.kind is b.kind
            assert np.array_equal(back.lambdas, b.lambdas)
            assert np.array_equal(back.indices, b.indices)
