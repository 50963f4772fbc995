import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gfflab.basis import (
    BasisKind,
    EigenBasis,
    _box_cap,
    _shell_order,
    _sinpi_into,
    build_box_basis,
    build_hermite_basis,
    build_interval_basis,
    eigen_residual,
    evaluate_matrix,
    gram_matrix,
)
from gfflab.cli import parse_config_text
from gfflab.experiments import exp_heat_poisson, exp_kakutani, exp_weyl
from gfflab.greens import series_green


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


def decode(kind, d, keys, base):
    """The multi-indices EigenBasis decodes from sort keys of base `base`."""
    return EigenBasis(
        kind=kind, d=d, lambdas=np.zeros(keys.size),
        c_weyl=1.0, domain=None, keys=keys, key_base=base,
    ).indices


def listed(kind, d, size):
    """How many lattice points the builder lists for `size` modes: the
    orthant ball |n|^2 <= cap with n_i >= 1 (box), or the simplex
    sum(n) <= m with n_i >= 0 (Hermite), counted point by point."""
    if kind == "hermite":
        m = next(m for m in itertools.count() if math.comb(m + d, d) >= size)
        return math.comb(m + d, d)
    cap = _box_cap(d, size)
    rows = itertools.product(range(1, math.isqrt(cap) + 1), repeat=d - 1)
    return sum(math.isqrt(max(cap - sum(n * n for n in row), 0)) for row in rows)


def old_sinpi(u):
    """sin(pi * u) as it was written before the np.minimum form of
    _sinpi_into: the oracle of the bit-identity test."""
    u = np.asarray(u, dtype=float)
    n = np.floor(u)
    r = u - n
    r = np.where(r > 0.5, 1.0 - r, r)
    s = np.sin(np.pi * r)
    sign = np.where(np.mod(n, 2.0) == 0.0, 1.0, -1.0)
    return sign * s + 0.0


def old_interval_axis_values(kind, length, modes, rel):
    """Interval eigenfunction values as written before they were scaled in
    place: the oracle of the bit-identity test."""
    modes = modes.astype(float)
    if kind is BasisKind.INTERVAL_DIRICHLET:
        return math.sqrt(2.0 / length) * old_sinpi(np.outer(rel, modes))
    if kind is BasisKind.INTERVAL_MIXED:
        return math.sqrt(2.0 / length) * old_sinpi(np.outer(rel, modes - 0.5))
    out = math.sqrt(2.0 / length) * old_sinpi(np.outer(rel, modes - 1.0) + 0.5)
    out[:, modes == 1.0] = math.sqrt(1.0 / length)
    return out


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
        assert evaluate_matrix(b, 0.5)[0, 0] == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_evaluate_quarter_point(self):
        b = build_interval_basis("dirichlet", 0.0, 1.0, 4)
        assert evaluate_matrix(b, 0.25)[0, 1] == pytest.approx(math.sqrt(2.0), rel=1e-15)

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
        assert evaluate_matrix(b, 0.3)[0, 0] == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_boundary_values_exact_zero(self):
        b = build_interval_basis("dirichlet", 0.0, 1.0, 7)
        for k in range(1, 8):
            assert evaluate_matrix(b, [0.0, 1.0])[:, k - 1].tolist() == [0.0, 0.0]

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError, match="a < b"):
            build_interval_basis("dirichlet", 1.0, 0.0, 4)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            build_interval_basis("dirichlet", 0.0, 1.0, 0)

    def test_box_kind_rejected(self):
        with pytest.raises(ValueError, match="is not an interval boundary condition"):
            build_interval_basis("box", 0.0, 1.0, 4)

    def test_non_integral_size_rejected(self):
        # 2.5 once gave 3 eigenvalues and recorded size == 2.5
        with pytest.raises(TypeError, match="basis size must be an integer, got 2.5"):
            build_interval_basis("dirichlet", 0.0, 1.0, 2.5)
        b = build_interval_basis("dirichlet", 0.0, 1.0, np.int64(3))
        assert type(b.size) is int and b.lambdas.size == 3

    @pytest.mark.parametrize(
        "a, b, size",
        # b - a overflows, so pi / (b - a) is 0; lambda_K passes the float range
        [(-1e308, 1e308, 4), (0.0, 1e-306, 1000)],
    )
    def test_eigenvalues_outside_the_float_range_rejected(self, a, b, size):
        with pytest.raises(ValueError, match=r"b - a = .* outside the float range"):
            build_interval_basis("dirichlet", a, b, size)
        assert np.isfinite(build_interval_basis("mixed", 0.0, 1e-306, 10).lambdas).all()


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
                assert evaluate_matrix(box, x)[0, k - 1] == evaluate_matrix(line, x)[0, k - 1]

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

    def test_non_integral_dimension_rejected(self):
        # 2.0 once passed the dimension check and failed later with a bare TypeError
        with pytest.raises(TypeError, match="dimension d must be an integer, got 2.0"):
            build_box_basis(2.0, 1.0, 8)
        assert build_box_basis(np.int64(2), 1.0, 8).d == 2

    @pytest.mark.parametrize("side", [0.0, -1.0])
    def test_nonpositive_side_rejected(self, side):
        with pytest.raises(ValueError, match="box side must be positive"):
            build_box_basis(2, side, 8)

    def test_non_integral_size_rejected(self):
        with pytest.raises(TypeError, match="basis size must be an integer, got 2.5"):
            build_box_basis(2, 1.0, 2.5)

    @pytest.mark.parametrize(
        "side, size",
        # pi / side is inf; pi / side is finite but sqrt(|n|^2) pi / side is not
        [(1e-320, 8), (1e-306, 5000)],
    )
    def test_eigenvalues_outside_the_float_range_rejected(self, side, size):
        with pytest.raises(ValueError, match=r"side = .* outside the float range"):
            build_box_basis(2, side, size)
        assert np.isfinite(build_box_basis(2, 1e-306, 8).lambdas).all()

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
        assert evaluate_matrix(b, 0.0)[0, 0] == pytest.approx(np.pi**-0.25, rel=1e-15)

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
        assert evaluate_matrix(b, 1.3)[0, 20] == pytest.approx(expected, rel=1e-12)

    def test_oversized_request_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            build_hermite_basis(1, 10**6 + 1)

    def test_non_integral_size_rejected(self):
        with pytest.raises(TypeError, match="basis size must be an integer, got 2.5"):
            build_hermite_basis(2, 2.5)

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError, match="^unsupported dimension 4$"):
            build_hermite_basis(4, 8)

    def test_non_integral_dimension_rejected(self):
        with pytest.raises(TypeError, match="dimension d must be an integer, got 2.0"):
            build_hermite_basis(2.0, 8)

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
        [
            ("box", 2, 200000),
            ("box", 3, 100000),
            ("hermite", 3, 200000),
            ("box", 1, 10**6),
            ("hermite", 2, 200000),
        ],
    )
    def test_large_sizes_match_lexsort_oracle(self, kind, d, size):
        if kind == "box":
            assert_same_bytes(build_box_basis(d, 1.0, size), *oracle_box(d, size))
        else:
            assert_same_bytes(build_hermite_basis(d, size), *oracle_hermite(d, size))

    @pytest.mark.parametrize(
        "d, size, lo, power",
        # box d = 1: q = n_1^2 up to 10^12, the square-root decode at its
        # largest q; hermite d = 2: the power-1 decode n_2 = q - n_1
        [(1, 10**6, 1, 2), (2, 200000, 0, 1)],
    )
    def test_decoded_arrays_are_int64(self, d, size, lo, power):
        cap = size**2 if power == 2 else next(m for m in itertools.count() if math.comb(m + d, d) >= size)
        keys, base = _shell_order(d, size, lo, power, cap)
        indices = decode(BasisKind.BOX_DIRICHLET if power == 2 else BasisKind.HERMITE, d, keys, base)
        q = keys // base ** (d - 1)
        assert indices.dtype == np.int64 and q.dtype == np.int64
        assert indices.shape == (size, d) and q.shape == (size,)
        assert np.array_equal((indices**power).sum(axis=1), q)
        assert int(q[-1]) == cap  # the last shell is reached

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

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_box_cap_lists_at_least_size_points(self, d):
        # the cap is a proven bound, with no retry behind it
        sizes = sorted(set(range(1, 301)) | {round(10 ** (k / 8)) for k in range(20, 41)})
        for size in sizes:
            assert listed("box", d, size) >= size, size
        for size in sizes[::20]:
            assert build_box_basis(d, 1.0, size).size == size

    def test_short_region_lists_its_points(self):
        # {n >= 1 : |n|^2 <= 5} holds (1, 1), (1, 2), (2, 1) only
        keys, base = _shell_order(2, 3, 1, 2, 5)
        assert decode(BasisKind.BOX_DIRICHLET, 2, keys, base).tolist() == [[1, 1], [1, 2], [2, 1]]
        assert (keys // base).tolist() == [2, 5, 5]


class TestInPlace:
    """Builders and _sinpi_into work in place: the same bits as the formulas
    they replaced, within a budget of memory that a new temporary would break."""

    @pytest.mark.parametrize(
        "kind, d, size", [("box", 2, 200000), ("box", 3, 100000), ("hermite", 1, 200000), ("hermite", 2, 200000)]
    )
    def test_builder_peak_is_at_most_twice_its_output(self, kind, d, size, traced_peak):
        build = (lambda: build_box_basis(d, 1.0, size)) if kind == "box" else (lambda: build_hermite_basis(d, size))
        basis, peak = traced_peak(build)
        assert peak <= 2 * (basis.lambdas.nbytes + basis.indices.nbytes)

    @pytest.mark.parametrize("kind, d, size", [("box", 2, 200000), ("box", 3, 100000), ("hermite", 2, 200000)])
    def test_basis_holds_eigenvalues_and_one_key_per_listed_point(self, kind, d, size, traced_memory):
        # 4.58 MiB at d = 2 while the (size, d) indices were kept; the sorted
        # keys are a view of the buffer of every listed point
        build = (lambda: build_box_basis(d, 1.0, size)) if kind == "box" else (lambda: build_hermite_basis(d, size))
        basis, held, peak = traced_memory(build)
        assert held <= basis.lambdas.nbytes + 8 * listed(kind, d, size) + 4096  # and small Python objects
        assert peak <= 3.1 * basis.lambdas.nbytes  # 4.1 times at d = 2 with the decode

    def test_interval_builder_peak_is_its_output(self, traced_memory):
        # 2.29 MiB at K = 10^5 when k * pi / length made two throwaway arrays
        basis, held, peak = traced_memory(build_interval_basis, "dirichlet", 0.0, 1.0, 10**5)
        output = basis.lambdas.nbytes + basis.keys.nbytes
        assert held >= output and peak - output < 4096  # and small Python objects

    def test_sinpi_peak_is_at_most_three_and_a_half_inputs(self, traced_peak):
        # the input copied and written over, as evaluate_matrix writes over its phases
        u = np.random.default_rng(3).uniform(-50.0, 50.0, 200000)
        _, peak = traced_peak(lambda: _sinpi_into(u.copy()))
        assert peak <= 3.5 * u.nbytes

    def test_series_green_peak_is_at_most_half_the_old_one(self, traced_peak):
        # 7.06 MiB with the phase buffer, three sinpi temporaries and a float
        # copy of the modes; in place it is the buffer, one scratch array of
        # its size and boolean masks
        basis = build_interval_basis("dirichlet", 0.0, 1.0, 10**5)
        _, peak = traced_peak(series_green, basis, 1.0, 0.3, 0.7)
        assert peak <= 0.5 * 7.06 * 2**20

    def test_series_green_peak_is_its_evaluation_and_little_more(self, traced_peak):
        # 2.29 MiB, 1.5 times the (2, K) evaluation, while nu lambda^2 took two
        # new arrays of K; the evaluation's second row now holds it
        basis = build_interval_basis("dirichlet", 0.0, 1.0, 10**5)
        _, peak = traced_peak(series_green, basis, 1.0, 0.3, 0.7)
        assert peak <= 1.25 * 2 * 8 * basis.size

    @pytest.mark.parametrize(
        "name, text",
        # 3.95 and 3.83 MiB while kakutani_statistic and series_green held
        # extra arrays of K; now each peaks at its basis and one evaluation
        [
            ("kakutani", "experiment = kakutani\nbasis.kind = box_dirichlet\nbasis.d = 3\nK = 100000\n"),
            ("heat_poisson", "experiment = heat_poisson\nK = 100000\n"),
        ],
        ids=["kakutani", "heat_poisson"],
    )
    def test_spectra_experiment_peak_is_below_3_4_mib(self, name, text, traced_peak):
        run = {"kakutani": exp_kakutani, "heat_poisson": exp_heat_poisson}[name]
        result, peak = traced_peak(run, parse_config_text(text))
        assert result.summary["passed"]
        assert peak < 3.4 * 2**20

    def test_weyl_holds_one_basis_at_a_time(self, traced_peak):
        # 7.93 MiB when the box basis stayed alive while the Hermite one was built
        cfg = parse_config_text("experiment = weyl\nK = 200000\n")
        _, box_peak = traced_peak(build_box_basis, 2, 1.0, 200000)
        _, peak = traced_peak(exp_weyl, cfg)
        assert peak <= 1.05 * box_peak

    @pytest.mark.parametrize("side", [1.0, 2.5])
    @pytest.mark.parametrize("d, size", [(2, 200000), (3, 100000), (1, 1000)])
    def test_box_eigenvalues_match_the_old_formula_bit_for_bit(self, d, size, side):
        basis = build_box_basis(d, side, size)
        q = (basis.indices**2).sum(axis=1)
        old = np.pi * np.sqrt(q.astype(float)) / side
        assert basis.lambdas.view(np.int64).tobytes() == old.view(np.int64).tobytes()

    @pytest.mark.parametrize("d, size", [(1, 200000), (2, 200000), (3, 1000)])
    def test_hermite_eigenvalues_match_the_old_formula_bit_for_bit(self, d, size):
        basis = build_hermite_basis(d, size)
        s = basis.indices.sum(axis=1)
        old = np.sqrt(2.0 * s.astype(float) + d)
        assert basis.lambdas.view(np.int64).tobytes() == old.view(np.int64).tobytes()

    @pytest.mark.parametrize(
        "kind, size",
        [(BasisKind.INTERVAL_DIRICHLET, 100000), (BasisKind.INTERVAL_MIXED, 5000),
         (BasisKind.INTERVAL_NEUMANN, 5000)],
    )
    def test_interval_values_match_the_old_formula_bit_for_bit(self, kind, size):
        a, b = -0.5, 2.0
        basis = build_interval_basis(kind, a, b, size)
        x = np.array([0.3, 0.7, a, b, 1.0 / 3.0])
        old = old_interval_axis_values(kind, b - a, basis.indices[:, 0], (x - a) / (b - a))
        got = evaluate_matrix(basis, x)
        assert got.view(np.int64).tobytes() == old.view(np.int64).tobytes()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_interval_basis("dirichlet", 0.0, 1.0, 1000),
            lambda: build_interval_basis("neumann", 0.0, 1.0, 1000),
            lambda: build_box_basis(2, 1.0, 1000),
            lambda: build_box_basis(3, 1.0, 1000),
            lambda: build_hermite_basis(1, 1000),
            lambda: build_hermite_basis(2, 1000),
        ],
    )
    def test_builder_arrays_are_frozen_plain_and_unshared(self, make):
        basis, again = make(), make()
        for arr in (basis.lambdas, basis.keys, basis.indices):
            assert type(arr) is np.ndarray and arr.flags.c_contiguous
            view = arr
            while view is not None:  # the array and every array it views
                assert not view.flags.writeable
                view = view.base
            with pytest.raises(ValueError, match="read-only"):
                arr.reshape(-1)[0] = 0
        assert not np.shares_memory(basis.lambdas, basis.indices)
        for first in (basis.lambdas, basis.indices):
            for second in (again.lambdas, again.indices):
                assert not np.shares_memory(first, second)


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
    def test_point_outside_domain(self, dirichlet16):
        with pytest.raises(ValueError, match="outside"):
            evaluate_matrix(dirichlet16, 1.5)

    def test_hermite_accepts_any_real(self, hermite16):
        assert np.isfinite(evaluate_matrix(hermite16, 25.0)[0, 15])

    @pytest.mark.parametrize(
        "make, point",
        [
            # NaN once passed the interval's domain check and gave a row of NaN
            (lambda: build_interval_basis("dirichlet", 0.0, 1.0, 16), math.nan),
            (lambda: build_box_basis(2, 1.0, 16), (0.5, math.nan)),
            # +-inf once warned in the Hermite recurrence and gave NaN
            (lambda: build_hermite_basis(1, 16), math.inf),
            (lambda: build_hermite_basis(2, 16), (0.0, -math.inf)),
        ],
        ids=["interval", "box", "hermite1", "hermite2"],
    )
    def test_non_finite_point_rejected(self, make, point):
        with pytest.raises(ValueError, match="evaluation points must be finite"):
            evaluate_matrix(make(), point)

    @pytest.mark.parametrize(
        "make, points, message",
        [
            (lambda: build_box_basis(2, 1.0, 8), np.full((3, 3), 0.5), "points have dimension 3, basis has d=2"),
            (lambda: build_hermite_basis(3, 8), np.zeros((2, 2)), "points have dimension 2, basis has d=3"),
        ],
        ids=["box", "hermite"],
    )
    def test_points_of_the_wrong_dimension_rejected(self, make, points, message):
        with pytest.raises(ValueError, match=message):
            evaluate_matrix(make(), points)

    def test_series_green_rejects_non_finite_points(self, dirichlet16):
        with pytest.raises(ValueError, match="evaluation points must be finite"):
            series_green(dirichlet16, 1.0, 0.3, math.nan)

    def test_matrix_matches_pointwise(self, dirichlet16):
        pts = np.array([0.1, 0.5, 0.9])
        m = evaluate_matrix(dirichlet16, pts)
        for i, x in enumerate(pts):
            for k in range(1, 17):
                assert m[i, k - 1] == evaluate_matrix(dirichlet16, x)[0, k - 1]

    def test_box_evaluation_is_product(self):
        b = build_box_basis(2, 1.0, 6)
        line = build_interval_basis("dirichlet", 0.0, 1.0, 3)
        x = (0.3, 0.8)
        for k in range(1, 7):
            n1, n2 = b.indices[k - 1]
            expected = evaluate_matrix(line, x[0])[0, n1 - 1] * evaluate_matrix(line, x[1])[0, n2 - 1]
            assert evaluate_matrix(b, x)[0, k - 1] == pytest.approx(expected, rel=1e-14)


class TestHelpers:
    def test_sinpi_exact_integer_zeros(self):
        assert _sinpi_into(np.array([0.0, 1.0, 123456.0, 0.5, 1.5])).tolist() == [0.0, 0.0, 0.0, 1.0, -1.0]

    def test_sinpi_matches_the_old_formula_bit_for_bit(self):
        rng = np.random.default_rng(12)
        big = [2.0**55, -(2.0**55), 2.0**60, 1e300, -1e300, 0.0, -0.0]
        u = np.concatenate((
            rng.uniform(-1e6, 1e6, 100000),
            rng.uniform(-3.0, 3.0, 100000),
            np.arange(-2000, 2000) + 0.5,
            big,
        ))
        grid = np.outer([0.3, 0.7, 1.0 / 3.0], np.arange(1, 100001, dtype=float))
        for values in (u, grid):
            got = _sinpi_into(values.copy())
            assert got.view(np.int64).tobytes() == old_sinpi(values).view(np.int64).tobytes()

    def test_sinpi_integers_give_positive_zero(self):
        n = np.arange(-1000, 1001, dtype=float)
        assert _sinpi_into(n.copy()).view(np.int64).tolist() == [0] * n.size
        assert math.copysign(1.0, _sinpi_into(np.array([-3.0]))[0]) == 1.0

    def test_caller_arrays_stay_writeable(self):
        lambdas, keys = np.ones(3), np.ones(3, dtype=np.int64)
        b = EigenBasis(
            kind=BasisKind.INTERVAL_DIRICHLET, d=1, lambdas=lambdas,
            c_weyl=1.0, domain=((0.0, math.pi),), keys=keys, key_base=2,
        )
        assert lambdas.flags.writeable and keys.flags.writeable
        assert not b.lambdas.flags.writeable and not b.keys.flags.writeable
        assert not b.indices.flags.writeable
        lambdas[0], keys[0] = 5.0, 7
        assert b.lambdas[0] == 1.0 and b.keys[0] == 1 and b.indices[0, 0] == 1

        # a read-only array the caller owns is still the caller's: the
        # caller can turn writing back on, so the basis copies it too
        lambdas.setflags(write=False)
        keys.setflags(write=False)
        b = EigenBasis(
            kind=BasisKind.INTERVAL_DIRICHLET, d=1, lambdas=lambdas,
            c_weyl=1.0, domain=((0.0, math.pi),), keys=keys, key_base=8,
        )
        assert not np.shares_memory(b.lambdas, lambdas) and not np.shares_memory(b.keys, keys)
        lambdas.setflags(write=True)
        keys.setflags(write=True)
        lambdas[0], keys[0] = 9.0, 3
        assert b.lambdas[0] == 5.0 and b.keys[0] == 7 and b.indices[0, 0] == 7
