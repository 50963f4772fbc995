import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gfflab.basis import build_interval_basis, evaluate_matrix
from gfflab.cli import ExperimentConfig, parse_config_text
from gfflab.experiments import EXPERIMENTS, _folded_normal_mean, _two_sided_gauss_oracle, experiment_stream
from gfflab.fields import (
    RngStream,
    covariance_two_sided,
    sample_brownian_bridge,
    sample_gff,
    sample_two_sided_bm,
    two_sided_antiderivative,
)
from gfflab.fourier_cov import (
    Spectrum,
    gaussian_bump,
    gff_covariance,
    make_s0_function,
    ou_variance,
    pairing,
    two_sided_covariance,
)
from gfflab.greens import series_green
from gfflab.quadrature import composite_legendre, gauss_legendre


def mc_stderr_of_variance(var, n):
    return var * math.sqrt(2.0 / n)


def first_value(stream: RngStream) -> float:
    return float(stream.generator().standard_normal())


PATHS = st.lists(st.integers(0, 2**32 - 1), max_size=4).map(tuple)


class TestRngStream:
    @given(st.integers(0, 2**32 - 1), PATHS)
    def test_same_key_same_stream(self, seed, path):
        a = RngStream(seed, path).generator().standard_normal(8)
        b = RngStream(seed, path).generator().standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(7, (0,)).generator().standard_normal(16)
        b = RngStream(7, (1,)).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_substreams_are_distinct(self):
        s = RngStream(7, (3,))
        firsts = {first_value(s.substream(i)) for i in range(100)}
        assert len(firsts) == 100

    @given(st.integers(0, 2**32 - 1), PATHS, PATHS)
    def test_distinct_paths_draw_distinct_first_values(self, seed, a, b):
        if a != b:
            assert first_value(RngStream(seed, a)) != first_value(RngStream(seed, b))

    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(0, 2**32 - 1), max_size=3).map(tuple),
           st.integers(0, 2**32 - 1))
    def test_a_child_never_equals_its_parent(self, seed, path, i):
        parent = RngStream(seed, path)
        child = parent.substream(i)
        assert child != parent
        assert first_value(child) != first_value(parent)

    def test_nested_substreams_of_distinct_parents_differ(self):
        root = RngStream(7)
        a = root.substream(0).substream(3).substream(5).generator().standard_normal(16)
        b = root.substream(1).substream(3).substream(5).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_substream_zero_is_not_its_parent(self):
        parent = RngStream(7)
        assert parent.substream(0) != parent
        assert first_value(parent.substream(0)) != first_value(parent)

    def test_seeds_do_not_wrap_at_2_to_the_64(self):
        assert first_value(RngStream(2**64)) != first_value(RngStream(0))

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            RngStream(-1).generator()


# the spawn_key of every stream the Monte Carlo experiments draw, by
# (experiment, role, *index); the first entry is crc32 of the experiment name
STREAM_MAP = {
    ("stationary_bd", "pairings"): (1325758374, 0),
    ("stationary_bd", "invariance"): (1325758374, 1),
    ("stationary_hermite", "pairings"): (2860014911, 0),
    ("stationary_hermite", "invariance"): (2860014911, 1),
    **{("convergence_curve", "pairings", i): (159319778, 0, i) for i in range(4)},
    ("bridge_cov", "pairings"): (2656012861, 0),
    ("bridge_cov", "boundary"): (2656012861, 2),
}


class TestExperimentStreams:
    @pytest.mark.parametrize("entry, key", STREAM_MAP.items(), ids=lambda v: "-".join(map(str, v)))
    def test_stream_map(self, entry, key):
        name, role, *index = entry
        stream = experiment_stream(ExperimentConfig(experiment=name), role)
        assert (stream.substream(*index) if index else stream).path == key

    def test_experiment_ids_are_distinct(self):
        ids = {experiment_stream(ExperimentConfig(experiment=n), "pairings").path[0] for n in EXPERIMENTS}
        assert len(ids) == len(EXPERIMENTS)

    @pytest.fixture(scope="class")
    def drawn(self):
        """The paths of the streams each Monte Carlo experiment draws from at
        seed 7, in the order it draws them."""
        record, generator = [], RngStream.generator
        mp = pytest.MonkeyPatch()
        mp.setattr(RngStream, "generator", lambda s: record.append(s.path) or generator(s))
        paths = {}
        try:
            for name in {entry[0] for entry in STREAM_MAP}:
                record.clear()
                EXPERIMENTS[name](parse_config_text(f"experiment = {name}\nM = 100"))
                paths[name] = list(record)
        finally:
            mp.undo()
        return paths

    def test_experiments_draw_the_streams_of_the_map(self, drawn):
        for name, paths in drawn.items():
            assert sorted(paths) == sorted(key for entry, key in STREAM_MAP.items() if entry[0] == name)

    def test_first_draws_of_the_experiments_differ(self, drawn):
        firsts = [first_value(RngStream(7, paths[0])) for paths in drawn.values()]
        assert len(firsts) == 4 and len(set(firsts)) == 4

    def test_bridge_boundary_is_not_the_invariance_stream(self):
        boundary = experiment_stream(ExperimentConfig(experiment="bridge_cov"), "boundary")
        invariance = experiment_stream(ExperimentConfig(experiment="stationary_bd"), "invariance")
        assert first_value(boundary) != first_value(invariance)


class TestSampleGff:
    def test_rejects_zero_mode(self, rng):
        basis = build_interval_basis("neumann", 0.0, 1.0, 8)
        with pytest.raises(ValueError, match="lambda_1 > 0"):
            sample_gff(basis, 1.0, rng)

    def test_white_noise_unit_variance(self, dirichlet16):
        gen = RngStream(11, (0,)).generator()
        draws = sample_gff(dirichlet16, 0.0, gen, n=4000)
        var = draws.var(axis=0, ddof=1)
        assert np.all(np.abs(var - 1.0) < 4.0 * mc_stderr_of_variance(1.0, 4000))

    def test_first_mode_variance_matches_green(self, dirichlet16):
        gen = RngStream(12, (0,)).generator()
        n = 100000
        draws = sample_gff(dirichlet16, 1.0, gen, n=n)[:, 0]
        target = 1.0 / math.pi**2
        assert draws.var(ddof=1) == pytest.approx(target, abs=3.0 * mc_stderr_of_variance(target, n))

    def test_batch_rows_are_successive_draws(self, dirichlet16):
        # one (n, size) block consumes the stream exactly like n single draws
        gen = RngStream(26, (0,)).generator()
        single = np.array([sample_gff(dirichlet16, 1.0, gen) for _ in range(5)])
        batch = sample_gff(dirichlet16, 1.0, RngStream(26, (0,)).generator(), n=5)
        assert single.shape == (5, 16) and batch.shape == (5, 16)
        assert np.array_equal(batch, single)

    def test_pointwise_covariance_matches_series_green(self):
        basis = build_interval_basis("dirichlet", 0.0, 1.0, 1024)
        pts = np.array([0.2, 0.5, 0.8])
        n = 20000
        coeffs = sample_gff(basis, 1.0, RngStream(13, (0,)).generator(), n=n)
        vals = (evaluate_matrix(basis, pts) @ coeffs.T).T
        assert vals.shape == (n, 3)
        emp = vals.T @ vals / n
        for i in range(3):
            for j in range(3):
                target = series_green(basis, 1.0, pts[i], pts[j])
                se = math.sqrt((emp[i, i] * emp[j, j] + emp[i, j] ** 2) / n)
                assert abs(emp[i, j] - target) < 4.0 * se


class TestPairField:
    """Free-field draws paired with coefficient functionals through the
    weight matrix the Monte Carlo runs use."""

    def test_unit_functional_reads_coefficient(self, dirichlet16, rng):
        w = sample_gff(dirichlet16, 1.0, rng)
        for k in (1, 7, 16):
            weights = np.eye(16)[:, [k - 1]]
            assert (w @ weights)[0] == w[k - 1]

    def test_pair_covariance_matches_weighted_inner_product(self, dirichlet16):
        gen = RngStream(14, (0,)).generator()
        weights = np.eye(16)[:, [0, 0]]
        n = 50000
        prods = np.empty(n)
        for i in range(n):
            pair = sample_gff(dirichlet16, 1.0, gen) @ weights
            prods[i] = pair[0] * pair[1]
        target = 1.0 / dirichlet16.lambdas_squared[0]
        se = prods.std(ddof=1) / math.sqrt(n)
        assert abs(prods.mean() - target) < 3.0 * se

    def test_mc_covariance_matrix_is_psd(self, dirichlet16):
        gen = RngStream(15, (0,)).generator()
        weights = np.eye(16)[:, [0, 1, 2, 4, 7]]  # e1, e2, e3, e5, e8
        n = 2000
        vals = np.array([sample_gff(dirichlet16, 1.0, gen) @ weights for _ in range(n)])
        cov = vals.T @ vals / n
        eigs = np.linalg.eigvalsh(0.5 * (cov + cov.T))
        assert eigs.min() > -1e-10


class TestBridgeAndMotion:
    def test_boundary_values_exact(self, rng):
        vals = sample_brownian_bridge(np.array([0.0, 0.5, 1.0]), rng)
        assert vals[0] == 0.0
        assert vals[2] == 0.0

    def test_grid_outside_unit_interval(self, rng):
        with pytest.raises(ValueError, match="0, 1"):
            sample_brownian_bridge(np.array([-0.1, 0.5]), rng)

    @pytest.mark.parametrize(
        "x, modes, error, message",
        [([np.nan], 512, ValueError, "evaluation points must be finite"),
         ([0.5], 0, ValueError, "basis size must be positive, got 0"),
         ([0.5], 2.5, TypeError, "basis size must be an integer, got 2.5")],
        ids=["nan-point", "no-modes", "fractional-modes"],
    )
    def test_bad_grid_or_modes_named(self, rng, x, modes, error, message):
        # these returned [nan], returned [0.], and raised numpy's TypeError
        with pytest.raises(error, match=message):
            sample_brownian_bridge(np.array(x), rng, modes=modes)

    def test_matches_the_sine_series_from_the_same_normals(self):
        # the series sum_k zeta_k sqrt(2) sin(k pi x) / (k pi), written out
        # with np.sin as an oracle of the draw through the Dirichlet basis;
        # k x is reduced modulo 2 (exactly), or sin(k pi) at x = 1 would
        # carry the rounding of k pi, up to 1.1e-14 in the sum
        modes, n = 1024, 50
        x = np.linspace(0.0, 1.0, 101)
        got = sample_brownian_bridge(x, RngStream(33, (0,)).generator(), modes=modes, n=n)
        k = np.arange(1, modes + 1, dtype=float)
        zeta = RngStream(33, (0,)).generator().standard_normal((n, modes))
        want = (zeta / (k * np.pi)) @ (math.sqrt(2.0) * np.sin(np.pi * np.remainder(np.outer(k, x), 2.0)))
        assert np.max(np.abs(got - want)) <= 1e-15
        assert np.all(got[:, [0, -1]] == 0.0)

    @pytest.mark.parametrize("modes", [64, 1024, 4096])
    def test_stationary_dirichlet_pairing_is_the_bridge_covariance(self, modes):
        # the law of bridge_cov's draw: nu = 1/2, sigma = 1, t = inf on the
        # Dirichlet basis of [0, 1]; the omitted modes weigh at most
        # sum_{k > K} 2 / (k pi)^2 <= 2 / (pi^2 K) per entry
        grid = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        basis = build_interval_basis("dirichlet", 0.0, 1.0, modes)
        weights = evaluate_matrix(basis, grid).T
        cov = pairing(Spectrum(basis.lambdas_squared, 1.0), weights, weights,
                      lambda q: ou_variance(q, 0.5, 1.0, math.inf))
        target = np.minimum.outer(grid, grid) - np.outer(grid, grid)
        assert np.max(np.abs(cov - target)) <= 2.0 / (math.pi**2 * modes)

    def test_bridge_covariance(self):
        gen = RngStream(19, (0,)).generator()
        pts = np.array([0.3, 0.6])
        n = 30000
        vals = sample_brownian_bridge(pts, gen, modes=512, n=n)
        emp = vals.T @ vals / n
        target = np.minimum.outer(pts, pts) - np.outer(pts, pts)
        for i in range(2):
            for j in range(2):
                se = math.sqrt((emp[i, i] * emp[j, j] + emp[i, j] ** 2) / n)
                assert abs(emp[i, j] - target[i, j]) < 4.0 * se

    def test_pointwise_variance_nondecreasing_in_modes(self):
        # partial sums of 2 sin^2(k pi x) / (k pi)^2 only grow
        x = 0.37
        k = np.arange(1, 65, dtype=float)
        terms = 2.0 * np.sin(k * np.pi * x) ** 2 / (k * np.pi) ** 2
        assert np.all(np.cumsum(terms)[1:] >= np.cumsum(terms)[:-1])

    @pytest.mark.parametrize("sampler", [sample_brownian_bridge])
    def test_batch_rows_match_single_paths(self, sampler):
        pts = np.array([0.0, 0.3, 0.6, 1.0])
        gen = RngStream(27, (0,)).generator()
        single = np.array([sampler(pts, gen, modes=64) for _ in range(5)])
        assert single.shape == (5, 4)
        batch = sampler(pts, RngStream(27, (0,)).generator(), modes=64, n=5)
        np.testing.assert_allclose(batch, single, rtol=1e-13, atol=1e-15)
        assert np.all(batch[:, [0, 3]] == 0.0)

    def test_seed_determinism(self):
        a = sample_brownian_bridge([0.2, 0.8], RngStream(21, (4,)).generator())
        b = sample_brownian_bridge([0.2, 0.8], RngStream(21, (4,)).generator())
        assert np.array_equal(a, b)


class TestTwoSidedBm:
    def test_zero_at_origin(self, rng):
        assert sample_two_sided_bm(np.array([0.0]), rng)[0] == 0.0

    def test_opposite_signs_uncorrelated(self):
        gen = RngStream(22, (0,)).generator()
        n = 40000
        vals = sample_two_sided_bm(np.array([1.0, -2.0]), gen, n=n)
        c = float(np.mean(vals[:, 0] * vals[:, 1]))
        se = float(np.std(vals[:, 0] * vals[:, 1])) / math.sqrt(n)
        assert abs(c) < 3.0 * se

    def test_same_sign_covariance_is_min(self):
        gen = RngStream(23, (0,)).generator()
        n = 40000
        vals = sample_two_sided_bm(np.array([1.0, 2.0]), gen, n=n)
        c = float(np.mean(vals[:, 0] * vals[:, 1]))
        se = float(np.std(vals[:, 0] * vals[:, 1])) / math.sqrt(n)
        assert abs(c - 1.0) < 4.0 * se

    def test_increment_variance_across_origin(self):
        gen = RngStream(24, (0,)).generator()
        n = 40000
        vals = sample_two_sided_bm(np.array([0.5, -0.7]), gen, n=n)
        d2 = (vals[:, 0] - vals[:, 1]) ** 2
        se = float(np.std(d2)) / math.sqrt(n)
        assert abs(float(np.mean(d2)) - 1.2) < 4.0 * se

    def test_duplicate_points_share_values(self, rng):
        vals = sample_two_sided_bm(np.array([0.5, 0.5, -0.3, -0.3]), rng)
        assert vals[0] == vals[1]
        assert vals[2] == vals[3]

    def test_batch_shape_and_structure(self, rng):
        grid = np.array([0.5, 0.5, -0.3, 0.0, 1.2])
        assert sample_two_sided_bm(grid, rng).shape == (5,)
        vals = sample_two_sided_bm(grid, rng, n=7)
        assert vals.shape == (7, 5)
        assert np.array_equal(vals[:, 0], vals[:, 1])
        assert np.all(vals[:, 3] == 0.0)
        assert np.unique(vals[:, 4]).size == 7


class TestAntiderivative:
    def test_matches_tail_integrals(self):
        f = lambda x: np.exp(-0.5 * x * x)
        x, _, fa = two_sided_antiderivative(f, r_max=12.0, n_nodes=256)
        right = x > 0
        q, w = gauss_legendre(x[right], 12.0, 400)
        np.testing.assert_allclose(fa[right], -np.sum(w * f(q), axis=-1), rtol=0.0, atol=1e-15)
        q, w = gauss_legendre(-12.0, x[~right], 400)
        np.testing.assert_allclose(fa[~right], np.sum(w * f(q), axis=-1), rtol=0.0, atol=1e-15)

    def test_rapid_decay(self):
        f = lambda x: np.exp(-0.5 * x * x)
        x, _, fa = two_sided_antiderivative(f, r_max=30.0)
        tail = fa[np.argmin(np.abs(x - 20.0))]
        assert abs(20.0**4 * tail) < 1e-8

    def test_transform_identity(self):
        # F-hat equals (fhat - fhat(0)) / (i xi) away from zero, and the
        # removable value at zero is -i fhat'(0)
        f = lambda x: np.exp(-0.5 * (x - 0.4) ** 2)
        x, wx, favals = two_sided_antiderivative(f, r_max=20.0, n_nodes=1024)
        fvals = f(x)
        for xi in (0.5, 1.0, 3.0, -2.0):
            fhat_xi = np.sum(wx * fvals * np.exp(-1j * x * xi)) / math.sqrt(2 * math.pi)
            fhat_0 = np.sum(wx * fvals) / math.sqrt(2 * math.pi)
            lhs = np.sum(wx * favals * np.exp(-1j * x * xi)) / math.sqrt(2 * math.pi)
            rhs = (fhat_xi - fhat_0) / (1j * xi)
            assert abs(lhs - rhs) < 1e-6
        # removable singularity at xi = 0: the limit -i fhat'(0) means
        # Fhat(0) = -int x f dx / sqrt(2 pi), i.e. int F dx = -int x f dx
        assert float(np.sum(wx * favals)) == pytest.approx(
            -float(np.sum(wx * x * fvals)), abs=1e-10
        )

    @pytest.mark.parametrize("n_nodes", [16, 256, 500])
    def test_rule_is_the_mirrored_composite_rule(self, n_nodes):
        # the discontinuity at 0 is a panel edge, never a node
        x, w, _ = two_sided_antiderivative(lambda y: np.exp(-y * y), 7.5, n_nodes)
        half, hw = composite_legendre(0.0, 7.5, max(n_nodes // 16, 1), 16)
        assert np.array_equal(x, np.concatenate((-half[::-1], half)))
        assert np.array_equal(w, np.concatenate((hw[::-1], hw)))
        assert np.all(np.diff(x) > 0.0) and not np.any(x == 0.0)

    def test_calls_f_once_per_node_and_sign(self):
        calls = []

        def f(y):
            calls.append(y.shape)
            return np.exp(-y * y)

        two_sided_antiderivative(f, 20.0, 2048)
        assert calls == [(2048,), (2048,)]

    def test_first_moment_guard(self):
        with pytest.raises(ValueError, match="first-moment"):
            two_sided_antiderivative(lambda x: 1.0 / (1.0 + x * x), 20.0, 2048)

    @pytest.mark.parametrize(
        "kwargs, message",
        # the window of covariance_two_sided, checked here too: r_max = inf gave
        # a nan antiderivative, r_max = -1 negative weights (sum w F^2 = -0.297),
        # n_nodes = 0 one panel, and n_nodes = 40.5 numpy's TypeError
        [({"r_max": math.inf}, "r_max must be finite, got inf"),
         ({"r_max": -1.0}, r"r_max must be positive \(got -1.0\)"),
         ({"n_nodes": 0}, r"n_nodes must be positive \(got 0\)"),
         ({"n_nodes": 40.5}, "n_nodes must be an integer, got 40.5")],
        ids=["r_max_inf", "r_max_negative", "n_nodes_zero", "n_nodes_fraction"],
    )
    def test_window_checked(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            two_sided_antiderivative(lambda x: np.exp(-x * x), **kwargs)


def per_node_antiderivative(f, x, r_max):
    """The tail antiderivative accumulated with one 24-node rule per gap in a
    Python loop, as a reference for the vectorised version."""
    out = np.zeros(x.shape)
    for sign in (1.0, -1.0):
        mask = (sign * x) > 0.0
        vals = np.unique(x[mask])[:: -1 if sign > 0 else 1]
        acc, prev, tails = 0.0, sign * r_max, {}
        for v in vals:
            lo, hi = (v, prev) if sign > 0 else (prev, v)
            q, w = gauss_legendre(lo, hi, 24)
            acc += float(np.sum(w * f(q)))
            prev = v
            tails[v] = acc
        fill = np.array([tails[v] for v in x[mask]])
        out[mask] = -fill if sign > 0 else fill
    return out


def per_node_direct(f, g, r_max, n_nodes):
    """The 'direct' two-sided covariance with its inner integrals accumulated
    node by node in a Python loop, as a reference for the vectorised version."""
    total = 0.0
    x, w = composite_legendre(0.0, r_max, n_nodes // 16, 16)
    for sign in (1.0, -1.0):
        inner_lo, inner_hi = np.empty_like(x), np.empty_like(x)
        acc, prev = 0.0, 0.0
        for i, xi in enumerate(x):
            q, qw = gauss_legendre(prev, xi, 24)
            acc += float(np.sum(qw * q * g(sign * q)))
            inner_lo[i], prev = acc, xi
        acc, prev = 0.0, r_max
        for i in range(x.size - 1, -1, -1):
            q, qw = gauss_legendre(x[i], prev, 24)
            acc += float(np.sum(qw * g(sign * q)))
            inner_hi[i], prev = acc, x[i]
        total += float(np.sum(w * f(sign * x) * (inner_lo + x * inner_hi)))
    return total


PAIRS = {
    "gauss": (
        lambda x: np.exp(-0.5 * (x - 0.4) ** 2),
        lambda x: np.exp(-0.5 * (x + 0.2) ** 2 / 0.49),
    ),
    "odd": (lambda x: x * np.exp(-x * x), lambda x: x * np.exp(-x * x)),
}
# E(W[f] W[g]) of each pair in closed form: folded-normal means for the
# Gaussians, int F^2 with F = -exp(-x^2) / 2 for the odd pair
CLOSED_FORMS = {
    "gauss": _two_sided_gauss_oracle((0.4, 1.0), (-0.2, 0.7)),
    "odd": math.sqrt(2.0 * math.pi) / 8.0,
}


class TestCovarianceTwoSided:
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_direct_matches_per_node_loop(self, pair):
        f, g = PAIRS[pair]
        expected = per_node_direct(f, g, 20.0, 256)
        got = covariance_two_sided(f, g, "direct", n_nodes=256)
        assert got == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_antiderivative_matches_per_node_loop(self, pair):
        f, g = PAIRS[pair]
        x, w, fa = two_sided_antiderivative(f, 20.0, 256)
        _, _, ga = two_sided_antiderivative(g, 20.0, 256)
        ref_fa, ref_ga = (per_node_antiderivative(h, x, 20.0) for h in (f, g))
        # 16 panels of width 1.25: worst 1.2e-14 for the odd pair at |x| ~ 1.5
        np.testing.assert_allclose(fa, ref_fa, rtol=0.0, atol=2e-14)
        expected = float(np.sum(w * ref_fa * ref_ga))
        got = covariance_two_sided(f, g, "antiderivative", n_nodes=256)
        assert got == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("mode", ["direct", "antiderivative"])
    def test_routes_call_f_and_g_once_per_node_and_sign(self, mode):
        calls = {"f": [], "g": []}

        def recorded(name, h):
            return lambda y: calls[name].append(np.shape(y)) or h(y)

        f, g = PAIRS["gauss"]
        covariance_two_sided(recorded("f", f), recorded("g", g), mode, n_nodes=2048)
        # the first-moment guard reads the route's own values
        assert calls == {"f": [(2048,), (2048,)], "g": [(2048,), (2048,)]}

    @pytest.mark.parametrize("mode", ["direct", "antiderivative"])
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    @pytest.mark.parametrize(
        "n_nodes, r_max",
        [(2048, 20.0), (256, 20.0), (500, 12.0), (256, 7.5), (512, 20.0)],
    )
    def test_routes_match_closed_forms(self, mode, pair, n_nodes, r_max):
        f, g = PAIRS[pair]
        got = covariance_two_sided(f, g, mode, r_max=r_max, n_nodes=n_nodes)
        assert got == pytest.approx(CLOSED_FORMS[pair], abs=1e-12)

    @pytest.mark.parametrize("mode", ["direct", "antiderivative"])
    @pytest.mark.parametrize(
        "kwargs, name",
        [({"n_nodes": 0}, "n_nodes"), ({"n_nodes": -16}, "n_nodes"), ({"r_max": 0.0}, "r_max"),
         ({"r_max": -20.0}, "r_max")],
    )
    def test_rejects_empty_or_reversed_window(self, mode, kwargs, name):
        f = lambda x: np.exp(-x * x)
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            covariance_two_sided(f, f, mode, **kwargs)

    @pytest.mark.parametrize("mode", ["direct", "antiderivative"])
    def test_rejects_a_fractional_node_count(self, mode):
        # numpy's "'float' object cannot be interpreted as an integer" before
        f = lambda x: np.exp(-x * x)
        with pytest.raises(ValueError, match="^n_nodes must be an integer, got 40.5$"):
            covariance_two_sided(f, f, mode, n_nodes=40.5)

    @pytest.mark.parametrize("mode", ["direct", "antiderivative"])
    def test_rejects_an_infinite_window(self, mode):
        # an infinite window returned nan without an error
        f = lambda x: np.exp(-x * x)
        with pytest.raises(ValueError, match="r_max must be finite, got inf"):
            covariance_two_sided(f, f, mode, r_max=math.inf)

    def test_three_modes_agree_gaussian_pair(self):
        f = lambda x: np.exp(-0.5 * (x - 0.4) ** 2)
        g = lambda x: np.exp(-0.5 * (x + 0.2) ** 2 / 0.49)
        vals = [covariance_two_sided(f, g, m) for m in ("direct", "antiderivative")]
        vals.append(two_sided_covariance(gaussian_bump(0.4, 1.0), gaussian_bump(-0.2, 0.7)))
        assert max(vals) - min(vals) < 1e-6

    @pytest.mark.parametrize(
        "f_bump, g_bump",
        # (centre, width) of each Gaussian: the two pairs of acceptance
        # criterion 7, a centred pair and a pair straddling the origin
        [((0.4, 1.0), (-0.2, 0.7)), ((0.0, 1.1), (1.0, 1.0)), ((0.0, 1.0), (0.0, 1.0)),
         ((2.0, 0.5), (-1.0, 0.8))],
    )
    def test_fourier_agrees_with_direct(self, f_bump, g_bump):
        (cf, wf), (cg, wg) = f_bump, g_bump
        f = lambda x: np.exp(-0.5 * (x - cf) ** 2 / wf**2)
        g = lambda x: np.exp(-0.5 * (x - cg) ** 2 / wg**2)
        fourier = two_sided_covariance(gaussian_bump(cf, wf), gaussian_bump(cg, wg))
        assert fourier == pytest.approx(covariance_two_sided(f, g, "direct"), abs=1e-12)
        assert fourier == pytest.approx(_two_sided_gauss_oracle(f_bump, g_bump), abs=1e-12)

    def test_odd_function_yields_positive_value(self):
        f = lambda x: x * np.exp(-x * x)
        v = covariance_two_sided(f, f, "antiderivative")
        assert v > 0.0
        assert covariance_two_sided(f, f, "direct") == pytest.approx(v, abs=1e-8)

    def test_matches_monte_carlo(self):
        f = lambda x: np.exp(-2.0 * x * x)
        target = covariance_two_sided(f, f, "direct")
        grid = np.linspace(-4.0, 4.0, 81)
        wq = np.gradient(grid)
        gen = RngStream(25, (0,)).generator()
        n = 20000
        vals = sample_two_sided_bm(grid, gen, n=n) @ (wq * f(grid))
        est = float(np.mean(vals**2))
        se = float(np.std(vals**2)) / math.sqrt(n)
        # grid bias from the trapezoidal pairing is well under the MC noise
        assert abs(est - target) < 5.0 * se

    @pytest.mark.parametrize("mode", ["direct", "antiderivative"])
    def test_first_moment_guard(self, mode):
        heavy = lambda x: 1.0 / (1.0 + x * x)
        with pytest.raises(ValueError, match="first-moment"):
            covariance_two_sided(heavy, heavy, mode)

    @pytest.mark.parametrize("mode", ["direct", "antiderivative"])
    @pytest.mark.parametrize("centre", [10.0, -10.0])
    def test_bump_at_half_the_window_passes_the_guard(self, mode, centre):
        # the outer half holds 52 % of int |x f| for a bump at r_max / 2, the
        # outermost eighth 6.4e-51; the old half-window guard refused it
        f = lambda x: np.exp(-2.0 * (x - centre) ** 2)
        g = lambda x: np.exp(-0.5 * (x - 0.9 * centre) ** 2 / 0.49)
        for other, bump in ((f, (centre, 0.5)), (g, (0.9 * centre, 0.7))):
            want = _two_sided_gauss_oracle((centre, 0.5), bump)
            assert covariance_two_sided(f, other, mode) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n_nodes", [256, 1024, 2048])
    @pytest.mark.parametrize("mode", ["direct", "antiderivative"])
    @pytest.mark.parametrize(
        "f, refused",
        # the share of int |x f| in the outermost eighth of [0, 20], against
        # 2e-3, the same to 5 digits on the 16, 64 and 128 panels of n_nodes
        [(lambda x: np.exp(-np.abs(x) / 2.25), True),  # 2.3e-3
         (lambda x: (1.0 + x * x) ** -1.75, True),  # 2.5e-3
         (lambda x: (1.0 + x * x) ** -1.5, True),  # 7.5e-3
         (lambda x: np.exp(-np.abs(x) / 2.0), False),  # 1.0e-3
         (lambda x: (1.0 + x * x) ** -2.0, False)],  # 7.6e-4
        ids=["exp_2.25", "power_1.75", "power_1.5", "exp_2", "power_2"],
    )
    def test_first_moment_guard_edge(self, mode, f, refused, n_nodes):
        g = lambda x: np.exp(-x * x)
        for pair in ((f, g), (g, f)):
            if refused:
                with pytest.raises(ValueError, match="first-moment"):
                    covariance_two_sided(*pair, mode, n_nodes=n_nodes)
            else:
                assert math.isfinite(covariance_two_sided(*pair, mode, n_nodes=n_nodes))

    @pytest.mark.parametrize(
        "f_bump, g_bump",
        # (centre, width): the narrower bump's transform outlasts the wider
        # one's cut, 12 / width, so its cross term with the other's fhat(0)
        # runs past the pair grid; dropping it read -8.1e-11, 1.2e-9 and
        # 9.8e-2 relative on the first three pairs
        [((3.0, 0.6), (2.5, 1.3)), ((0.0, 0.6), (0.0, 1.3)), ((0.0, 0.3), (0.0, 3.0)),
         ((0.0, 1.0), (0.0, 1.0))],
    )
    def test_fourier_accuracy_limit(self, f_bump, g_bump):
        want = _two_sided_gauss_oracle(f_bump, g_bump)
        for a, b in ((f_bump, g_bump), (g_bump, f_bump)):
            got = two_sided_covariance(gaussian_bump(*a), gaussian_bump(*b))
            assert got == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("centre", [1.0, 3.0, 10.0, -10.0])
    def test_fourier_on_a_shared_nonzero_centre(self, centre):
        # f - fhat(0) keeps the phase of the shift, so the radial shortcut for
        # equal centres does not apply; it read -84 % to -99 % here
        f = gaussian_bump(centre, 0.5)
        want = _two_sided_gauss_oracle((centre, 0.5), (centre, 0.5))
        assert two_sided_covariance(f, f) == pytest.approx(want, rel=1e-15)

    def test_s0_fourier_equals_free_field_exactly(self):
        f = make_s0_function(4.0, 0.25)
        g = make_s0_function(5.0, 0.3)
        assert two_sided_covariance(f, g) == gff_covariance(f, g)

    def test_nonzero_mean_pair_differs_from_unsubtracted(self):
        f = gaussian_bump(0.4, 1.0)
        g = gaussian_bump(-0.2, 0.7)
        sub = two_sided_covariance(f, g)
        unsub = gff_covariance(f, g, check_floor=False)
        assert abs(sub - unsub) > 1e-3

    def test_fourier_mode_only_on_the_line(self):
        f = gaussian_bump((0.0, 0.0), 1.0, d=2)
        with pytest.raises(ValueError, match="lives on the line"):
            two_sided_covariance(f, f)

    def test_testfunction_only_in_fourier_mode(self):
        f = gaussian_bump(0.0, 1.0)
        with pytest.raises(ValueError, match="TestFunction inputs take fourier_cov.two_sided_covariance"):
            covariance_two_sided(f, f, "direct")

    def test_unknown_mode(self):
        f = lambda x: np.exp(-x * x)
        with pytest.raises(ValueError, match="mode"):
            covariance_two_sided(f, f, "spectral")


class TestTwoSidedClosedForm:
    @pytest.mark.parametrize("mu, s", [(0.0, 1.0), (0.4, 1.0), (-0.6, math.hypot(1.0, 0.7)), (3.0, 0.5)])
    def test_folded_normal_mean_against_mpmath(self, mu, s):
        want = mpmath.quad(lambda x: abs(x) * mpmath.npdf(x, mu, s), [-mpmath.inf, 0, mpmath.inf])
        assert _folded_normal_mean(mu, s) == pytest.approx(float(want), rel=1e-14)

    def test_centred_pair_by_hand(self):
        # f = g = exp(-x^2 / 2): E|X| = E|Y| = sqrt(2 / pi) and E|X - Y| = 2 / sqrt(pi)
        want = (2.0 - math.sqrt(2.0)) * math.sqrt(2.0 * math.pi)
        assert _two_sided_gauss_oracle((0.0, 1.0), (0.0, 1.0)) == pytest.approx(want, rel=1e-15)

    def test_oracle_is_symmetric(self):
        a, b = (0.4, 1.0), (-0.2, 0.7)
        assert _two_sided_gauss_oracle(a, b) == pytest.approx(_two_sided_gauss_oracle(b, a), rel=1e-15)

    def test_opposite_half_lines_do_not_correlate(self):
        # min(|x|, |y|) vanishes on opposite-sign pairs, so bumps far out on
        # either side of the origin have covariance 0 to rounding
        f = lambda x: np.exp(-0.5 * (x - 5.0) ** 2 / 0.25)
        g = lambda x: np.exp(-0.5 * (x + 5.0) ** 2 / 0.25)
        assert abs(_two_sided_gauss_oracle((5.0, 0.5), (-5.0, 0.5))) < 1e-12
        assert abs(covariance_two_sided(f, g, "direct")) < 1e-12

    def test_fourier_subtracted_value_matches_closed_form(self):
        f, g = gaussian_bump(0.4, 1.0), gaussian_bump(-0.2, 0.7)
        got = two_sided_covariance(f, g)
        assert got == pytest.approx(_two_sided_gauss_oracle((0.4, 1.0), (-0.2, 0.7)), rel=1e-14)
