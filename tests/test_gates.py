"""The one verdict path: every experiment returns named gates
(name, value, bound, relation), `margin` scores each, and `ExperimentResult`
derives summary["passed"] and the worst gate from them alone."""

import json
import math
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gfflab import experiments, fields, greens, stats
from gfflab.cli import main, parse_config_text
from gfflab.experiments import EXPERIMENTS, ExperimentResult, margin


class TestMargin:
    @pytest.mark.parametrize(
        "value, bound, relation, want",
        [
            (1e-3, 1e-1, "<", 2.0),
            (1e-1, 1e-3, "<", -2.0),
            (10.0, 1.0, ">", 1.0),
            (0.1, 1.0, ">", -1.0),
            (0.0, 1e-12, "<", math.inf),
            (0.0, 1e-3, ">", -math.inf),
            (math.inf, 4.0, "<", -math.inf),
            (math.inf, 1e-3, ">", math.inf),
            (-1e-17, 1e-12, "<", math.inf),  # a tail that rounding made negative
            (True, True, "==", math.inf),
            (False, True, "==", -math.inf),
            (0.7757443329980026, 0.7757443329980026, "==", math.inf),
            (0.7757443329980026, 0.7757443329980027, "==", -math.inf),
        ],
    )
    def test_relations(self, value, bound, relation, want):
        assert margin(("g", value, bound, relation)) == pytest.approx(want)

    @pytest.mark.parametrize("relation", ["<", ">"])
    def test_value_at_the_bound_fails_a_strict_gate(self, relation):
        assert margin(("g", 0.05, 0.05, relation)) == 0.0

    @pytest.mark.parametrize("relation", ["<", ">", "=="])
    def test_nan_fails_at_minus_infinity(self, relation):
        assert margin(("g", math.nan, 1.0, relation)) == -math.inf

    @given(
        st.floats(min_value=0.0, allow_nan=False),
        st.floats(min_value=1e-300, max_value=1e300),
        st.sampled_from(["<", ">"]),
        st.integers(-2, 2),
    )
    def test_sign_is_the_comparison(self, value, bound, relation, steps):
        # also for values a few floats from the bound, where the ratio is 1 +- ulp
        if steps:
            value = bound
            for _ in range(abs(steps)):
                value = math.nextafter(value, math.copysign(math.inf, steps))
        holds = value < bound if relation == "<" else value > bound
        assert (margin(("g", value, bound, relation)) > 0.0) == holds


class TestExperimentResult:
    def test_passed_and_worst_come_from_the_gates(self):
        gates = [("a", 0.5, 1.0, "<"), ("b", 2.0, 1.0, ">"), ("c", 3.0, 3.0, "==")]
        result = ExperimentResult([{"x": 1.0}], {"a": 0.5}, gates)
        assert result.summary == {"a": 0.5, "passed": True}
        assert result.worst == ("a", 0.5, 1.0, "<")  # log10(2), as b, and listed first

    def test_one_failing_gate_fails_the_result(self):
        gates = [("a", 0.5, 1.0, "<"), ("b", 0.2, 1.0, ">"), ("c", math.nan, 1.0, "<")]
        result = ExperimentResult([{"x": 1.0}], {}, gates)
        assert result.summary == {"passed": False}
        assert result.worst[0] == "c"

    def test_gates_are_required(self):
        with pytest.raises(TypeError, match="gates"):
            ExperimentResult([{"x": 1.0}], {})


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_every_gate_holds_at_the_defaults(name):
    result = EXPERIMENTS[name](parse_config_text(f"experiment = {name}\nseed = 7\n"))
    names = [gate[0] for gate in result.gates]
    assert len(names) == len(set(names)), names
    for gate in result.gates:
        assert margin(gate) > 0.0, gate
        # plain Python values, so the FAIL line reads 0.1, not np.float64(0.1)
        assert type(gate[1]) in (float, bool) and type(gate[2]) in (float, bool), gate
    assert result.summary["passed"] is True


def _box_off_by_ten_percent(monkeypatch):
    build = experiments.build_box_basis
    monkeypatch.setattr(experiments, "build_box_basis", lambda d, side, size: build(d, 1.1 * side, size))


def _bessel_off_at_ten(monkeypatch):
    bessel_k = greens.bessel_k
    monkeypatch.setattr(greens, "bessel_k", lambda p, x: bessel_k(p, x) * (1.0 + 1e-3 * (x == 10.0)))


def _series_green_off(monkeypatch):
    series_green = greens.series_green
    monkeypatch.setattr(greens, "series_green", lambda *args: 1.01 * series_green(*args))


def _massive_potential_steeper(monkeypatch):
    # Phi_eps - Phi_0 scaled by 1.02 moves the fitted slope by 2 percent
    massive, zero = greens.potential_massive, greens.potential_zero_mass

    def steeper(r, d, nu, eps):
        return zero(r, d=d, nu=nu) + 1.02 * (massive(r, d=d, nu=nu, eps=eps) - zero(r, d=d, nu=nu))

    monkeypatch.setattr(greens, "potential_massive", steeper)


def _bridge_off_at_the_boundary(monkeypatch):
    bridge = fields.sample_brownian_bridge
    monkeypatch.setattr(fields, "sample_brownian_bridge", lambda x, gen, modes: bridge(x, gen, modes=modes) + 1e-300)


# one planted FAIL per registered experiment: (config lines, monkeypatch or
# None, the start of the stderr line after "worst gate: ")
PLANTED = {
    "stationary_bd": ("tol.z = 0.0001\n", None, "zmax = "),
    "stationary_hermite": ("tol.ks_p = 0.999999\n", None, "ks_p_mode_"),
    "convergence_curve": ("tol.z = 0.0001\n", None, "final_zmax = "),
    "kakutani": ("basis.kind = hermite\nK = 11\n", None,
                 "tail = 5.664232530311342e-05, needs < 1e-06 (margin -1.75)"),
    "greens_checks": ("", _bessel_off_at_ten, "bessel_k_half(x=10) = "),
    "heat_poisson": ("", _series_green_off, "interval_series(x=0.3) = "),
    "log_divergence_2d": ("", _massive_potential_steeper, "relerr = "),
    "bridge_cov": ("", _bridge_off_at_the_boundary, "boundary_exact_zero = False, needs == True (margin -inf)"),
    "two_sided_cov": ("tol.rel = 1e-17\n", None, "worst_relerr = "),
    "fourier_limits": ("tol.rel = 1e-17\n", None, "massive_relerr = "),
    "weyl": ("", _box_off_by_ten_percent, "box_relerr = "),
}


def test_every_experiment_has_a_planted_fail():
    assert sorted(PLANTED) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_fail_names_its_gate(name, tmp_path, capsys, monkeypatch):
    lines, plant, named = PLANTED[name]
    if plant is not None:
        plant(monkeypatch)
    path = os.path.join(tmp_path, "run.cfg")
    with open(path, "w") as fh:
        fh.write(f"experiment = {name}\n{lines}output = {tmp_path}/p\n")
    assert main(["run", path]) == 1
    captured = capsys.readouterr()
    assert f"[{name}] FAIL" in captured.out
    with open(f"{tmp_path}/p_{name}_summary.json") as fh:
        assert json.load(fh)["passed"] is False
    [line] = captured.err.splitlines()
    assert line.startswith(f"[{name}] worst gate: {named}"), line
    assert line.endswith(")") and float(line.rpartition("(margin ")[2][:-1]) <= 0.0


def test_a_pass_writes_nothing_to_stderr(tmp_path, capsys):
    path = os.path.join(tmp_path, "run.cfg")
    with open(path, "w") as fh:
        fh.write(f"experiment = weyl\nK = 2000\noutput = {tmp_path}/w\n")
    assert main(["run", path]) == 0
    assert capsys.readouterr().err == ""


def test_ks_gate_can_fail_at_the_smallest_allowed_level(tmp_path, capsys, monkeypatch):
    # ks_gaussian floors p at 1e-12, the lower end of tol.ks_p: a 100x variance
    # error floors all three p-values and still FAILs there (it PASSed at
    # tol.ks_p = 1e-13, which is now a config error)
    ks_gaussian = stats.ks_gaussian
    monkeypatch.setattr(stats, "ks_gaussian", lambda x, mu, var: ks_gaussian(x, mu, 100.0 * var))
    path = os.path.join(tmp_path, "run.cfg")
    with open(path, "w") as fh:
        fh.write(f"experiment = stationary_bd\nM = 2000\ntol.ks_p = 1e-12\noutput = {tmp_path}/k\n")
    assert main(["run", path]) == 1
    assert "worst gate: ks_p_mode_1 = 1e-12, needs > 1e-12 (margin 0)" in capsys.readouterr().err
