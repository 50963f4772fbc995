import contextlib
import io
import json
import os
import re
import tempfile
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfflab import fourier_cov, greens, quadrature
from gfflab.basis import BasisKind
from gfflab.cli import (
    ConfigError,
    ExperimentConfig,
    _parser,
    list_experiments,
    load_config,
    main,
    parse_config_text,
    run,
)
from gfflab.experiments import (
    EXPERIMENT_TABLE,
    EXPERIMENTS,
    ExperimentResult,
    _relerr_result,
    _stationary_invariance_pvalues,
    build_basis,
    experiment_stream,
)

REGISTRY_NAMES = [
    "stationary_bd",
    "stationary_hermite",
    "convergence_curve",
    "kakutani",
    "greens_checks",
    "heat_poisson",
    "log_divergence_2d",
    "bridge_cov",
    "two_sided_cov",
    "fourier_limits",
    "weyl",
]
SIGMA_READERS = ["stationary_bd", "stationary_hermite", "convergence_curve", "fourier_limits"]


class TestConfigParsing:
    def test_minimal_config(self):
        cfg = parse_config_text("experiment = weyl\n")
        assert cfg.experiment == "weyl"
        assert cfg.modes == 10000  # per-experiment default

    def test_full_config(self):
        cfg = parse_config_text(
            """
            # stationary run
            experiment = stationary_bd
            basis.kind = interval_dirichlet
            basis.a = 0.0
            basis.b = 1.0
            nu = 1.5
            sigma = 0.9
            K = 32
            M = 5000
            t = 4.0
            t_list = 0.5,1,2
            seed = 11
            output = /tmp/xyz
            tol.z = 5.0
            """
        )
        assert cfg.nu == 1.5
        assert cfg.modes == 32
        assert cfg.t_list == (0.5, 1.0, 2.0)
        assert cfg.z_threshold == 5.0

    def test_unknown_key_rejected(self):
        for key in ("nus", "jobs"):
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                parse_config_text(f"experiment = weyl\n{key} = 1.0\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("experiment = weyl\nnu = 1\nnu = 2\n")

    def test_missing_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config_text("nu = 1.0\n")

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config_text("experiment = quantum_gravity\n")

    def test_negative_nu_names_field(self):
        with pytest.raises(ConfigError, match="nu must be positive"):
            parse_config_text("experiment = weyl\nnu = -1\n")

    def test_bad_float_names_key(self):
        with pytest.raises(ConfigError, match="'nu'"):
            parse_config_text("experiment = weyl\nnu = banana\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("experiment weyl\n")

    def test_small_sample_count_rejected(self):
        with pytest.raises(ConfigError, match="M must be at least 100"):
            parse_config_text("experiment = stationary_bd\nM = 10\n")


class TestRegistry:
    def test_expected_names_present(self):
        assert sorted(EXPERIMENTS) == sorted(REGISTRY_NAMES)

    def test_listing_is_stable_and_documented(self):
        first = list_experiments()
        second = list_experiments()
        assert first == second
        for name in REGISTRY_NAMES:
            assert name in first
        for line in first.splitlines():
            name, _, doc = line.partition(":")
            assert doc.strip()  # every entry carries help text


    def test_relerr_cases_carry_their_own_tolerance(self):
        cases = [("a", 1, 1.0 + 1e-4, 1.0, 1e-3), ("b", 2.5, 0.0, 0.0, 1e-12)]
        result = _relerr_result(cases)
        assert [list(r) for r in result.rows] == [["kernel", "x", "lhs", "rhs", "relerr"]] * 2
        assert result.rows[1] == {"kernel": "b", "x": 2.5, "lhs": 0.0, "rhs": 0.0, "relerr": 0.0}
        assert result.summary == {"worst_relerr": pytest.approx(1e-4), "passed": True}
        assert [gate[0] for gate in result.gates] == ["a(x=1)", "b(x=2.5)"]
        # the same error against a tolerance of its own below it
        assert not _relerr_result([cases[0][:4] + (1e-5,), cases[1]]).summary["passed"]

    def test_experiment_table_has_one_row_per_registered_name(self):
        keys = {f.metadata["key"] for f in fields(ExperimentConfig)}
        assert list(EXPERIMENT_TABLE) == list(EXPERIMENTS)
        for name, (function, defaults, _) in EXPERIMENT_TABLE.items():
            assert EXPERIMENTS[name] is function
            assert set(defaults) <= keys - {"experiment", "output", "seed"}, name
            parse_config_text(f"experiment = {name}\n")


class TestComputedOnce:
    """Each kernel value an experiment reports is computed once."""

    @staticmethod
    def count_calls(monkeypatch, module, names, experiment) -> dict[str, int]:
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counting(*args, _name=name, _fn=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        EXPERIMENTS[experiment](parse_config_text(f"experiment = {experiment}\n"))
        return calls

    @pytest.mark.parametrize(
        "experiment, massive, zero_mass", [("log_divergence_2d", 4, 1), ("greens_checks", 2, 1)]
    )
    def test_potentials(self, monkeypatch, experiment, massive, zero_mass):
        names = ["potential_massive", "potential_zero_mass"]
        calls = self.count_calls(monkeypatch, greens, names, experiment)
        assert calls == {"potential_massive": massive, "potential_zero_mass": zero_mass}

    def test_fourier_limits_pair_integrals(self, monkeypatch):
        # the noise limit, one heat pairing per phi_transient time, the
        # massive value and the massless value, each once
        calls = self.count_calls(monkeypatch, fourier_cov, ["_pair_integral"], "fourier_limits")
        assert calls == {"_pair_integral": 8}


class TestRunner:
    def _write(self, tmp_path, body):
        path = os.path.join(tmp_path, "run.cfg")
        with open(path, "w") as fh:
            fh.write(body)
        return path

    def test_weyl_run_exit_zero(self, tmp_path):
        cfg = load_config(
            self._write(tmp_path, f"experiment = weyl\noutput = {tmp_path}/w\nK = 2000\n")
        )
        assert run(cfg) == 0
        csv_path = f"{tmp_path}/w_weyl.csv"
        assert os.path.exists(csv_path)
        with open(csv_path) as fh:
            header = fh.readline().strip()
        assert header.split(",")[0] == "kind"
        with open(f"{tmp_path}/w_weyl_summary.json") as fh:
            summary = json.load(fh)
        assert summary["passed"] is True

    def test_greens_checks_csv_columns(self, tmp_path):
        cfg = load_config(
            self._write(tmp_path, f"experiment = greens_checks\noutput = {tmp_path}/g\n")
        )
        assert run(cfg) == 0
        with open(f"{tmp_path}/g_greens_checks.csv") as fh:
            assert fh.readline().strip() == "kernel,x,lhs,rhs,relerr"

    def test_deterministic_reruns(self, tmp_path):
        body = (
            "experiment = stationary_bd\nM = 2000\nK = 16\nseed = 3\n"
            f"output = {tmp_path}/a\n"
        )
        cfg = load_config(self._write(tmp_path, body))
        run(cfg)
        cfg2 = load_config(self._write(tmp_path, body.replace("/a", "/b")))
        run(cfg2)
        with open(f"{tmp_path}/a_stationary_bd.csv", "rb") as fh:
            first = fh.read()
        with open(f"{tmp_path}/b_stationary_bd.csv", "rb") as fh:
            second = fh.read()
        assert first == second

    def test_failing_tolerance_exit_one(self, tmp_path):
        body = (
            "experiment = stationary_bd\nM = 2000\nK = 16\nseed = 3\n"
            f"tol.z = 0.0001\noutput = {tmp_path}/f\n"
        )
        cfg = load_config(self._write(tmp_path, body))
        assert run(cfg) == 1

    def test_stationary_verdict_does_not_depend_on_units(self, tmp_path, capsys):
        # at sigma = 1e-100 every covariance is ~1e-200, and c_ii c_jj in
        # the standard error would underflow to zero without the rescaling
        zmax = {}
        for sigma in ("1", "1e-100"):
            path = self._write(tmp_path, f"experiment = stationary_bd\nsigma = {sigma}\noutput = {tmp_path}/s{sigma}\n")
            assert main(["run", path]) == 0
            with open(f"{tmp_path}/s{sigma}_stationary_bd_summary.json") as fh:
                zmax[sigma] = json.load(fh)["zmax"]
        assert "[stationary_bd] PASS" in capsys.readouterr().out
        assert zmax["1e-100"] == pytest.approx(zmax["1"], rel=1e-9)

    def test_main_run_and_exit_codes(self, tmp_path, capsys):
        path = self._write(tmp_path, f"experiment = kakutani\noutput = {tmp_path}/k\n")
        assert main(["run", path]) == 0
        out = capsys.readouterr().out
        assert "[kakutani] PASS" in out

    def test_kakutani_below_first_checkpoint(self, tmp_path, capsys):
        # one checkpoint makes the tail 0 by construction: earlier versions
        # PASSed here without testing anything
        path = self._write(tmp_path, f"experiment = kakutani\nK = 5\noutput = {tmp_path}/k\n")
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert "K: kakutani needs 11 <= K (got 5)" in err and "Traceback" not in err
        assert not os.path.exists(f"{tmp_path}/k_kakutani.csv")

    @pytest.mark.parametrize(
        "name, floor, extra",
        [("kakutani", 11, ""), ("heat_poisson", 32, ""),
         ("heat_poisson", 32, "nu = 1e-4\neps = 1e-4\n"), ("heat_poisson", 32, "nu = 1e4\neps = 1e4\n"),
         ("weyl", 158, "")],
    )
    def test_smallest_k_that_resolves_the_claim(self, tmp_path, capsys, name, floor, extra):
        # below the floor each verdict FAILed (heat_poisson at K = 31, weyl at
        # K = 157) or PASSed vacuously (kakutani at K <= 10) in earlier versions
        below = self._write(tmp_path, f"experiment = {name}\n{extra}K = {floor - 1}\noutput = {tmp_path}/b\n")
        assert main(["run", below]) == 2
        err = capsys.readouterr().err
        assert f"K: {name} needs {floor} <= K (got {floor - 1})" in err and "Traceback" not in err
        assert not os.path.exists(f"{tmp_path}/b_{name}.csv")
        at = self._write(tmp_path, f"experiment = {name}\n{extra}K = {floor}\noutput = {tmp_path}/a\n")
        assert main(["run", at]) == 0
        assert f"[{name}] PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("nu", [1e-4, 0.01, 1e4])
    def test_log_divergence_slope_at_any_nu(self, tmp_path, capsys, nu):
        # the fixed eps of earlier versions put the small-mass regime at
        # sqrt(eps / nu): relerr 0.30 at nu = 1e-4 and 1.5e-2 at nu = 0.01 (FAIL)
        relerr = {}
        for value in (1.0, nu):
            path = self._write(tmp_path, f"experiment = log_divergence_2d\nnu = {value!r}\noutput = {tmp_path}/l{value}\n")
            assert main(["run", path]) == 0
            with open(f"{tmp_path}/l{value}_log_divergence_2d_summary.json") as fh:
                relerr[value] = json.load(fh)["relerr"]
        assert "FAIL" not in capsys.readouterr().out
        assert relerr[nu] == pytest.approx(relerr[1.0], rel=1e-9)

    def test_main_config_error_exit_two(self, tmp_path, capsys):
        path = self._write(tmp_path, "experiment = weyl\nnu = -1\n")
        assert main(["run", path]) == 2
        assert "nu" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, message",
        [
            ("basis.a = 1\nbasis.b = 1\n", "basis.a must be below basis.b (got 1.0, 1.0)"),
            ("basis.a = 2\nbasis.b = 1\n", "basis.a must be below basis.b (got 2.0, 1.0)"),
            ("t_list = 1,0.5\n", "t_list must be increasing (got (1.0, 0.5))"),
        ],
    )
    def test_interval_and_time_order_exit_two(self, tmp_path, capsys, body, message):
        path = self._write(
            tmp_path, f"experiment = convergence_curve\n{body}K = 8\nM = 200\noutput = {tmp_path}/o\n"
        )
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not os.path.exists(f"{tmp_path}/o_convergence_curve.csv")

    @pytest.mark.parametrize(
        "name", ["stationary_bd", "stationary_hermite", "convergence_curve", "kakutani"]
    )
    def test_neumann_rejected_where_dynamics_need_positive_spectrum(self, tmp_path, capsys, name):
        # lambda_1 = 0 would fail inside the dynamics; the config check names the field
        path = self._write(
            tmp_path,
            f"experiment = {name}\nbasis.kind = interval_neumann\nK = 8\nM = 200\n"
            f"output = {tmp_path}/n\n",
        )
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert "basis.kind" in err and "lambda_1" in err and "Traceback" not in err
        assert not os.path.exists(f"{tmp_path}/n_{name}.csv")

    @pytest.mark.parametrize(
        "name, body, names",
        [
            # b - a overflows and every eigenvalue is 0: once exit 3 on lambda_1 = 0
            ("stationary_bd", "basis.a = -1e308\nbasis.b = 1e308\n", "b - a"),
            # pi / side overflows: once an overflow warning, then exit 3 on a zero variance
            ("stationary_bd", "basis.kind = box\nbasis.d = 2\nbasis.side = 1e-320\nK = 8\n", "side"),
            ("kakutani", "basis.a = -1e308\nbasis.b = 1e308\n", "b - a"),
            ("kakutani", "basis.kind = box\nbasis.d = 3\nbasis.side = 1e-320\nK = 16\n", "side"),
        ],
    )
    def test_eigenvalues_outside_the_float_range_exit_two(self, tmp_path, capsys, name, body, names):
        path = self._write(tmp_path, f"experiment = {name}\n{body}output = {tmp_path}/f\n")
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert f"{names} = " in err and "float range" in err and "Traceback" not in err
        assert not os.path.exists(f"{tmp_path}/f_{name}.csv")

    @pytest.mark.parametrize("name", ["kakutani", "stationary_bd", "weyl"])
    def test_unknown_basis_kind_exit_two(self, tmp_path, capsys, name):
        path = self._write(tmp_path, f"experiment = {name}\nbasis.kind = bogus\noutput = {tmp_path}/u\n")
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert "basis.kind" in err and "bogus" in err and "Traceback" not in err

    def test_neumann_accepted_where_basis_kind_is_unused(self, tmp_path):
        path = self._write(
            tmp_path, f"experiment = greens_checks\nbasis.kind = neumann\noutput = {tmp_path}/g\n"
        )
        assert main(["run", path]) == 0

    def test_main_missing_file_exit_two(self, capsys):
        assert main(["run", "/nonexistent/path.cfg"]) == 2
        assert "config" in capsys.readouterr().err

    def test_main_list(self, capsys):
        assert main(["list"]) == 0
        assert "weyl" in capsys.readouterr().out

    def test_seed_and_out_overrides(self, tmp_path):
        path = self._write(
            tmp_path, f"experiment = kakutani\nseed = 1\noutput = {tmp_path}/orig\n"
        )
        assert main(["run", path, "--seed", "9", "--out", f"{tmp_path}/override"]) == 0
        assert os.path.exists(f"{tmp_path}/override_kakutani.csv")

    @pytest.mark.parametrize("modes", [1, 2])
    def test_stationary_with_repeated_unit_functionals(self, tmp_path, modes):
        # K < 3 repeats e1/e2/e3, so the pairing covariance is singular
        path = self._write(
            tmp_path, f"experiment = stationary_bd\nK = {modes}\noutput = {tmp_path}/r\n"
        )
        assert main(["run", path]) == 0

    @pytest.mark.parametrize("modes, tested", [(1, [1]), (2, [1, 2]), (3, [1, 3])])
    def test_invariance_modes_are_distinct_at_small_k(self, tmp_path, modes, tested):
        path = self._write(
            tmp_path, f"experiment = stationary_bd\nK = {modes}\noutput = {tmp_path}/r\n"
        )
        assert main(["run", path]) in (0, 1)
        with open(f"{tmp_path}/r_stationary_bd_summary.json") as fh:
            ks = json.load(fh)["ks_invariance"]
        assert sorted(ks) == sorted(f"mode_{k}" for k in tested)
        # one p-value per distinct mode, none dropped by a repeated key
        cfg = load_config(path)
        pvalues = _stationary_invariance_pvalues(build_basis(cfg), cfg, experiment_stream(cfg, "invariance"))
        assert [k for k, _ in pvalues] == tested

    @pytest.mark.parametrize(
        "extra, tolerance",
        [
            ("", 1e-12),
            ("tol.rel = 1e-6\n", 1e-6),
            ("tol.rel = 1e-9\n", 1e-9),
            ("basis.kind = hermite\n", 1e-6),
            ("basis.kind = hermite\ntol.rel = 1e-3\n", 1e-3),
        ],
    )
    def test_kakutani_tail_tolerance(self, tmp_path, extra, tolerance):
        path = self._write(
            tmp_path, f"experiment = kakutani\nK = 200\n{extra}output = {tmp_path}/k\n"
        )
        main(["run", path])
        with open(f"{tmp_path}/k_kakutani_summary.json") as fh:
            assert json.load(fh)["tail_tolerance"] == tolerance

    def test_rel_tol_defaults_per_experiment(self):
        assert parse_config_text("experiment = kakutani\n").rel_tol is None
        for name in ("greens_checks", "heat_poisson", "two_sided_cov", "fourier_limits"):
            assert parse_config_text(f"experiment = {name}\n").rel_tol == 1e-6
        with pytest.raises(ConfigError, match="tol.rel"):
            parse_config_text("experiment = kakutani\ntol.rel = 0\n")

    @pytest.mark.parametrize("command", ["run", "run-all"])
    def test_crash_exits_three(self, tmp_path, capsys, monkeypatch, command):
        def crash(cfg):
            raise RuntimeError("boom")

        monkeypatch.setitem(EXPERIMENTS, "weyl", crash)
        path = self._write(tmp_path, f"experiment = weyl\noutput = {tmp_path}/c\n")
        argv = ["run", path] if command == "run" else ["run-all", "--out", str(tmp_path)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "error: RuntimeError: boom" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "run-all"])
    def test_output_under_a_regular_file_exits_two(self, tmp_path, capsys, command):
        blocker = os.path.join(tmp_path, "file")
        open(blocker, "w").close()
        path = self._write(tmp_path, f"experiment = weyl\noutput = {blocker}/run\n")
        argv = ["run", path] if command == "run" else ["run-all", "--out", f"{blocker}/out"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("config error: output ") and "Traceback" not in err
        assert "PASS" not in out and "FAIL" not in out

    @pytest.mark.parametrize(
        "nu, eps, code",
        [
            (1e-3, 490.0, 0),
            (1e-3, 490.01, 2),
            (2e-6, 1.0, 2),
            (1e-6, 1.0, 2),
            (1e-300, 1.0, 2),
            (1.0, 1e300, 2),
        ],
    )
    def test_heat_poisson_mass_bound(self, tmp_path, capsys, nu, eps, code):
        # sqrt(eps / nu) = 700 is the largest mass accepted; beyond ~740 the
        # whole-space potential at |x| = 1 underflows to 0
        path = self._write(
            tmp_path, f"experiment = heat_poisson\nnu = {nu!r}\neps = {eps!r}\noutput = {tmp_path}/h\n"
        )
        assert main(["run", path]) == code
        err = capsys.readouterr().err
        assert ("nu and eps" in err) == (code == 2) and "Traceback" not in err
        assert os.path.exists(f"{tmp_path}/h_heat_poisson.csv") == (code != 2)

    @pytest.mark.parametrize("name", ["heat_poisson", "greens_checks"])
    @pytest.mark.parametrize(
        "nu, eps, code",
        [
            (1e-3, 1e-2, 0),
            (10.0, 1e-2, 0),
            (10.0, 1e3, 0),
            # outside the (nu, eps) box of earlier versions: heat_poisson
            # exited 2 there, greens_checks FAILed at nu = 100, 1e-4, 0.15
            # and eps = 1e-3
            (100.0, 1.0, 0),
            (1e-4, 1.0, 0),
            (0.15, 1.0, 0),
            (1.0, 1e-3, 0),
            (1e200, 1e200, 0),
            (1e-200, 1e-200, 0),
            # sqrt(eps / nu) on both sides of 0.02 and of 700
            (1.0, 4.01e-4, 0),
            (1.0, 3.99e-4, 2),
            (1.0, 489999.0, 0),
            (1.0, 490001.0, 2),
            (1e300, 1e-300, 2),
        ],
    )
    def test_time_rule_mass_interval(self, tmp_path, capsys, name, nu, eps, code):
        path = self._write(
            tmp_path,
            f"experiment = {name}\nK = 100\nnu = {nu!r}\neps = {eps!r}\noutput = {tmp_path}/h\n",
        )
        assert main(["run", path]) == code
        err = capsys.readouterr().err
        assert (f"nu and eps: {name} needs 0.02 <= sqrt(eps / nu) <= 700" in err) == (code == 2)
        assert "Traceback" not in err
        assert os.path.exists(f"{tmp_path}/h_{name}.csv") == (code != 2)

    @pytest.mark.parametrize(
        "eps, code",
        [(1e-3, 0), (1e3, 0), (9.99e-4, 2), (1000.1, 2), (1e-6, 2), (1e100, 2)],
    )
    def test_fourier_limits_eps_interval(self, tmp_path, capsys, eps, code):
        path = self._write(
            tmp_path, f"experiment = fourier_limits\neps = {eps!r}\noutput = {tmp_path}/f\n"
        )
        assert main(["run", path]) == code
        err = capsys.readouterr().err
        assert ("eps: fourier_limits needs 0.001 <= eps <= 1000" in err) == (code == 2)
        assert "Traceback" not in err
        assert os.path.exists(f"{tmp_path}/f_fourier_limits.csv") == (code != 2)

    @pytest.mark.parametrize(
        "name, sigma, code",
        [
            ("stationary_bd", 1e-100, 0),
            ("stationary_bd", 1e100, 0),
            ("stationary_hermite", 1e-100, 0),
            ("convergence_curve", 1e100, 0),
            ("fourier_limits", 1e-100, 0),
            ("weyl", 1e300, 0),  # weyl does not read sigma
            *[(name, sigma, 2) for name in SIGMA_READERS for sigma in (9.9e-101, 1.01e100)],
            *[(name, sigma, 2) for name in SIGMA_READERS for sigma in (1e-300, 1e300)],
        ],
    )
    def test_sigma_interval(self, tmp_path, capsys, name, sigma, code):
        # sigma**2 overflows from 1.34e154 on, and stationary variances underflow
        # below 4.5e-160: both crashed these runs (exit 3) in earlier versions
        path = self._write(
            tmp_path,
            f"experiment = {name}\nsigma = {sigma!r}\nM = 2000\noutput = {tmp_path}/s\n",
        )
        assert main(["run", path]) == code
        err = capsys.readouterr().err
        assert (f"sigma: {name} needs 1e-100 <= sigma <= 1e+100" in err) == (code == 2)
        assert "Traceback" not in err
        assert os.path.exists(f"{tmp_path}/s_{name}.csv") == (code != 2)

    @pytest.mark.parametrize(
        "name, nu, sigma",
        [
            # sigma inside SIGMA_RANGE, sigma^2 / (2 nu) no float: these crashed
            # (exit 3), or FAILed on a NaN target (exit 1), in earlier versions
            ("stationary_bd", 1.06e-242, 1.05e34),
            ("stationary_hermite", 8.3e228, 1.2e-64),
            ("fourier_limits", 3.7e287, 2.3e-39),
            ("convergence_curve", 1e-250, 1e30),
        ],
    )
    def test_field_scale_outside_the_floats_exits_two(self, tmp_path, capsys, name, nu, sigma):
        path = self._write(
            tmp_path, f"experiment = {name}\nnu = {nu!r}\nsigma = {sigma!r}\noutput = {tmp_path}/s\n"
        )
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert f"nu and sigma: {name} needs 1e-250 <= sigma^2 / (2 nu) <= 1e+250" in err
        assert "Traceback" not in err
        assert not os.path.exists(f"{tmp_path}/s_{name}.csv")

    # (nu, sigma) just inside and just outside each end of FIELD_SCALE_RANGE:
    # field scales 9.8e249 and 1.02e250, 1.02e-250 and 9.8e-251
    FIELD_SCALE_EDGES = [((5.1e-51, 1e100), (4.9e-51, 1e100)), ((4.9e49, 1e-100), (5.1e49, 1e-100))]

    @pytest.mark.parametrize("name", SIGMA_READERS)
    @pytest.mark.parametrize("inside, outside", FIELD_SCALE_EDGES)
    def test_field_scale_bound_edges(self, name, inside, outside):
        parse_config_text(f"experiment = {name}\nnu = {inside[0]!r}\nsigma = {inside[1]!r}\n")
        message = rf"nu and sigma: {name} needs 1e-250 <= sigma\^2 / \(2 nu\) <= 1e\+250"
        with pytest.raises(ConfigError, match=message):
            parse_config_text(f"experiment = {name}\nnu = {outside[0]!r}\nsigma = {outside[1]!r}\n")

    @pytest.mark.parametrize("name", SIGMA_READERS)
    def test_field_scale_bound_keeps_the_usual_range(self, name):
        for nu in (1e-3, 1e3):
            for sigma in (1e-100, 1e100):
                parse_config_text(f"experiment = {name}\nnu = {nu!r}\nsigma = {sigma!r}\n")

    @pytest.mark.parametrize(
        "name, edge",
        [(name, edge) for name in SIGMA_READERS for edge in (0, 1)],
    )
    def test_field_scale_edges_pass(self, tmp_path, capsys, name, edge):
        # with the times scaled by 1 / nu the checks PASS at both ends
        nu, sigma = self.FIELD_SCALE_EDGES[edge][0]
        times = {
            "stationary_bd": f"t = {5.0 / nu!r}\n",
            "stationary_hermite": f"t = {5.0 / nu!r}\n",
            "convergence_curve": f"t_list = {0.1 / nu!r},{2.0 / nu!r}\n",
            "fourier_limits": "",
        }[name]
        path = self._write(
            tmp_path,
            f"experiment = {name}\nnu = {nu!r}\nsigma = {sigma!r}\n{times}M = 2000\noutput = {tmp_path}/s\n",
        )
        assert main(["run", path]) == 0
        assert f"[{name}] PASS" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name, extra",
        [("weyl", ""), ("stationary_hermite", ""), ("kakutani", "basis.kind = hermite\n"),
         ("stationary_bd", "basis.kind = hermite\n")],
    )
    def test_hermite_size_limit_exits_two(self, tmp_path, capsys, name, extra):
        # earlier versions built up to a whole box basis first, then crashed (exit 3)
        path = self._write(tmp_path, f"experiment = {name}\n{extra}K = 1000001\noutput = {tmp_path}/h\n")
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert f"K: {name} needs 1 <= K <= 1e+06 (got 1000001)" in err and "Traceback" not in err
        assert not os.path.exists(f"{tmp_path}/h_{name}.csv")

    def test_stationary_modes_beyond_the_float_range_of_nu_lambda2(self, tmp_path, capsys):
        # 2 nu lambda_K^2 = 3.3e308 overflows: the variance of mode 4096 read 0
        # and its KS p was 1e-12 (exit 1) in earlier versions
        path = self._write(
            tmp_path,
            f"experiment = stationary_bd\nnu = 1e300\nsigma = 1e100\nK = 4096\nM = 2000\noutput = {tmp_path}/s\n",
        )
        assert main(["run", path]) == 0
        assert "[stationary_bd] PASS" in capsys.readouterr().out

    def test_hermite_size_limit_is_inclusive(self, tmp_path, capsys):
        path = self._write(
            tmp_path, f"experiment = kakutani\nbasis.kind = hermite\nK = 1000000\noutput = {tmp_path}/k\n"
        )
        assert main(["run", path]) == 0
        assert "[kakutani] PASS" in capsys.readouterr().out

    def test_hermite_size_limit_only_on_hermite_bases(self, tmp_path):
        for name in ("kakutani", "stationary_bd", "convergence_curve"):
            parse_config_text(f"experiment = {name}\nK = 1000001\n")
        parse_config_text("experiment = heat_poisson\nbasis.kind = hermite\nK = 1000001\n")

    @pytest.mark.parametrize(
        "line",
        ["nu = 6", "nu = 10", "nu = 1000", "sigma = 3e3", "sigma = 1e4", "sigma = 3e4", "sigma = 1e50",
         "sigma = 1e100"],
    )
    def test_fourier_limits_scales_with_nu_and_sigma(self, tmp_path, capsys, line):
        # the fixed transient grid FAILed from nu = 6 on, the absolute
        # massless gate from sigma = 3e3 on, and the phi_transient rows,
        # taken as the difference of two covariances, from sigma = 3e4 on
        # (exit 1)
        path = self._write(tmp_path, f"experiment = fourier_limits\n{line}\noutput = {tmp_path}/f\n")
        assert main(["run", path]) == 0
        assert "[fourier_limits] PASS" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name, line",
        [
            ("weyl", "nu = nan"),
            ("weyl", "nu = inf"),
            ("stationary_bd", "t = inf"),
            ("kakutani", "tol.rel = nan"),
            ("weyl", "basis.a = nan"),
            ("convergence_curve", "t_list = 0.1,nan"),
        ],
    )
    def test_non_finite_value_exits_two(self, tmp_path, capsys, name, line):
        path = self._write(
            tmp_path, f"experiment = {name}\n{line}\nK = 8\nM = 200\noutput = {tmp_path}/n\n"
        )
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        key = line.partition(" =")[0]
        assert f"{key!r}" in err and "not a finite number" in err and "Traceback" not in err
        assert not os.path.exists(f"{tmp_path}/n_{name}.csv")

    @pytest.mark.parametrize("alpha", ["-1", "0", "1e-13", "1", "2"])
    def test_ks_p_outside_unit_interval_exits_two(self, tmp_path, capsys, alpha):
        path = self._write(
            tmp_path,
            f"experiment = stationary_bd\ntol.ks_p = {alpha}\nK = 8\nM = 200\noutput = {tmp_path}/s\n",
        )
        assert main(["run", path]) == 2
        assert f"tol.ks_p must lie in [1e-12, 1) (got {float(alpha)})" in capsys.readouterr().err
        assert not os.path.exists(f"{tmp_path}/s_stationary_bd.csv")


class TestRunAll:
    def test_writes_every_experiment_like_run(self, tmp_path, capsys):
        assert main(["run-all", "--seed", "5", "--out", f"{tmp_path}/all"]) == 0
        written = sorted(os.listdir(f"{tmp_path}/all"))
        suffixes = (".csv", "_summary.json")
        assert written == sorted(f"{n}_{n}{s}" for n in REGISTRY_NAMES for s in suffixes)
        path = os.path.join(tmp_path, "one.cfg")
        with open(path, "w") as fh:
            fh.write("experiment = stationary_bd\n")
        assert main(["run", path, "--seed", "5", "--out", f"{tmp_path}/one"]) == 0
        for suffix in (".csv", "_summary.json"):
            with open(f"{tmp_path}/all/stationary_bd_stationary_bd{suffix}", "rb") as fh:
                first = fh.read()
            with open(f"{tmp_path}/one_stationary_bd{suffix}", "rb") as fh:
                assert fh.read() == first

    def test_failing_verdict_exits_one(self, tmp_path, monkeypatch, capsys):
        def failing(cfg):
            return ExperimentResult([{"x": 1.0}], {}, [("y", 0.1, 0.5, "<"), ("x", 1.0, 0.5, "<")])

        monkeypatch.setitem(EXPERIMENTS, "weyl", failing)
        assert main(["run-all", "--out", str(tmp_path)]) == 1
        assert os.path.exists(f"{tmp_path}/weyl_weyl.csv")
        assert capsys.readouterr().err == "[weyl] worst gate: x = 1.0, needs < 0.5 (margin -0.301)\n"

    def test_runner_derives_name_columns_and_verdict(self, tmp_path, monkeypatch, capsys):
        def stub(cfg):
            return ExperimentResult([{"b": 1, "a": 2.5}, {"b": 3, "a": 0.1}], {"z": 1}, [("z", 1, 2, "<")])

        monkeypatch.setitem(EXPERIMENTS, "weyl", stub)
        path = os.path.join(tmp_path, "w.cfg")
        with open(path, "w") as fh:
            fh.write(f"experiment = weyl\noutput = {tmp_path}/s\n")
        assert main(["run", path]) == 0
        assert "[weyl] PASS" in capsys.readouterr().out
        with open(f"{tmp_path}/s_weyl.csv") as fh:
            assert fh.read() == "b,a\n1,2.5\n3,0.1\n"
        with open(f"{tmp_path}/s_weyl_summary.json") as fh:
            assert json.load(fh) == {"experiment": "weyl", "passed": True, "z": 1}

    def test_builds_no_large_gauss_rule(self, tmp_path, monkeypatch):
        # the radial pair integrals and the massive oracle run on 16-node
        # panels; the only larger rule left is the 256-node time rule of
        # heat_poisson_identity, and every rule comes from the table
        built = []
        rule = quadrature._leggauss

        def recording(n):
            built.append(n)
            return rule(n)

        monkeypatch.setattr(quadrature, "_leggauss", recording)
        assert main(["run-all", "--seed", "7", "--out", str(tmp_path)]) == 0
        assert set(built) == {n for kind, n in quadrature.TABULATED if kind == "legendre"}

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        assert main(["run-all", "--seed", "-1", "--out", str(tmp_path)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not os.listdir(tmp_path)


class TestSharedParser:
    """One parser serves every main call of a process; no call may see the
    flags of another."""

    @pytest.fixture()
    def seen(self, monkeypatch):
        """(experiment, seed, output) of every run, with the experiments stubbed."""
        calls = []

        def stub(cfg):
            calls.append((cfg.experiment, cfg.seed, cfg.output))
            return ExperimentResult([{"x": 1.0}], {}, [("x", 1.0, 2.0, "<")])

        for name in list(EXPERIMENTS):
            monkeypatch.setitem(EXPERIMENTS, name, stub)
        return calls

    @pytest.fixture()
    def config(self, tmp_path):
        path = os.path.join(tmp_path, "w.cfg")
        with open(path, "w") as fh:
            fh.write(f"experiment = weyl\nseed = 11\noutput = {tmp_path}/w\n")
        return path

    def test_parser_is_built_once(self):
        assert _parser() is _parser()

    def test_seed_override_does_not_leak(self, tmp_path, config, seen, capsys):
        assert main(["run", config, "--seed", "3"]) == 0
        assert main(["run", config]) == 0
        assert seen == [("weyl", 3, f"{tmp_path}/w"), ("weyl", 11, f"{tmp_path}/w")]

    def test_out_override_does_not_leak(self, tmp_path, config, seen, capsys):
        assert main(["run", config, "--out", f"{tmp_path}/o"]) == 0
        assert main(["run", config]) == 0
        assert seen == [("weyl", 11, f"{tmp_path}/o"), ("weyl", 11, f"{tmp_path}/w")]

    def test_run_all_after_run_keeps_its_defaults(self, tmp_path, config, seen, capsys, monkeypatch):
        fresh = [(name, 7, f"out/{name}") for name in sorted(EXPERIMENTS)]
        assert main(["run", config, "--seed", "3", "--out", f"{tmp_path}/o"]) == 0
        assert main(["run-all", "--seed", "5", "--out", f"{tmp_path}/all"]) == 0
        del seen[:]
        monkeypatch.chdir(tmp_path)  # the default --out is relative
        assert main(["run-all"]) == 0
        assert seen == fresh

    @pytest.mark.parametrize(
        "argv",
        [[], ["bogus"], ["run"], ["run", "a.cfg", "--seed", "x"], ["run-all", "--jobs", "2"],
         ["list", "extra"]],
    )
    def test_bad_argv_exits_two_each_time(self, argv, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "usage: gff-lab" in capsys.readouterr().err
        assert main(["list"]) == 0


_BAD_FLOATS = ["nan", "inf", "-inf", "-1", "0", "banana"]
# log-uniform draws over 1e-300..1e300 reach the field scales sigma^2 / (2 nu)
# that are no float, which crashed runs (exit 3) before FIELD_SCALE_RANGE
_POSITIVE = st.one_of(
    st.floats(1e-3, 1e3),
    st.sampled_from([1e-300, 1e300]),
    st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
).map(repr)

# every config key: (valid values, invalid values); K and M stay small
CONFIG_SPACE = {
    "experiment": (st.sampled_from(REGISTRY_NAMES), ["bogus"]),
    "basis.kind": (st.sampled_from([k.value for k in BasisKind] + ["neumann", "box"]), ["bogus"]),
    "basis.a": (st.floats(-2.0, 0.5).map(repr), _BAD_FLOATS),
    "basis.b": (st.floats(0.6, 3.0).map(repr), _BAD_FLOATS),
    "basis.side": (st.floats(0.1, 5.0).map(repr), _BAD_FLOATS),
    "basis.d": (st.integers(1, 3).map(str), ["0", "4", "1.5"]),
    "nu": (_POSITIVE, _BAD_FLOATS),
    "sigma": (_POSITIVE, _BAD_FLOATS),
    "eps": (_POSITIVE, _BAD_FLOATS),
    "K": (st.integers(1, 64).map(str), ["0", "-1", "1.5"]),
    "M": (st.integers(100, 400).map(str), ["99", "-1", "x"]),
    "t": (st.floats(1e-3, 50.0).map(repr), _BAD_FLOATS),
    "t_list": (
        st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=4, unique=True)
        .map(lambda v: ",".join(map(repr, sorted(v)))),
        ["0.2,0.1", "0.1,nan", "0,1", "", "x"],
    ),
    "seed": (st.integers(0, 2**40).map(str), ["-1", "x"]),
    "output": (st.just("run"), []),
    "tol.z": (st.floats(0.1, 10.0).map(repr), _BAD_FLOATS),
    "tol.rel": (st.floats(1e-14, 1.0).map(repr), _BAD_FLOATS),
    "tol.ks_p": (st.floats(1e-6, 0.5).map(repr), _BAD_FLOATS + ["1e-13", "1", "2"]),
}


@st.composite
def configs(draw):
    """Valid values for experiment, K, M and any other keys, then at most
    one key set to an invalid value."""
    required = ("experiment", "K", "M")
    config = draw(
        st.fixed_dictionaries(
            {k: CONFIG_SPACE[k][0] for k in required},
            optional={k: valid for k, (valid, _) in CONFIG_SPACE.items() if k not in required},
        )
    )
    bad_key = draw(st.none() | st.sampled_from([k for k, (_, bad) in CONFIG_SPACE.items() if bad]))
    if bad_key is not None:
        config[bad_key] = draw(st.sampled_from(CONFIG_SPACE[bad_key][1]))
    return config


class TestConfigSpace:
    def test_space_covers_every_key(self):
        assert set(CONFIG_SPACE) == {f.metadata["key"] for f in fields(ExperimentConfig)}

    @settings(max_examples=100, deadline=None)
    @given(configs())
    def test_exit_codes_keep_their_meaning(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            config = {**config, "output": os.path.join(tmp, config.get("output", "run"))}
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w") as fh:
                fh.write("".join(f"{k} = {v}\n" for k, v in config.items()))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["run", path])
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            prefix = f"{config['output']}_{config['experiment']}"
            if code == 1:
                assert f"[{config['experiment']}] FAIL" in out.getvalue()
                with open(f"{prefix}_summary.json") as fh:
                    assert json.load(fh)["passed"] is False
            if code == 2:
                assert not os.path.exists(f"{prefix}.csv")


def test_documented_keys_match_the_key_table():
    docs = os.path.join(os.path.dirname(os.path.dirname(__file__)), "docs", "experiments.md")
    with open(docs, encoding="utf-8") as fh:
        section = fh.read().split("## Config keys", 1)[1].split("\n## ", 1)[0]
    documented = {}  # key -> its default cell
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = line.split("|")
            for part in cells[1].split(","):
                documented[part.strip().strip("`")] = cells[3]
    parsers = {f.metadata["key"]: f.metadata["parser"] for f in fields(ExperimentConfig)}
    assert set(documented) == set(parsers)
    # every per-experiment default of the table, as "`name`, ...: `value`"
    for name, (_, defaults, _) in EXPERIMENT_TABLE.items():
        for key, value in defaults.items():
            listed = {}
            for part in documented[key].split(";"):
                names, colon, text = part.partition(":")
                if colon:
                    listed.update(dict.fromkeys(re.findall(r"`(\w+)`", names), re.findall(r"`([^`]+)`", text)[0]))
            assert name in listed, (key, name)
            assert parsers[key](listed[name]) == parsers[key](value), (key, name)
