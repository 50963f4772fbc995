import json
import os

import pytest

from gfflab.cli import (
    ConfigError,
    list_experiments,
    load_config,
    main,
    parse_config_text,
    run,
)
from gfflab.experiments import EXPERIMENTS, _stationary_invariance_pvalues, build_basis
from gfflab.fields import RngStream

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
            jobs = 2
            tol.z = 5.0
            """
        )
        assert cfg.nu == 1.5
        assert cfg.modes == 32
        assert cfg.t_list == (0.5, 1.0, 2.0)
        assert cfg.z_threshold == 5.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'nus'"):
            parse_config_text("experiment = weyl\nnus = 1.0\n")

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

    def test_main_run_and_exit_codes(self, tmp_path, capsys):
        path = self._write(tmp_path, f"experiment = kakutani\noutput = {tmp_path}/k\n")
        assert main(["run", path]) == 0
        out = capsys.readouterr().out
        assert "[kakutani] PASS" in out

    def test_kakutani_below_first_checkpoint(self, tmp_path, capsys):
        path = self._write(tmp_path, f"experiment = kakutani\nK = 5\noutput = {tmp_path}/k\n")
        assert main(["run", path]) == 0
        with open(f"{tmp_path}/k_kakutani.csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "terms,statistic,tail_from_previous"
        assert [line.split(",")[0] for line in lines[1:]] == ["5"]

    def test_main_config_error_exit_two(self, tmp_path, capsys):
        path = self._write(tmp_path, "experiment = weyl\nnu = -1\n")
        assert main(["run", path]) == 2
        assert "nu" in capsys.readouterr().err

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
        pvalues = _stationary_invariance_pvalues(build_basis(cfg), cfg, RngStream(cfg.seed, 1))
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

    @pytest.mark.parametrize("name", ["stationary_bd", "convergence_curve", "bridge_cov"])
    def test_jobs_do_not_change_outputs(self, tmp_path, name):
        path = self._write(tmp_path, f"experiment = {name}\nM = 9000\nK = 64\n")
        outputs = []
        for jobs in ("1", "3"):
            main(["run", path, "--jobs", jobs, "--out", f"{tmp_path}/j{jobs}"])
            with open(f"{tmp_path}/j{jobs}_{name}.csv", "rb") as fh:
                csv = fh.read()
            with open(f"{tmp_path}/j{jobs}_{name}_summary.json", "rb") as fh:
                outputs.append((csv, fh.read()))
        assert outputs[0] == outputs[1]

    def test_jobs_env_fallback(self, tmp_path, monkeypatch):
        path = self._write(
            tmp_path,
            f"experiment = stationary_bd\nM = 1000\nK = 8\noutput = {tmp_path}/j\n",
        )
        monkeypatch.setenv("GFFLAB_JOBS", "2")
        assert main(["run", path]) in (0, 1)  # statistics may pass or fail; no crash
        monkeypatch.delenv("GFFLAB_JOBS")
