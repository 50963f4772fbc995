"""The benchmark under perfbench/ reaches into gfflab by module and function
name and binds some arguments by name. These tests read its tables as they
are and check that every name they use still resolves, and that one traced
pass of each workload calls every function the workload expects."""

import importlib
import inspect
import os
import sys
from types import SimpleNamespace

import pytest

from gfflab.cli import parse_config_text

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
WORKLOADS = ("mc_wide", "registry_default", "spectra_large")  # perfbench/run.py's, by name


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, PERFBENCH)
    sys.dont_write_bytecode, saved = True, sys.dont_write_bytecode  # leave perfbench/ untouched
    try:
        import run
        import selftest
        import tracer
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = saved
    return SimpleNamespace(run=run, selftest=selftest, tracer=tracer)


def test_traced_functions_exist(bench):
    for module, names, *_ in bench.tracer.LAYER_PLAN:
        mod = importlib.import_module(module)
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_expected_calls_exist(bench):
    for workload, (_, expected) in bench.run.WORKLOADS.items():
        for dotted in expected:
            module, _, name = dotted.rpartition(".")
            mod = importlib.import_module(f"gfflab.{module}")
            assert callable(getattr(mod, name, None)), f"{workload}: gfflab.{dotted}"


def test_workload_configs_parse(bench):
    for workload, (configs, _) in bench.run.WORKLOADS.items():
        for cfg in configs:
            text = "".join(f"{k} = {v}\n" for k, v in {**cfg, "seed": 7}.items())
            assert parse_config_text(text).experiment == cfg["experiment"], workload


def test_parameters_bound_by_name():
    dynamics = importlib.import_module("gfflab.dynamics")
    fields = importlib.import_module("gfflab.fields")
    params = inspect.signature(dynamics.sample_functional_values).parameters
    assert {"basis", "n_samples"} <= set(params)
    assert "mode" in inspect.signature(fields.covariance_two_sided).parameters


def test_every_workload_is_traced_here(bench):
    assert sorted(bench.run.WORKLOADS) == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_calls_every_expected_function(bench, workload, tmp_path, monkeypatch):
    # one traced worker pass at the self-test's sizes (K <= 256, M = 400);
    # the worker exits 3 when an expected function records no call, so a
    # change that bypasses sample_functional_values or report_from_values
    # fails here and not only in perfbench/selftest.py
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")  # leave perfbench/ and src/ untouched
    configs, expected = bench.run.WORKLOADS[workload]
    jobs = bench.run.write_configs(str(tmp_path), [bench.selftest.shrink(cfg) for cfg in configs], 7)
    try:
        result = bench.run.run_pass(jobs, str(tmp_path), True, expected)
    except SystemExit as exc:
        pytest.fail(f"{workload}: {exc}")
    assert result["valid"], result["codes"]
