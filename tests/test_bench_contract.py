"""The benchmark under perfbench/ reaches into gfflab by module and function
name and binds some arguments by name. These tests read its tables as they
are and check that every name they use still resolves."""

import importlib
import inspect
import os
import sys

import pytest

from gfflab.cli import parse_config_text

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, PERFBENCH)
    sys.dont_write_bytecode, saved = True, sys.dont_write_bytecode  # leave perfbench/ untouched
    try:
        import run
        import tracer
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = saved
    return run, tracer


def test_traced_functions_exist(bench):
    _, tracer = bench
    for module, names, *_ in tracer.LAYER_PLAN:
        mod = importlib.import_module(module)
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_expected_calls_exist(bench):
    run, _ = bench
    for workload, (_, expected) in run.WORKLOADS.items():
        for dotted in expected:
            module, _, name = dotted.rpartition(".")
            mod = importlib.import_module(f"gfflab.{module}")
            assert callable(getattr(mod, name, None)), f"{workload}: gfflab.{dotted}"


def test_workload_configs_parse(bench):
    run, _ = bench
    for workload, (configs, _) in run.WORKLOADS.items():
        for cfg in configs:
            text = "".join(f"{k} = {v}\n" for k, v in {**cfg, "seed": 7}.items())
            assert parse_config_text(text).experiment == cfg["experiment"], workload


def test_parameters_bound_by_name():
    dynamics = importlib.import_module("gfflab.dynamics")
    fields = importlib.import_module("gfflab.fields")
    params = inspect.signature(dynamics.sample_functional_values).parameters
    assert {"basis", "n_samples"} <= set(params)
    assert "mode" in inspect.signature(fields.covariance_two_sided).parameters
