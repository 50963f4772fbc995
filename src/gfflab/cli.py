"""Experiment runner: flat key=value configs, named experiments, seed
management, and deterministic CSV/JSON emission.

Usage:
    gff-lab run <config-path> [--seed S] [--out prefix]
    gff-lab run-all [--seed S] [--out DIR]
    gff-lab list

run-all runs every registered experiment at its defaults, with output
prefix DIR/<experiment> (DIR defaults to out).

Exit codes: 0 every gate of every experiment held, 1 a gate failed (one
line on stderr names the worst gate), 2 configuration error, 3 an
experiment crashed (one line on stderr names the exception).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from functools import lru_cache

from .basis import BasisKind, parse_basis_kind
from .experiments import EXPERIMENT_TABLE, EXPERIMENTS, ExperimentResult, margin
from .stats import P_VALUE_FLOOR


class ConfigError(Exception):
    pass


def _finite_float(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _float_list(text) -> tuple:
    return tuple(_finite_float(v) for v in str(text).split(","))


# a bound reads "<key> must <phrase> (got <value>)" when the predicate fails
_POSITIVE = ("be positive", lambda v: v > 0.0)


def _key(key: str, default, parser=_finite_float, bound=None):
    """A config field: its key in the file, its parser and its bound."""
    return field(default=default, metadata={"key": key, "parser": parser, "bound": bound})


@dataclass
class ExperimentConfig:
    experiment: str = _key("experiment", "", str)
    basis_kind: BasisKind = _key("basis.kind", BasisKind.INTERVAL_DIRICHLET, parse_basis_kind)
    a: float = _key("basis.a", 0.0)
    b: float = _key("basis.b", 1.0)
    side: float = _key("basis.side", 1.0, bound=_POSITIVE)
    d: int = _key("basis.d", 1, int, ("be 1, 2 or 3", lambda v: v in (1, 2, 3)))
    nu: float = _key("nu", 1.0, bound=_POSITIVE)
    sigma: float = _key("sigma", 1.0, bound=_POSITIVE)
    eps: float = _key("eps", 1.0, bound=_POSITIVE)
    modes: int = _key("K", 64, int, ("be at least 1", lambda v: v >= 1))
    samples: int = _key("M", 20000, int, ("be at least 100", lambda v: v >= 100))
    t: float = _key("t", 5.0, bound=_POSITIVE)
    t_list: tuple = _key(
        "t_list", (0.1, 0.5, 1.0, 2.0), _float_list,
        ("have positive entries", lambda v: len(v) > 0 and min(v) > 0.0),
    )
    seed: int = _key("seed", 7, int, ("be non-negative", lambda v: v >= 0))
    output: str = _key("output", "out/run", str)
    z_threshold: float = _key("tol.z", 4.0, bound=_POSITIVE)
    rel_tol: float | None = _key("tol.rel", None, bound=_POSITIVE)  # None: the experiment's own default
    # ks_gaussian floors p at P_VALUE_FLOOR: below it the KS gate could not fail
    ks_alpha: float = _key("tol.ks_p", 1e-3, bound=(f"lie in [{P_VALUE_FLOOR:g}, 1)", lambda v: P_VALUE_FLOOR <= v < 1))


# config key -> dataclass field
_KEYS = {f.metadata["key"]: f for f in fields(ExperimentConfig)}


def parse_config_text(text: str) -> ExperimentConfig:
    """Strict flat key=value parser: unknown keys and malformed values are
    rejected with the offending key named."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if key in raw:
            raise ConfigError(f"duplicate config key {key!r}")
        raw[key] = value.strip()

    if "experiment" not in raw:
        raise ConfigError("missing required key 'experiment'")
    name = raw["experiment"]
    if name not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {name!r}; run 'gff-lab list' for the registry"
        )

    cfg = ExperimentConfig()
    for key, value in {**EXPERIMENT_TABLE[name][1], **raw}.items():
        f = _KEYS[key]
        try:
            setattr(cfg, f.name, f.metadata["parser"](value))
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from None
    validate_config(cfg)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")


def _check_bound(key: str, value) -> None:
    bound = _KEYS[key].metadata["bound"]
    if bound is not None and value is not None and not bound[1](value):
        raise ConfigError(f"{key} must {bound[0]} (got {value})")


def validate_config(cfg: ExperimentConfig) -> None:
    for key, f in _KEYS.items():
        _check_bound(key, getattr(cfg, f.name))
    if not cfg.a < cfg.b:
        raise ConfigError(f"basis.a must be below basis.b (got {cfg.a}, {cfg.b})")
    if list(cfg.t_list) != sorted(cfg.t_list):
        raise ConfigError(f"t_list must be increasing (got {cfg.t_list})")
    try:
        for require in EXPERIMENT_TABLE[cfg.experiment][2]:
            require(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)  # shortest round-trip decimal, locale-independent
    return str(value)


def write_result(result: ExperimentResult, prefix: str) -> tuple[str, str]:
    """Write <prefix>.csv, its columns in the order of the first row, and
    <prefix>_summary.json; returns both paths."""
    out_dir = os.path.dirname(prefix)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    columns = list(result.rows[0])
    csv_path = f"{prefix}.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in result.rows:
            fh.write(",".join(_format_cell(row[c]) for c in columns) + "\n")
    summary_path = f"{prefix}_summary.json"
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, summary_path


def run(cfg: ExperimentConfig) -> int:
    """Execute the configured experiment; returns the process exit code."""
    name = cfg.experiment
    result = EXPERIMENTS[name](cfg)
    result.summary["experiment"] = name
    csv_path, summary_path = write_result(result, f"{cfg.output}_{name}")
    passed = result.summary["passed"]
    print(f"[{name}] {'PASS' if passed else 'FAIL'}")
    for key, value in sorted(result.summary.items()):
        if key not in ("experiment", "passed"):
            print(f"  {key} = {value}")
    print(f"  csv = {csv_path}")
    print(f"  summary = {summary_path}")
    if not passed:
        worst = "{0} = {1!r}, needs {3} {2!r}".format(*result.worst)
        print(f"[{name}] worst gate: {worst} (margin {margin(result.worst):.3g})", file=sys.stderr)
    return 0 if passed else 1


def list_experiments() -> str:
    """The experiment registry with one summary line per name."""
    lines = []
    for name in sorted(EXPERIMENTS):
        doc = (EXPERIMENTS[name].__doc__ or "").strip().split("\n")
        summary = " ".join(part.strip() for part in doc if part.strip())
        lines.append(f"{name}: {summary}")
    return "\n".join(lines)


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args leaves it
    unchanged, so every call of main starts from the same defaults."""
    parser = argparse.ArgumentParser(prog="gff-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a config file")
    run_p.add_argument("config", help="path to a key=value config file")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="override the output prefix")

    all_p = sub.add_parser("run-all", help="run every registered experiment at its defaults")
    all_p.add_argument("--seed", type=int, default=None, help="seed for every experiment")
    all_p.add_argument("--out", default="out", help="output directory")

    sub.add_parser("list", help="print the experiment registry")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "list":
        print(list_experiments())
        return 0

    try:
        if args.command == "run":
            configs = [load_config(args.config)]
            if args.out is not None:
                configs[0].output = args.out
        else:
            configs = [parse_config_text(f"experiment = {name}") for name in sorted(EXPERIMENTS)]
            for cfg in configs:
                cfg.output = f"{args.out}/{cfg.experiment}"
        if args.seed is not None:
            _check_bound("seed", args.seed)
            for cfg in configs:
                cfg.seed = args.seed
        for cfg in configs:  # a bad output path must fail before any experiment runs
            try:
                os.makedirs(os.path.dirname(cfg.output) or ".", exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"output {cfg.output!r}: {exc}") from None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return max([run(cfg) for cfg in configs])
    except Exception as exc:  # a crash must not read as a FAIL verdict (exit 1)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
