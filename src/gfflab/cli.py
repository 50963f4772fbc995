"""Experiment runner: flat key=value configs, named experiments, seed
management, and deterministic CSV/JSON emission.

Usage:
    gff-lab run <config-path> [--seed S] [--out prefix]
    gff-lab run-all [--seed S] [--out DIR]
    gff-lab list

run-all runs every registered experiment at its defaults, with output
prefix DIR/<experiment> (DIR defaults to out).

Exit codes: 0 all experiment predicates passed, 1 a predicate failed,
2 configuration error, 3 an experiment crashed (one line on stderr names
the exception).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .basis import BasisKind, parse_basis_kind
from .experiments import EXPERIMENT_DEFAULTS, EXPERIMENTS, ExperimentResult


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    experiment: str = ""
    basis_kind: str = "interval_dirichlet"
    a: float = 0.0
    b: float = 1.0
    side: float = 1.0
    d: int = 1
    nu: float = 1.0
    sigma: float = 1.0
    eps: float = 1.0
    modes: int = 64
    samples: int = 20000
    t: float = 5.0
    t_list: tuple = (0.1, 0.5, 1.0, 2.0)
    seed: int = 7
    output: str = "out/run"
    z_threshold: float = 4.0
    rel_tol: float | None = None  # None: the experiment's own default
    ks_alpha: float = 1e-3


def _parse_float_list(text: str) -> tuple:
    try:
        return tuple(float(v) for v in str(text).split(","))
    except ValueError:
        raise ConfigError(f"t_list must be a comma-separated float list, got {text!r}")


# experiments whose dynamics need lambda_1 > 0, so no Neumann constant mode
_POSITIVE_SPECTRUM = ("stationary_bd", "stationary_hermite", "convergence_curve", "kakutani")

# config key -> (dataclass field, parser)
_KEY_TABLE = {
    "experiment": ("experiment", str),
    "basis.kind": ("basis_kind", str),
    "basis.a": ("a", float),
    "basis.b": ("b", float),
    "basis.side": ("side", float),
    "basis.d": ("d", int),
    "nu": ("nu", float),
    "sigma": ("sigma", float),
    "eps": ("eps", float),
    "K": ("modes", int),
    "M": ("samples", int),
    "t": ("t", float),
    "t_list": ("t_list", _parse_float_list),
    "seed": ("seed", int),
    "output": ("output", str),
    "tol.z": ("z_threshold", float),
    "tol.rel": ("rel_tol", float),
    "tol.ks_p": ("ks_alpha", float),
}


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
        if key not in _KEY_TABLE:
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

    merged = dict(EXPERIMENT_DEFAULTS.get(name, {}))
    merged.update(raw)

    cfg = ExperimentConfig()
    for key, value in merged.items():
        field_name, parser = _KEY_TABLE[key]
        try:
            parsed = parser(value)
        except ConfigError:
            raise
        except (TypeError, ValueError):
            raise ConfigError(f"config key {key!r}: cannot parse value {value!r}")
        setattr(cfg, field_name, parsed)
    validate_config(cfg)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.nu <= 0.0:
        raise ConfigError(f"nu must be positive (got {cfg.nu})")
    if cfg.sigma <= 0.0:
        raise ConfigError(f"sigma must be positive (got {cfg.sigma})")
    if cfg.eps <= 0.0:
        raise ConfigError(f"eps must be positive (got {cfg.eps})")
    if cfg.modes < 1:
        raise ConfigError(f"K must be at least 1 (got {cfg.modes})")
    if cfg.samples < 100:
        raise ConfigError(f"M must be at least 100 (got {cfg.samples})")
    if cfg.t <= 0.0:
        raise ConfigError(f"t must be positive (got {cfg.t})")
    if not cfg.t_list or any(v <= 0.0 for v in cfg.t_list):
        raise ConfigError(f"t_list entries must be positive (got {cfg.t_list})")
    if list(cfg.t_list) != sorted(cfg.t_list):
        raise ConfigError(f"t_list must be increasing (got {cfg.t_list})")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative (got {cfg.seed})")
    if not cfg.a < cfg.b:
        raise ConfigError(f"basis.a must be below basis.b (got {cfg.a}, {cfg.b})")
    if cfg.side <= 0.0:
        raise ConfigError(f"basis.side must be positive (got {cfg.side})")
    if cfg.d not in (1, 2, 3):
        raise ConfigError(f"basis.d must be 1, 2 or 3 (got {cfg.d})")
    try:
        kind = parse_basis_kind(cfg.basis_kind)
    except ValueError as exc:
        raise ConfigError(f"basis.kind: {exc}") from None
    if kind is BasisKind.INTERVAL_NEUMANN and cfg.experiment in _POSITIVE_SPECTRUM:
        raise ConfigError(
            f"basis.kind = interval_neumann has lambda_1 = 0; {cfg.experiment} needs lambda_1 > 0"
        )
    if cfg.z_threshold <= 0.0:
        raise ConfigError(f"tol.z must be positive (got {cfg.z_threshold})")
    if cfg.rel_tol is not None and cfg.rel_tol <= 0.0:
        raise ConfigError(f"tol.rel must be positive (got {cfg.rel_tol})")


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(value)  # shortest round-trip decimal, locale-independent
    return str(value)


def write_result(result: ExperimentResult, prefix: str) -> tuple[str, str]:
    out_dir = os.path.dirname(prefix)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    csv_path = f"{prefix}_{result.name}.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(result.columns) + "\n")
        for row in result.rows:
            fh.write(",".join(_format_cell(row[c]) for c in result.columns) + "\n")
    summary_path = f"{prefix}_{result.name}_summary.json"
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, summary_path


def run(cfg: ExperimentConfig) -> int:
    """Execute the configured experiment; returns the process exit code."""
    result = EXPERIMENTS[cfg.experiment](cfg)
    csv_path, summary_path = write_result(result, cfg.output)
    verdict = "PASS" if result.passed else "FAIL"
    print(f"[{result.name}] {verdict}")
    for key, value in sorted(result.summary.items()):
        if key not in ("experiment", "passed"):
            print(f"  {key} = {value}")
    print(f"  csv = {csv_path}")
    print(f"  summary = {summary_path}")
    return 0 if result.passed else 1


def list_experiments() -> str:
    """The experiment registry with one summary line per name."""
    lines = []
    for name in sorted(EXPERIMENTS):
        doc = (EXPERIMENTS[name].__doc__ or "").strip().split("\n")
        summary = " ".join(part.strip() for part in doc if part.strip())
        lines.append(f"{name}: {summary}")
    return "\n".join(lines)


def main(argv=None) -> int:
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

    args = parser.parse_args(argv)
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
        for cfg in configs:
            if args.seed is not None:
                cfg.seed = args.seed
            validate_config(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return max([run(cfg) for cfg in configs])
    except Exception as exc:  # a crash must not read as a FAIL verdict (exit 1)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
