"""gff-lab benchmark: time to a PASS/FAIL verdict, end to end and per layer.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs the workload's experiments in a fresh single-threaded
process (perfbench/worker.py) through the public ``gfflab.cli`` entry point:
a config file with ``seed = N``, then ``run``, then the CSV/summary writes.
Passes repeat while another one fits in ``--seconds``; every metric is the
median over passes. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, plus the tracing overhead. The last stdout line is the
result as one JSON object; the line before it carries the machine block,
per-pass figures and output hashes, for information only.
"""

from __future__ import annotations

import argparse
import compileall
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracer import PLAN_LABELS, WORK_COUNTERS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
OUT = os.path.join(ROOT, "perfbench", "out")

REGISTRY = [
    "bridge_cov", "convergence_curve", "fourier_limits", "greens_checks", "heat_poisson",
    "kakutani", "log_divergence_2d", "stationary_bd", "stationary_hermite",
    "two_sided_cov", "weyl",
]

# per workload: configs (seed and output are added per run) and the
# functions a traced pass must call at least once
WORKLOADS = {
    "registry_default": (
        [{"experiment": name} for name in REGISTRY],
        [
            "basis.build_box_basis", "basis.build_hermite_basis", "basis.build_interval_basis",
            "basis.evaluate_matrix", "cli.load_config", "cli.validate_config", "cli.write_result",
            "dynamics.sample_functional_values", "fields.covariance_two_sided",
            "fields.sample_brownian_bridge", "fourier_cov.gff_covariance",
            "fourier_cov.massive_limit_covariance", "fourier_cov.transient_covariance",
            "greens.bessel_k", "greens.heat_kernel", "greens.potential_massive",
            "greens.potential_zero_mass", "quadrature.composite_legendre",
            "quadrature.gauss_hermite", "quadrature.gauss_legendre", "quadrature.half_line_nodes",
            "stats.ks_gaussian", "stats.report_from_values",
        ],
    ),
    "mc_wide": (
        [
            {"experiment": "stationary_bd", "K": 4096, "M": 10000},
            {"experiment": "convergence_curve", "K": 2048, "M": 10000},
            {"experiment": "bridge_cov", "K": 4096, "M": 10000},
        ],
        [
            "basis.build_interval_basis", "cli.load_config", "cli.write_result",
            "dynamics.sample_functional_values", "fields.sample_brownian_bridge",
            "stats.ks_gaussian", "stats.report_from_values",
        ],
    ),
    "spectra_large": (
        [
            {"experiment": "weyl", "K": 200000},
            {"experiment": "kakutani", "basis.kind": "box_dirichlet", "basis.d": 3, "K": 100000},
            {"experiment": "heat_poisson", "K": 100000},
        ],
        [
            "basis.build_box_basis", "basis.build_hermite_basis", "basis.build_interval_basis",
            "basis.evaluate_matrix", "cli.load_config", "cli.write_result",
            "greens.potential_massive", "quadrature.half_line_nodes",
        ],
    ),
}

END_TO_END = ["setup_s", "wall_s", "cpu_s", "peak_rss_mb"]
SETUP_LAUNCHES = 2  # set-up-only worker launches after each untraced pass
# single-threaded BLAS and a fixed hash seed in every worker; GFFLAB_JOBS is removed
PASS_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def unit(metric: str) -> str:
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    return "count"


def write_configs(run_dir: str, configs: list[dict], seed: int) -> list[tuple[str, str, str]]:
    """One config file per experiment run, each with its own output
    directory so no two runs share an output prefix."""
    jobs = []
    os.makedirs(os.path.join(run_dir, "configs"))
    for idx, cfg in enumerate(configs):
        tag = f"{idx:02d}_{cfg['experiment']}"
        path = os.path.join(run_dir, "configs", f"{tag}.cfg")
        out_dir = os.path.join(run_dir, "pass", tag)
        lines = [f"experiment = {cfg['experiment']}", f"seed = {seed}"]
        lines += [f"{k} = {v}" for k, v in cfg.items() if k != "experiment"]
        lines.append(f"output = {os.path.relpath(out_dir, ROOT)}/run")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        jobs.append((cfg["experiment"], path, out_dir))
    return jobs


def check_outputs(name: str, code, out_dir: str) -> tuple[bool, dict]:
    """Outputs of one experiment run are well formed and agree with its exit
    code; returns (valid, sha256 per file). The hashes are information
    only: an intended change of the random stream changes them."""
    files = sorted(glob.glob(os.path.join(out_dir, "*")))
    hashes = {}
    for path in files:
        with open(path, "rb") as fh:
            hashes[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    if code not in (0, 1):
        return False, hashes
    summaries = [p for p in files if p.endswith("summary.json")]
    csvs = [p for p in files if p.endswith(".csv")]
    if len(summaries) != 1 or not csvs:
        return False, hashes
    try:  # undecodable text or JSON is a malformed output, not a benchmark crash
        with open(summaries[0], encoding="utf-8") as fh:
            summary = json.load(fh)
        tables = []
        for path in csvs:
            with open(path, encoding="utf-8") as fh:
                tables.append([line.rstrip("\n").split(",") for line in fh])
    except ValueError:
        return False, hashes
    if not isinstance(summary, dict) or summary.get("experiment") != name:
        return False, hashes
    if summary.get("passed") is not (code == 0):
        return False, hashes
    return all(
        len(rows) >= 2 and all(rows[0]) and all(len(r) == len(rows[0]) for r in rows)
        for rows in tables
    ), hashes


def run_pass(jobs, run_dir: str, trace: bool, expected: list[str]) -> dict:
    """One fresh worker process over all experiments of the workload."""
    shutil.rmtree(os.path.join(run_dir, "pass"), ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "pass"))
    job_path = os.path.join(run_dir, "job.json")
    job = {
        "root": ROOT,
        "configs": [path for _, path, _ in jobs],
        "result": os.path.join(run_dir, "pass", "result.json"),
        "spans": os.path.join(run_dir, "spans.csv") if trace else "",
        "expected": expected,
    }
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    env = {k: v for k, v in os.environ.items() if k != "GFFLAB_JOBS"}
    env.update(PASS_ENV, PYTHONPATH=os.path.join(ROOT, "src"))
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, job_path], cwd=ROOT, env=env, capture_output=True, text=True
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"worker pass failed with exit code {proc.returncode}")
    with open(job["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result.pop("ready") - launched
    checks = [check_outputs(name, code, out) for (name, _, out), code in zip(jobs, result["codes"])]
    result["valid"] = all(ok for ok, _ in checks)
    result["hashes"] = {os.path.basename(out): h for (_, _, out), (_, h) in zip(jobs, checks)}
    return result


def layer_metrics(result: dict) -> dict:
    self_s, calls, work = result["self_s"], result["label_calls"], result["work"]
    out = {}
    for label in PLAN_LABELS:
        out[f"{label}.calls"] = calls.get(label, 0)
        out[f"{label}.self_s"] = self_s.get(label, 0.0)
    for name in REGISTRY:
        out[f"experiments.{name}.self_s"] = self_s.get(f"experiments.{name}", 0.0)
    for counter in WORK_COUNTERS:
        out[counter] = work.get(counter, 0)
    sample_s = out["dynamics.sample.self_s"]
    out["dynamics.sample.mode_samples_per_s"] = (
        out["dynamics.sample.mode_samples"] / sample_s if sample_s else 0.0
    )
    return out


def module_shares(result: dict) -> dict:
    """Self time per gfflab module as a share of the traced pass."""
    shares: dict = {}
    for label, seconds in result["self_s"].items():
        module = label.split(".")[0]
        shares[module] = shares.get(module, 0.0) + seconds / result["wall_s"]
    shares["untraced"] = 1.0 - sum(shares.values())
    return {k: round(v, 4) for k, v in sorted(shares.items())}


def median_metrics(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def run_workload(name: str, configs: list[dict], expected: list[str], seed: int,
                 seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run passes while another one fits in ``seconds`` (at least one);
    returns (result, info)."""
    run_dir = os.path.join(OUT, f"{name}-s{seed}-t{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    jobs = write_configs(run_dir, configs, seed)
    plain, traced, setups = [], [], []
    start = time.monotonic()
    while True:
        begun = time.monotonic()
        plain.append(run_pass(jobs, run_dir, False, expected))
        if trace:
            traced.append(run_pass(jobs, run_dir, True, expected))
        else:
            # extra set-up samples spread over the run: a worker with no experiments
            setups += [run_pass([], run_dir, False, [])["setup_s"] for _ in range(SETUP_LAUNCHES)]
        now = time.monotonic()
        # stop unless one more round of the same length still fits
        if now - start + (now - begun) > seconds:
            break
    passes = plain + traced
    codes = [code for p in passes for code in p["codes"]]
    if trace:
        metrics = median_metrics([layer_metrics(p) for p in traced])
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in plain)
        )
    else:
        metrics = median_metrics([{k: p[k] for k in END_TO_END} for p in plain])
        metrics["setup_s"] = statistics.median(setups + [p["setup_s"] for p in plain])
    result = {
        "correct": all(p["valid"] for p in passes),
        "attempted": len(codes),
        "failed": sum(code != 0 for code in codes),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    info = {
        "machine": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            **plain[0]["versions"],
            "env": PASS_ENV,
            "GFFLAB_JOBS": "unset",
        },
        "workload": name,
        "seed": seed,
        "passes": [
            {k: p[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "codes", "experiment_s")}
            for p in plain
        ],
        "setup_only_s": setups,
        "outputs_identical_across_passes": all(p["hashes"] == passes[0]["hashes"] for p in passes),
        "sha256": passes[0]["hashes"],
    }
    if trace:
        info["traced_wall_s"] = [p["wall_s"] for p in traced]
        info["module_self_share"] = module_shares(traced[-1])
        info["function_calls"] = traced[-1]["calls"]
        info["spans_file"] = os.path.relpath(os.path.join(run_dir, "spans.csv"), ROOT)
    return result, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "gfflab", "cli.py")):
        print(f"no gfflab sources under {ROOT}/src; run from a repository checkout", file=sys.stderr)
        return 2
    # users run with compiled bytecode; do not time the first compile
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    configs, expected = WORKLOADS[args.workload]
    result, info = run_workload(
        args.workload, configs, expected, args.seed, args.seconds, bool(args.trace)
    )
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
