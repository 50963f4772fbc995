"""The exit codes and output bytes of the benchmark's mc_wide and
spectra_large configs at seed 11, pinned in bench_sha256.json.

The configs are read from perfbench/run.py's WORKLOADS and written as its
write_configs writes them, so the test runs what the benchmark runs. Like
test_output_manifest, it runs only under the Python and numpy versions the
manifest was made with, and skips elsewhere. A change that moves cells or
verdicts on purpose regenerates the manifest with

    PYTHONPATH=src python tests/test_bench_manifest.py --write

and lists the moved ones in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from gfflab.cli import main

MANIFEST = Path(__file__).with_name("bench_sha256.json")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 11
WORKLOADS = ("mc_wide", "spectra_large")  # registry_default is run-all, pinned at seed 7


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def bench_configs() -> dict[str, list[dict]]:
    """The configs of WORKLOADS, read from perfbench/run.py without writing
    bytecode under perfbench/."""
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode, saved = True, sys.dont_write_bytecode
    try:
        import run
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved
    return {name: run.WORKLOADS[name][0] for name in WORKLOADS}


def bench_outputs(root: Path) -> dict:
    """The exit code of each config, keyed <workload>/<index>_<experiment>,
    and the sha256 of each file it writes, keyed by its path below root."""
    exits = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for workload, configs in bench_configs().items():
            for idx, cfg in enumerate(configs):
                tag = f"{workload}/{idx:02d}_{cfg['experiment']}"
                lines = [f"experiment = {cfg['experiment']}", f"seed = {SEED}"]
                lines += [f"{k} = {v}" for k, v in cfg.items() if k != "experiment"]
                lines.append(f"output = {root / tag}/run")
                config = root / "run.cfg"
                config.write_text("\n".join(lines) + "\n", encoding="utf-8")
                exits[tag] = main(["run", str(config)])
    hashes = {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.glob("*/*/*"))
    }
    return {"exit": exits, "sha256": hashes}


def test_bench_outputs_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    if manifest["versions"] != versions():
        pytest.skip(f"the manifest was made with {manifest['versions']}, this is {versions()}")
    outputs = bench_outputs(tmp_path)
    assert len(outputs["exit"]) == 6 and len(outputs["sha256"]) == 12  # a CSV and a summary per run
    assert outputs["exit"] == manifest["exit"]
    assert outputs["sha256"] == manifest["sha256"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_bench_manifest.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        manifest = {"versions": versions(), **bench_outputs(Path(tmp))}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest['exit'])} exit codes and {len(manifest['sha256'])} hashes to {MANIFEST}")
