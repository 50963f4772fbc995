"""The bytes of every file `gff-lab run-all --seed 7` writes, and of the
three large-spectrum and the three wide Monte Carlo runs of the benchmark,
pinned by sha256.

A change that is meant to keep every output byte-identical (a speed-up, a
refactor) must keep these hashes. They depend on the floating-point stack,
so the test runs only under the Python and numpy versions the manifest was
made with, and skips elsewhere. A change that moves cells on purpose
regenerates the manifest with

    PYTHONPATH=src python tests/test_output_manifest.py --write

which prints each key it adds, changes or drops, and lists the moved cells
in CHANGES.md.
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

MANIFEST = Path(__file__).with_name("output_sha256.json")
# the configs of the spectra_large and mc_wide workloads in perfbench/run.py,
# by the directory their outputs go to
BENCH_CONFIGS = {
    "large": {
        "weyl": {"K": 200000},
        "kakutani": {"basis.kind": "box_dirichlet", "basis.d": 3, "K": 100000},
        "heat_poisson": {"K": 100000},
    },
    "mc_wide": {
        "stationary_bd": {"K": 4096, "M": 10000},
        "convergence_curve": {"K": 2048, "M": 10000},
        "bridge_cov": {"K": 4096, "M": 10000},
    },
    # the Monte Carlo checks off their defaults: at K = 2 the six functionals
    # repeat, and stationary_bd runs on the d = 3 box
    "mc_off_default": {
        "convergence_curve": {"basis.kind": "mixed", "K": 2, "t_list": "0.05,3", "M": 300},
        "stationary_hermite": {"K": 2, "M": 500, "nu": 0.4, "sigma": 3},
        "stationary_bd": {"basis.kind": "box", "basis.d": 3, "K": 50, "t": 2, "nu": 0.7},
    },
}


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def output_hashes(root: Path) -> dict[str, str]:
    """sha256 of each output file, keyed by its path below root."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run-all", "--seed", "7", "--out", str(root / "run-all")]) == 0
        for workload, configs in BENCH_CONFIGS.items():
            for name, keys in configs.items():
                lines = [f"experiment = {name}", "seed = 7"] + [f"{k} = {v}" for k, v in keys.items()]
                config = root / f"{name}.cfg"
                config.write_text("\n".join(lines + [f"output = {root}/{workload}/{name}"]) + "\n")
                assert main(["run", str(config)]) == 0
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.glob("*/*"))
    }


def test_outputs_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    if manifest["versions"] != versions():
        pytest.skip(f"the manifest was made with {manifest['versions']}, this is {versions()}")
    hashes = output_hashes(tmp_path)
    runs = 11 + sum(len(configs) for configs in BENCH_CONFIGS.values())
    assert len(hashes) == 2 * runs  # a CSV and a summary per run
    assert hashes == manifest["sha256"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_output_manifest.py --write")
    old = json.loads(MANIFEST.read_text(encoding="utf-8"))["sha256"] if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        manifest = {"versions": versions(), "sha256": output_hashes(Path(tmp))}
    new = manifest["sha256"]
    for key in sorted(old.keys() | new.keys()):
        if key not in old:
            print(f"added {key}")
        elif key not in new:
            print(f"dropped {key}")
        elif old[key] != new[key]:
            print(f"changed {key}")
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(new)} hashes to {MANIFEST}")
