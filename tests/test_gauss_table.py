"""The committed table of Gauss rules: each rule holds the very bytes its
solve gives, the table ships inside the package, and it is read on the first
lookup, never at import. A change to a solver or to TABULATED regenerates it
with

    PYTHONPATH=src python tests/test_gauss_table.py --write

which prints each rule it adds, changes or drops.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gfflab
from gfflab import quadrature

ROOT = Path(__file__).resolve().parents[1]


def solved_rules() -> dict[tuple[str, int], tuple[np.ndarray, np.ndarray]]:
    """Every rule of TABULATED from its solver, with the table switched off."""
    tabulated = quadrature.TABULATED
    quadrature.TABULATED = ()
    try:
        solve = {"legendre": quadrature._leggauss.__wrapped__, "hermite": quadrature.gauss_hermite.__wrapped__}
        return {(kind, n): solve[kind](n) for kind, n in tabulated}
    finally:
        quadrature.TABULATED = tabulated


@pytest.mark.parametrize("key", quadrature.TABULATED, ids=[f"{kind}-{n}" for kind, n in quadrature.TABULATED])
def test_each_rule_is_its_solve_byte_for_byte(key):
    x, w = quadrature._table()[key]
    sx, sw = solved_rules()[key]
    assert x.tobytes() == sx.tobytes() and w.tobytes() == sw.tobytes()
    assert not (x.flags.writeable or w.flags.writeable)


def test_lookups_return_the_table():
    table = quadrature._table()
    for kind, n in quadrature.TABULATED:
        got = quadrature._leggauss(n) if kind == "legendre" else quadrature.gauss_hermite(n)
        assert got is table[kind, n]


def test_other_sizes_are_solved():
    x, w = quadrature.gauss_legendre(-1.0, 1.0, 17)
    assert x.size == 17 and float(np.sum(w)) == pytest.approx(2.0, abs=4e-16)
    hx, hw = quadrature.gauss_hermite(12)
    ref = np.polynomial.hermite.hermgauss(12)
    assert hx.tobytes() == ref[0].tobytes() and hw.tobytes() == ref[1].tobytes()


def test_table_ships_in_the_package():
    assert quadrature.TABLE.parent == Path(gfflab.__file__).parent
    assert quadrature.TABLE.is_file()
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert quadrature.TABLE.name in config["tool"]["setuptools"]["package-data"]["gfflab"]


def test_run_all_reads_the_table_only_when_it_runs(tmp_path):
    # a fresh process: importing the command line reads no table, and a
    # registered run neither solves a rule nor imports numpy.polynomial
    code = f"""
import sys
from gfflab import quadrature
from gfflab.cli import main
assert quadrature._table.cache_info().currsize == 0
assert main(["run-all", "--seed", "7", "--out", {str(tmp_path)!r}]) == 0
assert quadrature._table.cache_info().currsize == 1
assert "numpy.polynomial" not in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_gauss_table.py --write")
    new = solved_rules()
    old = quadrature._table() if quadrature.TABLE.exists() else {}
    for key in sorted(old.keys() | new.keys()):
        if key not in old:
            print(f"added {key}")
        elif key not in new:
            print(f"dropped {key}")
        elif any(a.tobytes() != b.tobytes() for a, b in zip(old[key], new[key])):
            print(f"changed {key}")
    np.save(quadrature.TABLE, np.concatenate([a for x, w in new.values() for a in (x, w)]))
    print(f"wrote {len(new)} rules to {quadrature.TABLE}")
