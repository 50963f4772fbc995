"""Every function defined in gfflab is called by the command line (every
registered experiment at its defaults, the registry listing and one config
file run), or is listed in KEPT with the reason it stays; and no gfflab
module reads another one's private names."""

import ast
import contextlib
import io
import os
import sys
from pathlib import Path

import gfflab
from gfflab.cli import main

SRC = Path(gfflab.__file__).parent

# "<module>.<qualified name>" -> why it stays although no command calls it
KEPT = {
    "cli._key": "runs at import time, where it declares each ExperimentConfig field",
    "dynamics.em_oracle_step": "the Euler-Maruyama oracle of the exact transition (criterion 2)",
    "basis.gram_matrix": "independent oracle of the bases' orthonormality",
    "basis.eigen_residual": "independent oracle of the eigen-equation",
    "quadrature.tensor_grid": "the product rule of the gram_matrix oracle and the tests' d = 2 pair oracle",
    "quadrature.gauss_hermite_unweighted": "the Hermite-basis rule of the gram_matrix oracle",
    "fields.sample_two_sided_bm": "the only Monte Carlo check of covariance_two_sided's law",
    "basis.hermite_functions": "evaluate_matrix's Hermite columns, checked by the gram and eigen oracles",
}


def defined_functions() -> set[str]:
    """Module-level functions and class methods of every gfflab module."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                names.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                names |= {
                    f"{path.stem}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                }
    return names


def called_functions(tmp_path) -> set[str]:
    """Functions of gfflab entered while the command line runs."""
    called = set()

    def record(frame, event, arg):
        code = frame.f_code
        if event == "call" and Path(code.co_filename).parent == SRC:
            called.add(f"{Path(code.co_filename).stem}.{code.co_qualname}")

    config = os.path.join(tmp_path, "curve.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(f"experiment = convergence_curve\nt_list = 0.5,1.0\nK = 16\nM = 400\noutput = {tmp_path}/c\n")
    # cached functions (the Gauss rules) run only on a cache miss
    for name, module in list(sys.modules.items()):
        if name.startswith("gfflab."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    previous = sys.getprofile()
    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(record)
        try:
            codes = [
                main(["run-all", "--seed", "7", "--out", str(tmp_path)]),
                main(["list"]),
                main(["run", config]),
            ]
        finally:
            sys.setprofile(previous)
    assert codes == [0, 0, 0]
    return called


def test_unreached_functions_are_exactly_the_kept_ones(tmp_path):
    assert defined_functions() - called_functions(tmp_path) == set(KEPT)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def cross_module_private_reads() -> set[str]:
    """"<file>:<line> <module>.<name>" for each read of another gfflab
    module's private name, through `from .module import _name` or as an
    attribute of a module bound by `from . import module`."""
    modules = {path.stem for path in SRC.glob("*.py")}
    reads = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}  # local name -> the gfflab module it is bound to
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1:
                source = node.module or ""  # "" is the package itself
            elif node.module == "gfflab" or (node.module or "").startswith("gfflab."):
                source = node.module.removeprefix("gfflab").lstrip(".")
            else:
                continue
            for alias in node.names:
                if not source and alias.name in modules:
                    bound[alias.asname or alias.name] = alias.name
                elif source and source != path.stem and _private(alias.name):
                    reads.add(f"{path.name}:{node.lineno} {source}.{alias.name}")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and bound.get(node.value.id, path.stem) != path.stem
                and _private(node.attr)
            ):
                reads.add(f"{path.name}:{node.lineno} {bound[node.value.id]}.{node.attr}")
    return reads


def test_no_module_reads_another_modules_private_names():
    assert cross_module_private_reads() == set()


def scoped_nodes(path: Path):
    """(enclosing function or class, node) for every node of a module, the
    scope dotted as "Class.method" and "" at module level."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
            yield inner, child
            yield from visit(child, inner)

    yield from visit(ast.parse(path.read_text(encoding="utf-8")), "")


def passed_writes() -> list[tuple[str, int]]:
    """(enclosing function, line) of each "passed" key that experiments.py
    writes: a dict display key, a passed= keyword or a subscript store."""
    return [
        (scope, child.lineno)
        for scope, child in scoped_nodes(SRC / "experiments.py")
        if isinstance(child, ast.Dict)
        and any(isinstance(k, ast.Constant) and k.value == "passed" for k in child.keys)
        or isinstance(child, ast.keyword) and child.arg == "passed"
        or isinstance(child, ast.Subscript)
        and isinstance(child.ctx, ast.Store)
        and isinstance(child.slice, ast.Constant)
        and child.slice.value == "passed"
    ]


def test_only_the_result_writes_the_verdict():
    # experiments return gates; ExperimentResult derives "passed" from them
    assert [scope for scope, _ in passed_writes()] == ["ExperimentResult.__post_init__"]


SAMPLER_NAMES = ("sample_gaussian", "standard_normal")


def sampler_mentions() -> set[tuple[str, str]]:
    """(enclosing function, name) of each mention in experiments.py of a
    name in SAMPLER_NAMES: a bare name, an attribute or an import."""
    mentions = set()
    for scope, node in scoped_nodes(SRC / "experiments.py"):
        for name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None),
                     getattr(node, "asname", None)):
            if name in SAMPLER_NAMES:
                mentions.add((scope, name))
    return mentions


def test_experiments_draw_through_the_one_sampler():
    # Monte Carlo pairings go through dynamics.sample_functional_values and
    # the bridge through fields; only the invariance check draws its own normals
    assert sampler_mentions() <= {("_stationary_invariance_pvalues", "standard_normal")}
