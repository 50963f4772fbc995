"""Layer tracer for the benchmark: wraps gfflab's public functions from
outside the package and records one span per call.

A span is (label, function, parent span, start, end). Spans stay in memory
while the workload runs; self time is derived from them afterwards as a
span's duration minus the time its direct children cover. Nothing inside
``src/`` is changed: the wrappers are installed by rebinding module
attributes, in every gfflab module that binds the function, because
``from .x import y`` copies the name into the importing module.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import Counter
from time import perf_counter


def _arguments(fn):
    """(args, kwargs) -> the call's arguments by name, defaults applied."""
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _mode_samples(fn):
    bind = _arguments(fn)

    def work(args, kwargs, result):
        arguments = bind(args, kwargs)
        return arguments["n_samples"] * arguments["basis"].size

    return work


def _modes(fn):
    return lambda args, kwargs, result: result.size


def _bytes_written(fn):
    return lambda args, kwargs, result: sum(os.path.getsize(p) for p in result)


TWO_SIDED_MODES = ("direct", "antiderivative", "fourier")


def _by_mode(fn):
    bind = _arguments(fn)
    return lambda args, kwargs: f"fields.covariance_two_sided.{bind(args, kwargs)['mode']}"


# (module, function names, layer label or label factory, work counter name, work factory)
LAYER_PLAN = [
    ("gfflab.dynamics", ["sample_functional_values"], "dynamics.sample", "mode_samples", _mode_samples),
    ("gfflab.greens", ["heat_kernel", "potential_massive", "potential_zero_mass", "bessel_k"],
     "greens.kernel", None, None),
    ("gfflab.quadrature", ["gauss_legendre", "composite_legendre", "half_line_nodes",
                           "gauss_hermite", "gauss_hermite_unweighted"], "quadrature.rule", None, None),
    ("gfflab.fields", ["covariance_two_sided"], _by_mode, None, None),
    ("gfflab.fields", ["sample_brownian_bridge"], "fields.bridge", None, None),
    ("gfflab.fourier_cov", ["gff_covariance", "transient_covariance", "massive_limit_covariance"],
     "fourier_cov.pair", None, None),
    ("gfflab.basis", ["build_box_basis", "build_hermite_basis", "build_interval_basis"],
     "basis.build", "modes", _modes),
    ("gfflab.basis", ["evaluate_matrix"], "basis.evaluate_matrix", None, None),
    ("gfflab.stats", ["report_from_values"], "stats.report", None, None),
    ("gfflab.stats", ["ks_gaussian"], "stats.ks", None, None),
    ("gfflab.cli", ["load_config", "validate_config"], "cli.parse", None, None),
    ("gfflab.cli", ["write_result"], "cli.write", "bytes", _bytes_written),
]

# every label LAYER_PLAN can produce; experiment labels come from the registry
PLAN_LABELS = [
    label for _, _, label, _, _ in LAYER_PLAN if isinstance(label, str)
] + [f"fields.covariance_two_sided.{mode}" for mode in TWO_SIDED_MODES]
WORK_COUNTERS = [f"{label}.{counter}" for _, _, label, counter, _ in LAYER_PLAN if counter]


class LayerTracer:
    def __init__(self):
        self.spans: list[list] = []  # [label, function, parent index, start, end]
        self._open: list[int] = []
        self.calls: Counter = Counter()  # per function, as "module.name"
        self.work: Counter = Counter()  # per "label.counter"

    def wrap(self, fn, label, counter=None, work=None):
        name = f"{fn.__module__.removeprefix('gfflab.')}.{fn.__name__}"
        spans, open_spans, calls, totals = self.spans, self._open, self.calls, self.work
        label_of = label if callable(label) else None
        work_key = f"{label}.{counter}" if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            idx = len(spans)
            span = [label_of(args, kwargs) if label_of else label, name,
                    open_spans[-1] if open_spans else -1, perf_counter(), 0.0]
            spans.append(span)
            open_spans.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                open_spans.pop()
            if work_key:
                totals[work_key] += work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every planned function in each gfflab module that binds it,
        and each registered experiment as ``experiments.<name>``."""
        modules = [m for n, m in sys.modules.items() if n == "gfflab" or n.startswith("gfflab.")]
        for module_name, names, label, counter, work_factory in LAYER_PLAN:
            module = sys.modules[module_name]
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapped = self.wrap(
                    original,
                    label(original) if callable(label) else label,
                    counter,
                    work_factory(original) if work_factory else None,
                )
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
        registry = sys.modules["gfflab.experiments"].EXPERIMENTS
        for exp_name, fn in list(registry.items()):
            registry[exp_name] = self.wrap(fn, f"experiments.{exp_name}")

    def self_times(self) -> Counter:
        """Seconds per label: each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for label, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for (label, _, _, start, end), covered in zip(self.spans, child):
            out[label] += (end - start) - covered
        return out

    def label_calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,label,function,start,end\n")
            for idx, (label, fn, parent, start, end) in enumerate(self.spans):
                fh.write(f"{idx},{parent},{label},{fn},{start!r},{end!r}\n")
