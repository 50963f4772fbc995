"""Self-test of the benchmark harness at shrunken K and M.

Usage (from the repository root): python3 perfbench/selftest.py

Every workload runs through the same code path as run.py, with K capped at
256 and M set to 400: once untraced and twice traced. The test checks that
the outputs pass the correctness gate, that every metric BENCHMARK.json
names is emitted with its unit, and that the exact counts (calls, modes,
mode samples, bytes) repeat between the two traced runs. Verdicts are not
checked: small K and M change what the experiments can certify.
"""

import json
import os
import sys

import run


def shrink(cfg: dict) -> dict:
    return {**cfg, "K": min(cfg.get("K", 256), 256), "M": 400}


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    errors = []
    for name, (configs, expected) in sorted(run.WORKLOADS.items()):
        small = [shrink(cfg) for cfg in configs]
        results = [run.run_workload(name, small, expected, 1, 0, trace)[0]
                   for trace in (False, True, True)]
        for trace, result in zip((False, True, True), results):
            if not result["correct"]:
                errors.append(f"{name}: outputs failed the correctness gate (trace={trace})")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != wanted[trace]:
                errors.append(f"{name}: metrics {sorted(set(got.items()) ^ set(wanted[trace].items()))} "
                              f"differ from BENCHMARK.json (trace={trace})")
        first, second = results[1]["metrics"], results[2]["metrics"]
        for key, metric in first.items():
            if metric["unit"] in ("count", "bytes") and metric["value"] != second[key]["value"]:
                errors.append(f"{name}: {key} is {metric['value']} then {second[key]['value']}")
        print(f"{name}: checked {len(first)} per-layer metrics", flush=True)
    for line in errors:
        print(line, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
