"""One benchmark pass in a fresh process.

Usage: python3 perfbench/worker.py <job.json>

The job file names the config files to run, where to write the result,
and, for a traced pass, where to write the spans and which functions the
workload must call. The pass imports gfflab from ``src/`` of the checkout
named in the job (through PYTHONPATH), drives each config through the public
entry point ``gfflab.cli.main(["run", path])`` and writes its timings as
JSON. Timestamps use CLOCK_MONOTONIC so the parent can subtract its launch
time from ``ready``.
"""

import json
import os
import resource
import sys
import time
import traceback

import gfflab.cli as cli

READY = time.monotonic()


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    src = os.path.realpath(os.path.join(job["root"], "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"gfflab was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if job["spans"]:
        from tracer import LayerTracer

        tracer = LayerTracer()
        tracer.install()

    codes, seconds = [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for path in job["configs"]:
        start = time.perf_counter()
        try:
            code = cli.main(["run", path])
        except Exception:
            # a crash must not look like a statistical FAIL (exit 1)
            traceback.print_exc()
            code = "traceback"
        seconds.append(time.perf_counter() - start)
        codes.append(code)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "ready": READY,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "codes": codes,
        "experiment_s": seconds,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
    }
    if tracer is not None:
        tracer.write(job["spans"])
        missing = sorted(fn for fn in job["expected"] if tracer.calls[fn] == 0)
        if missing:
            print(f"traced pass recorded zero calls to: {', '.join(missing)}", file=sys.stderr)
            return 3
        result["self_s"] = dict(tracer.self_times())
        result["label_calls"] = dict(tracer.label_calls())
        result["calls"] = dict(tracer.calls)
        result["work"] = dict(tracer.work)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
