"""One benchmark run inside a fresh process: whole rounds of CLI commands.

Usage: python3 bench/child.py SPEC_JSON RESULT_JSON

SPEC_JSON holds ``ops`` (name, argv, outputs), ``seconds``, ``trace``,
``spans_path``, ``blas_threads`` and ``probe`` (the set-up probe's command
line, or null).  Every round first runs the probe, if any, in a fresh
process, then each operation once through ``wishartmin.cli.main``; rounds
repeat until ``seconds`` have passed.  For each attempt the result records
the exit code, the wall time and a digest of every output file, so the
parent can check one round's files and know that every other round wrote
the same bytes.  Started by run.py, which sets PYTHONPATH and the BLAS
thread count.
"""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback


def _digest(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return "missing"


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import wishartmin.cli

    run_main = wishartmin.cli.main
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install, layer_metrics

        tracer = Tracer()
        run_main = install(tracer)

    def probe() -> float:
        out = subprocess.run(spec["probe"], capture_output=True, text=True,
                             check=True, timeout=60).stdout.split()
        if out[1] != wishartmin.cli.__file__:
            raise RuntimeError(f"the probe imported {out[1]}, not {wishartmin.cli.__file__}")
        return float(out[0])

    # with one BLAS thread, rounds (and the probes they start, which inherit
    # the affinity) alternate over the CPUs this process may use: on a shared
    # host each vCPU has slow phases of its own, and one run should sample
    # all.  More BLAS threads than one keep every CPU.
    cpus = sorted(os.sched_getaffinity(0))
    pin = spec["blas_threads"] == 1
    if spec["probe"]:
        probe()  # unrecorded: fills the bytecode and file caches
    rounds, layers, setup = [], [], []
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began < spec["seconds"]:
        if pin:
            os.sched_setaffinity(0, {cpus[len(rounds) % len(cpus)]})
        if spec["probe"]:
            setup.append(probe())
        if tracer is not None:
            first_span, counts_before = len(tracer.start), tracer.counts.copy()
        attempts = []
        for op in spec["ops"]:
            for path in op["outputs"]:
                if os.path.exists(path):
                    os.unlink(path)
            t0 = time.perf_counter()
            try:
                rc = run_main(list(op["argv"]))
            except Exception:  # one broken command must not hide the others
                rc = "exception: " + traceback.format_exc(limit=3)
            seconds = time.perf_counter() - t0
            attempts.append({"name": op["name"], "rc": rc, "seconds": seconds,
                             "digests": [_digest(p) for p in op["outputs"]]})
        rounds.append(attempts)
        if tracer is not None:
            summary = tracer.summary(first_span, len(tracer.start))
            layers.append(layer_metrics(summary, tracer.counts - counts_before))

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "machine": {
            "cores": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "rounds": rounds,
        "layers": layers,
        "setup_s": setup,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module_file": wishartmin.cli.__file__,
    }
    if tracer is not None:
        tracer.write(spec["spans_path"])
        result["spans"] = len(tracer.start)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
