"""Benchmark of the README CLI commands, end to end or layer by layer.

Usage (from the repository root):

    python3 bench/run.py --blas-threads 1 --workload real-p10 --seed 1 \
        --seconds 50 --trace 0

The workload's commands run through ``wishartmin.cli.main`` in one fresh
process (bench/child.py) with the BLAS thread count fixed, in whole rounds
for ``--seconds``.  Set-up is timed once per round, in a fresh process
(bench/probe.py) that the child starts before the round's commands.  Every
output is then checked against the mpmath oracle (bench/oracle.py) and the
law's properties (bench/checks.py).  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics from the traced run (bench/tracer.py).
The full record, per round, goes to
bench/out/<workload>/run-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from oracle import ExactOracle, MicroOracle

ROOT = Path(__file__).resolve().parents[1]
RUN_BUDGET_S = 170.0  # a run must end within 180 s


def _child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def _check_import_path(module_file: str):
    if not Path(module_file).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"wishartmin imported from {module_file}, not from {ROOT / 'src'}")


def _op_problems(op, wl, exact_oracle, micro_oracle, seed) -> list[str]:
    try:
        return _check_op(op, wl, exact_oracle, micro_oracle, seed)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check_op(op, wl, exact_oracle, micro_oracle, seed) -> list[str]:
    if op.kind == "exact":
        return checks.check_curve(op.outputs[0], exact_oracle, "t")
    if op.kind == "micro":
        return checks.check_curve(op.outputs[0], micro_oracle, "u")
    if op.kind == "sample":
        config = {"beta": wl.beta, "p": wl.p, "n": wl.n}
        return checks.check_sample(*op.outputs, op.params["count"], seed, config,
                                   exact_oracle)
    oracle = exact_oracle if op.params["mode"] == "exact" else micro_oracle
    return checks.check_verify(*op.outputs, op.params["mode"], op.params["count"], oracle)


def run(args) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (ROOT / "src/wishartmin/cli.py").is_file():
        raise FileNotFoundError(f"no wishartmin sources under {ROOT / 'src'}")
    os.chdir(ROOT)  # the workloads name their files relative to the root
    bench = json.loads(Path("BENCHMARK.json").read_text())
    wl = workloads.build(args.workload, args.seed)
    out_dir = Path("bench/out", wl.name)
    out_dir.mkdir(parents=True, exist_ok=True)
    Path(wl.spectrum_file).write_text(
        f"# {wl.name} population eigenvalues\n" + "".join(f"{v!r}\n" for v in wl.lambdas))
    env = _child_env(args.blas_threads)

    tag = f"seed{args.seed}-trace{args.trace}"
    spec_path, result_path = out_dir / f"spec-{tag}.json", out_dir / f"result-{tag}.json"
    spec_path.write_text(json.dumps({
        "ops": [{"name": op.name, "argv": op.argv, "outputs": op.outputs} for op in wl.ops],
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "spans_path": str(out_dir / f"spans-{tag}.csv.gz"),
        "blas_threads": args.blas_threads,
        "probe": None if args.trace else [sys.executable, str(ROOT / "bench/probe.py"),
                                          wl.spectrum_file],
    }))
    subprocess.run(
        [sys.executable, str(ROOT / "bench/child.py"), str(spec_path), str(result_path)],
        env=env, cwd=ROOT, stdout=sys.stderr, check=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    result = json.loads(result_path.read_text())
    _check_import_path(result["module_file"])

    # check the last round's files; every other round must have written the same bytes
    exact_oracle = ExactOracle(wl.lambdas, wl.beta, wl.n)
    micro_oracle = MicroOracle(wl.beta, wl.micro_gamma)
    problems = {op.name: _op_problems(op, wl, exact_oracle, micro_oracle, args.seed)
                for op in wl.ops}
    last = {a["name"]: a for a in result["rounds"][-1]}
    failures = []
    for r, attempts in enumerate(result["rounds"]):
        for op, attempt in zip(wl.ops, attempts):
            why = list(problems[op.name])
            if attempt["rc"] != 0:
                why.append(f"exit code {attempt['rc']}")
            if attempt["digests"] != last[op.name]["digests"]:
                why.append("output differs from the checked round")
            if why:
                failures.append({"round": r, "op": op.name, "known_fault": op.known_fault,
                                 "problems": why})
    known = {op.name for op in wl.ops if op.known_fault}

    # means, not medians: the shared machine switches between a fast and a
    # slow state, and a median of a few rounds jumps between the two
    def op_mean(name):
        return statistics.fmean(a["seconds"] for rnd in result["rounds"] for a in rnd
                                if a["name"] == name)

    if args.trace:
        wanted = bench["per_layer"]
        values = {m["name"]: statistics.median(layer[m["name"]] for layer in result["layers"])
                  for m in wanted}
    else:
        wanted = bench["end_to_end"]
        values = {m["name"]: op_mean(m["name"][: -len("_s")])
                  for m in wanted if m["name"] not in ("setup_s", "peak_rss_mib")}
        values["setup_s"] = statistics.fmean(result["setup_s"])
        values["peak_rss_mib"] = result["peak_rss_kib"] / 1024.0
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "blas_threads": args.blas_threads, "machine": result["machine"],
        "setup_s": result["setup_s"], "rounds": result["rounds"], "layers": result["layers"],
        "op_means": {op.name: op_mean(op.name) for op in wl.ops},
        "failures": failures,
    }
    (out_dir / f"run-{tag}.json").write_text(json.dumps(record, indent=1))
    return {
        "correct": all(f["op"] in known for f in failures),
        "attempted": sum(len(rnd) for rnd in result["rounds"]),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        "failures": failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--blas-threads", type=int, default=1, choices=(1, 2))
    args = parser.parse_args(argv)
    try:
        summary = run(args)
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    failures = summary.pop("failures")
    for f in failures:
        tag = "known fault" if f["known_fault"] else "FAILED"
        print(f"{tag}: round {f['round']} {f['op']}: {'; '.join(f['problems'])}")
    print(f"{args.workload} seed {args.seed}: {summary['attempted']} operations attempted, "
          f"{summary['failed']} failed, correct={summary['correct']}")
    for name, m in summary["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
