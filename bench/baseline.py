"""Rerun the whole benchmark and print the tables of bench/README.md.

Usage (from the repository root):

    python3 bench/baseline.py [--tier1]

Runs the command of BENCHMARK.json on every workload in two sets of ten
untraced runs (seeds 1..10, then 11..20), as a check of the bounds compares
two sets.  Every seed of the first set also gets a traced run, back to back
with its untraced run and alternating which goes first, so that the tracing
overhead is a median of paired ratios and not a difference between two
phases of the machine.  Prints each end-to-end metric's median,
quartiles and spread (q3 - q1 as a share of the median, next to a third of
the metric's bound) in both sets, the operations attempted and failed, the
median per-layer metrics, the tracing overhead per command and the machine.
``--tier1`` also times the Tier-1 test suite once.  Everything is written to
bench/out/baseline.json as well.
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

ROOT = Path(__file__).resolve().parents[1]
SEEDS = 10  # untraced runs per set
SETS = 2


def _run(bench, workload, seed, trace):
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True,
                          timeout=200)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / f"bench/out/{workload}/run-seed{seed}-trace{trace}.json").read_text())
    print(f"{workload} seed {seed} trace {trace}: {time.perf_counter() - t0:.0f} s, "
          f"{summary['attempted']} attempted, {summary['failed']} failed, "
          f"correct={summary['correct']}", file=sys.stderr)
    return summary, record


def _stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def _workload(bench, wl):
    sets, traced, pairs = [[] for _ in range(SETS)], [], []
    for k in range(SETS):
        for seed in range(k * SEEDS + 1, (k + 1) * SEEDS + 1):
            if k == 0:  # paired with a traced run
                first, second = (0, 1) if seed % 2 else (1, 0)
                runs = {first: _run(bench, wl, seed, first),
                        second: _run(bench, wl, seed, second)}
                traced.append(runs[1])
                pairs.append((runs[0][1], runs[1][1]))
                sets[k].append(runs[0])
            else:
                sets[k].append(_run(bench, wl, seed, 0))
    plain = [run for runs in sets for run in runs]
    res = {
        "machine": plain[0][1]["machine"],
        "blas_threads": plain[0][1]["blas_threads"],
        "attempted_failed": sorted({(s["attempted"], s["failed"]) for s, _ in plain}),
        "correct": all(s["correct"] for s, _ in plain + traced),
        "end_to_end": {
            m["name"]: [_stats([s["metrics"][m["name"]]["value"] for s, _ in runs])
                        for runs in sets]
            for m in bench["end_to_end"]},
        "per_layer": {
            m["name"]: statistics.median(s["metrics"][m["name"]]["value"] for s, _ in traced)
            for m in bench["per_layer"]},
        "tracing_overhead": {
            op: statistics.median(t["op_means"][op] / u["op_means"][op] - 1 for u, t in pairs)
            for op in plain[0][1]["op_means"]},
    }
    return res


def _lines(bench, wl, res):
    lines = [f"\n### {wl}\n", f"All runs correct: {res['correct']}. "
             f"(attempted, failed) per run: {res['attempted_failed']}.\n",
             "| metric | unit | set 1 median | q1 | q3 | spread | set 2 median | spread "
             "| median change | bound/3 |",
             "|---|---|---|---|---|---|---|---|---|---|"]
    for m in bench["end_to_end"]:
        a, b = res["end_to_end"][m["name"]]
        lines.append(f"| {m['name']} | {m['unit']} | {a['median']:.4g} | {a['q1']:.4g} "
                     f"| {a['q3']:.4g} | {a['spread']:.2%} | {b['median']:.4g} "
                     f"| {b['spread']:.2%} | {b['median'] / a['median'] - 1:+.2%} "
                     f"| {m['bound'] / 3:.2%} |")
    lines += ["", "| per-layer metric | unit | median of traced runs |", "|---|---|---|"]
    for m in bench["per_layer"]:
        lines.append(f"| {m['name']} | {m['unit']} | {res['per_layer'][m['name']]:.4g} |")
    lines += ["", "| command | tracing overhead (median of paired runs) |", "|---|---|"]
    for op, overhead in res["tracing_overhead"].items():
        lines.append(f"| {op} | {overhead:+.1%} |")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tier1", action="store_true")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"command": bench["command"], "run_seconds": bench["run_seconds"], "workloads": {}}
    lines = []
    for wl in (w["name"] for w in bench["workloads"]):
        res = out["workloads"][wl] = _workload(bench, wl)
        lines += _lines(bench, wl, res)
    if args.tier1:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
            cwd=ROOT, env=env, capture_output=True, text=True)
        out["tier1"] = {"seconds": time.perf_counter() - t0,
                        "summary": proc.stdout.strip().splitlines()[-1]}
        lines.append(f"\nTier-1 suite: {out['tier1']['summary']} "
                     f"({out['tier1']['seconds']:.0f} s wall)")
    first = next(iter(out["workloads"].values()))
    lines.append(f"\nMachine: {first['machine']}, BLAS threads {first['blas_threads']}")
    (ROOT / "bench/out").mkdir(exist_ok=True)
    (ROOT / "bench/out/baseline.json").write_text(json.dumps(out, indent=1))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
