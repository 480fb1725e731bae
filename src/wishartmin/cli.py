"""Command-line interface: plot-ready curves, sample batches, verification runs.

Subcommands
    exact   exact gap probability and density on a t grid -> CSV t,gap,pmin
    micro   hard-edge limit on a u grid                    -> CSV u,gap,pmin
    sample  seeded Monte Carlo batch                       -> CSV + metadata JSON
    verify  KS comparison of a batch against the law       -> JSON report + histogram CSV

Every output starts with a ``# command:`` comment holding the exact
invocation, contains no timestamps, and is written atomically (temp file +
rename), so identical invocations produce byte-identical files.  Exit codes:
0 success, 1 verification failure, 2 usage or input error.  ``main`` maps
every ``CliError`` (a check of this module), ``ValueError`` (an input the
library rejects) and ``ArithmeticError`` (an input that overflows the
numerics) to exit 2.  ``verify`` builds its law and KS threshold before it
draws the batch, so bad input exits before the sampling it would waste.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import sys

import numpy as np

from .exactlaw import ExactLaw
from .microlaw import (
    make_micro_config,
    micro_gap,
    micro_pmin,
    micro_rescale,
)
from .sampler import batch_csv_text, batch_metadata, sample_batch
from .spectra import load_spectrum, make_config
from .stats import build_histogram, ks_statistic, ks_threshold

__all__ = ["main", "build_parser"]

DEFAULT_U_MIN = 1e-3


class CliError(Exception):
    """Input or usage problem; maps to exit code 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wishartmin",
        description="Smallest-eigenvalue distributions of correlated Wishart matrices.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_ensemble_flags(p):
        p.add_argument("--beta", type=int, required=True, choices=(1, 2))
        p.add_argument("--p", type=int, required=True, help="number of rows (time series)")
        p.add_argument("--n", type=int, required=True, help="number of columns (time steps)")
        p.add_argument(
            "--spectrum", required=True,
            help="file with one positive eigenvalue per line; '#' comments allowed",
        )

    p_exact = sub.add_parser("exact", help="exact finite-size law on a t grid")
    add_ensemble_flags(p_exact)
    p_exact.add_argument("--t-min", type=float, default=0.0)
    p_exact.add_argument("--t-max", type=float, required=True)
    p_exact.add_argument("--t-steps", type=int, default=400)
    p_exact.add_argument(
        "--c-normalization", action="store_true",
        help="add a t_over_n column for users of the C = WW^dag/n convention",
    )
    p_exact.add_argument("--out", required=True)

    p_micro = sub.add_parser("micro", help="universal hard-edge law on a u grid")
    p_micro.add_argument("--beta", type=int, required=True, choices=(1, 2))
    p_micro.add_argument("--gamma", type=int, required=True)
    p_micro.add_argument("--u-min", type=float, default=DEFAULT_U_MIN)
    p_micro.add_argument("--u-max", type=float, default=40.0)
    p_micro.add_argument("--u-steps", type=int, default=400)
    p_micro.add_argument("--out", required=True)

    p_sample = sub.add_parser("sample", help="seeded Monte Carlo batch of lambda_min")
    add_ensemble_flags(p_sample)
    p_sample.add_argument("--count", type=int, default=50000)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="KS test of a batch against the analytic law")
    add_ensemble_flags(p_verify)
    p_verify.add_argument("--mode", required=True, choices=("exact", "micro"))
    p_verify.add_argument("--count", type=int, default=50000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--bins", type=int, default=60)
    p_verify.add_argument("--alpha", type=float, default=0.01)
    p_verify.add_argument(
        "--ks-threshold", type=float, default=None,
        help="override the alpha-based KS threshold (e.g. to absorb known "
        "finite-size bias against the limiting law); recorded in the report",
    )
    p_verify.add_argument(
        "--law-n", type=int, default=None,
        help="build the analytic law with this n instead of --n "
        "(negative-control self-test: a mismatched law must fail)",
    )
    p_verify.add_argument("--out", required=True)

    return parser


def _write_atomic(path: str, text: str):
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise CliError(f"cannot write {path}: {exc}") from exc
        raise


def _command_line(argv) -> str:
    return "wishartmin " + " ".join(shlex.quote(a) for a in argv)


def _load_inputs(args):
    try:
        spectrum = load_spectrum(args.spectrum)
    except OSError as exc:
        raise CliError(f"cannot read spectrum file: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"bad spectrum file {args.spectrum}: {exc}") from exc
    config = make_config(args.beta, args.p, args.n)
    if spectrum.p != config.p:
        raise CliError(
            f"spectrum file has {spectrum.p} eigenvalues but --p is {config.p}"
        )
    return spectrum, config


def _grid(lo: float, hi: float, steps: int, name: str) -> np.ndarray:
    if steps < 2:
        raise CliError(f"--{name}-steps must be at least 2, got {steps}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CliError(f"--{name}-min and --{name}-max must be finite, got [{lo}, {hi}]")
    if not lo < hi:
        raise CliError(f"--{name}-min must be below --{name}-max, got [{lo}, {hi}]")
    return np.linspace(lo, hi, steps)


def cmd_exact(args, argv) -> int:
    spectrum, config = _load_inputs(args)
    if args.t_min < 0:
        raise CliError(f"--t-min must be non-negative, got {args.t_min}")
    ts = _grid(args.t_min, args.t_max, args.t_steps, "t")
    law = ExactLaw(spectrum, config)
    gaps = law.gap_grid(ts)
    pmins = law.density_grid(ts)
    lines = [f"# command: {_command_line(argv)}"]
    header = "t,gap,pmin"
    if args.c_normalization:
        header += ",t_over_n"
    lines.append(header)
    for t, gap, pmin in zip(ts.tolist(), gaps.tolist(), pmins.tolist()):
        row = f"{t!r},{gap!r},{pmin!r}"
        if args.c_normalization:
            row += f",{t / config.n!r}"
        lines.append(row)
    _write_atomic(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_micro(args, argv) -> int:
    micro = make_micro_config(args.beta, args.gamma)
    u_min = args.u_min
    if u_min <= 0.0:
        print(
            f"warning: --u-min {u_min} is outside the law's domain; "
            f"clamped to {DEFAULT_U_MIN}",
            file=sys.stderr,
        )
        u_min = DEFAULT_U_MIN
    us = _grid(u_min, args.u_max, args.u_steps, "u")
    gaps = micro_gap(us, micro)
    pmins = micro_pmin(us, micro)
    lines = [f"# command: {_command_line(argv)}", "u,gap,pmin"]
    for u, gap, pmin in zip(us.tolist(), gaps.tolist(), pmins.tolist()):
        lines.append(f"{u!r},{gap!r},{pmin!r}")
    _write_atomic(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_sample(args, argv) -> int:
    spectrum, config = _load_inputs(args)
    batch = sample_batch(spectrum, config, args.count, args.seed)
    text = f"# command: {_command_line(argv)}\n" + batch_csv_text(batch)
    _write_atomic(args.out, text)
    meta = batch_metadata(batch)
    meta["command"] = _command_line(argv)
    _write_atomic(args.out + ".meta.json", json.dumps(meta, indent=2) + "\n")
    return 0


def cmd_verify(args, argv) -> int:
    if args.bins < 1:
        raise CliError(f"--bins must be at least 1, got {args.bins}")
    if args.count < 2:
        raise CliError(f"--count must be at least 2 to build a histogram, got {args.count}")
    spectrum, config = _load_inputs(args)
    law_config = config if args.law_n is None else make_config(args.beta, args.p, args.law_n)
    if args.mode == "exact":
        law = ExactLaw(spectrum, law_config)
        density_grid = law.density_grid
    else:
        micro = make_micro_config(law_config.beta, law_config.gamma)
        density_grid = lambda us: micro_pmin(us, micro)  # noqa: E731
    threshold, note = ks_threshold(args.alpha, args.count, args.ks_threshold)
    batch = sample_batch(spectrum, config, args.count, args.seed)
    if args.mode == "exact":
        positions = batch.values
        cdf_vals = 1.0 - law.gap_grid(positions)
    else:
        positions = micro_rescale(batch.values, spectrum, config)
        cdf_vals = 1.0 - micro_gap(positions, micro)

    report = ks_statistic(positions, cdf_vals, alpha=args.alpha, threshold=threshold)
    hist = build_histogram(positions, args.bins)
    lefts, rights = hist.edges[:-1], hist.edges[1:]
    analytic = density_grid(0.5 * (lefts + rights))
    hist_lines = [f"# command: {_command_line(argv)}", "bin_left,bin_right,density,analytic_pmin"]
    # tolist() gives Python floats: a numpy scalar's repr is not a plain number
    for row in zip(lefts.tolist(), rights.tolist(), hist.densities.tolist(), analytic.tolist()):
        hist_lines.append(",".join(repr(v) for v in row))
    _write_atomic(args.out + ".hist.csv", "\n".join(hist_lines) + "\n")

    doc = report.to_json()
    doc.update(
        {
            "mode": args.mode,
            "beta": config.beta,
            "p": config.p,
            "n": config.n,
            "gamma": law_config.gamma,
            "count": batch.count,
            "seed": batch.seed,
            "spectrum_hash": batch.spectrum_hash,
            "command": _command_line(argv),
        }
    )
    if args.law_n is not None:
        doc["law_n"] = args.law_n
    if note is not None:
        doc["threshold_note"] = (
            f"{note}: the reference law is a limiting law and carries finite-size bias "
            f"at p={config.p}"
        )
    _write_atomic(args.out, json.dumps(doc, indent=2) + "\n")
    status = "pass" if report.passed else "FAIL"
    print(
        f"{status}: KS D = {report.statistic:.6f}, threshold = {report.threshold:.6f}, "
        f"n = {report.n} -> {args.out}"
    )
    return 0 if report.passed else 1


_COMMANDS = {
    "exact": cmd_exact,
    "micro": cmd_micro,
    "sample": cmd_sample,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args, argv)
    except (CliError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
