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
every ``ValueError`` (a check of this module, an unreadable or unwritable
file, or an input the library rejects, such as a grid point below 0 or a
spectrum that is not ``--p`` long), ``ArithmeticError`` (an input that
overflows the numerics) and ``MemoryError`` (a grid or batch too large to
allocate) to exit 2.
``verify`` builds its law, the hard-edge rescale factor and the KS
threshold, and allocates the histogram's bin edges, before it draws the
batch, so bad input exits before the sampling it would waste.
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
from .microlaw import make_micro_config, micro_curve, micro_gap, micro_pmin, micro_rescale
from .sampler import batch_csv_text, batch_metadata, sample_batch
from .spectra import load_spectrum, make_config
from .stats import build_histogram, ks_statistic, ks_threshold

__all__ = ["main", "build_parser"]


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
    p_micro.add_argument("--u-min", type=float, default=0.0)
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
            raise ValueError(f"cannot write {path}: {exc}") from exc
        raise


def _command_line(argv) -> str:
    return "wishartmin " + " ".join(shlex.quote(a) for a in argv)


def _load_inputs(args):
    try:
        spectrum = load_spectrum(args.spectrum)
    except OSError as exc:
        raise ValueError(f"cannot read spectrum file: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"bad spectrum file {args.spectrum}: {exc}") from exc
    return spectrum, make_config(args.beta, args.p, args.n)


def _grid(lo: float, hi: float, steps: int, name: str) -> np.ndarray:
    if steps < 2:
        raise ValueError(f"--{name}-steps must be at least 2, got {steps}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"--{name}-min and --{name}-max must be finite, got [{lo}, {hi}]")
    if not lo < hi:
        raise ValueError(f"--{name}-min must be below --{name}-max, got [{lo}, {hi}]")
    if not math.isfinite(hi - lo):
        raise ValueError(f"--{name}-max minus --{name}-min must be finite, got [{lo}, {hi}]")
    return np.linspace(lo, hi, steps)


def _write_csv(path: str, argv, header: str, columns):
    """Float columns as CSV rows under the ``# command:`` line and ``header``."""
    lines = [f"# command: {_command_line(argv)}", header]
    # tolist() gives Python floats: a numpy scalar's repr is not a plain number
    for row in zip(*(c.tolist() for c in columns)):
        lines.append(",".join(repr(v) for v in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def cmd_exact(args, argv) -> int:
    spectrum, config = _load_inputs(args)
    ts = _grid(args.t_min, args.t_max, args.t_steps, "t")
    columns = [ts, *ExactLaw(spectrum, config).curve(ts)]
    header = "t,gap,pmin"
    if args.c_normalization:
        header += ",t_over_n"
        columns.append(ts / config.n)
    _write_csv(args.out, argv, header, columns)
    return 0


def cmd_micro(args, argv) -> int:
    micro = make_micro_config(args.beta, args.gamma)
    us = _grid(args.u_min, args.u_max, args.u_steps, "u")
    _write_csv(args.out, argv, "u,gap,pmin", [us, *micro_curve(us, micro)])
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
        raise ValueError(f"--bins must be at least 1, got {args.bins}")
    if args.count < 2:
        raise ValueError(f"--count must be at least 2 to build a histogram, got {args.count}")
    spectrum, config = _load_inputs(args)
    law_config = config if args.law_n is None else make_config(args.beta, args.p, args.law_n)
    if args.mode == "exact":
        law = ExactLaw(spectrum, law_config)
        gap_at, density_at, scale = law.gap_grid, law.density_grid, 1.0
    else:
        micro = make_micro_config(law_config.beta, law_config.gamma)
        gap_at = lambda us: micro_gap(us, micro)  # noqa: E731
        density_at = lambda us: micro_pmin(us, micro)  # noqa: E731
        scale = micro_rescale(1.0, spectrum, config)
    threshold, note = ks_threshold(args.alpha, args.count, args.ks_threshold)
    # the histogram's bin edges, allocated before the batch is drawn: a --bins
    # too large for memory fails (MemoryError, exit 2) without the sampling
    np.empty(args.bins + 1)
    batch = sample_batch(spectrum, config, args.count, args.seed)
    positions = batch.values * scale
    cdf_vals = 1.0 - gap_at(positions)
    report = ks_statistic(positions, cdf_vals, alpha=args.alpha, threshold=threshold)
    hist = build_histogram(positions, args.bins)
    lefts, rights = hist.edges[:-1], hist.edges[1:]
    _write_csv(args.out + ".hist.csv", argv, "bin_left,bin_right,density,analytic_pmin",
               [lefts, rights, hist.densities, density_at(0.5 * (lefts + rights))])

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
        if args.mode == "micro":
            note += (f": the reference law is a limiting law and carries finite-size bias "
                     f"at p={config.p}")
        doc["threshold_note"] = note
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
    except (ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
