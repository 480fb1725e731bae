"""The benchmark's workloads: the README CLI commands at two ensemble sizes.

A workload is a list of operations, each one ``wishartmin`` command line.
The benchmark seed moves the grid end points and the ``sample`` seed; the
``verify`` seed is fixed at the README's 7 because a KS test at alpha=0.01
rejects 1 in 100 seeds of a correct program, and a seed-dependent failure
would change the failed share from run to run.  ``exact-tail`` is fixed
too: it is the one operation expected to fail, on every seed (see
``KNOWN_FAULT``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

BENCH10 = (0.6, 1.2, 6.7, 9.3, 10.5, 15.5, 17.2, 20.25, 30.1, 35.4)
TWO_POINT = (1.0,) * 100 + (4.0,) * 100

VERIFY_SEED = 7

KNOWN_FAULT = (
    "ExactLaw.density_detailed cancels r*E - term2 where E(t) is within ~1e-6 "
    "of 1 and clamps negatives to 0"
)


@dataclass(frozen=True)
class Op:
    """One CLI command; ``kind`` selects the output checks."""

    name: str
    kind: str  # exact | micro | sample | verify
    argv: tuple
    outputs: tuple
    params: dict = field(default_factory=dict)
    known_fault: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    beta: int
    p: int
    n: int
    lambdas: tuple
    micro_gamma: int
    spectrum_file: str
    ops: tuple


def _jitter(rng: random.Random, value: float, rel: float) -> float:
    return value * (1.0 + rel * (2.0 * rng.random() - 1.0))


def _exact_op(name, wl_args, spectrum, out, t_min, t_max, steps, known_fault=None):
    argv = ("exact", *wl_args, "--spectrum", spectrum, "--t-min", repr(t_min),
            "--t-max", repr(t_max), "--t-steps", str(steps), "--out", out)
    return Op(name, "exact", argv, (out,), known_fault=known_fault)


def _micro_op(beta, gamma, out, u_min, u_max, steps):
    argv = ("micro", "--beta", str(beta), "--gamma", str(gamma), "--u-min", repr(u_min),
            "--u-max", repr(u_max), "--u-steps", str(steps), "--out", out)
    return Op("micro", "micro", argv, (out,))


def _sample_op(wl_args, spectrum, out, count, seed):
    argv = ("sample", *wl_args, "--spectrum", spectrum, "--count", str(count),
            "--seed", str(seed), "--out", out)
    return Op("sample", "sample", argv, (out, out + ".meta.json"), {"count": count})


def _verify_op(wl_args, spectrum, out, mode, count):
    argv = ("verify", "--mode", mode, *wl_args, "--spectrum", spectrum, "--count", str(count),
            "--seed", str(VERIFY_SEED), "--alpha", "0.01", "--out", out)
    return Op("verify", "verify", argv, (out, out + ".hist.csv"), {"mode": mode, "count": count})


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` with its inputs drawn from ``seed``."""
    rng = random.Random(seed)
    out = f"bench/out/{name}"
    spectrum = f"{out}/spectrum.txt"
    if name == "real-p10":
        wl = ("--beta", "1", "--p", "10", "--n", "21")
        ops = (
            # the exact grid spans the law's support from CDF ~1e-5 to 1 - 1e-6
            _exact_op("exact", wl, spectrum, f"{out}/exact.csv",
                      _jitter(rng, 0.5, 0.1), _jitter(rng, 24.0, 0.05), 11),
            # fixed at the CLI's default u-max 40: beyond u ~ 100 at beta=1,
            # gamma=5 the hard-edge law loses accuracy (FOUND in CHANGES.md)
            _micro_op(1, 5, f"{out}/micro.csv", 20.0, 40.0, 11),
            _sample_op(wl, spectrum, f"{out}/sample.csv", 5000, seed),
            _verify_op(wl, spectrum, f"{out}/verify.json", "exact", 2000),
            # left tail, 1 - E(t) from 1e-19 to 5e-8; independent of the seed
            _exact_op("exact-tail", wl, spectrum, f"{out}/exact_tail.csv",
                      0.002, 0.2, 7, known_fault=KNOWN_FAULT),
        )
        return Workload(name, 1, 10, 21, BENCH10, 5, spectrum, ops)
    if name == "complex-p200":
        wl = ("--beta", "2", "--p", "200", "--n", "202")
        ops = (
            _exact_op("exact", wl, spectrum, f"{out}/exact.csv",
                      _jitter(rng, 5e-4, 0.1), _jitter(rng, 0.2, 0.05), 51),
            _micro_op(2, 2, f"{out}/micro.csv",
                      _jitter(rng, 0.01, 0.1), _jitter(rng, 100.0, 0.05), 801),
            _sample_op(wl, spectrum, f"{out}/sample.csv", 40, seed),
            _verify_op(wl, spectrum, f"{out}/verify.json", "micro", 100),
        )
        return Workload(name, 2, 200, 202, TWO_POINT, 2, spectrum, ops)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("real-p10", "complex-p200")
