"""Tests of the mpmath oracle against closed forms and against itself.

Run with ``python3 -m pytest bench/test_oracle.py``.
"""

import math

import mpmath
import pytest

from oracle import ExactOracle, MicroOracle
from workloads import BENCH10, TWO_POINT


def rel(a, b):
    with mpmath.workdps(100):
        return float(abs(a - b) / abs(b))


@pytest.mark.parametrize("beta, n", [(1, 4), (2, 3)])
@pytest.mark.parametrize("t", [0.3, 2.0])
def test_gamma0_is_exponential(beta, n, t):
    lams = (1.0, 2.0, 4.0)
    rate = beta / 2 * sum(1 / v for v in lams)
    gap, density = ExactOracle(lams, beta, n).evaluate(t)
    assert rel(gap, math.exp(-rate * t)) < 1e-15
    assert rel(density, rate * math.exp(-rate * t)) < 1e-15


@pytest.mark.parametrize("beta", [1, 2])
def test_micro_gamma0_is_exponential(beta):
    gap, pmin = MicroOracle(beta, 0).evaluate(3.0)
    assert rel(gap, math.exp(-beta * 3.0 / 8)) < 1e-15
    assert rel(pmin, beta / 8 * math.exp(-beta * 3.0 / 8)) < 1e-15


@pytest.mark.parametrize("lam", [1.0, 2.5])
@pytest.mark.parametrize("t", [0.01, 1.0, 7.5])
def test_complex_p1_n2_is_gamma2(lam, t):
    # |w_1|^2 + |w_2|^2 with E|w|^2 = lam: Gamma(2, lam), tail (1 + t/lam) e^(-t/lam)
    gap, density = ExactOracle((lam,), 2, 2).evaluate(t)
    with mpmath.workdps(50):
        s = mpmath.mpf(t) / lam
        assert rel(gap, (1 + s) * mpmath.exp(-s)) < 1e-40
        assert rel(density, s / lam * mpmath.exp(-s)) < 1e-40


def test_gamma2_median():
    median = ExactOracle((1.0,), 2, 2).quantile(0.5, guess=1.0)
    assert median == pytest.approx(1.6783469900166608, rel=1e-12)


@pytest.mark.parametrize("lams, beta, n", [(BENCH10, 1, 21), (TWO_POINT, 2, 202)])
def test_benchmark_laws_are_normalized(lams, beta, n):
    assert rel(ExactOracle(lams, beta, n).evaluate(0.0)[0], 1) < 1e-40


@pytest.mark.parametrize("lams, beta, n, ts", [
    (BENCH10, 1, 21, (0.002, 1.0, 10.0)),
    (TWO_POINT, 2, 202, (5e-4, 0.05, 0.2)),
])
def test_exact_agrees_with_higher_precision(lams, beta, n, ts):
    lo, hi = ExactOracle(lams, beta, n, dps=50), ExactOracle(lams, beta, n, dps=80)
    for t in ts:
        for a, b in zip(lo.evaluate(t), hi.evaluate(t)):
            assert rel(a, b) < 1e-25


@pytest.mark.parametrize("beta, gamma, us", [(1, 5, (0.01, 30.0, 400.0)), (2, 2, (0.01, 40.0))])
def test_micro_agrees_with_higher_precision(beta, gamma, us):
    lo, hi = MicroOracle(beta, gamma, dps=50), MicroOracle(beta, gamma, dps=80)
    for u in us:
        for a, b in zip(lo.evaluate(u), hi.evaluate(u)):
            assert rel(a, b) < 1e-25


def test_densities_are_central_differences():
    # Jacobi's formula against a central difference of the gap at 80 digits
    h = mpmath.mpf(10) ** -20
    for oracle, x in ((ExactOracle(BENCH10, 1, 21, dps=80), 3), (MicroOracle(1, 5, dps=80), 30)):
        with mpmath.workdps(80):
            slope = (oracle.evaluate(x + h)[0] - oracle.evaluate(x - h)[0]) / (2 * h)
            assert rel(oracle.evaluate(x)[1], -slope) < 1e-30
