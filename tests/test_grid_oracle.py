"""Grid engines of the exact and hard-edge laws against the mpmath oracle.

The oracle in ``bench/oracle.py`` is written from the formulas alone and
evaluates at 50 digits; it is imported here read-only.  Each case checks
the relative error of the gap and the density on a grid spanning the
law's support, and that every element of an array call is bit-identical
to the 1-point call at the same position.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("mpmath")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from oracle import ExactOracle, MicroOracle  # noqa: E402

from wishartmin.exactlaw import ExactLaw  # noqa: E402
from wishartmin.microlaw import make_micro_config, micro_gap, micro_pmin  # noqa: E402
from wishartmin.spectra import EmpiricalSpectrum, make_config  # noqa: E402

from conftest import BENCH10_SPECTRUM  # noqa: E402

TWO_POINT_P200 = (1.0,) * 100 + (4.0,) * 100

# (lambdas, beta, n, t grid, gap rtol, pmin rtol)
EXACT_CASES = {
    # CDF 1 - E(t) runs from 9e-6 at t=0.5 to 1 - 9e-7 at t=24
    "real-p10": (BENCH10_SPECTRUM, 1, 21, np.geomspace(0.5, 24.0, 9), 1e-8, 1e-7),
    # kernel dimension 10 from CDF 8e-10 at t=0.1, where the density's
    # cancellation E * (r - tr(Q^-1 Q')/2) costs ~7.5 digits, to the right tail
    "real-p10-sweep": (BENCH10_SPECTRUM, 1, 21, np.linspace(0.1, 24.0, 60), 1e-8, 1e-6),
    "complex-p200": (TWO_POINT_P200, 2, 202, np.geomspace(4.5e-4, 0.21, 9), 1e-8, 1e-8),
}

# (beta, gamma, u grid, gap rtol, pmin rtol)
MICRO_CASES = {
    "beta1-gamma5": (1, 5, np.linspace(20.0, 40.0, 9), 1e-8, 3e-7),
    "beta2-gamma2": (2, 2, np.geomspace(0.009, 105.0, 9), 1e-10, 1e-8),
}


def rel(value, truth):
    return float(abs(value - truth) / abs(truth))


@pytest.fixture(scope="module", params=sorted(EXACT_CASES))
def exact_case(request):
    lams, beta, n, ts, gap_tol, pmin_tol = EXACT_CASES[request.param]
    law = ExactLaw(EmpiricalSpectrum(lams), make_config(beta, len(lams), n))
    oracle = ExactOracle(lams, beta, n)
    return law, oracle, ts, gap_tol, pmin_tol


@pytest.fixture(scope="module", params=sorted(MICRO_CASES))
def micro_case(request):
    beta, gamma, us, gap_tol, pmin_tol = MICRO_CASES[request.param]
    return make_micro_config(beta, gamma), MicroOracle(beta, gamma), us, gap_tol, pmin_tol


def test_exact_grid_matches_oracle(exact_case):
    law, oracle, ts, gap_tol, pmin_tol = exact_case
    gaps, pmins = law.gap_grid(ts), law.density_grid(ts)
    for t, gap, pmin in zip(ts, gaps, pmins):
        true_gap, true_pmin = oracle.evaluate(t)
        assert rel(gap, true_gap) <= gap_tol, f"gap at t={t}"
        assert rel(pmin, true_pmin) <= pmin_tol, f"pmin at t={t}"


def test_exact_grid_elements_equal_one_point_calls(exact_case):
    law, _, ts, _, _ = exact_case
    gaps, pmins = law.gap_grid(ts), law.density_grid(ts)
    for k, t in enumerate(ts):
        assert gaps[k] == law.gap_grid(np.array([t]))[0]
        assert gaps[k] == law.gap(float(t))
        assert pmins[k] == law.density(float(t))
        assert pmins[k] == law.density_detailed(float(t))


def test_micro_grid_matches_oracle(micro_case):
    micro, oracle, us, gap_tol, pmin_tol = micro_case
    gaps, pmins = micro_gap(us, micro), micro_pmin(us, micro)
    for u, gap, pmin in zip(us, gaps, pmins):
        true_gap, true_pmin = oracle.evaluate(u)
        assert rel(gap, true_gap) <= gap_tol, f"gap at u={u}"
        assert rel(pmin, true_pmin) <= pmin_tol, f"pmin at u={u}"


def test_micro_grid_elements_equal_one_point_calls(micro_case):
    micro, _, us, _, _ = micro_case
    gaps, pmins = micro_gap(us, micro), micro_pmin(us, micro)
    assert isinstance(gaps, np.ndarray) and isinstance(pmins, np.ndarray)
    for k, u in enumerate(us):
        gap, pmin = micro_gap(float(u), micro), micro_pmin(float(u), micro)
        assert isinstance(gap, float) and isinstance(pmin, float)
        assert gaps[k] == gap
        assert pmins[k] == pmin


def test_exact_density_at_t_zero_reads_constant_coefficients():
    # Gamma(2, 1): E(t) = (1 + t) exp(-t) and P(t) = t exp(-t), so P(0) = 0
    # and E(0) = 1 come from the constant kernel coefficients alone
    law = ExactLaw(EmpiricalSpectrum((1.0,)), make_config(2, 1, 2))
    assert law.gap_grid(np.array([0.0]))[0] == 1.0
    assert law.density_grid(np.array([0.0, 1.0])).tolist() == pytest.approx(
        [0.0, np.exp(-1.0)], rel=1e-14, abs=1e-300
    )
