import math
import signal
from fractions import Fraction

import pytest

from wishartmin.numerics import (
    SLOG_ONE,
    SignedLog,
    bessel_i,
    signedlog_from_float,
    signedlog_to_float,
)

from oracles import QuadratureError, adaptive_quadrature, fraction_bessel_i


class TestSignedLog:
    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            SignedLog(2, 0.5, 1)

    def test_overflow_to_float_is_inf(self):
        assert signedlog_to_float(SignedLog.from_logmag(1, 1e4)) == math.inf
        assert signedlog_to_float(SignedLog.from_logmag(-1, 1e4)) == -math.inf

    def test_logmag_roundtrip(self):
        a = SignedLog.from_logmag(1, 2.3)
        assert a.logmag == pytest.approx(2.3, abs=1e-14)


class TestBesselI:
    def test_at_zero(self):
        assert bessel_i(0, 0.0) == 1.0
        assert bessel_i(3, 0.0) == 0.0

    def test_negative_order_symmetry(self):
        assert bessel_i(-3, 2.5) == bessel_i(3, 2.5)

    def test_i1_at_1_against_series_oracle(self):
        want = float(fraction_bessel_i(1, Fraction(1), terms=40))
        assert bessel_i(1, 1.0) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
    def test_three_term_recurrence(self, x):
        for nu in range(1, 13):
            lhs = bessel_i(nu - 1, x) - bessel_i(nu + 1, x) - (2 * nu / x) * bessel_i(nu, x)
            assert abs(lhs) < 1e-10 * bessel_i(nu - 1, x)

    @pytest.mark.parametrize("nu", [0, 1, 4, 9])
    def test_strictly_increasing_in_x(self, nu):
        xs = [0.1 * k for k in range(1, 120)]
        vals = [bessel_i(nu, x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            bessel_i(0, -1.0)

    def test_rejects_huge_order(self):
        with pytest.raises(ValueError):
            bessel_i(65, 1.0)

    def test_overflowing_series_raises_within_a_second(self):
        # the partial sum overflows near x = 713; an overflowed sum must end
        # the loop instead of spinning forever on inf
        def timeout(signum, frame):
            raise TimeoutError("bessel_i(0, 1500.0) still running after 1 s")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            with pytest.raises(ValueError, match="x = 1500.0"):
                bessel_i(0, 1500.0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


class TestAdaptiveQuadrature:
    """The quadrature instrument of tests/oracles.py (acceptance criterion 4)."""

    def test_linear_is_exact(self):
        assert adaptive_quadrature(lambda x: x, 0.0, 1.0, 1e-12) == pytest.approx(0.5, abs=1e-15)

    def test_exponential(self):
        got = adaptive_quadrature(lambda x: math.exp(-x), 0.0, 40.0, 1e-10)
        assert got == pytest.approx(1.0 - math.exp(-40.0), abs=1e-10)

    def test_oscillatory(self):
        got = adaptive_quadrature(math.sin, 0.0, math.pi, 1e-11)
        assert got == pytest.approx(2.0, abs=1e-10)

    def test_depth_cap_reported(self):
        with pytest.raises(QuadratureError):
            adaptive_quadrature(lambda x: x ** -0.5, 1e-280, 1.0, 1e-14)

    def test_validates_bounds_and_tol(self):
        with pytest.raises(ValueError):
            adaptive_quadrature(lambda x: x, 1.0, 0.0, 1e-8)
        with pytest.raises(ValueError):
            adaptive_quadrature(lambda x: x, 0.0, 1.0, 0.0)

    def test_rejects_non_finite_integrand(self):
        with pytest.raises(ValueError):
            adaptive_quadrature(lambda x: math.inf, 0.0, 1.0, 1e-8)


def test_slog_one_is_unit():
    assert SLOG_ONE == signedlog_from_float(1.0)
    assert signedlog_to_float(SLOG_ONE) == 1.0

