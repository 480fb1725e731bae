import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wishartmin.numerics import (
    SLOG_ONE,
    SLOG_ZERO,
    SignedLog,
    bessel_i,
    log_factorial,
    signedlog_add,
    signedlog_from_float,
    signedlog_mul,
    signedlog_to_float,
)

from oracles import QuadratureError, adaptive_quadrature, decimal_log_factorial, fraction_bessel_i


finite_floats = st.floats(
    min_value=1e-100, max_value=1e100, allow_nan=False, allow_infinity=False
)
signed_floats = st.one_of(finite_floats, finite_floats.map(lambda x: -x))


class TestSignedLog:
    def test_add_positive(self):
        a = signedlog_from_float(2.0)
        b = signedlog_from_float(3.0)
        c = signedlog_add(a, b)
        assert c.sign == 1
        assert c.logmag == pytest.approx(math.log(5.0), rel=1e-15)

    def test_exact_cancellation_is_zero(self):
        a = SignedLog.from_logmag(1, math.log(7.0))
        b = SignedLog.from_logmag(-1, math.log(7.0))
        assert signedlog_add(a, b) == SLOG_ZERO

    def test_zero_is_identity(self):
        a = signedlog_from_float(-1.25)
        assert signedlog_add(a, SLOG_ZERO) == a
        assert signedlog_add(SLOG_ZERO, a) == a

    @given(signed_floats, signed_floats)
    def test_add_matches_direct_arithmetic(self, x, y):
        s = x + y
        got = signedlog_to_float(signedlog_add(signedlog_from_float(x), signedlog_from_float(y)))
        if s == 0.0:
            assert got == 0.0
        elif abs(s) > 1e-13 * max(abs(x), abs(y)):
            # away from catastrophic cancellation the float result is reliable
            assert got == pytest.approx(s, rel=1e-13)

    @given(signed_floats, signed_floats)
    def test_mul_matches_direct_arithmetic(self, x, y):
        got = signedlog_mul(signedlog_from_float(x), signedlog_from_float(y))
        want = x * y
        assert got.sign == (1 if want > 0 else -1)
        assert got.logmag == pytest.approx(math.log(abs(want)), abs=1e-13)

    @given(signed_floats, signed_floats, signed_floats)
    def test_mul_associative_commutative(self, x, y, z):
        a, b, c = map(signedlog_from_float, (x, y, z))
        lhs = signedlog_mul(signedlog_mul(a, b), c)
        rhs = signedlog_mul(a, signedlog_mul(b, c))
        assert lhs.sign == rhs.sign
        assert lhs.logmag == pytest.approx(rhs.logmag, rel=1e-13, abs=1e-13)
        assert signedlog_mul(a, b) == signedlog_mul(b, a)

    def test_mul_by_zero(self):
        assert signedlog_mul(signedlog_from_float(3.0), SLOG_ZERO) == SLOG_ZERO

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            SignedLog(2, 0.5, 1)

    def test_overflow_to_float_is_inf(self):
        assert signedlog_to_float(SignedLog.from_logmag(1, 1e4)) == math.inf
        assert signedlog_to_float(SignedLog.from_logmag(-1, 1e4)) == -math.inf

    def test_logmag_roundtrip(self):
        a = SignedLog.from_logmag(1, 2.3)
        assert a.logmag == pytest.approx(2.3, abs=1e-14)


class TestLogFactorial:
    def test_zero(self):
        assert log_factorial(0) == 0.0

    def test_five(self):
        assert log_factorial(5) == pytest.approx(math.log(120.0), rel=1e-15)

    def test_170_matches_extended_precision(self):
        want = float(decimal_log_factorial(170))
        assert log_factorial(170) == pytest.approx(want, rel=1e-13)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_factorial(-1)

    def test_integer_recovery(self):
        # exp(ln m!) recovers m! to the last unit for m <= 16; for m = 17, 18
        # no double can exponentiate onto m! (the exp grid near ln(m!) is
        # coarser than one unit of m!), so those stay within 4e-15 relative.
        for m in range(17):
            assert round(math.exp(log_factorial(m))) == math.factorial(m)
        for m in (17, 18):
            assert math.exp(log_factorial(m)) == pytest.approx(
                float(math.factorial(m)), rel=4e-15
            )


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
    x = signedlog_from_float(0.7)
    assert signedlog_mul(x, SLOG_ONE) == x


def test_random_add_chain_against_fsum():
    rng = random.Random(3)
    xs = [rng.uniform(-50.0, 50.0) for _ in range(100)]
    acc = SLOG_ZERO
    for x in xs:
        acc = signedlog_add(acc, signedlog_from_float(x))
    want = math.fsum(xs)
    assert signedlog_to_float(acc) == pytest.approx(want, rel=1e-12)
