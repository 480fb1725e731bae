"""Overflow-safe scalar arithmetic and special functions.

Kernel determinants mix terms like t**(p-k), symmetric polynomials of the
spectrum and inverse factorials, which together span hundreds of orders of
magnitude.  The kernel coefficients are built here as sign/log-magnitude
values; the grid engines then carry them as float mantissas with separate
binary exponents, so no intermediate overflows or underflows.

A SignedLog value represents sign * exp(logmag).  Internally it carries a
full double mantissa next to an unbounded binary exponent, so the relative
accuracy is that of ordinary floats at any magnitude; a representation that
stored only the rounded log would lose ~|logmag| * eps of relative
precision, which the ill-conditioned kernel determinants amplify well above
the verification tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SignedLog",
    "SLOG_ZERO",
    "SLOG_ONE",
    "signedlog_from_float",
    "signedlog_to_float",
    "signedlog_add",
    "signedlog_mul",
    "signedlog_neg",
    "signedlog_inv",
    "signedlog_sqrt",
    "signedlog_pow_int",
    "log_factorial",
    "factorial_signedlog",
    "bessel_i",
    "bessel_i_signedlog",
]

BESSEL_MAX_ORDER = 64

_LN2 = math.log(2.0)


@dataclass(frozen=True, slots=True)
class SignedLog:
    """A real number sign * mantissa * 2**exp2 with mantissa in [0.5, 1).

    Equal to sign * exp(logmag) with logmag exposed as a property; zero is
    canonically (0, 0.0, 0).  Construct from values with
    ``signedlog_from_float`` or from a log magnitude with ``from_logmag``.
    """

    sign: int
    mantissa: float
    exp2: int

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if self.sign == 0:
            object.__setattr__(self, "mantissa", 0.0)
            object.__setattr__(self, "exp2", 0)
        elif not 0.5 <= self.mantissa < 1.0:
            m, e = math.frexp(self.mantissa)
            object.__setattr__(self, "mantissa", m)
            object.__setattr__(self, "exp2", self.exp2 + e)

    @property
    def logmag(self) -> float:
        """Natural-log magnitude; meaningless (0.0) for the zero element."""
        if self.sign == 0:
            return 0.0
        return math.log(self.mantissa) + self.exp2 * _LN2

    @classmethod
    def from_logmag(cls, sign: int, logmag: float) -> "SignedLog":
        if sign == 0:
            return SLOG_ZERO
        e = int(math.floor(logmag / _LN2))
        m = math.exp(logmag - e * _LN2)  # in [1, 2) up to rounding
        return cls(sign, 0.5 * m, e + 1)


SLOG_ZERO = SignedLog(0, 0.0, 0)
SLOG_ONE = SignedLog(1, 0.5, 1)


def signedlog_from_float(x: float) -> SignedLog:
    """Exact conversion of a finite float."""
    if x == 0.0:
        return SLOG_ZERO
    if not math.isfinite(x):
        raise ValueError(f"cannot represent non-finite value {x}")
    m, e = math.frexp(abs(x))
    return SignedLog(1 if x > 0 else -1, m, e)


def signedlog_from_int(n: int) -> SignedLog:
    """Conversion of an arbitrarily large integer (correctly rounded)."""
    if n == 0:
        return SLOG_ZERO
    sign = 1 if n > 0 else -1
    n = abs(n)
    bits = n.bit_length()
    if bits <= 53:
        return SignedLog(sign, float(n), 0)
    shift = bits - 54
    top = (n + (1 << (shift - 1)) if shift > 0 else n) >> shift
    return SignedLog(sign, float(top), shift)


def signedlog_to_float(a: SignedLog) -> float:
    """Back to a plain float; overflow maps to +-inf rather than raising."""
    if a.sign == 0:
        return 0.0
    if a.exp2 > 1100:
        return a.sign * math.inf
    if a.exp2 < -1120:
        return a.sign * 0.0
    return a.sign * math.ldexp(a.mantissa, a.exp2)


def signedlog_add(a: SignedLog, b: SignedLog) -> SignedLog:
    """Sign-aware addition anchored at the larger magnitude.

    Adding exact negatives yields the zero element; cancellation is a valid
    result, not an error.
    """
    if a.sign == 0:
        return b
    if b.sign == 0:
        return a
    if (a.exp2, a.mantissa) >= (b.exp2, b.mantissa):
        big, small = a, b
    else:
        big, small = b, a
    shift = small.exp2 - big.exp2
    if shift < -1075:
        return big
    total = big.sign * big.mantissa + small.sign * math.ldexp(small.mantissa, shift)
    if total == 0.0:
        return SLOG_ZERO
    m, e = math.frexp(abs(total))
    return SignedLog(1 if total > 0 else -1, m, e + big.exp2)


def signedlog_mul(a: SignedLog, b: SignedLog) -> SignedLog:
    if a.sign == 0 or b.sign == 0:
        return SLOG_ZERO
    m, e = math.frexp(a.mantissa * b.mantissa)
    return SignedLog(a.sign * b.sign, m, e + a.exp2 + b.exp2)


def signedlog_neg(a: SignedLog) -> SignedLog:
    return SignedLog(-a.sign, a.mantissa, a.exp2) if a.sign != 0 else SLOG_ZERO


def signedlog_inv(a: SignedLog) -> SignedLog:
    if a.sign == 0:
        raise ZeroDivisionError("signed-log division by zero")
    m, e = math.frexp(1.0 / a.mantissa)
    return SignedLog(a.sign, m, e - a.exp2)


def signedlog_sqrt(a: SignedLog) -> SignedLog:
    """Square root of a non-negative signed-log value."""
    if a.sign == 0:
        return SLOG_ZERO
    if a.sign < 0:
        raise ValueError("square root of a negative signed-log value")
    m, e = a.mantissa, a.exp2
    if e % 2:
        m *= 2.0
        e -= 1
    r, re = math.frexp(math.sqrt(m))
    return SignedLog(1, r, re + e // 2)


def signedlog_pow_int(a: SignedLog, n: int) -> SignedLog:
    """Integer power by repeated squaring (exponent-safe at any size)."""
    if n == 0:
        return SLOG_ONE
    if a.sign == 0:
        if n < 0:
            raise ZeroDivisionError("zero to a negative power")
        return SLOG_ZERO
    if n < 0:
        return signedlog_pow_int(signedlog_inv(a), -n)
    acc = SLOG_ONE
    base = a
    while n:
        if n & 1:
            acc = signedlog_mul(acc, base)
        base = signedlog_mul(base, base)
        n >>= 1
    return acc


_LOG_FACT = [0.0]  # ln(m!) for m = 0, 1, ...; grown on demand
_FACT_SLOG = [SLOG_ONE]  # m! as SignedLog, exact integer conversions


def log_factorial(m: int) -> float:
    """ln(m!) from a cumulative table of ln k (no asymptotic expansion)."""
    if m < 0:
        raise ValueError(f"factorial argument must be non-negative, got {m}")
    while len(_LOG_FACT) <= m:
        k = len(_LOG_FACT)
        _LOG_FACT.append(_LOG_FACT[-1] + math.log(k))
    return _LOG_FACT[m]


def factorial_signedlog(m: int) -> SignedLog:
    """m! as a SignedLog, converted from the exact integer."""
    if m < 0:
        raise ValueError(f"factorial argument must be non-negative, got {m}")
    while len(_FACT_SLOG) <= m:
        k = len(_FACT_SLOG)
        _FACT_SLOG.append(signedlog_from_int(math.factorial(k)))
    return _FACT_SLOG[m]


def bessel_i_signedlog(nu: int, x: float) -> SignedLog:
    """I_nu(x) as a SignedLog, for integer order with I_{-m} = I_m.

    Power series sum_k (x/2)**(2k+nu) / (k! (k+nu)!), summed until a term
    drops below 1e-17 of the running partial sum.  The leading factor
    (x/2)**nu / nu! is carried in scaled form, so tiny arguments at high
    order neither underflow nor lose relative accuracy.
    """
    nu = abs(int(nu))
    if nu > BESSEL_MAX_ORDER:
        raise ValueError(f"Bessel order {nu} exceeds supported maximum {BESSEL_MAX_ORDER}")
    if x < 0:
        raise ValueError(f"Bessel argument must be non-negative, got {x}")
    if x == 0.0:
        return SLOG_ONE if nu == 0 else SLOG_ZERO
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    k = 0
    while True:
        k += 1
        term *= q / (k * (k + nu))
        total += term
        if term < 1e-17 * total:
            break
    lead = signedlog_mul(
        signedlog_pow_int(signedlog_from_float(0.5 * x), nu),
        signedlog_inv(factorial_signedlog(nu)),
    )
    return signedlog_mul(lead, signedlog_from_float(total))


def bessel_i(nu: int, x: float) -> float:
    """Modified Bessel function I_nu(x) for integer nu; I_{-m} = I_m."""
    return signedlog_to_float(bessel_i_signedlog(nu, x))
