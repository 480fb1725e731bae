"""Signed-log scalars and the Bessel-kernel series.

The vectorized series F_m(q) = sum_k q^k / (k! (k+m)!) of the hard-edge
kernel lives here; the scalar I_nu(x) = (x/2)**nu * F_nu(x*x/4) is a
1-point call of it.

Both laws' kernels are Hankel, Q_ij = w_ij * F_{i+j}.  The anti-diagonal
values F_s (polynomials in t with symmetric-polynomial and inverse-factorial
coefficients, or this series) span hundreds of orders of magnitude, so the
laws' grid engines carry them as float mantissas with separate binary
exponents.  A SignedLog value, sign * exp(logmag), is one scalar in that
form, returned by the 1-point calls the traced benchmark wraps
(``bessel_i_signedlog``, ``KernelPolynomial.evaluate`` and the determinants
of ``linalg``).  It carries a full double mantissa next to an
unbounded binary exponent, so the relative accuracy is that of ordinary
floats at any magnitude; a representation that stored only the rounded log
would lose ~|logmag| * eps of relative precision, which the ill-conditioned
kernel determinants amplify well above the verification tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SignedLog",
    "SLOG_ZERO",
    "SLOG_ONE",
    "signedlog_from_float",
    "signedlog_to_float",
    "signedlog_sqrt",
    "bessel_series",
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


def signedlog_to_float(a: SignedLog) -> float:
    """Back to a plain float; overflow maps to +-inf rather than raising."""
    if a.sign == 0:
        return 0.0
    if a.exp2 > 1100:
        return a.sign * math.inf
    if a.exp2 < -1120:
        return a.sign * 0.0
    return a.sign * math.ldexp(a.mantissa, a.exp2)


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


def bessel_series(q: np.ndarray, max_order: int) -> np.ndarray:
    """F_m(q) = sum_k q^k / (k! (k+m)!) for m = 0..max_order, shape (len(q), max_order+1).

    Terms are summed until each drops to 1e-17 of its running sum, below
    half an ulp, so later terms could not change the sum and a point's value
    does not depend on the other points of the grid.  A sum that overflows
    (q above about 1.3e5) raises ValueError naming the hard-edge variable
    u = 4q.
    """
    orders = np.arange(max_order + 1)
    qq = q[:, None]
    term = np.ones((q.size, max_order + 1))
    total = term.copy()
    k = 0
    with np.errstate(over="ignore"):  # an overflow is reported below, naming u
        while True:
            k += 1
            term *= qq / (k * (k + orders))
            total += term
            # <= also stops on an overflowed sum, where term and total are inf
            if np.all(term <= 1e-17 * total):
                break
    # term by term F_0 is the largest sum, so it overflows first (max_order -1: no sums)
    finite = np.isfinite(total[:, :1]).all(axis=1)
    if not finite.all():
        raise ValueError(f"hard-edge series overflows at u = {float(4.0 * q[~finite][0])}")
    return total / np.array([float(math.factorial(m)) for m in orders])


def bessel_i_signedlog(nu: int, x: float) -> SignedLog:
    """I_nu(x) = (x/2)**|nu| * F_|nu|(x*x/4) as a SignedLog, for integer order.

    F comes from a 1-point bessel_series call.  The power (x/2)**|nu| keeps
    the binary exponent of x/2 separate, so tiny arguments at high order
    neither underflow nor lose relative accuracy.  Arguments whose series
    overflows (x above about 713) raise ValueError.
    """
    nu = abs(int(nu))
    if nu > BESSEL_MAX_ORDER:
        raise ValueError(f"Bessel order {nu} exceeds supported maximum {BESSEL_MAX_ORDER}")
    if not 0.0 <= x < math.inf:
        raise ValueError(f"Bessel argument must be non-negative and finite, got {x}")
    if x == 0.0:
        return SLOG_ONE if nu == 0 else SLOG_ZERO
    try:
        series = bessel_series(np.array([0.25 * x * x]), nu)[0, nu]
    except ValueError:
        raise ValueError(f"the I_{nu} series overflows at x = {x}") from None
    m, e = math.frexp(0.5 * x)
    return SignedLog(1, m**nu * float(series), e * nu)


def bessel_i(nu: int, x: float) -> float:
    """Modified Bessel function I_nu(x) for integer nu; I_{-m} = I_m."""
    return signedlog_to_float(bessel_i_signedlog(nu, x))
