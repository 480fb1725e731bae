"""The Bessel-kernel series of the hard-edge law.

The vectorized series F_m(q) = sum_k q^k / (k! (k+m)!) of the hard-edge
kernel lives here; the scalar I_nu(x) = (x/2)**nu * F_nu(x*x/4) is a
1-point call of it.

Both laws' kernels are Hankel, Q_ij = w_ij * F_{i+j}.  The anti-diagonal
values F_s (polynomials in t with symmetric-polynomial and inverse-factorial
coefficients, or this series) span hundreds of orders of magnitude, so the
laws' grid engine carries them as float mantissas with separate binary
exponents.  That form keeps a full double mantissa next to an unbounded
exponent, so the relative accuracy is that of ordinary floats at any
magnitude; storing only the rounded log would lose ~|log| * eps of relative
precision, which the ill-conditioned kernel determinants amplify well above
the verification tolerances.  ``bessel_i_signedlog`` returns I_nu(x) in the
same form, a (mantissa, exponent) pair.
"""

from __future__ import annotations

import math

import numpy as np

from .spectra import as_integer

__all__ = [
    "bessel_series",
    "bessel_i",
    "bessel_i_signedlog",
]

BESSEL_MAX_ORDER = 64


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


def bessel_i_signedlog(nu: int, x: float):
    """I_nu(x) = (x/2)**|nu| * F_|nu|(x*x/4) as a pair (mantissa, exponent), for integer order.

    The value is mantissa * 2**exponent, with the mantissa in [1/2, 1) or 0
    (exponent 0).  F comes from a 1-point bessel_series call.  The power
    (x/2)**|nu| keeps the binary exponent of x/2 separate, so tiny
    arguments at high order neither underflow nor lose relative accuracy.
    An order that is not an integer, and an argument whose series overflows
    (x above about 713), raise ValueError.
    """
    nu = abs(as_integer(nu, "Bessel order must be an integer, got {!r}"))
    if nu > BESSEL_MAX_ORDER:
        raise ValueError(f"Bessel order {nu} exceeds supported maximum {BESSEL_MAX_ORDER}")
    if not 0.0 <= x < math.inf:
        raise ValueError(f"Bessel argument must be non-negative and finite, got {x}")
    if x == 0.0:
        return math.frexp(1.0 if nu == 0 else 0.0)
    try:
        series = bessel_series(np.array([0.25 * x * x]), nu)[0, nu]
    except ValueError:
        raise ValueError(f"the I_{nu} series overflows at x = {x}") from None
    m, e = math.frexp(0.5 * x)
    mant, shift = math.frexp(m**nu * float(series))
    return mant, e * nu + shift


def bessel_i(nu: int, x: float) -> float:
    """Modified Bessel function I_nu(x) for integer nu; I_{-m} = I_m."""
    return float(np.ldexp(*bessel_i_signedlog(nu, x)))
