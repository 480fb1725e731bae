"""Dense matrix kernels: the batched gap/density engine and smallest singular values.

Kernel matrices are tiny (dimension 2*gamma/beta, rarely above ~30) but their
entries span enormous ranges.  Both laws hand this module a whole grid of
kernels as float mantissas with separate binary exponents; each row is
scaled by its largest exponent and the stack goes through one batched
LAPACK determinant and one batched solve.  The determinant of a single
SignedLogMatrix is the same row-scaled determinant of a 1-matrix stack,
after an integer shift of each column.  Data matrices W
are ordinary numpy arrays, one at a time or stacked; their smallest
singular values come from numpy's values-only SVD, which bidiagonalizes W
itself and so avoids squaring the condition number that eigensolving
W W^dag would cost.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import SLOG_ONE, SLOG_ZERO, SignedLog, signedlog_sqrt

__all__ = [
    "SignedLogMatrix",
    "logdet_lu",
    "sqrt_det_antisymmetric",
    "ZERO_EXP",
    "jacobi_gap_density",
    "smallest_singular_value",
]

# |det| below exp(log_scale) * ANTISYM_NOISE_FLOOR counts as roundoff zero
ANTISYM_NOISE_FLOOR = 1e-10
ANTISYM_REL_TOL = 1e-12

# binary exponent carried by a zero mantissa: far below every real exponent,
# yet sums and differences of two exponents still fit in an int32
ZERO_EXP = -(1 << 29)

_LN2 = math.log(2.0)


class SignedLogMatrix:
    """Square matrix of SignedLog entries; dimension 0 is the empty matrix."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        d = len(rows)
        for r in rows:
            if len(r) != d:
                raise ValueError("matrix rows must all have length equal to the dimension")
            for entry in r:
                if not isinstance(entry, SignedLog):
                    raise TypeError("matrix entries must be SignedLog values")
        self.dim = d
        self.rows = rows

    def entry(self, i: int, j: int) -> SignedLog:
        return self.rows[i][j]


def logdet_lu(m: SignedLogMatrix) -> SignedLog:
    """Determinant of a SignedLogMatrix by the laws' row-scaled slogdet.

    Each column is first shifted by its largest binary exponent, an integer
    shift added back afterwards, so a column far below the others does not
    underflow when the rows are scaled.  The empty matrix has determinant
    1; exact singularity returns the zero element.
    """
    if m.dim == 0:
        return SLOG_ONE
    mant = np.array([[e.sign * e.mantissa for e in row] for row in m.rows])
    expo = np.array([[e.exp2 if e.sign else ZERO_EXP for e in row] for row in m.rows])
    shift = expo.max(axis=0)
    expo = np.where(mant != 0.0, expo - shift, ZERO_EXP)
    sign, logabs, top, _ = _row_scaled_slogdet(mant[None], expo[None])
    if sign[0] == 0:
        return SLOG_ZERO
    det = SignedLog.from_logmag(int(sign[0]), float(logabs[0]))
    return SignedLog(det.sign, det.mantissa, det.exp2 + int(top.sum() + shift.sum()))


def _row_scale_log(m: SignedLogMatrix) -> float:
    """Hadamard-style magnitude scale: sum over rows of the max entry logmag."""
    total = 0.0
    for row in m.rows:
        mags = [e.logmag for e in row if e.sign != 0]
        if not mags:
            return -math.inf
        total += max(mags)
    return total


def _check_antisymmetric(m: SignedLogMatrix):
    for i in range(m.dim):
        if m.rows[i][i].sign != 0:
            raise ValueError(f"antisymmetric matrix must have zero diagonal (entry {i},{i})")
        for j in range(i + 1, m.dim):
            a = m.rows[i][j]
            b = m.rows[j][i]
            if a.sign == 0 and b.sign == 0:
                continue
            if a.sign == 0 or b.sign == 0 or a.sign != -b.sign:
                raise ValueError(f"matrix is not antisymmetric at entry ({i},{j})")
            if abs(a.logmag - b.logmag) > 2.0 * ANTISYM_REL_TOL:
                raise ValueError(
                    f"matrix is not antisymmetric at entry ({i},{j}): "
                    f"magnitudes differ beyond tolerance"
                )


def sqrt_det_antisymmetric(m: SignedLogMatrix) -> SignedLog:
    """Non-negative square root of det(m) for an even-dimensional antisymmetric m.

    The determinant of such a matrix is a perfect square (of its Pfaffian),
    so the global convention det^(1/2) = +sqrt(det) is well defined.  A
    tiny negative determinant from roundoff, below the relative noise
    floor, is clamped to zero.
    """
    if m.dim % 2 != 0:
        raise ValueError(f"antisymmetric square root needs even dimension, got {m.dim}")
    _check_antisymmetric(m)
    det = logdet_lu(m)
    if det.sign == 0:
        return SLOG_ZERO
    if det.sign < 0:
        scale = _row_scale_log(m)
        if det.logmag < scale + math.log(ANTISYM_NOISE_FLOOR):
            return SLOG_ZERO
        raise ArithmeticError(
            "determinant of antisymmetric matrix is negative beyond the noise floor"
        )
    return signedlog_sqrt(det)


def _row_scaled_slogdet(mant, expo):
    """slogdet of the stack mant * 2**expo, shape (n, d, d), with each row scaled.

    Every row is scaled by its largest exponent ``top`` first, so the
    determinant is sign * exp(logabs) * 2**top.sum(axis=(1, 2)).  Returns
    (sign, logabs, top, scaled stack).
    """
    top = expo.max(axis=2, keepdims=True)
    scaled = np.ldexp(mant, expo - top)
    sign, logabs = np.linalg.slogdet(scaled)
    return sign, logabs, top, scaled


def jacobi_gap_density(log_pref, rate, power, mant, expo, dmant=None, dexpo=None):
    """Gap exp(log_pref) * det(Q)^power and density -d(gap)/dt on a stack of kernels.

    ``mant`` and ``expo`` hold Q = mant * 2**expo entrywise, shape (n, d, d),
    and ``dmant``/``dexpo`` its entrywise derivative Q' in the same form;
    zero entries carry exponent ``ZERO_EXP``.  Every row of Q and Q' is
    scaled by the largest exponent in that row of Q, which leaves
    tr(Q^-1 Q') unchanged, so Jacobi's formula gives the density as

        gap * (rate - power * tr(Q^-1 Q')),

    one batched solve for the whole stack.  Points whose determinant is not
    positive get gap 0; a negative density from cancellation where the gap
    is close to 1 is clamped to 0.  Returns the pair (gap, density), with
    density None when no derivative is given.  Every point is computed
    independently, so an element does not depend on the rest of the stack.
    """
    sign, logabs, top, scaled = _row_scaled_slogdet(mant, expo)
    ok = sign > 0
    log_det = logabs[ok] + _LN2 * top[ok, :, 0].sum(axis=1)
    gap = np.zeros(mant.shape[0])
    gap[ok] = np.exp(log_pref[ok] + power * log_det)
    if dmant is None:
        return gap, None
    sol = np.linalg.solve(scaled[ok], np.ldexp(dmant[ok], dexpo[ok] - top[ok]))
    trace = np.zeros(mant.shape[0])
    for i in range(mant.shape[1]):  # a fixed summation order, whatever the stack size
        trace[ok] += sol[:, i, i]
    density = gap * (rate - power * trace)
    return gap, np.where(density > 0.0, density, 0.0)


def smallest_singular_value(w):
    """Smallest singular value of a p x n (p <= n) real or complex matrix.

    A 2-d matrix gives a float; a (k, p, n) stack gives the k values as an
    array.  Computed by numpy's values-only SVD (LAPACK gesdd: Householder
    bidiagonalization, then the singular values of the bidiagonal), one
    LAPACK call per matrix of the stack.
    """
    w = np.asarray(w)
    if w.ndim not in (2, 3):
        raise ValueError("expected a 2-d matrix or a 3-d stack of matrices")
    rows, cols = w.shape[-2:]
    if rows > cols:
        raise ValueError(f"expected rows <= cols, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("matrix entries must be finite")
    s = np.linalg.svd(w, compute_uv=False)[..., -1]
    return float(s) if w.ndim == 2 else s
