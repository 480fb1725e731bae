"""Dense matrix kernels: the batched gap/density engine and smallest singular values.

Kernel matrices are tiny (dimension 2*gamma/beta, rarely above ~30) but their
entries span enormous ranges.  Both laws hand this module a whole grid of
kernels as float mantissas with separate binary exponents; each row is
scaled by its largest exponent and the stack goes through one batched
LAPACK determinant and one batched solve.  A signed-log LU determinant,
with the pivot row rescaled to unit log-magnitude before each elimination
step, remains as a scalar reference that no law calls.  Data matrices W
are ordinary numpy arrays; their smallest singular value comes from the
bidiagonalization + implicit-shift QR driver, which avoids squaring the
condition number that eigensolving W W^dag would cost.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .numerics import (
    SLOG_ONE,
    SLOG_ZERO,
    SignedLog,
    signedlog_add,
    signedlog_inv,
    signedlog_mul,
    signedlog_neg,
    signedlog_sqrt,
)

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
    """Determinant of a SignedLogMatrix via LU with partial pivoting.

    Pivoting selects the largest log-magnitude in the column; the pivot row
    is rescaled to unit log-magnitude before elimination so the multipliers
    stay small.  The empty matrix has determinant 1; exact singularity
    returns the zero element.
    """
    d = m.dim
    if d == 0:
        return SLOG_ONE
    a = [list(row) for row in m.rows]
    det = SLOG_ONE
    for col in range(d):
        piv_row = col
        piv_key = None
        for r in range(col, d):
            e = a[r][col]
            if e.sign != 0:
                key = (e.exp2, e.mantissa)
                if piv_key is None or key > piv_key:
                    piv_key = key
                    piv_row = r
        if piv_key is None:
            return SLOG_ZERO
        if piv_row != col:
            a[col], a[piv_row] = a[piv_row], a[col]
            det = signedlog_neg(det)
        piv = a[col][col]
        det = signedlog_mul(det, piv)
        # rescale pivot row to a unit pivot before elimination
        inv_piv = signedlog_inv(piv)
        a[col][col] = SLOG_ONE
        for j in range(col + 1, d):
            a[col][j] = signedlog_mul(a[col][j], inv_piv)
        for r in range(col + 1, d):
            f = a[r][col]
            if f.sign == 0:
                continue
            a[r][col] = SLOG_ZERO
            for j in range(col + 1, d):
                e = a[col][j]
                if e.sign != 0:
                    a[r][j] = signedlog_add(a[r][j], signedlog_mul(f, signedlog_neg(e)))
    return det


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
    top = expo.max(axis=2, keepdims=True)
    scaled = np.ldexp(mant, expo - top)
    sign, logabs = np.linalg.slogdet(scaled)
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


def smallest_singular_value(w) -> float:
    """Smallest singular value of a p x n (p <= n) real or complex matrix.

    Computed by Golub-Kahan bidiagonalization followed by implicit-shift QR
    on the bidiagonal (LAPACK's gesvd driver, values only).
    """
    w = np.asarray(w)
    if w.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    rows, cols = w.shape
    if rows > cols:
        raise ValueError(f"expected rows <= cols, got shape {w.shape}")
    if not np.all(np.isfinite(w.view(np.float64) if np.iscomplexobj(w) else w)):
        raise ValueError("matrix entries must be finite")
    s = scipy.linalg.svd(w, compute_uv=False, lapack_driver="gesvd")
    return float(s[-1])
