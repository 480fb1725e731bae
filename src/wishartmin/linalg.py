"""Dense matrix kernels: the batched gap/density engine and smallest singular values.

Kernel matrices are tiny (dimension 2*gamma/beta, rarely above ~30) but their
entries span enormous ranges.  Both laws' kernels are Hankel in form,
Q_ij = w_ij * F_{i+j}, and each law hands this module only the values F_s
on a whole grid, as float mantissas with separate binary exponents.
hankel_kernel assembles Q and Q', each row is scaled by its largest exponent
and the stack goes through one batched LAPACK determinant and one batched
solve.  The determinant of a single SignedLogMatrix is the same row-scaled
determinant of a 1-matrix stack, after an integer shift of each column.

The sampler hands over no data matrix W, only the p x p lower-triangular
factor T = Lambda^(1/2) L of its LQ decomposition, which has the same
singular values (Bartlett 1933; Edelman 1989).  sigma_min(T) is
1 / sigma_max(T^-1): T is inverted blockwise after an exact power-of-two
scaling, and sigma_max(T^-1)**2, the largest eigenvalue of T^-H T^-1, comes
from a Lanczos iteration with full reorthogonalization that stops once the
residual of its top Ritz pair is small.  A pivot pass at an interlacing
upper bound screens out matrices that cannot have converged; for the rest,
LAPACK's eigvalsh gives the Ritz value and a twisted factorization its
residual.  That is zero at step p, so there is no iteration cap, and the
path stays clear of the squared condition number of eigensolving T T^dag.
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
    "hankel_kernel",
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
_EPS = float(np.finfo(np.float64).eps)


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
    top = expo.max(axis=2, keepdims=True, initial=ZERO_EXP)
    scaled = np.ldexp(mant, expo - top)
    sign, logabs = np.linalg.slogdet(scaled)
    return sign, logabs, top, scaled


def hankel_kernel(beta, mant, expo):
    """Q_ij = w_ij * F_{i+j}, shape (n, d, d), from F_s in column s - 2 of (n, 2d - 1) arrays.

    w_ij = (-1)^(i+1) for beta=2.  For beta=1, w_ij = j - i leaves out the
    paper's (-1)^(i+j): that gives D Q D with D = diag((-1)^i), which has
    the same det and tr(Q^-1 Q').  Zero-weight entries get exponent ZERO_EXP.
    """
    dim = (mant.shape[1] + 1) // 2
    i, j = np.ogrid[1:dim + 1, 1:dim + 1]
    weight = j - i if beta == 1 else (-1) ** (i + 1)
    s = i + j - 2
    return weight * mant[:, s], np.where(weight != 0, expo[:, s], ZERO_EXP)


def jacobi_gap_density(log_pref, rate, beta, mant, expo, dmant=None, dexpo=None):
    """Gap exp(log_pref) * det(Q)^(beta/2) and density -d(gap)/dt on a grid of kernels.

    ``mant``/``expo`` hold the anti-diagonal values of Q as hankel_kernel
    takes them, ``dmant``/``dexpo`` those of Q'.  Every row of Q and Q' is
    scaled by the largest exponent in that row of Q, which leaves
    tr(Q^-1 Q') unchanged, so Jacobi's formula gives the density as

        gap * (rate - (beta/2) * tr(Q^-1 Q')),

    one batched solve for the whole stack.  Points whose determinant is not
    positive get gap 0; a negative density from cancellation where the gap
    is close to 1 is clamped to 0.  Returns the pair (gap, density), with
    density None when no derivative is given.  Every point is computed
    independently, so an element does not depend on the rest of the stack.
    """
    sign, logabs, top, scaled = _row_scaled_slogdet(*hankel_kernel(beta, mant, expo))
    ok = sign > 0
    log_det = logabs[ok] + _LN2 * top[ok, :, 0].sum(axis=1)
    gap = np.zeros(mant.shape[0])
    gap[ok] = np.exp(log_pref[ok] + 0.5 * beta * log_det)
    if dmant is None:
        return gap, None
    dmant, dexpo = hankel_kernel(beta, dmant[ok], dexpo[ok])
    sol = np.linalg.solve(scaled[ok], np.ldexp(dmant, dexpo - top[ok]))
    trace = np.zeros(mant.shape[0])
    for i in range(scaled.shape[1]):  # a fixed summation order, whatever the stack size
        trace[ok] += sol[:, i, i]
    density = gap * (rate - 0.5 * beta * trace)
    return gap, np.where(density > 0.0, density, 0.0)


# the Lanczos iteration stops once the top Ritz pair's residual is below
# RITZ_RTOL times its Ritz value; that Ritz value is then within the same
# relative distance of an eigenvalue of A^H A, so sigma_min within half of it
RITZ_RTOL = 2.0 ** -45
# diagonal blocks up to this size are inverted by one LAPACK call
_INV_LEAF = 32


def smallest_singular_value(t):
    """Smallest singular value of a lower-triangular p x p matrix.

    A 2-d matrix gives a float; a (k, p, p) stack gives the k values as an
    array, each independent of the rest of the stack.  A matrix with a zero
    diagonal entry is singular and gives exactly 0.  Otherwise it is scaled
    by the power of two that puts its smallest diagonal entry in [1, 2),
    inverted blockwise (``_tril_inverse``), and sigma_min is
    1 / sqrt(lambda_max(A^H A)) for that inverse A, from ``_top_eigenvalue``,
    which scales A once more.  Neither scaling rounds, and together they
    keep every intermediate inside double range unless A itself is not
    representable, which raises OverflowError.
    """
    t = np.asarray(t)
    if t.ndim not in (2, 3) or t.shape[-2] != t.shape[-1]:
        raise ValueError(f"expected a square matrix or a 3-d stack of them, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("matrix entries must be finite")
    p = t.shape[-1]
    if np.any(t[(..., *np.triu_indices(p, 1))]):
        raise ValueError("expected lower-triangular matrices")
    dtype = np.complex128 if np.iscomplexobj(t) else np.float64
    stack = np.ascontiguousarray(t.reshape(-1, p, p), dtype=dtype)
    diag = np.abs(np.diagonal(stack, axis1=1, axis2=2)).min(axis=1)
    values = np.zeros(len(stack))
    live = diag > 0.0
    if np.any(live):
        e = np.frexp(diag[live])[1] - 1
        theta, f = _top_eigenvalue(_tril_inverse(_scaled(stack if np.all(live) else stack[live], -e)))
        values[live] = np.ldexp(1.0 / np.sqrt(theta), e - f)
    return float(values[0]) if t.ndim == 2 else values


def _scaled(x, exp):
    """x * 2**exp for each matrix of the stack x, by two power-of-two factors.

    Each factor stays inside double range for any exponent that a finite
    x and its scaled value can need, and multiplying by it is exact.
    """
    half = exp // 2
    out = x * np.ldexp(1.0, half)[:, None, None]
    out *= np.ldexp(1.0, exp - half)[:, None, None]
    return out


def _tril_inverse(s):
    """Inverse of each lower-triangular matrix of the stack s.

    For s = [[A, 0], [C, D]] the inverse is [[A^-1, 0], [-D^-1 C A^-1, D^-1]];
    diagonal blocks of at most ``_INV_LEAF`` rows go to one batched LAPACK
    inverse each, and everything above them is matrix products.
    """
    if s.shape[-1] <= _INV_LEAF:
        return np.linalg.inv(s)
    inv = np.zeros_like(s)
    _fill_inverse(s, inv, 0, s.shape[-1])
    return inv


def _fill_inverse(s, inv, lo, hi):
    """Write the inverse of the diagonal block s[:, lo:hi, lo:hi] into inv's."""
    if hi - lo <= _INV_LEAF:
        inv[:, lo:hi, lo:hi] = np.linalg.inv(s[:, lo:hi, lo:hi])
        return
    mid = (lo + hi) // 2
    _fill_inverse(s, inv, lo, mid)
    _fill_inverse(s, inv, mid, hi)
    inv[:, mid:hi, lo:mid] = -(inv[:, mid:hi, mid:hi] @ (s[:, mid:hi, lo:mid] @ inv[:, lo:mid, lo:mid]))


def _start_vector(p):
    """Fixed unit start vector of the Lanczos iteration.

    Entries 2*frac(i*phi) - 1 (phi the golden ratio) and a first entry of 1:
    deterministic, with no sign or size pattern that a structured matrix
    could be orthogonal to.
    """
    v = 2.0 * ((np.arange(p) * 0.6180339887498949) % 1.0) - 1.0
    v[0] = 1.0
    return v / math.sqrt(float(v @ v))


def _top_eigenvalue(a):
    """lambda_max(A^H A) for each matrix A of the stack a, by Lanczos.

    Returns (theta, f): A is scaled in place by the power of two 2**-f that
    puts its largest real or imaginary part in [1/2, 1), so that
    lambda_max(A^H A) = theta * 4**f with theta between 1/4 and 2 p**2.

    Each step applies A^H A to the newest Lanczos vector, orthogonalizes the
    result against every earlier vector (classical Gram-Schmidt, twice) and
    so extends the tridiagonal matrix T_m of the recurrence.  A matrix
    leaves once the residual of the top Ritz pair of T_m is below
    ``RITZ_RTOL`` times its Ritz value (``_ritz_step``), at step p at the
    latest, where beta_p is zero.  Only the matrices still iterating are
    carried on, and every step is computed matrix by matrix, so each value
    is independent of the stack around it.
    """
    top = np.maximum(a.view(np.float64).max(axis=(1, 2)), -a.view(np.float64).min(axis=(1, 2)))
    if not np.all(np.isfinite(top)):
        raise OverflowError("the inverse of the matrix leaves double precision")
    f = np.frexp(top)[1]
    a *= np.ldexp(1.0, -f)[:, None, None]
    k, p, _ = a.shape
    basis = np.empty_like(a)  # row j holds Lanczos vector j
    v = np.broadcast_to(_start_vector(p).astype(a.dtype), (k, p))
    alpha = np.empty((p, k))
    beta2 = np.empty((p, k))  # beta2[j] = beta_j**2 couples rows j and j+1 of T
    theta, bound, rows = np.empty(k), None, np.arange(k)
    for j in range(p):
        basis[:, j] = v
        # A^H (A v) as the conjugate of (A v)^H A
        w = ((a @ v[..., None]).conj().swapaxes(1, 2) @ a)[:, 0].conj()
        done = basis[:, : j + 1]
        for sweep in range(2):
            hc = done @ w.conj()[..., None]  # conjugated projections <v_i, w>
            if sweep == 0:
                alpha[j] = hc[:, j, 0].real
            w -= (hc.conj().swapaxes(1, 2) @ done)[:, 0]
        norm2 = (w.conj()[:, None, :] @ w[..., None])[:, 0, 0].real
        if j == p - 1:
            norm2[:] = 0.0
        ritz, bound, conv = _ritz_step(alpha[: j + 1], beta2[:j], norm2, bound)
        if np.any(conv):
            theta[rows[conv]] = ritz[conv]
            keep = ~conv
            if not np.any(keep):
                break
            rows, a, basis, w = rows[keep], a[keep], basis[keep], w[keep]
            alpha, beta2, norm2, bound = alpha[:, keep], beta2[:, keep], norm2[keep], bound[keep]
        beta2[j] = norm2
        v = w / np.sqrt(norm2)[:, None]
    return theta, f


def _ritz_step(alpha, beta2, norm2, prev_bound):
    """The top Ritz value theta of each tridiagonal T_m and whether its residual is small.

    ``alpha`` (m, k) and ``beta2`` (m - 1, k) hold the diagonals and squared
    off-diagonals of T_m, ``norm2`` the squared beta_m of the next Lanczos
    vector, ``prev_bound`` an upper bound on theta for T_{m-1}.  Returns
    (theta, bound, conv): theta where conv marks a residual beta_m * |y_m| of
    at most ``RITZ_RTOL`` * theta (or beta_m = 0), and an upper bound on it.

    By interlacing, theta is below the top eigenvalue U of [[prev_bound,
    beta_{m-1}], [beta_{m-1}, alpha_m]].  As y_m**2 only falls as x rises
    above theta, ``_pivots`` at U bounds the residual from below and screens
    out matrices that cannot have converged.  For the rest, LAPACK's
    eigvalsh gives theta and ``_last_entry2`` y_m**2.
    """
    m, k = alpha.shape
    if m == 1:
        theta = alpha[0].copy()
        return theta, theta.copy(), norm2 <= (RITZ_RTOL * theta) ** 2
    half = 0.5 * (prev_bound - alpha[m - 1])
    bound = (0.5 * (prev_bound + alpha[m - 1]) + np.sqrt(half * half + beta2[m - 2])) * (1.0 + 4.0 * _EPS)
    e, _, ysum = _pivots(alpha, beta2, bound)
    theta, conv = bound.copy(), np.zeros(k, dtype=bool)
    cand = np.flatnonzero(~np.all(e[1:] > 0.0, axis=0) | (norm2 / ysum[0] <= (RITZ_RTOL * bound) ** 2))
    if len(cand):
        a, b2, res2 = alpha[:, cand], beta2[:, cand], norm2[cand]
        t, i = np.zeros((len(cand), m, m)), np.arange(m)
        t[:, i, i] = a.T
        t[:, i[1:], i[:-1]] = np.sqrt(b2.T)  # eigvalsh reads the lower triangle
        top = np.linalg.eigvalsh(t)[:, -1]
        conv[cand] = (res2 == 0.0) | (res2 * _last_entry2(a, b2, top) <= (RITZ_RTOL * top) ** 2)
        theta[cand] = top
        bound[cand] = top * (1.0 + 4.0 * _EPS)
    return theta, bound, conv


def _pivots(alpha, beta2, x):
    """Bottom-up pivots of x - T for each tridiagonal T of the stack.

    e_m = x - alpha_m and e_j = x - alpha_j - beta_j**2 / e_{j+1}, so that
    det(x - T) = e_1 ... e_m.  Returns the pivots e, the y_j**2 of the
    vector with y_m = 1 and y_j = y_{j+1} e_{j+1} / beta_j, and their sums
    from j to m, all (m, k).  Where e_2 .. e_m are positive, x is above the
    spectrum of T without its first row and each y_j**2 a positive product.
    """
    m = alpha.shape[0]
    e = x - alpha
    y2, ysum = np.ones_like(e), np.ones_like(e)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(m - 2, -1, -1):
            q = beta2[j] / e[j + 1]
            e[j] -= q
            y2[j] = y2[j + 1] * (e[j + 1] / q)
            ysum[j] = ysum[j + 1] + y2[j]
    return e, y2, ysum


def _last_entry2(alpha, beta2, theta):
    """y_m**2 of the unit eigenvector of each tridiagonal T for its eigenvalue theta.

    ``_pivots`` alone is accurate only where that vector grows away from row
    m.  So it comes from the twisted factorization of theta - T at the row r
    of smallest |gamma_r| = |d_r + e_r - (theta - alpha_r)|: rows r .. m by
    the bottom-up pivots e_j, rows 1 .. r by the top-down pivots d_j, both
    run towards the peak of the vector.
    """
    e, y2, below = _pivots(alpha, beta2, theta)
    d = theta - alpha
    w = np.zeros_like(d)  # sum over i < j of y_i**2 / y_j**2, from the top
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(1, alpha.shape[0]):
            q = beta2[j - 1] / d[j - 1]
            w[j] = q / d[j - 1] * (1.0 + w[j - 1])
            d[j] -= q
        norms = below + y2 * w  # |y|**2 / y_m**2 with the twist at each row
        r = np.argmin(np.abs(d + e - (theta - alpha)), axis=0)
        return 1.0 / norms[r, np.arange(len(r))]
