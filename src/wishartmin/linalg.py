"""Dense matrix kernels: the batched gap/density engine and smallest singular values.

Kernel matrices are tiny (dimension 2*gamma/beta, rarely above ~30) but their
entries span enormous ranges.  Both laws' kernels are Hankel in form,
Q_ij = w_ij * F_{i+j}, and both laws' gap probabilities are
exp(c - r*t) * det^(beta/2) Q.  jacobi_gap_density is the one engine for
both: it takes the grid, c, r and a law's value provider, which returns F_s
as float mantissas with separate binary exponents for VALUE_CHUNK points at
a time.  hankel_kernel assembles Q and Q' from them GRID_BLOCK points at a
time, each row is scaled by its largest exponent and the stack goes through
one batched LAPACK determinant and one batched solve.  So no array of either
law grows with the grid except the returned values.  The determinant of a
single SignedLogMatrix is the same row-scaled determinant of a 1-matrix
stack, after an integer shift of each column.

The sampler hands over no data matrix W, only the p x p lower-triangular
factor T = Lambda^(1/2) L of its LQ decomposition, which has the same
singular values (Bartlett 1933; Edelman 1989).  sigma_min(T) is
1 / sigma_max(A) for A = T^-1, inverted after an exact power-of-two
scaling: diagonal blocks of at most _INV_LEAF rows by row substitution,
all blocks of one size in one batched pass, and the rest by block
products.  LAPACK's general inverse would run a pivoted LU on a matrix
that is already triangular.  sigma_max(A)**2 is the top eigenvalue of
A^H A.  Up to _GRAM_ROWS rows, a constant per dtype (64 real, 32
complex), it comes from that Gram matrix, the faster path at those
sizes: seven batched squarings and a Kato-Temple bound certify a
Rayleigh quotient, and LAPACK's eigvalsh takes only the matrices whose
certificate fails, such as near-ties.  Above, it comes from a Lanczos
iteration that keeps only its last two vectors: each step applies A^H A
to the newest one and takes the three-term recurrence, without
reorthogonalization, and eigh gives the top Ritz pair.  A top eigenvalue
keeps full relative accuracy either way, where the bottom one of T T^H
would lose the squared condition number of T.  The input check reads the
strictly upper triangle through a flat index built once per p.
"""

from __future__ import annotations

import functools
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

# grid points whose kernels jacobi_gap_density assembles, factors and solves
# together: bounds its (points, dim, dim) stacks for both laws
GRID_BLOCK = 256
# grid points whose values a law's provider computes in one call.  Eight
# kernel blocks: the Bessel series and Horner's rule run one Python-level
# loop per call, which a 256-point chunk pays too often on an 801-point grid,
# while 512- or 1024-point kernel blocks slow the small-kernel KS grids
VALUE_CHUNK = 8 * GRID_BLOCK


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


def jacobi_gap_density(points, log_const, rate, beta, values, derivative):
    """Gap exp(log_const - rate*t) * det(Q)^(beta/2) and density -d(gap)/dt at the grid ``points``.

    ``values`` is the law's provider.  Called with a slice of at most
    VALUE_CHUNK consecutive points, it returns (mant, expo), the
    anti-diagonal values of Q at those points as hankel_kernel takes them,
    followed by (dmant, dexpo), those of Q', when ``derivative`` is set.
    Every row of Q and Q' is scaled by the largest exponent in that row of
    Q, which leaves tr(Q^-1 Q') unchanged, so Jacobi's formula gives the
    density as

        gap * (rate - (beta/2) * tr(Q^-1 Q')),

    one batched solve per block of GRID_BLOCK points.  Points whose
    determinant is not positive get gap 0; a negative density from
    cancellation where the gap is close to 1 is clamped to 0.  Returns the
    pair (gap, density), with density None unless ``derivative``.  Every
    point is computed independently, so an element does not depend on the
    rest of the grid or on the blocking.
    """
    with np.errstate(over="ignore"):  # -inf past double range is the gap 0 it stands for
        log_pref = log_const - rate * points
    gap, trace = np.empty(len(points)), np.empty(len(points))
    for start in range(0, len(points), VALUE_CHUNK):
        chunk = slice(start, start + VALUE_CHUNK)
        _jacobi_chunk(gap[chunk], trace[chunk], log_pref[chunk], beta, *values(points[chunk]))
    if not derivative:
        return gap, None
    density = gap * (rate - 0.5 * beta * trace)
    return gap, np.where(density > 0.0, density, 0.0)


def _jacobi_chunk(gap, trace, log_pref, beta, *values):
    """Fill one chunk's ``gap`` and ``trace`` views from its provider's ``values``, block by block.

    Its own function, so no value array of one chunk outlives it into the next.
    """
    for start in range(0, len(gap), GRID_BLOCK):
        block = slice(start, start + GRID_BLOCK)
        gap[block], trace[block] = _jacobi_block(block, log_pref, beta, *values)


def _jacobi_block(block, log_pref, beta, mant, expo, dmant=None, dexpo=None):
    """(gap, tr(Q^-1 Q')) at the chunk's points ``block``; the trace is 0 when ``dmant`` is None.

    Its own function, so no array of one block outlives it into the next.
    """
    sign, logabs, top, scaled = _row_scaled_slogdet(*hankel_kernel(beta, mant[block], expo[block]))
    ok = sign > 0
    log_det = logabs[ok] + _LN2 * top[ok, :, 0].sum(axis=1)
    gap, trace = np.zeros(len(ok)), np.zeros(len(ok))
    gap[ok] = np.exp(log_pref[block][ok] + 0.5 * beta * log_det)
    if dmant is not None:
        dm, de = hankel_kernel(beta, dmant[block][ok], dexpo[block][ok])
        sol = np.linalg.solve(scaled[ok], np.ldexp(dm, de - top[ok]))
        for i in range(scaled.shape[1]):  # a fixed summation order, whatever the block size
            trace[ok] += sol[:, i, i]
    return gap, trace


# the Lanczos iteration stops once the top Ritz pair's residual is below
# RITZ_RTOL times its Ritz value; that Ritz value is then within the same
# relative distance of an eigenvalue of A^H A, so sigma_min within half of it
RITZ_RTOL = 2.0 ** -45
# diagonal blocks up to this size are inverted by row substitution
_INV_LEAF = 32
# matrices up to this many rows, per dtype, take their top eigenvalue from the
# Gram matrix (_gram_top), and larger ones from Lanczos.  On one CPU a
# Gram-matrix eigvalsh takes less time than the Lanczos steps up to about 36
# rows for complex stacks and beyond 80 for real ones, and the certificate
# less than the eigvalsh; real stacks stop at 64, where the Gram path's
# worst-case error bound (see _top_eigenvalue) is still below 5e-13
_GRAM_ROWS = {np.dtype(np.float64): 64, np.dtype(np.complex128): 32}
# Gram matrices from this many rows up, per dtype, are first tried by the
# Kato-Temple certificate (_gram_top).  Below, one eigvalsh costs less than
# the squarings.  Measured on one CPU over whole sigma_min calls: the
# certificate takes 1.5x the time at 2 real rows and 0.8x at 3; batched
# complex products cost several times real ones, and the certificate takes
# 1.06x the time at 5 complex rows and 0.92x at 6
_CERTIFY_ROWS = {np.dtype(np.float64): 3, np.dtype(np.complex128): 6}
# squarings of the scaled Gram matrix before its certificate, per dtype, so
# m = 2**7 real and 2**6 complex.  Measured on 20,000 Bartlett factors per
# size from 5 to 64 rows (geometric spectrum, n = p + 11 real, p + 2
# complex): with 7 squarings 2.7-3.8% of real factors fall back to
# eigvalsh (0.7-1.2% of BENCH10 draws at n = 13, 21, 27), and 10-15% with
# 6, which takes 4-15% more time on one CPU.  Complex factors, whose top
# pair lies further apart, fall back in 1.2-1.5% of draws with 6, 0.1-0.2%
# with 7 and 8-10% with 5; 6 take 2-10% less time than 7, and 5 up to 14%
# more.  Squarings must stay below 8, where p**m would leave double range
# (see _gram_top)
_SQUARINGS = {np.dtype(np.float64): 7, np.dtype(np.complex128): 6}
# relative margin on the computed tr(B**m) / theta**m of the certificate
# (see _kato_temple); the measured rounding of that ratio is below 5e-14
_TRACE_MARGIN = 2.0 ** -30
_EPS = np.finfo(float).eps


def smallest_singular_value(t):
    """Smallest singular value of a lower-triangular p x p matrix.

    A 2-d matrix gives a float; a (k, p, p) stack gives the k values as an
    array, each independent of the rest of the stack.  A matrix with a zero
    diagonal entry is singular and gives exactly 0.  Otherwise it is scaled
    by the power of two that puts its smallest diagonal entry in [1, 2) and
    inverted in place (``_tril_invert``): row substitution on diagonal
    blocks of at most ``_INV_LEAF`` rows, block products above.  sigma_min
    is 1 / sqrt(lambda_max(A^H A)) for that inverse A, from
    ``_top_eigenvalue`` (the Gram matrix up to ``_GRAM_ROWS`` rows,
    Lanczos above), which scales A once more.  Neither scaling
    rounds, and together they keep every intermediate inside double range
    unless A itself is not representable, which raises OverflowError.
    """
    t = np.asarray(t)
    if t.ndim not in (2, 3) or t.shape[-2] != t.shape[-1]:
        raise ValueError(f"expected a square matrix or a 3-d stack of them, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("matrix entries must be finite")
    p = t.shape[-1]
    if np.any(t.reshape(-1, p * p)[:, _strict_upper(p)]):
        raise ValueError("expected lower-triangular matrices")
    dtype = np.complex128 if np.iscomplexobj(t) else np.float64
    stack = np.ascontiguousarray(t.reshape(-1, p, p), dtype=dtype)
    diag = np.abs(np.diagonal(stack, axis1=1, axis2=2)).min(axis=1)
    values = np.zeros(len(stack))
    live = diag > 0.0
    if np.any(live):
        e = np.frexp(diag[live])[1] - 1
        a = _scaled(stack if np.all(live) else stack[live], -e)
        # an inverse past double range leaves inf or nan entries, and
        # _top_eigenvalue raises OverflowError on them
        with np.errstate(over="ignore", invalid="ignore"):
            _tril_invert(a)
        theta, f = _top_eigenvalue(a)
        values[live] = np.ldexp(1.0 / np.sqrt(theta), e - f)
    return float(values[0]) if t.ndim == 2 else values


@functools.cache
def _strict_upper(p):
    """Flat indices into a p x p matrix of its strictly upper triangle (read-only, shared)."""
    i, j = np.triu_indices(p, 1)
    index = i * p + j
    index.flags.writeable = False
    return index


def _scaled(x, exp):
    """x * 2**exp for each matrix of the stack x, by two power-of-two factors.

    Each factor stays inside double range for any exponent that a finite
    x and its scaled value can need, and multiplying by it is exact.
    """
    half = exp // 2
    out = x * np.ldexp(1.0, half)[:, None, None]
    out *= np.ldexp(1.0, exp - half)[:, None, None]
    return out


def _tril_invert(s):
    """Overwrite each lower-triangular matrix of the stack s with its inverse.

    The matrix is halved recursively into blocks [[A, 0], [C, D]] down to
    diagonal leaves of at most ``_INV_LEAF`` rows.  Every leaf is inverted
    in place by row substitution (``_substitute``), all leaves of one size
    together: for p <= ``_INV_LEAF`` the leaf is s itself, and larger
    matrices copy their leaves of each size into one contiguous stack and
    back.  Then, bottom up, each block's C is replaced by the lower-left
    block -D^-1 C A^-1 of its inverse, two matrix products.
    """
    p = s.shape[1]
    if p <= _INV_LEAF:
        _substitute(s)
        return
    leaves, joins = {}, []  # first rows of the leaves by size; splits after those in their halves

    def split(lo, hi):
        if hi - lo <= _INV_LEAF:
            leaves.setdefault(hi - lo, []).append(lo)
            return
        mid = (lo + hi) // 2
        split(lo, mid)
        split(mid, hi)
        joins.append((lo, mid, hi))

    split(0, p)
    for size, starts in leaves.items():
        blocks = [(slice(None), slice(lo, lo + size), slice(lo, lo + size)) for lo in starts]
        stack = np.stack([s[b] for b in blocks], axis=1)
        _substitute(stack.reshape(-1, size, size))
        for j, b in enumerate(blocks):
            s[b] = stack[:, j]
    del stack  # not held through the block products' temporaries
    for lo, mid, hi in joins:
        s[:, mid:hi, lo:mid] = -(s[:, mid:hi, mid:hi] @ (s[:, mid:hi, lo:mid] @ s[:, lo:mid, lo:mid]))


def _substitute(a):
    """Overwrite each lower-triangular matrix T of the contiguous stack a with its inverse A.

    Row i of T A = I gives A_i = (e_i - T_{i,<i} A_{<i}) / T_ii, so rows
    are computed top down and row i of A overwrites row i of T, which no
    later row reads.  Each A_ij is the forward substitution for T x = e_j,
    so the computed A satisfies |T A - I| <= c * m * eps * |T| |A| for an
    m-row matrix; the products are batched matmuls over the whole stack.
    """
    for i in range(a.shape[1]):
        a[:, i, :i] = (a[:, i : i + 1, :i] @ a[:, :i, :i])[:, 0] / -a[:, i, i, None]
        a[:, i, i] = 1.0 / a[:, i, i]


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
    """lambda_max(A^H A) for each matrix A of the stack a.

    Returns (theta, f): A is scaled in place by the power of two 2**-f that
    puts its largest real or imaginary part in [1/2, 1), so that
    lambda_max(A^H A) = theta * 4**f with theta between 1/4 and 2 p**2.
    Up to ``_GRAM_ROWS[a.dtype]`` rows (64 real, 32 complex), theta is the
    top eigenvalue of the Gram matrix, whose entries stay below 2 p, from
    ``_gram_top``: certified by Kato-Temple to within eps * theta from
    squarings of the matrix, or from LAPACK's eigvalsh where the
    certificate fails.  Forming the Gram matrix perturbs it by at most
    p * eps * || |A| ||**2 <= p**2 * eps * theta, and either path adds at
    most a few p * eps * theta, so by Weyl's inequality theta keeps a
    relative accuracy of about p**2 * eps, 4.6e-13 at 64 rows, in the worst
    case; roundings of random sign give about sqrt(p) * eps.  A bottom
    eigenvalue would lose the squared condition number instead.

    Above, each Lanczos step takes the three-term recurrence
    w = A^H A v_j - beta_{j-1} v_{j-1} - alpha_j v_j, v_{j+1} = w / beta_j,
    which extends the tridiagonal T_m.  Only v_j and v_{j-1} are kept and
    nothing is reorthogonalized (see ``_ritz_step``).  A matrix leaves once
    ``_ritz_step`` finds its top Ritz pair converged, at step p at the
    latest, where beta_p is taken as zero.  Only the matrices still
    iterating are carried on, and each step is computed matrix by matrix,
    so every value is independent of the stack around it.
    """
    top = np.maximum(a.view(np.float64).max(axis=(1, 2)), -a.view(np.float64).min(axis=(1, 2)))
    if not np.all(np.isfinite(top)):
        raise OverflowError("the inverse of the matrix leaves double precision")
    f = np.frexp(top)[1]
    a *= np.ldexp(1.0, -f)[:, None, None]
    k, p, _ = a.shape
    if p <= _GRAM_ROWS[a.dtype]:
        return _gram_top(a.conj().swapaxes(1, 2) @ a), f
    v = np.broadcast_to(_start_vector(p).astype(a.dtype), (k, p))
    alpha = np.empty((p, k))
    beta2 = np.empty((p, k))  # beta2[j] = beta_j**2 couples rows j and j+1 of T
    theta, rows = np.empty(k), np.arange(k)
    for j in range(p):
        # A^H (A v) as the conjugate of (A v)^H A
        w = ((a @ v[..., None]).conj().swapaxes(1, 2) @ a)[:, 0].conj()
        if j:
            w -= np.sqrt(beta2[j - 1])[:, None] * v_prev
        alpha[j] = (v[:, None, :] @ w.conj()[..., None])[:, 0, 0].real
        w -= alpha[j][:, None] * v
        norm2 = (w.conj()[:, None, :] @ w[..., None])[:, 0, 0].real
        if j == p - 1:
            norm2[:] = 0.0
        ritz, conv = _ritz_step(alpha[: j + 1], beta2[:j], norm2)
        if np.any(conv):
            theta[rows[conv]] = ritz[conv]
            keep = ~conv
            if not np.any(keep):
                break
            rows, a, v, w = rows[keep], a[keep], v[keep], w[keep]
            alpha, beta2, norm2 = alpha[:, keep], beta2[:, keep], norm2[keep]
        beta2[j] = norm2
        v_prev, v = v, w / np.sqrt(norm2)[:, None]
    return theta, f


def _ritz_step(alpha, beta2, norm2):
    """The top Ritz value theta of each tridiagonal T_m and whether its residual is small.

    ``alpha`` (m, k) and ``beta2`` (m - 1, k) hold the diagonals and squared
    off-diagonals of T_m, ``norm2`` the squared beta_m of the next Lanczos
    vector.  Returns (theta, conv), conv where beta_m is zero or the
    residual beta_m * |y_m| of the top Ritz pair (theta, y) from LAPACK's
    eigh is at most ``RITZ_RTOL`` * theta.  That pair is exact for T_m + E,
    ||E|| of order m * eps * theta, so the true residual of the Ritz pair of
    A^H A is beta_m * |y_m| to within ||E||: below RITZ_RTOL * theta for m < 128.

    No Lanczos vector is reorthogonalized, and this test needs none (Paige,
    J. Inst. Maths Applics 18, 1976; Linear Algebra Appl. 34, 1980).  In
    floating point the Lanczos relation still holds up to a term of order
    m * eps * ||A^H A||, orthogonality is lost only along Ritz vectors that
    have converged, and a Ritz value whose computed residual beta_m * |y_m|
    is small lies within about that residual, plus that rounding term, of
    an eigenvalue of A^H A.  The matrix leaves the iteration at that step.
    """
    m, k = alpha.shape
    t, i = np.zeros((k, m, m)), np.arange(m)
    t[:, i, i] = alpha.T
    t[:, i[1:], i[:-1]] = np.sqrt(beta2.T)  # eigh reads the lower triangle
    values, vectors = np.linalg.eigh(t)
    theta = values[:, -1]
    return theta, (norm2 == 0.0) | (norm2 * vectors[:, -1, -1] ** 2 <= (RITZ_RTOL * theta) ** 2)


def _gram_top(b):
    """lambda_max(B) for each Hermitian positive semidefinite matrix B of the stack b.

    From ``_CERTIFY_ROWS[b.dtype]`` rows up, each B is first tried by a
    Kato-Temple certificate (Parlett, The Symmetric Eigenvalue Problem,
    1998, sec. 10.6) built from batched products alone.  B is scaled by
    the power of two 2**-g that puts its largest diagonal entry in
    [1/2, 1).  A positive semidefinite matrix has no entry above its
    largest diagonal entry, so the top eigenvalue of B 2**-g lies in
    [1/2, p), and ``_SQUARINGS[b.dtype]`` squarings give C = (B 2**-g)**m,
    m = 2**7 real (2**6 complex), whose entries all lie below
    p**m <= 2**768 at 64 rows (2**320 at 32) and whose norm lies above
    2**-m: no squaring overflows, and every entry that underflows is
    below 2**-890 of the norm.  ``_kato_temple`` then accepts or rejects
    each Rayleigh quotient theta, and an accepted theta has lambda_max(B)
    in [theta, theta (1 + eps)], up to the roundings stated there.  The
    rejected matrices, such as ties and near-ties, whose top eigenvector C
    does not separate, go to LAPACK's eigvalsh, and only those.  So do all
    matrices of fewer rows, where eigvalsh is the cheaper path.

    B = A^H A is Hermitian up to the rounding of its product, and theta
    is the Rayleigh quotient of its Hermitian part.  Either way, theta
    keeps the accuracy contract of ``_top_eigenvalue``: about p**2 * eps
    in the worst case, from forming B.  Every step is taken matrix by
    matrix, and a rejected B goes to eigvalsh unchanged, so each value is
    independent of the rest of the stack.
    """
    if b.shape[1] < _CERTIFY_ROWS[b.dtype]:
        return np.linalg.eigvalsh(b)[:, -1]
    g = np.frexp(np.diagonal(b, axis1=1, axis2=2).real.max(axis=1))[1]
    c = b * np.ldexp(1.0, -g)[:, None, None]
    squarings = _SQUARINGS[b.dtype]
    for _ in range(squarings):
        c = c @ c
    theta, ok = _kato_temple(b, c, g, 1 << squarings)
    if not np.all(ok):
        theta[~ok] = np.linalg.eigvalsh(b[~ok])[:, -1]
    return theta


def _kato_temple(b, c, g, m):
    """(theta, certified) for each matrix B of the stack b, from C = (B 2**-g)**m in c.

    x is the column of C with the largest diagonal entry, m power steps
    from that unit vector, and theta = x^H B x / x^H x, the residual
    r**2 = ||B x - theta x||**2 / x^H x.  No eigenvalue of B is negative
    and theta <= lambda_1, so the second eigenvalue has
    lambda_2**m <= tr(B**m) - lambda_1**m <= tr(B**m) - theta**m, and

        mu = theta * (tr(C) / (theta 2**-g)**m * (1 + _TRACE_MARGIN) - 1)**(1/m)

    bounds it.  Where theta > mu, Kato-Temple's inequality gives
    theta <= lambda_1 <= theta + r**2 / (theta - mu), so theta is
    certified when r**2 <= eps * theta * (theta - mu).

    Margins.  The trace ratio is computed from C, which carries the
    rounding of its squarings: a first-order bound lets each squaring
    double the relative error that C carries and add about p * eps *
    (tr C / ||C||)**2, and theta**m adds m times the error of theta.
    Against 60-digit mpmath, after seven squarings of Bartlett draws and
    of near-flat spectra (tr B / lambda_1 close to p) at 10, 32 and 64
    rows, the computed ratio was within 4.2e-14 relative, and
    ``_TRACE_MARGIN`` = 2**-30 leaves a factor of 2e4 over that.  The
    margin enters mu through an m-th root, so it costs little: it keeps
    mu at or above about 2**(-30/m) theta (0.85 theta at m = 128), and had
    the rounding exceeded it by a factor of 1e4, the certified error would
    still be below 1.8 eps * theta.  theta and r carry the roundings of
    x^H B x and B x, of order p * eps * tr(B) |x|, which do not change the
    certified error beyond its last digits.  A matrix whose ratio, margin
    included, is at most 1 is rejected.
    """
    k = len(c)
    d = np.diagonal(c, axis1=1, axis2=2).real
    x = c[np.arange(k), :, d.argmax(axis=1)]
    y = (b @ x[..., None])[..., 0]
    xx = _norm2(x)
    theta = (x.conj() * y).real.sum(axis=1) / xx
    r2 = _norm2(y - theta[:, None] * x) / xx
    bound = d.sum(axis=1) / (theta * np.ldexp(1.0, -g)) ** m * (1.0 + _TRACE_MARGIN) - 1.0
    root = np.maximum(bound, 0.0) ** (1.0 / m)  # mu / theta
    return theta, (bound > 0.0) & (root < 1.0) & (r2 <= _EPS * theta * theta * (1.0 - root))


def _norm2(x):
    """Squared 2-norm of each row of x."""
    return (x.conj() * x).real.sum(axis=1)
