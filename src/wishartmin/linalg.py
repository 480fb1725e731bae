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
law grows with the grid except the returned values.  logdet_lu and
sqrt_det_antisymmetric take a single matrix in the same form and run the
same row-scaled determinant on a 1-matrix stack, after an integer shift of
each column.

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
reorthogonalization, and eigh gives the top Ritz pair.  A matrix leaves
at the first step where either of two rules holds.  Kato-Temple
certifies the top Ritz value to eps once its residual is small enough
against a bound on the second eigenvalue, which Weyl's inequality takes
from the partition of A^H A by the Krylov space: the second Ritz value or
the trace left outside that space, whichever is larger, plus the coupling
beta_m.  The residual rule, the other exit, accepts a residual of
RITZ_RTOL times the Ritz value.  A top eigenvalue keeps full relative
accuracy either way, where the bottom one of T T^H would lose the squared
condition number of T.  The input check reads the strictly upper triangle
through a flat index built once per p.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "logdet_lu",
    "sqrt_det_antisymmetric",
    "ZERO_EXP",
    "hankel_kernel",
    "jacobi_gap_density",
    "smallest_singular_value",
]

# a negative det of an antisymmetric matrix below ANTISYM_NOISE_FLOOR times the
# product of its rows' largest |entries| counts as roundoff zero
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


def logdet_lu(mant, expo):
    """(sign, log|det|) of the square matrix mant * 2**expo by the engine's row-scaled slogdet.

    ``mant`` and ``expo`` are (d, d) arrays in the form hankel_kernel
    returns for one point; the exponent of a zero mantissa is ignored.  Each
    column is first shifted by its largest binary exponent, an integer shift
    added back afterwards, so a column far below the others does not
    underflow when the rows are scaled.  The empty matrix gives (1.0, 0.0);
    exact singularity gives (0.0, -inf).
    """
    mant = np.asarray(mant, dtype=float)
    expo = np.where(mant != 0.0, expo, ZERO_EXP)
    shift = expo.max(axis=0, initial=ZERO_EXP)
    expo = np.where(mant != 0.0, expo - shift, ZERO_EXP)
    sign, logabs, top, _ = _row_scaled_slogdet(mant[None], expo[None])
    return float(sign[0]), float(logabs[0] + _LN2 * (top.sum() + shift.sum()))


def sqrt_det_antisymmetric(mant, expo):
    """(sign, log) of the non-negative square root of det(mant * 2**expo), as logdet_lu gives them.

    The matrix must have even dimension, a zero diagonal and a_ji = -a_ij,
    with |log|a_ij| - log|a_ji|| at most 2 * ANTISYM_REL_TOL; otherwise
    ValueError.  The determinant of such a matrix is a perfect square (of
    its Pfaffian), so the global convention det^(1/2) = +sqrt(det) is well
    defined.  A tiny negative determinant from roundoff, below
    ANTISYM_NOISE_FLOOR times the product of each row's largest entry, is
    clamped to zero, (0.0, -inf); a larger one raises ArithmeticError.
    """
    mant = np.asarray(mant, dtype=float)
    dim = len(mant)
    if dim % 2 != 0:
        raise ValueError(f"antisymmetric square root needs even dimension, got {dim}")
    diagonal = np.flatnonzero(np.diagonal(mant))
    if diagonal.size:
        i = diagonal[0]
        raise ValueError(f"antisymmetric matrix must have zero diagonal (entry {i},{i})")
    # a zero entry has log magnitude -inf, and two zeros differ by nan, within tolerance
    with np.errstate(divide="ignore", invalid="ignore"):
        logmag = np.log(np.abs(mant)) + _LN2 * np.asarray(expo)
        bad = np.abs(logmag - logmag.T) > 2.0 * ANTISYM_REL_TOL
    bad |= np.sign(mant) != -np.sign(mant.T)
    if bad.any():
        i, j = np.argwhere(np.triu(bad))[0]
        raise ValueError(f"matrix is not antisymmetric at entry ({i},{j})")
    sign, logdet = logdet_lu(mant, expo)
    if sign > 0:
        return 1.0, 0.5 * logdet
    if sign < 0 and not logdet < logmag.max(axis=1).sum() + math.log(ANTISYM_NOISE_FLOOR):
        raise ArithmeticError(
            "determinant of antisymmetric matrix is negative beyond the noise floor")
    return 0.0, -math.inf


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
# RITZ_RTOL times its Ritz value, if the Kato-Temple certificate has not
# stopped it first; that Ritz value is then within the same relative
# distance of an eigenvalue of A^H A, so sigma_min within half of it
RITZ_RTOL = 2.0 ** -45
# diagonal blocks up to this size are inverted by row substitution
_INV_LEAF = 32
# matrices up to this many rows, per dtype, take their top eigenvalue from the
# Gram matrix (_gram_top), and larger ones from Lanczos.  Where the two cost
# the same depends on n - p, which sets the Lanczos steps.  Measured on one
# CPU over sampler chunks, with both paths' certificates: near the hard edge
# (n - p <= 2) the Gram path takes less time up to about 64 real and 30
# complex rows, at n - p = 10 beyond 96 real and up to about 48 complex rows,
# and at n = 2p beyond both.  Real stacks also stop at 64, where the Gram
# path's worst-case error bound (see _top_eigenvalue) is still below 5e-13
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
# relative margin on the computed tr(B**m) / theta**m of the Gram path's
# certificate (see _kato_temple), whose measured rounding is below 5e-14,
# and on the Lanczos bound mu on lambda_2 (see _top_eigenvalue)
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
    _split(0, p, leaves, joins)
    for size, starts in leaves.items():
        blocks = [(slice(None), slice(lo, lo + size), slice(lo, lo + size)) for lo in starts]
        stack = np.stack([s[b] for b in blocks], axis=1)
        _substitute(stack.reshape(-1, size, size))
        for j, b in enumerate(blocks):
            s[b] = stack[:, j]
    del stack  # not held through the block products' temporaries
    for lo, mid, hi in joins:
        s[:, mid:hi, lo:mid] = -(s[:, mid:hi, mid:hi] @ (s[:, mid:hi, lo:mid] @ s[:, lo:mid, lo:mid]))


def _split(lo, hi, leaves, joins):
    """Halve rows [lo, hi) down to leaves of at most ``_INV_LEAF`` rows.

    Appends each leaf's first row to ``leaves[size]`` and each split
    (lo, mid, hi) to ``joins`` after the splits inside its halves.  A module
    function, not a closure: a recursive closure is a reference cycle, which
    only the cyclic garbage collector frees, so each call's lists would
    outlive it.
    """
    if hi - lo <= _INV_LEAF:
        leaves.setdefault(hi - lo, []).append(lo)
        return
    mid = (lo + hi) // 2
    _split(lo, mid, leaves, joins)
    _split(mid, hi, leaves, joins)
    joins.append((lo, mid, hi))


def _substitute(a):
    """Overwrite each lower-triangular matrix T of the stack a with its inverse A.

    Row i of T A = I gives A_i = (e_i - T_{i,<i} A_{<i}) / T_ii, so rows
    are computed top down and row i of A overwrites row i of T, which no
    later row reads.  Each A_ij is the forward substitution for T x = e_j,
    so the computed A satisfies |T A - I| <= c * m * eps * |T| |A| for an
    m-row matrix; the products are batched matmuls over the whole stack.
    The diagonal 1 / T_ii is written first, with -T_ii kept aside, so each
    row takes one statement.
    """
    diagonal = np.einsum("kii->ki", a)  # a writable view
    neg = -diagonal
    diagonal[...] = 1.0 / diagonal
    for i in range(1, a.shape[1]):
        a[:, i, :i] = (a[:, i : i + 1, :i] @ a[:, :i, :i])[:, 0] / neg[:, i, None]


def _start_vector(a):
    """Unit start vectors of the Lanczos iteration, one per matrix A of the stack a.

    The sum of two unit vectors.  One is fixed: entries 2*frac(i*phi) - 1
    (phi the golden ratio) and a first entry of 1, deterministic, with no
    sign or size pattern that a structured matrix could be orthogonal to.
    The other is +-A^H e_p, the conjugate of A's last row: the inverse of a
    Bartlett factor has its largest row last as a rule, so this is close
    to one power step for free.  The row is scaled by its largest entry
    first, so that its norm cannot underflow, and its sign makes the real
    part of its inner product with the fixed part non-negative, so that the
    sum cannot cancel.  The fixed part must stay: for a diagonal A, A^H e_p
    alone is an eigenvector of A^H A, often not the top one.
    """
    p = a.shape[1]
    u = 2.0 * ((np.arange(p) * 0.6180339887498949) % 1.0) - 1.0
    u[0] = 1.0
    u /= math.sqrt(float(u @ u))
    row = a[:, -1].conj()
    row = row / np.maximum(np.abs(row).max(axis=1), np.finfo(float).tiny)[:, None]  # a zero row stays zero
    row *= (np.sign((row @ u).real) / np.sqrt(np.maximum(_norm2(row), 1.0)))[:, None]
    v = u + row
    return v / np.sqrt(_norm2(v))[:, None]


def _top_eigenvalue(a):
    """lambda_max(A^H A) for each matrix A of the stack a.

    Returns (theta, f): A is scaled in place by the power of two 2**-f that
    puts its largest real or imaginary part in [1/2, 1), so that
    lambda_max(A^H A) = theta * 4**f with theta between 1/4 and 2 p**2.
    Up to ``_GRAM_ROWS[a.dtype]`` rows (64 real, 32 complex), theta is the
    top eigenvalue of the Gram matrix, whose entries stay below 2 p, from
    ``_gram_top``: certified by Kato-Temple to within eps * theta from
    squarings of the matrix, or from LAPACK's eigvalsh where the
    certificate fails.  A certified theta is a Rayleigh quotient of A^H A
    taken from products with A, so only their roundings, at most
    p * eps * || |A| || |x| each, enter it, and none from forming the Gram
    matrix.  The fallback forms the Gram matrix, which perturbs it by at most
    p * eps * || |A| ||**2 <= p**2 * eps * theta, and eigvalsh adds at most
    a few p * eps * theta, so by Weyl's inequality theta keeps a relative
    accuracy of about p**2 * eps, 4.6e-13 at 64 rows, in the worst case;
    roundings of random sign give about sqrt(p) * eps.  A bottom
    eigenvalue would lose the squared condition number instead.

    Above, each Lanczos step takes the three-term recurrence
    w = A^H A v_j - beta_{j-1} v_{j-1} - alpha_j v_j, v_{j+1} = w / beta_j
    from ``_start_vector``, and writes alpha_j and beta_{j-1} into the
    tridiagonal T_m, held in a buffer that doubles when it fills.  Only
    v_j and v_{j-1} are kept and nothing is reorthogonalized.  A matrix
    leaves once ``_ritz_step`` accepts its top Ritz value theta, by
    whichever of two rules holds first, and at step p at the latest, where
    beta_p is taken as zero:

    - Kato-Temple.  In the basis [V_m, V_m^perp], B = A^H A is
      [[T_m, E], [E^H, C]] with ||E|| = beta_m.  C is positive
      semidefinite, so lambda_1(C) <= tr C = tr B - sum alpha_j, and
      Weyl's inequality bounds lambda_2(B) by
      mu = (max(theta_2, tr B - sum alpha_j) + beta_m) (1 + _TRACE_MARGIN),
      theta_2 the second Ritz value.  tr B is taken once per matrix, as
      ||A||_F**2.  Where mu < theta, the residual r = beta_m |y_m| of the
      top Ritz pair (theta, y) gives theta <= lambda_1 <= theta (1 + eps)
      once r**2 <= eps * theta * (theta - mu) (``_certified``), so theta
      is accurate to eps * theta up to the roundings of the recurrence.
    - The residual rule, r <= RITZ_RTOL * theta: theta is then within
      RITZ_RTOL * theta of an eigenvalue of B.

    The residual rule stays for two reasons.  Where the rest of the
    spectrum holds more than theta of tr B, as for n well above p, the
    trace bound never falls below theta.  And it ends the iteration before
    rounding can spoil sum alpha_j: by Paige's analysis, orthogonality
    among the Lanczos vectors is lost only along Ritz vectors that have
    converged, in proportion to eps ||B|| / r.  A certificate that holds as
    soon as r falls to sqrt(eps * theta * (theta - mu)), as near the hard
    edge, finds a basis orthonormal to about sqrt(eps), so sum alpha_j is
    the trace of a near-orthonormal compression of B, off by about
    eps * theta, far inside the margin; and the residual rule stops the
    iteration before that loss reaches eps / RITZ_RTOL = 2**-7.  A ghost
    copy of theta, which orthogonality lost in full would add to T_m,
    would also put theta_2 at theta and fail the test mu < theta.
    Only the matrices still iterating are carried on, and each step is
    computed matrix by matrix, so every value is independent of the stack
    around it.
    """
    top = np.maximum(a.view(np.float64).max(axis=(1, 2)), -a.view(np.float64).min(axis=(1, 2)))
    if not np.all(np.isfinite(top)):
        raise OverflowError("the inverse of the matrix leaves double precision")
    f = np.frexp(top)[1]
    a *= np.ldexp(1.0, -f)[:, None, None]
    k, p, _ = a.shape
    if p <= _GRAM_ROWS[a.dtype]:
        return _gram_top(a), f
    # tr(A^H A) - sum alpha_j: the trace bound on lambda_1(C)
    rest = np.array([np.vdot(m, m).real for m in a])
    v = _start_vector(a)
    tri = np.zeros((k, 8, 8))  # T_m in its leading m x m block, lower triangle only
    theta, rows = np.empty(k), np.arange(k)
    for j in range(p):
        if j == tri.shape[1]:
            tri = np.pad(tri, ((0, 0), (0, j), (0, j)))
        # A^H (A v) as the conjugate of (A v)^H A
        w = ((a @ v[..., None]).conj().swapaxes(1, 2) @ a)[:, 0].conj()
        if j:
            w -= beta[:, None] * v_prev
            tri[:, j, j - 1] = beta
        alpha = (v[:, None, :] @ w.conj()[..., None])[:, 0, 0].real
        w -= alpha[:, None] * v
        tri[:, j, j] = alpha
        rest -= alpha
        norm2 = (w.conj()[:, None, :] @ w[..., None])[:, 0, 0].real
        if j == p - 1:
            norm2[:] = 0.0
        ritz, conv = _ritz_step(tri[:, : j + 1, : j + 1], norm2, rest)
        if conv.any():
            theta[rows[conv]] = ritz[conv]
            keep = ~conv
            if not keep.any():
                break
            rows, a, v, w = rows[keep], a[keep], v[keep], w[keep]
            tri, rest, norm2 = tri[keep], rest[keep], norm2[keep]
        beta = np.sqrt(norm2)
        v_prev, v = v, w / beta[:, None]
    return theta, f


def _ritz_step(t, norm2, rest):
    """The top Ritz value theta of each tridiagonal T_m and whether it is accepted.

    ``t`` (k, m, m) holds T_m in its lower triangle, which is all that
    LAPACK's eigh reads, ``norm2`` the squared beta_m of the next Lanczos
    vector and ``rest`` tr(A^H A) - sum alpha_j.  eigh gives the top Ritz
    pair (theta, y) and the second Ritz value theta_2 (0 for m = 1), and
    r**2 = beta_m**2 y_m**2 is the squared residual of the top Ritz pair of
    A^H A.  A matrix is accepted where beta_m is zero, or by either rule:

    - Kato-Temple (``_certified``).  The part C of A^H A outside the
      Krylov space is positive semidefinite, so its top eigenvalue is at
      most tr C = ``rest``, and Weyl's inequality on the partition
      [[T_m, E], [E^H, C]], ||E|| = beta_m, bounds lambda_2 by
      mu = (max(theta_2, rest) + beta_m) (1 + ``_TRACE_MARGIN``).  Where
      mu < theta and r**2 <= eps * theta * (theta - mu), theta is within
      eps * theta below lambda_max(A^H A).
    - The residual rule, r <= ``RITZ_RTOL`` * theta.  It stays because
      the trace bound never falls below theta where the rest of the
      spectrum holds more than theta of the trace, and because it ends the
      iteration while orthogonality is lost only along converged Ritz
      vectors, so that sum alpha_j stays the trace of a near-orthonormal
      compression (see ``_top_eigenvalue``).

    The eigh pair is exact for T_m + E, ||E|| of order m * eps * theta, so
    the true residual is beta_m * |y_m| to within ||E||: below
    RITZ_RTOL * theta for m < 128 under the residual rule.

    No Lanczos vector is reorthogonalized, and these tests need none (Paige,
    J. Inst. Maths Applics 18, 1976; Linear Algebra Appl. 34, 1980).  In
    floating point the Lanczos relation still holds up to a term of order
    m * eps * ||A^H A||, orthogonality is lost only along Ritz vectors that
    have converged, and a Ritz value whose computed residual beta_m * |y_m|
    is small lies within about that residual, plus that rounding term, of
    an eigenvalue of A^H A.  The matrix leaves the iteration at that step.
    """
    values, vectors = np.linalg.eigh(t)
    theta = values[:, -1]
    r2 = norm2 * vectors[:, -1, -1] ** 2
    second = values[:, -2] if t.shape[1] > 1 else 0.0
    mu = (np.maximum(second, rest) + np.sqrt(norm2)) * (1.0 + _TRACE_MARGIN)
    return theta, (norm2 == 0.0) | (r2 <= (RITZ_RTOL * theta) ** 2) | _certified(theta, mu, r2)


def _certified(theta, mu, r2):
    """Kato-Temple (Parlett, The Symmetric Eigenvalue Problem, 1998, sec. 10.6) for a top eigenvalue.

    theta is a Rayleigh quotient of a Hermitian B with residual norm
    sqrt(r2), and mu bounds its second eigenvalue.  Where mu < theta,
    lambda_1 is the only eigenvalue above mu, and
    theta <= lambda_1 <= theta + r2 / (theta - mu).  True where that upper
    end is at most theta (1 + eps).
    """
    return (mu < theta) & (r2 <= _EPS * theta * (theta - mu))


def _gram_top(a):
    """lambda_max(A^H A) for each matrix A of the stack a, from its Gram matrix B = A^H A.

    From ``_CERTIFY_ROWS[a.dtype]`` rows up, each B is first tried by a
    Kato-Temple certificate (Parlett, The Symmetric Eigenvalue Problem,
    1998, sec. 10.6) built from batched products alone.  B is scaled in
    place by the power of two 2**-g that puts its largest diagonal entry in
    [1/2, 1).  A positive semidefinite matrix has no entry above its
    largest diagonal entry, so the top eigenvalue of B 2**-g lies in
    [1/2, p), and ``_SQUARINGS[a.dtype]`` squarings give C = (B 2**-g)**m,
    m = 2**7 real (2**6 complex), whose entries all lie below
    p**m <= 2**768 at 64 rows (2**320 at 32) and whose norm lies above
    2**-m: no squaring overflows, and every entry that underflows is
    below 2**-890 of the norm.  The squarings alternate between B's buffer
    and one other, so two Gram-sized arrays are held.  ``_kato_temple``
    then accepts or rejects each Rayleigh quotient theta, and an accepted
    theta has lambda_max(A^H A) in [theta, theta (1 + eps)], up to the
    roundings stated there.  The rejected matrices, such as ties and
    near-ties, whose top eigenvector C does not separate, go to LAPACK's
    eigvalsh of their Gram matrix, recomputed from A, and only those.  So
    do all matrices of fewer rows, where eigvalsh is the cheaper path.

    An accepted theta is a Rayleigh quotient of A^H A itself, taken from
    products with A (``_kato_temple``), so the rounding of B only chooses
    x and bounds lambda_2.  The fallback keeps the accuracy contract of
    ``_top_eigenvalue``: about p**2 * eps in the worst case, from forming
    B.  Every step is taken matrix by matrix, and a rejected matrix's Gram
    matrix is recomputed from that matrix alone, so each value is
    independent of the rest of the stack.
    """
    b = a.conj().swapaxes(1, 2) @ a
    if a.shape[1] < _CERTIFY_ROWS[a.dtype]:
        return np.linalg.eigvalsh(b)[:, -1]
    g = np.frexp(np.diagonal(b, axis1=1, axis2=2).real.max(axis=1))[1]
    b *= np.ldexp(1.0, -g)[:, None, None]
    c, spare = b, np.empty_like(b)
    squarings = _SQUARINGS[a.dtype]
    for _ in range(squarings):
        np.matmul(c, c, out=spare)
        c, spare = spare, c
    theta, ok = _kato_temple(a, c, g, 1 << squarings)
    if not np.all(ok):
        rejected = a[~ok]
        theta[~ok] = np.linalg.eigvalsh(rejected.conj().swapaxes(1, 2) @ rejected)[:, -1]
    return theta


def _kato_temple(a, c, g, m):
    """(theta, certified) for each matrix A of the stack a, from C = (A^H A 2**-g)**m in c.

    x is the column of C with the largest diagonal entry, m power steps
    from that unit vector, theta = ||A x||**2 / ||x||**2 its Rayleigh
    quotient of B = A^H A, and y = A^H (A x), taken as the conjugate of
    (A x)^H A, gives the residual r**2 = ||y - theta x||**2 / ||x||**2.
    No eigenvalue of B is negative and theta <= lambda_1, so the second
    eigenvalue has lambda_2**m <= tr(B**m) - lambda_1**m <=
    tr(B**m) - theta**m, and

        mu = theta * (tr(C) / (theta 2**-g)**m * (1 + _TRACE_MARGIN) - 1)**(1/m)

    bounds it.  Where theta > mu, Kato-Temple's inequality gives
    theta <= lambda_1 <= theta + r**2 / (theta - mu), so theta is
    certified when r**2 <= eps * theta * (theta - mu).

    Margins.  The trace ratio is computed from C, which carries the
    rounding of forming B and of its squarings: a first-order bound lets
    each squaring double the relative error that C carries and add about
    p * eps * (tr C / ||C||)**2, and theta**m adds m times the error of
    theta.  Against 60-digit mpmath, after seven squarings of Bartlett
    draws and of near-flat spectra (tr B / lambda_1 close to p) at 10, 32
    and 64 rows, the computed ratio was within 4.2e-14 relative, and
    ``_TRACE_MARGIN`` = 2**-30 leaves a factor of 2e4 over that.  The
    margin enters mu through an m-th root, so it costs little: it keeps
    mu at or above about 2**(-30/m) theta (0.85 theta at m = 128), and had
    the rounding exceeded it by a factor of 1e4, the certified error would
    still be below 1.8 eps * theta.  theta and r carry only the roundings
    of the products A x and (A x)^H A, at most p * eps * || |A| || |x| in
    each (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    sec. 3.5): they do not change the certified error beyond its last
    digits, and no rounding of B enters theta.  A matrix whose ratio,
    margin included, is at most 1 is rejected.
    """
    k = len(c)
    d = np.diagonal(c, axis1=1, axis2=2).real
    x = c[np.arange(k), :, d.argmax(axis=1)]
    ax = a @ x[..., None]
    y = (ax.conj().swapaxes(1, 2) @ a)[:, 0].conj()
    xx = _norm2(x)
    theta = _norm2(ax[..., 0]) / xx
    r2 = _norm2(y - theta[:, None] * x) / xx
    bound = d.sum(axis=1) / (theta * np.ldexp(1.0, -g)) ** m * (1.0 + _TRACE_MARGIN) - 1.0
    mu = theta * np.maximum(bound, 0.0) ** (1.0 / m)
    return theta, (bound > 0.0) & _certified(theta, mu, r2)


def _norm2(x):
    """Squared 2-norm of each row of x."""
    return (x.conj() * x).real.sum(axis=1)
