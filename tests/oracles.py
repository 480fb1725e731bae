"""Independent oracles and measuring instruments for the test suite.

Everything here deliberately avoids the code paths it is used to check:
brute-force enumeration, exact rational or high-precision decimal
arithmetic, recursive determinant/Pfaffian expansions, a cyclic Jacobi
eigensolver, adaptive Simpson quadrature and central differences, and the
direct Monte Carlo path that forms the whole p x n data matrix W and takes
its singular values by LAPACK's SVD.
"""

import math
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from itertools import combinations

import numpy as np

from wishartmin.sampler import RngStream


def enum_elementary_symmetric(lams):
    """e_0..e_p by explicit enumeration of all k-subsets."""
    p = len(lams)
    out = [1.0]
    for k in range(1, p + 1):
        out.append(math.fsum(math.prod(sub) for sub in combinations(lams, k)))
    return out


def decimal_inverse_sum(lams, prec=50):
    """sum(1/lam) in high-precision decimal arithmetic."""
    getcontext().prec = prec
    return sum(Decimal(1) / Decimal(repr(v)) for v in lams)


def fraction_bessel_i(nu, x, terms=40):
    """I_nu(x) from the power series in exact rational arithmetic.

    x must be a Fraction; 40 terms are far beyond double precision for the
    argument ranges used in the tests.
    """
    nu = abs(nu)
    half = x / 2
    total = Fraction(0)
    for k in range(terms):
        total += half ** (2 * k + nu) / (math.factorial(k) * math.factorial(k + nu))
    return total


def cofactor_det(a):
    """Determinant by recursive cofactor expansion along the first row."""
    a = [list(map(float, row)) for row in a]
    d = len(a)
    if d == 0:
        return 1.0
    if d == 1:
        return a[0][0]
    total = 0.0
    for j in range(d):
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        total += (-1) ** j * a[0][j] * cofactor_det(minor)
    return total


def pfaffian_recursive(a):
    """Pfaffian of an even-dimensional antisymmetric matrix, first-row expansion."""
    a = [list(map(float, row)) for row in a]
    d = len(a)
    if d == 0:
        return 1.0
    if d % 2 != 0:
        return 0.0
    total = 0.0
    for j in range(1, d):
        keep = [k for k in range(1, d) if k != j]
        minor = [[a[r][c] for c in keep] for r in keep]
        total += (-1) ** (j - 1) * a[0][j] * pfaffian_recursive(minor)
    return total


def jacobi_smallest_eigenvalue(sym, sweeps=100, tol=1e-14):
    """Smallest eigenvalue of a real symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(sym, dtype=float, copy=True)
    d = a.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for i in range(d - 1):
            for j in range(i + 1, d):
                off = max(off, abs(a[i, j]))
        if off < tol * max(1.0, np.max(np.abs(np.diag(a)))):
            break
        for i in range(d - 1):
            for j in range(i + 1, d):
                if a[i, j] == 0.0:
                    continue
                theta = 0.5 * math.atan2(2.0 * a[i, j], a[j, j] - a[i, i])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(d)
                rot[i, i] = c
                rot[j, j] = c
                rot[i, j] = s
                rot[j, i] = -s
                a = rot.T @ a @ rot
    return float(np.min(np.diag(a)))


def hermitian_smallest_eigenvalue(herm):
    """Smallest eigenvalue of a complex Hermitian matrix.

    Uses the real symmetric embedding [[X, -Y], [Y, X]] whose spectrum is
    that of X + iY with doubled multiplicity, then the Jacobi oracle.
    """
    h = np.asarray(herm)
    x, y = h.real, h.imag
    embed = np.block([[x, -y], [y, x]])
    return jacobi_smallest_eigenvalue(embed)


def decimal_smallest_singular_value_2x2(t, prec=80):
    """sigma_min of a lower-triangular 2 x 2 real or complex matrix, in decimal.

    H = T T^dag is formed in exact rational arithmetic; det(H) =
    |t11|^2 |t22|^2, and sigma_min^2 = det(H) / lambda_max(H) has no
    cancellation, so ``prec`` digits reach every float exactly, whatever the
    scale of the two rows.
    """
    getcontext().prec = prec
    (t11, t12), (t21, t22) = [[complex(x) for x in row] for row in np.asarray(t)]
    if t12 != 0:
        raise ValueError("expected a lower-triangular matrix")

    def sq(z):
        return Fraction(z.real) ** 2 + Fraction(z.imag) ** 2

    a = sq(t11)
    d = sq(t21) + sq(t22)
    # |(T T^dag)_21|^2 = |t21 conj(t11)|^2 = |t21|^2 |t11|^2
    b2 = sq(t21) * sq(t11)
    det = sq(t11) * sq(t22)

    def dec(q):
        return Decimal(q.numerator) / Decimal(q.denominator)

    half = (a - d) / 2
    lam_max = dec((a + d) / 2) + dec(half * half + b2).sqrt()
    return float((dec(det) / lam_max).sqrt())



def decimal_tridiagonal_top(alpha, beta2, prec=60):
    """Top eigenvalue of a symmetric tridiagonal T and y_m**2 of its unit eigenvector.

    T has diagonal ``alpha`` and squared off-diagonals ``beta2``, both taken
    exactly, and every step runs in ``prec``-digit decimal arithmetic.  A
    zero beta splits T into blocks, each solved on its own: theta by
    bisection on the Sturm count, the eigenvector from the twisted
    factorization of theta - T whose twist has the smallest |gamma_r|, so
    that no recurrence runs in its unstable direction.  Returns (theta,
    y_m**2) as floats; y_m is 0 when the top eigenvalue lies only in blocks
    above the last, and the last block's value when the last block shares it.
    """
    with localcontext() as ctx:
        ctx.prec = prec
        a = [Decimal(float(x)) for x in alpha]
        b2 = [Decimal(float(x)) for x in beta2]
        cuts = [0] + [j + 1 for j, x in enumerate(b2) if x == 0] + [len(a)]
        tops = [_decimal_block_top(a[lo:hi], b2[lo : hi - 1], prec) for lo, hi in zip(cuts, cuts[1:])]
        theta = max(tops)
        if tops[-1] < theta:
            return float(theta), 0.0
        return float(theta), float(_decimal_last_entry2(a[cuts[-2] :], b2[cuts[-2] :], theta))


def _decimal_block_top(a, b2, prec):
    """Largest eigenvalue of an unreduced tridiagonal block, by bisection."""
    beta = [x.sqrt() for x in b2] + [Decimal(0)]
    lo = max(a)
    hi = max(aj + beta[j] + (beta[j - 1] if j else 0) for j, aj in enumerate(a))
    tiny = Decimal(10) ** (-2 * prec)
    while hi - lo > hi.copy_abs() * Decimal(10) ** (4 - prec):
        mid = (lo + hi) / 2
        d, above = Decimal(1), False
        for j, aj in enumerate(a):  # a negative pivot of mid - T: an eigenvalue above mid
            d = mid - aj - (b2[j - 1] / d if j else 0)
            d = d or tiny
            above = above or d < 0
        lo, hi = (mid, hi) if above else (lo, mid)
    return (lo + hi) / 2


def _decimal_last_entry2(a, b2, theta):
    """y_m**2 of the unit eigenvector of an unreduced tridiagonal block for its eigenvalue theta."""
    m = len(a)
    d, e = [theta - a[0]], [theta - a[-1]]
    for j in range(1, m):
        d.append(theta - a[j] - b2[j - 1] / d[-1])
        e.insert(0, theta - a[m - 1 - j] - b2[m - 1 - j] / e[0])
    r = min(range(m), key=lambda j: (d[j] + e[j] - (theta - a[j])).copy_abs())
    z2 = [Decimal(0)] * m
    z2[r] = Decimal(1)
    for j in range(r - 1, -1, -1):
        z2[j] = z2[j + 1] * b2[j] / (d[j] * d[j])
    for j in range(r + 1, m):
        z2[j] = z2[j - 1] * b2[j - 1] / (e[j] * e[j])
    return z2[-1] / sum(z2)

def fraction_kernel(lams, beta, n, t):
    """Q(t) and Q'(t) of the exact law in rational arithmetic, entry by entry.

    The paper's per-entry formula: Q_ij = q_ij sum_{k <= min(p, a_ij)}
    e_k t^(p-k) / (a_ij - k)!, a_ij = p + 2(gamma+1)/beta - i - j, with
    q_ij = (j-i)(-1)^(i+j) for beta=1 and (-1)^(i+1) for beta=2; Q' term by
    term.  Every eigenvalue and t is a float, hence an exact rational.
    """
    p = len(lams)
    gamma = (n - p - 1) // 2 if beta == 1 else n - p
    dim = 2 * gamma // beta
    e = [Fraction(1)] + [Fraction(0)] * p
    for lam in map(Fraction, lams):
        for k in range(p, 0, -1):
            e[k] += lam * e[k - 1]
    t = Fraction(t)
    q = [[Fraction(0)] * dim for _ in range(dim)]
    dq = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            w = (j - i) * (-1) ** (i + j) if beta == 1 else (-1) ** (i + 1)
            a = p + 2 * (gamma + 1) // beta - i - j
            for k in range(min(p, a) + 1):
                c = w * e[k] / math.factorial(a - k)
                q[i - 1][j - 1] += c * t ** (p - k)
                if k < p:
                    dq[i - 1][j - 1] += c * (p - k) * t ** (p - k - 1)
    return q, dq


def fraction_det_solve(a, b):
    """det(a) and a^-1 b for Fraction matrices, by exact Gauss-Jordan elimination."""
    d = len(a)
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    det = Fraction(1)
    for c in range(d):
        pivot = next(r for r in range(c, d) if rows[r][c] != 0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(d):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det, [[x / rows[r][r] for x in rows[r][d:]] for r in range(d)]


def fraction_exact_law(lams, beta, n, t):
    """(E(t), P(t)) of the exact law with rational kernels, determinant and trace.

    Only the final exp(-r t) and square root are rounded, so both values
    are correct to a few ulps times (1 + r t).
    """
    p = len(lams)
    gamma = (n - p - 1) // 2 if beta == 1 else n - p
    q, dq = fraction_kernel(lams, beta, n, t)
    det, x = fraction_det_solve(q, dq)
    rate = Fraction(beta, 2) * sum(1 / Fraction(v) for v in lams)
    # E^2 exp(2 r t) = det(Q)^beta / det(Lambda)^(2 gamma)
    ratio = det**beta / math.prod(map(Fraction, lams)) ** (2 * gamma)
    gap = math.exp(-float(rate * Fraction(t))) * math.sqrt(ratio)
    trace = sum(x[i][i] for i in range(len(x)))
    return gap, gap * float(rate - Fraction(beta, 2) * trace)


def gamma2_tail(t):
    """Survival function of Gamma(2, 1): P(X > t) = (1 + t) exp(-t)."""
    return (1.0 + t) * math.exp(-t)


def gamma2_density(t):
    """Density of Gamma(2, 1): t exp(-t)."""
    return t * math.exp(-t)


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


_SIMPSON_MAX_DEPTH = 40


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge within the depth cap."""


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _check_finite(fx: float, x: float) -> float:
    if not math.isfinite(fx):
        raise ValueError(f"integrand is not finite at x = {x}")
    return fx


def _adapt(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = _check_finite(f(lm), lm)
    frm = _check_finite(f(rm), rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureError(
            f"adaptive Simpson did not reach tol={tol} on [{a}, {b}] "
            f"within {_SIMPSON_MAX_DEPTH} levels"
        )
    return _adapt(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _adapt(
        f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


def adaptive_quadrature(f, a: float, b: float, tol: float) -> float:
    """Integrate f over [a, b] by adaptive Simpson to absolute tolerance tol."""
    if not a < b:
        raise ValueError(f"integration bounds must satisfy a < b, got [{a}, {b}]")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    fa = _check_finite(f(a), a)
    fb = _check_finite(f(b), b)
    m = 0.5 * (a + b)
    fm = _check_finite(f(m), m)
    whole = _simpson(fa, fm, fb, b - a)
    return _adapt(f, a, b, fa, fm, fb, whole, tol, _SIMPSON_MAX_DEPTH)


def derivative_check(f, g, grid, rel_step: float, t_scale=None) -> float:
    """Max relative mismatch between g and -df/dt over the grid.

    Central differences with step h = rel_step * max(t, t_scale); t_scale
    defaults to the largest grid point, which keeps h sensible near the
    left end of grids that start close to zero.
    """
    pts = [float(t) for t in grid]
    if not pts:
        raise ValueError("empty grid")
    if not rel_step > 0:
        raise ValueError(f"rel_step must be positive, got {rel_step}")
    if t_scale is None:
        t_scale = max(abs(t) for t in pts)
    gvals = [float(g(t)) for t in pts]
    eps = 1e-12 * max(1.0, max(abs(v) for v in gvals))
    worst = 0.0
    for t, gv in zip(pts, gvals):
        h = rel_step * max(abs(t), t_scale)
        slope = (f(t + h) - f(t - h)) / (2.0 * h)
        err = abs(gv + slope) / max(abs(gv), eps)
        worst = max(worst, err)
    return worst


def _data_matrices(z, spectrum, config):
    """Stack of p x n data matrices, one per row of beta*p*n standard normals.

    beta=1: real entries N(0, lam_j) in row j.  beta=2: complex entries with
    independent real and imaginary parts N(0, lam_j/2), the real parts from
    the first p*n normals and the imaginary parts from the rest.
    """
    p, n = config.p, config.n
    lam = np.asarray(spectrum.lambdas)
    if config.beta == 1:
        return z.reshape(-1, p, n) * np.sqrt(lam)[:, None]
    re = z[:, : p * n].reshape(-1, p, n)
    im = z[:, p * n :].reshape(-1, p, n)
    return (re + 1j * im) * np.sqrt(0.5 * lam)[:, None]


def sample_wishart(spectrum, config, stream):
    """One p x n data matrix W with row j variance set by lam_j.

    beta=1: real entries N(0, lam_j).  beta=2: complex entries with
    independent real and imaginary parts N(0, lam_j/2).  Its beta*p*n
    normals are the next ``stream.gaussians`` draw, numpy's
    ``standard_normal`` on the stream's Gaussian generator.
    """
    z = stream.gaussians(config.beta * config.p * config.n)
    return _data_matrices(z[None], spectrum, config)[0]


def direct_smallest_eigenvalues(spectrum, config, count, seed):
    """Sorted lambda_min(W W^dag) of count W's, read in order off the Gaussians of RngStream(seed).

    Each W is the next ``sample_wishart(spectrum, config, stream)`` of that
    stream; its Gamma generator is not read.
    """
    stream = RngStream(seed)
    z = np.stack([stream.gaussians(config.beta * config.p * config.n) for _ in range(count)])
    w = _data_matrices(z, spectrum, config)
    return np.sort(np.linalg.svd(w, compute_uv=False)[:, -1] ** 2)


def tril_factor(w):
    """Lower-triangular L with the singular values of the p x n (p <= n) w: w = L Q."""
    return np.linalg.qr(w.conj().T)[1].conj().T
