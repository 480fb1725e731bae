"""Independent oracles and measuring instruments for the test suite.

Everything here deliberately avoids the code paths it is used to check:
brute-force enumeration, exact rational or high-precision decimal
arithmetic, recursive determinant/Pfaffian expansions, a cyclic Jacobi
eigensolver, adaptive Simpson quadrature and central differences.
"""

import math
from decimal import Decimal, getcontext
from fractions import Fraction
from itertools import combinations

import numpy as np


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
