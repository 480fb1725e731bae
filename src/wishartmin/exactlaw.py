"""Exact finite-size gap probability and smallest-eigenvalue density.

For a p x n data matrix with population eigenvalues lam_1..lam_p the gap
probability that every eigenvalue of W W^dag exceeds t is

    E(t) = exp(-t * tr(beta/(2*lam))) / det(lam)^gamma * det^(beta/2)[Q_ij(t)]

with a kernel matrix of dimension 2*gamma/beta whose entries are finite
polynomials in t,

    Q_ij(t) = q_ij * sum_{k=0}^{min(p, a_ij)} e_k(lam) * t^(p-k) / (a_ij - k)!,

where a_ij = p + 2*(gamma+1)/beta - i - j (entries with a_ij < 0 vanish;
the a_ij = 0 entry keeps its finite k = 0 term), e_k are the elementary
symmetric polynomials and q_ij = (j-i)*(-1)^(i+j) for beta=1 and (-1)^(i+1)
for beta=2.  By Jacobi's formula the density of the smallest eigenvalue is

    P(t) = -dE/dt = E(t) * (r - (beta/2) * tr(Q(t)^-1 Q'(t))),

with r = tr(beta/(2*lam)) and Q' the term-wise t-derivative of the kernel:
one small linear solve per point.

Coefficients are built in signed-log form.  One grid engine evaluates Q
and Q' by Horner's rule with float mantissas and separate binary
exponents, scales each row by its largest entry and hands the whole stack
to one batched determinant and one batched solve; t = 0 reads the
constant coefficients directly.  The scalar gap and density are 1-point
calls into that engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import ZERO_EXP, jacobi_gap_density
from .linalg import logdet_lu, sqrt_det_antisymmetric  # noqa: F401  wrapped by bench/tracer.py
from .numerics import (
    SLOG_ZERO,
    SignedLog,
    factorial_signedlog,
    signedlog_add,
    signedlog_from_float,
    signedlog_inv,
    signedlog_mul,
    signedlog_pow_int,
)
from .spectra import (
    EmpiricalSpectrum,
    EnsembleConfig,
    elementary_symmetric,
    inverse_trace_half_beta,
)

__all__ = [
    "KernelPolynomial",
    "DensityResult",
    "q_prefactor",
    "build_q_polynomials",
    "ExactLaw",
]


@dataclass(frozen=True, slots=True)
class KernelPolynomial:
    """One kernel entry: sum_{k=0}^{K} coeffs[k] * t^(degree-k).

    ``coeffs`` is empty for an identically zero entry (Heaviside cutoff or
    q_ij = 0).  ``alpha`` is the factorial cutoff index of the entry.
    """

    i: int
    j: int
    alpha: int
    degree: int
    coeffs: tuple

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, t: float) -> SignedLog:
        """Horner evaluation in signed-log arithmetic; t must be >= 0.

        The laws evaluate their kernels on the grid engine; this scalar
        evaluator stays because bench/tracer.py wraps it by name.
        """
        if not self.coeffs:
            return SLOG_ZERO
        tail = self.degree - (len(self.coeffs) - 1)
        if t == 0.0:
            return self.coeffs[-1] if tail == 0 else SLOG_ZERO
        slog_t = signedlog_from_float(t)
        acc = self.coeffs[0]
        for c in self.coeffs[1:]:
            acc = signedlog_add(signedlog_mul(acc, slog_t), c)
        if tail:
            acc = signedlog_mul(acc, signedlog_pow_int(slog_t, tail))
        return acc


def q_prefactor(i: int, j: int, config: EnsembleConfig) -> int:
    """Sign/weight factor of kernel entry (i, j), 1-based indices."""
    dim = config.kernel_dim
    if not (1 <= i <= dim and 1 <= j <= dim):
        raise IndexError(f"kernel indices must lie in 1..{dim}, got ({i}, {j})")
    if config.beta == 1:
        return (j - i) * (-1) ** (i + j)
    return (-1) ** (i + 1)


def build_q_polynomials(spectrum: EmpiricalSpectrum, config: EnsembleConfig):
    """Full kernel table of KernelPolynomial, indexed [i-1][j-1].

    The Heaviside cutoff uses the convention theta(0) = 1: an entry with
    a_ij = 0 keeps its single finite k = 0 term.
    """
    if spectrum.p != config.p:
        raise ValueError(f"spectrum has p={spectrum.p} but config expects p={config.p}")
    p = config.p
    dim = config.kernel_dim
    e = elementary_symmetric(spectrum)
    kappa = 2 * (config.gamma + 1) // config.beta
    table = []
    for i in range(1, dim + 1):
        row = []
        for j in range(1, dim + 1):
            q = q_prefactor(i, j, config)
            alpha = p + kappa - i - j
            if q == 0 or alpha < 0:
                row.append(KernelPolynomial(i=i, j=j, alpha=alpha, degree=p, coeffs=()))
                continue
            coeffs = tuple(
                signedlog_mul(
                    signedlog_from_float(q * e[k]),
                    signedlog_inv(factorial_signedlog(alpha - k)),
                )
                for k in range(min(p, alpha) + 1)
            )
            row.append(KernelPolynomial(i=i, j=j, alpha=alpha, degree=p, coeffs=coeffs))
        table.append(tuple(row))
    return tuple(table)


# grid points evaluated together: bounds the (points x kernel entries) arrays
GRID_BLOCK = 256


@dataclass(frozen=True, slots=True)
class DensityResult:
    """Density value of one point."""

    value: float


class ExactLaw:
    """Prebuilt kernel polynomials for one (spectrum, config) pair.

    Building the tables is O(kernel_dim^2 * p); evaluations afterwards are
    pure and safe to share across threads.
    """

    def __init__(self, spectrum: EmpiricalSpectrum, config: EnsembleConfig):
        self.spectrum = spectrum
        self.config = config
        self.trace_rate = inverse_trace_half_beta(spectrum, config)
        self.log_det_lambda = math.fsum(math.log(v) for v in spectrum.lambdas)
        self.q_table = build_q_polynomials(spectrum, config)
        self._entry_index, self._coeff_mant, self._coeff_exp = _grid_coefficients(
            self.q_table, config.p
        )

    def gap(self, t: float) -> float:
        """Gap probability E(t), 1 at t = 0 and decaying to 0: a 1-point gap_grid."""
        if t < 0 or not math.isfinite(t):
            raise ValueError(f"t must be non-negative and finite, got {t}")
        return float(self.gap_grid(np.array([float(t)]))[0])

    def density(self, t: float) -> float:
        return self.density_detailed(t).value

    def density_detailed(self, t: float) -> DensityResult:
        """Smallest-eigenvalue density -dE/dt at t: a 1-point density_grid.

        bench/tracer.py wraps this method by name.
        """
        if t < 0 or not math.isfinite(t):
            raise ValueError(f"t must be non-negative and finite, got {t}")
        return DensityResult(float(self.density_grid(np.array([float(t)]))[0]))

    def gap_grid(self, ts) -> np.ndarray:
        """Gap probability on a 1-d array of t values."""
        return self._grid(ts, derivative=False)[0]

    def density_grid(self, ts) -> np.ndarray:
        """Smallest-eigenvalue density -dE/dt on a 1-d array of t values."""
        return self._grid(ts, derivative=True)[1]

    def _grid(self, ts, derivative: bool):
        """(gap, density) arrays; density is None unless ``derivative``."""
        ts = np.asarray(ts, dtype=float)
        if ts.ndim != 1:
            raise ValueError("expected a 1-d array of t values")
        if np.any(~np.isfinite(ts)) or np.any(ts < 0):
            raise ValueError("t values must be non-negative and finite")
        log_pref = -self.trace_rate * ts - self.config.gamma * self.log_det_lambda
        if self.config.kernel_dim == 0:
            gap = np.exp(log_pref)
            return gap, self.trace_rate * gap
        gap = np.empty(ts.size)
        density = np.empty(ts.size) if derivative else None
        for start in range(0, ts.size, GRID_BLOCK):
            block = slice(start, start + GRID_BLOCK)
            gap[block], block_density = self._block(ts[block], log_pref[block], derivative)
            if derivative:
                density[block] = block_density
        return gap, density

    def _block(self, ts, log_pref, derivative: bool):
        """(gap, density) of one block of grid points, from stacked Q and Q'."""
        rows, cols = self._entry_index
        entries = len(rows)
        used = 2 * entries if derivative else entries
        mant, expo = _horner(self._coeff_mant[:used], self._coeff_exp[:used], ts)
        dim = self.config.kernel_dim
        stacks = []
        for start in range(0, used, entries):  # Q, then Q'
            m = np.zeros((ts.size, dim, dim))
            e = np.full((ts.size, dim, dim), ZERO_EXP, dtype=np.int32)
            m[:, rows, cols] = mant[:, start:start + entries]
            e[:, rows, cols] = expo[:, start:start + entries]
            stacks += [m, e]
        return jacobi_gap_density(log_pref, self.trace_rate, 0.5 * self.config.beta, *stacks)


def _grid_coefficients(q_table, p: int):
    """Coefficient mantissas and exponents of the nonzero entries of Q and Q'.

    Column c of the returned (2 * entries, p + 1) arrays multiplies t^(p-c).
    The first ``entries`` rows are the entries of Q in row-major order, the
    rest their term-wise t-derivatives in the same order; zero coefficients
    carry exponent ZERO_EXP.
    """
    index = [(poly.i - 1, poly.j - 1) for row in q_table for poly in row if not poly.is_zero]
    mant = np.zeros((2 * len(index), p + 1))
    expo = np.full((2 * len(index), p + 1), ZERO_EXP, dtype=np.int32)
    for e, (i, j) in enumerate(index):
        for k, c in enumerate(q_table[i][j].coeffs):
            mant[e, k] = c.sign * c.mantissa
            expo[e, k] = c.exp2
            if k < p:  # (p-k) c_k t^(p-k-1)
                mant[len(index) + e, k + 1] = c.sign * c.mantissa * (p - k)
                expo[len(index) + e, k + 1] = c.exp2
    rows = np.array([i for i, _ in index], dtype=int)
    cols = np.array([j for _, j in index], dtype=int)
    return (rows, cols), mant, expo


def _horner(cm, ce, ts):
    """Horner evaluation of polynomials in mantissa/exponent form.

    Row r of ``cm``/``ce`` holds the coefficients of one polynomial, highest
    power first.  Every step rounds like a float Horner step, but the value
    is carried as mantissa * 2**exponent with a separate integer exponent,
    so no step overflows or underflows.  Returns (mantissa, exponent) arrays
    of shape (len(ts), rows); zero values keep an exponent near ZERO_EXP,
    far below every nonzero one.
    """
    tm, te = np.frexp(ts)
    tm = tm[:, None]
    # at t = 0 each step leaves only the next coefficient: the sentinel keeps
    # the zeroed accumulator from setting the alignment exponent
    te = np.where(ts == 0.0, ZERO_EXP, te).astype(np.int32)[:, None]
    am = np.repeat(cm[None, :, 0], ts.size, axis=0)
    ae = np.repeat(ce[None, :, 0], ts.size, axis=0)
    for k in range(1, cm.shape[1]):
        am *= tm
        ae += te
        top = np.maximum(ae, ce[:, k])
        am = np.ldexp(am, np.subtract(ae, top, out=ae))
        am += np.ldexp(cm[:, k], ce[:, k] - top)
        am, ae = np.frexp(am)
        ae += top
    return am, ae
