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

The coefficients of Q and Q' are built once, in one array pass, as float
mantissas with separate binary exponents (kernel_coefficients).  One grid
engine evaluates them by Horner's rule in that form, scales each row by
its largest entry and hands the whole stack to one batched determinant
and one batched solve; t = 0 reads the constant coefficients directly.
The scalar gap and density, and the value of a single KernelPolynomial,
are 1-point calls into that engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import ZERO_EXP, jacobi_gap_density
from .linalg import logdet_lu, sqrt_det_antisymmetric  # noqa: F401  wrapped by bench/tracer.py
from .numerics import SignedLog
from .spectra import (
    EmpiricalSpectrum,
    EnsembleConfig,
    elementary_symmetric,
    inverse_trace_half_beta,
)

__all__ = [
    "KernelPolynomial",
    "DensityResult",
    "kernel_coefficients",
    "ExactLaw",
]


def kernel_coefficients(spectrum: EmpiricalSpectrum, config: EnsembleConfig):
    """Coefficients of the nonzero kernel entries Q_ij and of their t-derivatives.

    Returns ((rows, cols), mant, expo): the 0-based positions of the entries
    with q_ij != 0 and a_ij >= 0 in row-major order, and (2 * entries, p + 1)
    arrays of float mantissas and binary exponents.  Column c multiplies
    t^(p-c); the first ``entries`` rows are Q, the rest Q'.  A coefficient
    is frexp(q_ij e_k) times the mantissa inverse 1 / m_f of the float
    factorial (a_ij - k)! = m_f 2^e_f, renormalized, with the exponents
    summed.  Zero coefficients, past the cutoff k > a_ij or from an e_k
    that underflowed, carry exponent ZERO_EXP.
    """
    if spectrum.p != config.p:
        raise ValueError(f"spectrum has p={spectrum.p} but config expects p={config.p}")
    p, dim = config.p, config.kernel_dim
    i, j = np.ogrid[1:dim + 1, 1:dim + 1]
    if config.beta == 1:
        q = (j - i) * (-1) ** (i + j)
    else:
        q = np.broadcast_to((-1) ** (i + 1), (dim, dim))
    a = p + 2 * (config.gamma + 1) // config.beta - i - j
    rows, cols = np.nonzero((q != 0) & (a >= 0))
    q, a = q[rows, cols, None], a[rows, cols, None]
    k = np.arange(p + 1)
    kept = k <= a
    with np.errstate(over="ignore"):  # reported below
        qe = q * np.array(elementary_symmetric(spectrum))
    if not np.isfinite(qe[kept]).all():
        raise OverflowError("kernel coefficients overflow double precision for this spectrum")
    fact_mant, fact_exp = _factorials(int(a.max(initial=0)))
    inv_mant, inv_exp = np.frexp(1.0 / fact_mant)
    top = np.where(kept, a - k, 0)
    qm, qx = np.frexp(qe)
    cm, cx = np.frexp(qm * inv_mant[top])
    cx = cx + qx + inv_exp[top] - fact_exp[top]
    nonzero = kept & (qe != 0.0)  # e_k underflows for tiny spectra
    cm = np.where(nonzero, cm, 0.0)
    cx = np.where(nonzero, cx, ZERO_EXP).astype(np.int32)
    entries = len(rows)
    mant = np.zeros((2 * entries, p + 1))
    expo = np.full((2 * entries, p + 1), ZERO_EXP, dtype=np.int32)
    mant[:entries], expo[:entries] = cm, cx
    mant[entries:, 1:] = cm[:, :-1] * (p - k[:-1])  # (p-k) c_k t^(p-k-1)
    expo[entries:, 1:] = cx[:, :-1]
    return (rows, cols), mant, expo


def _factorials(top: int):
    """m! for m = 0..top as float mantissa and exponent arrays.

    An exact integer wider than 53 bits is first rounded half-up to 54 bits
    and then to the double's 53.  The double rounding is deliberate: a
    single rounding would move some coefficients, and with them some law
    outputs, by an ulp.
    """
    mant = np.empty(top + 1)
    expo = np.empty(top + 1, dtype=np.int64)
    f = 1
    for m in range(top + 1):
        f *= max(m, 1)
        shift = max(f.bit_length() - 54, 0)
        head = (f + (1 << (shift - 1))) >> shift if shift else f
        mant[m], e = math.frexp(float(head))
        expo[m] = e + shift
    return mant, expo


@dataclass(frozen=True, slots=True)
class KernelPolynomial:
    """One kernel entry Q_ij as a view of its row of ``kernel_coefficients``.

    ``i`` and ``j`` are the entry's 0-based position; ``mant``/``expo`` are
    its coefficient mantissas and exponents, highest power t^p first.  The
    law never builds one: the view exists so the traced benchmark can time
    ``evaluate`` by name.
    """

    i: int
    j: int
    mant: np.ndarray
    expo: np.ndarray

    def evaluate(self, t: float) -> SignedLog:
        """Value at t >= 0: a 1-point run of the grid engine's Horner."""
        am, ae = _horner(self.mant[None], self.expo[None], np.array([float(t)]))
        m = float(am[0, 0])
        return SignedLog(int(np.sign(m)), abs(m), int(ae[0, 0]))


# grid points evaluated together: bounds the (points x kernel entries) arrays
GRID_BLOCK = 256


@dataclass(frozen=True, slots=True)
class DensityResult:
    """Density value of one point."""

    value: float


class ExactLaw:
    """Prebuilt kernel coefficients for one (spectrum, config) pair.

    Building them is O(kernel_dim^2 * p); evaluations afterwards are pure
    and safe to share across threads.
    """

    def __init__(self, spectrum: EmpiricalSpectrum, config: EnsembleConfig):
        self.spectrum = spectrum
        self.config = config
        self.trace_rate = inverse_trace_half_beta(spectrum, config)
        self.log_det_lambda = math.fsum(math.log(v) for v in spectrum.lambdas)
        self._entry_index, self._coeff_mant, self._coeff_exp = kernel_coefficients(
            spectrum, config
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
