"""Exact finite-size gap probability and smallest-eigenvalue density.

For a p x n data matrix with population eigenvalues lam_1..lam_p the gap
probability that every eigenvalue of W W^dag exceeds t is

    E(t) = exp(-t * tr(beta/(2*lam))) / det(lam)^gamma * det^(beta/2)[Q_ij(t)]

with a kernel matrix of dimension 2*gamma/beta whose entries depend on i
and j only through s = i + j and a weight,

    Q_ij(t) = q_ij * f_{i+j}(t),  f_s(t) = sum_{k=0}^{min(p, a_s)} e_k(lam) t^(p-k) / (a_s - k)!,

where a_s = p + 2*(gamma+1)/beta - s (f_s = 0 for a_s < 0; a_s = 0 keeps
its k = 0 term), e_k are the elementary symmetric polynomials and q_ij =
(j-i)*(-1)^(i+j) for beta=1 and (-1)^(i+1) for beta=2; linalg.hankel_kernel
drops the (-1)^(i+j), which changes no determinant.  By Jacobi's formula the
density of the smallest eigenvalue is

    P(t) = -dE/dt = E(t) * (r - (beta/2) * tr(Q(t)^-1 Q'(t))),

with r = tr(beta/(2*lam)) and Q' the term-wise t-derivative of the kernel.

The coefficients of the 2*dim - 1 polynomials f_s and of their derivatives
are built once, in one array pass, as float mantissas with separate binary
exponents (kernel_coefficients).  The grid engine evaluates them by Horner's
rule in that form; linalg.jacobi_gap_density assembles Q and Q' from the
values for one batched determinant and one batched solve.  t = 0 reads the
constant coefficients directly.  The scalar gap and density, and the value
of a single KernelPolynomial, are 1-point calls into that engine.
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
    """Coefficients of the polynomials f_s, s = 2..2*kernel_dim, and of their t-derivatives.

    Returns (mant, expo), (2 * (2*kernel_dim - 1), p + 1) arrays of float
    mantissas and binary exponents.  Column c multiplies t^(p-c); row s - 2
    is f_s and row 2*kernel_dim - 3 + s its derivative.  A coefficient is
    frexp(e_k) times the mantissa inverse 1 / m_f of the float factorial
    (a_s - k)! = m_f 2^e_f, renormalized, with the exponents summed.  Zero
    coefficients, past the cutoff k > a_s, carry exponent ZERO_EXP.
    """
    if spectrum.p != config.p:
        raise ValueError(f"spectrum has p={spectrum.p} but config expects p={config.p}")
    p, dim = config.p, config.kernel_dim
    a = p + 2 * (config.gamma + 1) // config.beta - np.arange(2, 2 * dim + 1)[:, None]
    k = np.arange(p + 1)
    kept = k <= a
    fact_mant, fact_exp = _factorials(int(a.max(initial=0)))
    inv_mant, inv_exp = np.frexp(1.0 / fact_mant)
    top = np.where(kept, a - k, 0)
    em, ex = np.frexp(elementary_symmetric(spectrum))
    cm, cx = np.frexp(em * inv_mant[top])
    cm = np.where(kept, cm, 0.0)
    cx = np.where(kept, cx + ex + inv_exp[top] - fact_exp[top], ZERO_EXP).astype(np.int32)
    mant = np.zeros((2 * len(a), p + 1))
    expo = np.full((2 * len(a), p + 1), ZERO_EXP, dtype=np.int32)
    mant[:len(a)], expo[:len(a)] = cm, cx
    mant[len(a):, 1:] = cm[:, :-1] * (p - k[:-1])  # (p-k) c_k t^(p-k-1)
    expo[len(a):, 1:] = cx[:, :-1]
    return mant, expo


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
    """One polynomial f_s as a view of its row of ``kernel_coefficients``.

    ``mant``/``expo`` are its coefficient mantissas and exponents, highest
    power t^p first.  The law never builds one: the view exists so the
    traced benchmark can time ``evaluate`` by name.
    """

    s: int
    mant: np.ndarray
    expo: np.ndarray

    def evaluate(self, t: float) -> SignedLog:
        """Value at t >= 0: a 1-point run of the grid engine's Horner."""
        am, ae = _horner(self.mant[None], self.expo[None], np.array([float(t)]))
        m = float(am[0, 0])
        return SignedLog(int(np.sign(m)), abs(m), int(ae[0, 0]))


# grid points evaluated together: bounds the (points x polynomials) arrays
GRID_BLOCK = 256


@dataclass(frozen=True, slots=True)
class DensityResult:
    """Density value of one point."""

    value: float


class ExactLaw:
    """Prebuilt kernel coefficients for one (spectrum, config) pair.

    Building them is O(kernel_dim * p); evaluations afterwards are pure
    and safe to share across threads.
    """

    def __init__(self, spectrum: EmpiricalSpectrum, config: EnsembleConfig):
        self.spectrum = spectrum
        self.config = config
        self.trace_rate = inverse_trace_half_beta(spectrum, config)
        self.log_det_lambda = math.fsum(math.log(v) for v in spectrum.lambdas)
        self._coeff_mant, self._coeff_exp = kernel_coefficients(spectrum, config)

    def gap(self, t: float) -> float:
        """Gap probability E(t), 1 at t = 0 and decaying to 0: a 1-point gap_grid."""
        return float(self.gap_grid(np.array([float(t)]))[0])

    def density(self, t: float) -> float:
        return self.density_detailed(t).value

    def density_detailed(self, t: float) -> DensityResult:
        """Smallest-eigenvalue density -dE/dt at t: a 1-point density_grid.

        bench/tracer.py wraps this method by name.
        """
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
        gap = np.empty(ts.size)
        density = np.empty(ts.size) if derivative else None
        for start in range(0, ts.size, GRID_BLOCK):
            block = slice(start, start + GRID_BLOCK)
            gap[block], block_density = self._block(ts[block], log_pref[block], derivative)
            if derivative:
                density[block] = block_density
        return gap, density

    def _block(self, ts, log_pref, derivative: bool):
        """(gap, density) of one block of grid points, from f_s and f_s' at each point."""
        f = len(self._coeff_mant) // 2
        rows = slice(None) if derivative else slice(f)
        mant, expo = _horner(self._coeff_mant[rows], self._coeff_exp[rows], ts)
        values = (mant[:, :f], expo[:, :f]) + ((mant[:, f:], expo[:, f:]) if derivative else ())
        return jacobi_gap_density(log_pref, self.trace_rate, self.config.beta, *values)


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
