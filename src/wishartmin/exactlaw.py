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
exponents (kernel_coefficients).  The law hands linalg.jacobi_gap_density
its grid, the constant -gamma * log det(lam), the rate r and a provider
that evaluates them by Horner's rule in that form, one chunk of points at a
time; the engine builds the prefactor and blocks the values and kernels.
ExactLaw.curve takes gap and density from one engine call; gap_grid skips
Q' for the KS test of ``verify``.  t = 0 reads the constant coefficients
directly.  The scalar gap and density are 1-point calls into that engine,
and the value of a single KernelPolynomial is a 1-point Horner run.
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
    as_points,
    elementary_symmetric,
    inverse_trace_half_beta,
)

__all__ = [
    "KernelPolynomial",
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
        return self.gap_grid(t).item()

    def density(self, t: float) -> float:
        return self.density_detailed(t)

    def density_detailed(self, t: float) -> float:
        """Smallest-eigenvalue density -dE/dt at t: a 1-point density_grid.

        bench/tracer.py wraps this method by name.
        """
        return self.density_grid(t).item()

    def gap_grid(self, ts) -> np.ndarray:
        """Gap probability on a 1-d array of t >= 0 (a float is a 1-point grid)."""
        return self._grid(ts, derivative=False)[0]

    def density_grid(self, ts) -> np.ndarray:
        """Smallest-eigenvalue density -dE/dt on a 1-d array of t >= 0 (or a float)."""
        return self.curve(ts)[1]

    def curve(self, ts):
        """(gap, density) on a 1-d array of t >= 0 (or a float), from one kernel evaluation."""
        return self._grid(ts, derivative=True)

    def _grid(self, ts, derivative: bool):
        """(gap, density) from each t's f_s, and f_s' if ``derivative``; else density is None."""
        f = len(self._coeff_mant) // 2
        rows = slice(None) if derivative else slice(f)
        cm, ce = self._coeff_mant[rows], self._coeff_exp[rows]

        def values(chunk):
            mant, expo = _horner(cm, ce, chunk)
            return (mant[:, :f], expo[:, :f]) + ((mant[:, f:], expo[:, f:]) if derivative else ())

        return jacobi_gap_density(as_points(ts, "t"), -self.config.gamma * self.log_det_lambda,
                                  self.trace_rate, self.config.beta, values, derivative)


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
        np.ldexp(am, np.subtract(ae, top, out=ae), out=am)
        am += np.ldexp(cm[:, k], ce[:, k] - top)
        np.frexp(am, out=(am, ae))
        ae += top
    return am, ae
