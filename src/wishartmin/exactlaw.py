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
Horner runs in two levels (_horner): each row's L = p + 1 coefficients,
padded with zeros at the high-power end, form blocks of ceil(sqrt(L)); one
loop evaluates every block in t, a second combines the blocks in t**b, so a
grid takes about 3 sqrt(L) Python-level steps instead of L - 1, in passes
of at most HORNER_STACK elements.  Rows of at most HORNER_ONE_BLOCK
coefficients are one block and keep the plain loop's bits.  Every f_s is
within gamma_n, n < L + 3 ceil(sqrt(L)), of its exact value.
ExactLaw.curve takes gap and density from one engine call; gap_grid skips
Q' for the KS test of ``verify``.  t = 0 reads the constant coefficients
directly.  The scalar gap and density are 1-point calls into that engine,
and the value of a single KernelPolynomial is a 1-point Horner run, in the
same (mantissa, exponent) form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import ZERO_EXP, jacobi_gap_density
from .linalg import logdet_lu, sqrt_det_antisymmetric  # noqa: F401  wrapped by bench/tracer.py
from .spectra import (
    EmpiricalSpectrum,
    EnsembleConfig,
    as_points,
    elementary_symmetric,
    inverse_trace_half_beta,
)

# elements of one (blocks * rows, points) stack of _horner's blocked rows;
# each pass takes as many points as fit.  Against 2**14, 2**16 and 2**17 on
# one CPU (L = 18 to 1001, 3 to 38 rows, 51 to 20,000 points), 2**15 was the
# fastest at most sizes and never above 1.13x the fastest
HORNER_STACK = 1 << 15
# rows of at most this many coefficients are one Horner block, which keeps
# the plain loop's bits.  Blocks would take 0.71-1.40x its time at L = 11 and
# 0.57-1.07x at L = 16 (6 to 38 rows, 11 to 20,000 points, one CPU)
HORNER_ONE_BLOCK = 16

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

    def evaluate(self, t: float):
        """Value at t >= 0 as (mantissa, exponent): a 1-point run of the grid engine's Horner."""
        am, ae = _horner(self.mant[None], self.expo[None], np.array([float(t)]))
        return float(am[0, 0]), int(ae[0, 0])


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
    """Horner evaluation of polynomials in mantissa/exponent form, in blocks.

    Row r of ``cm``/``ce`` holds the L coefficients of one polynomial,
    highest power first.  Every step rounds like a float Horner step, but the
    value is carried as mantissa * 2**exponent with a separate integer
    exponent, so no step overflows or underflows.  Returns (mantissa,
    exponent) arrays of shape (len(ts), rows); zero values keep an exponent
    near ZERO_EXP, far below every nonzero one.

    A row of L > HORNER_ONE_BLOCK coefficients is padded at its high-power
    end with zeros (mantissa 0, exponent ZERO_EXP) to m = ceil(L/b) blocks of
    b = ceil(sqrt(L)) coefficients.  One Horner loop of b - 1 steps in t
    evaluates every block at once; a second loop of m - 1 steps runs Horner
    over the block values with t**b, formed by b - 1 multiplications, as the
    multiplier.  That is about 3 sqrt(L) Python-level steps instead of L - 1.
    A row of at most HORNER_ONE_BLOCK coefficients is one block (b = L): the
    second loop is empty, t**b is never formed, and every bit is the plain
    Horner loop's.  At t = 0 both t and t**b carry the exponent ZERO_EXP
    (set, never scaled by b), so each step leaves only the next coefficient.

    Error bound.  The coefficients and t are >= 0, so the computed value is
    the exact one times (1 + theta), |theta| <= gamma_n = n u / (1 - n u),
    u = 2**-53, where n is the largest number of roundings on any term's
    path (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    2002, section 5.1; alignment shifts are exact or underflow far below u).
    The block loop gives a term up to 2(b - 1) roundings and each outer step
    b + 1, so n <= L + 2b + m - 4 < L + 3 ceil(sqrt(L)); a single block has
    n = 2(L - 1).

    Blocked rows are evaluated in passes of as many points as keep the
    (blocks * rows, points) stack within HORNER_STACK elements; single-block
    rows take the whole chunk in one pass.  Every operation acts on each
    point alone, so a value depends neither on the passes nor on the rest of
    the grid.
    """
    rows, size = cm.shape
    width = size if size <= HORNER_ONE_BLOCK else math.isqrt(size - 1) + 1
    blocks = -(-size // width)
    # coefficient k of row r in block j at [k, j * rows + r, 0]; the padding
    # zeros lead block 0, at the high-power end
    bm = np.zeros((blocks * width, rows))
    be = np.full((blocks * width, rows), ZERO_EXP, dtype=np.int32)
    bm[blocks * width - size:], be[blocks * width - size:] = cm.T, ce.T
    bm = bm.reshape(blocks, width, rows).transpose(1, 0, 2).reshape(width, blocks * rows, 1)
    be = be.reshape(blocks, width, rows).transpose(1, 0, 2).reshape(width, blocks * rows, 1)
    tm, te = np.frexp(ts)
    zero = ts == 0.0
    if blocks > 1:
        # t**b: a product of b mantissas in [1/2, 1) stays normal for b < 1022
        pm = tm.copy()
        for _ in range(width - 1):
            pm *= tm
        pm, pe = np.frexp(pm)
        pe = np.where(zero, ZERO_EXP, pe + width * te.astype(np.int64)).astype(np.int32)
    # at t = 0 each step leaves only the next coefficient: the sentinel keeps
    # the zeroed accumulator from setting the alignment exponent
    te = np.where(zero, ZERO_EXP, te).astype(np.int32)
    step = max(1, ts.size if blocks == 1 else HORNER_STACK // max(blocks * rows, 1))
    mant, expo = np.empty((rows, ts.size)), np.empty((rows, ts.size), dtype=np.int32)
    for start in range(0, ts.size, step):
        part = slice(start, start + step)
        tp, ep = tm[part], te[part]
        am, ae = np.repeat(bm[0], tp.size, axis=1), np.repeat(be[0], tp.size, axis=1)
        top, term = np.empty_like(ae), np.empty_like(am)
        for k in range(1, width):
            _horner_step(am, ae, tp, ep, bm[k], be[k], top, term)
        for j in range(1, blocks):
            block = slice(j * rows, (j + 1) * rows)
            _horner_step(am[:rows], ae[:rows], pm[part], pe[part], am[block], ae[block],
                         top[:rows], term[:rows])
        mant[:, part], expo[:, part] = am[:rows], ae[:rows]
    return mant.T, expo.T


def _horner_step(am, ae, tm, te, cm, ce, top, term):
    """One Horner step in place, am * 2**ae <- am * 2**ae * tm * 2**te + cm * 2**ce.

    ``top`` and ``term`` are scratch arrays shaped like ``ae`` and ``am``, so
    a step allocates nothing.
    """
    am *= tm
    ae += te
    np.maximum(ae, ce, out=top)
    np.ldexp(am, np.subtract(ae, top, out=ae), out=am)
    am += np.ldexp(cm, np.subtract(ce, top, out=ae), out=term)
    np.frexp(am, out=(am, ae))
    ae += top
