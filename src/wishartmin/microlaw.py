"""Universal hard-edge limit of the smallest-eigenvalue statistics.

In the limit p, n -> infinity at fixed rectangularity, with eigenvalues
measured in units of the local mean level spacing through u = 4*p*eta*t
(eta the mean inverse population eigenvalue), the gap probability becomes
spectrum independent:

    gap(u) = exp(-beta*u/8) * det^(beta/2)[ qt_ij * F_{kp-i-j}(u/4) ]

with the Bessel kernel written through x = sqrt(u) and q = u/4 as

    F_nu(q) = (x/2)^-nu * I_nu(x) = sum_k q^k / (k! (k+nu)!),

kp = 2*(gamma+1)/beta, qt_ij = (j-i) for beta=1 and (-1)^(i+1) for beta=2,
and indices running over the kernel dimension 2*gamma/beta.  A negative
order -m uses I_{-m} = I_m, i.e. F_{-m}(q) = q^m * F_m(q).  Term by term,
dF_nu/du = F_{nu+1}/4, so the kernel's u-derivative Q' is the order-shifted
kernel times 1/4 and Jacobi's formula gives the density

    pmin(u) = -d(gap)/du = gap(u) * (beta/8 - (beta/2) * tr(Q^-1 Q')).

This module provides only the anti-diagonal values F_{kp-s}, s = i + j (and
F_{kp-s+1}/4 for Q'), with one vectorized series for every order
(numerics.bessel_series).  linalg.jacobi_gap_density asks for them one chunk
of u points at a time, with the constant 0 and the rate beta/8, and factors
Q and Q' a block of points at a time.
micro_curve takes gap and pmin from one kernel evaluation; micro_gap skips
Q' for the KS test of ``verify``.
Verified against central differences of gap(u), against the rescaled exact
finite-p law and against a high-precision oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import jacobi_gap_density
from .linalg import logdet_lu, sqrt_det_antisymmetric  # noqa: F401  wrapped by bench/tracer.py
from .numerics import BESSEL_MAX_ORDER, bessel_series
from .numerics import bessel_i_signedlog  # noqa: F401  wrapped by bench/tracer.py
from .spectra import EmpiricalSpectrum, EnsembleConfig, as_integer, as_points, eta_scale

__all__ = [
    "MicroConfig",
    "make_micro_config",
    "micro_gap",
    "micro_pmin",
    "micro_curve",
    "micro_rescale",
]


@dataclass(frozen=True, slots=True)
class MicroConfig:
    beta: int
    gamma: int
    kappa_prime: int
    kernel_dim: int


def make_micro_config(beta: int, gamma: int) -> MicroConfig:
    """Hard-edge parameters for symmetry class beta and rectangularity index gamma."""
    beta = as_integer(beta, "beta must be 1 or 2, got {!r}")
    if beta not in (1, 2):
        raise ValueError(f"beta must be 1 or 2, got {beta}")
    gamma = as_integer(gamma, "gamma must be a non-negative integer, got {!r}")
    if gamma < 0:
        raise ValueError(f"gamma must be a non-negative integer, got {gamma}")
    # highest |order| of F_nu in the density's kernels Q and Q'
    order = 2 * gamma + 1 if beta == 1 else gamma
    if order > BESSEL_MAX_ORDER:
        raise ValueError(
            f"gamma={gamma} needs Bessel order {order}, above the supported maximum "
            f"{BESSEL_MAX_ORDER}"
        )
    return MicroConfig(
        beta=beta,
        gamma=gamma,
        kappa_prime=2 * (gamma + 1) // beta,
        kernel_dim=2 * gamma // beta,
    )


def _order_table(q: np.ndarray, nus: np.ndarray):
    """F_nu(q) for the orders ``nus`` as (mantissa, exponent) arrays, shape (len(q), len(nus)).

    The factor q^m of a negative order -m is carried as a separate binary
    exponent, so tiny u neither underflows nor loses relative accuracy.
    """
    m = np.abs(nus)
    series = bessel_series(q, int(m.max(initial=-1)))[:, m]
    qm, qe = np.frexp(q)
    neg = nus < 0
    mant, expo = np.frexp(series * np.where(neg, qm[:, None] ** m, 1.0))
    return mant, expo + np.where(neg, qe[:, None] * m, 0)


def _evaluate(u, micro: MicroConfig, derivative: bool):
    """(gap, pmin) at u >= 0, floats for a float u; pmin is None unless ``derivative``."""
    beta, dim, kp = micro.beta, micro.kernel_dim, micro.kappa_prime
    # F_{kp-s} for s = first..2*dim: Q takes s >= 2, Q' is the kernel one order up
    first = 1 if derivative else 2
    nus = kp - np.arange(first, 2 * dim + 1)

    def values(chunk):
        mant, expo = _order_table(0.25 * chunk, nus)
        kernel = (mant[:, 2 - first:], expo[:, 2 - first:])
        # Q' takes its 1/4 into the exponent
        return kernel + ((mant[:, :-1], expo[:, :-1] - 2) if derivative else ())

    gap, pmin = jacobi_gap_density(as_points(u, "u"), 0.0, beta / 8.0, beta, values, derivative)
    if np.ndim(u):
        return gap, pmin
    return float(gap[0]), None if pmin is None else float(pmin[0])


def micro_gap(u, micro: MicroConfig):
    """Limiting gap probability at rescaled position u >= 0 (a float or a 1-d array)."""
    return _evaluate(u, micro, derivative=False)[0]


def micro_pmin(u, micro: MicroConfig):
    """Limiting smallest-eigenvalue density at u >= 0 (a float or a 1-d array)."""
    return micro_curve(u, micro)[1]


def micro_curve(u, micro: MicroConfig):
    """(gap, pmin) at u >= 0 from one kernel evaluation: floats for a float u, else arrays."""
    return _evaluate(u, micro, derivative=True)


def micro_rescale(t_values, spectrum: EmpiricalSpectrum, config: EnsembleConfig) -> np.ndarray:
    """Map eigenvalue positions t to the hard-edge variable u = 4*p*eta*t."""
    if spectrum.p != config.p:
        raise ValueError(f"spectrum has p={spectrum.p} but config expects p={config.p}")
    scale = 4.0 * config.p * eta_scale(spectrum)
    return np.asarray(t_values, dtype=float) * scale
