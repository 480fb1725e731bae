"""Empirical spectra, ensemble parameters and symmetric functions of the spectrum.

The empirical eigenvalues are taken as given (unsorted, repeats allowed);
every quantity computed from them downstream is a symmetric function, so no
internal reordering ever happens.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EmpiricalSpectrum",
    "EnsembleConfig",
    "make_config",
    "elementary_symmetric",
    "eta_scale",
    "inverse_trace_half_beta",
    "parse_spectrum",
    "load_spectrum",
]


@dataclass(frozen=True, slots=True)
class EmpiricalSpectrum:
    """Eigenvalues of the population correlation matrix, order preserved."""

    lambdas: tuple

    def __post_init__(self):
        if isinstance(self.lambdas, (str, bytes, bytearray)):
            raise TypeError(f"spectrum must be a sequence of numbers, got {type(self.lambdas).__name__}")
        vals = tuple(float(v) for v in self.lambdas)
        if len(vals) < 1:
            raise ValueError("spectrum must contain at least one eigenvalue")
        for v in vals:
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"spectrum entries must be positive and finite, got {v}")
        object.__setattr__(self, "lambdas", vals)

    @property
    def p(self) -> int:
        return len(self.lambdas)


@dataclass(frozen=True, slots=True)
class EnsembleConfig:
    """Symmetry class and matrix shape, with the derived kernel parameters.

    ``gamma`` is (n-p-1)/2 for beta=1 and n-p for beta=2; the kernel
    determinant has dimension 2*gamma/beta.
    """

    beta: int
    p: int
    n: int
    gamma: int
    kernel_dim: int


def as_integer(value, message: str) -> int:
    """``value`` as an int, or ValueError(message.format(value)) unless it is integral.

    Integers and integral floats pass.  bool, strings, NaN, infinities and
    values with a fractional part do not, so an argument is never truncated.
    """
    if type(value) is int:
        return value
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, (bool, np.bool_)) or not integral:
        raise ValueError(message.format(value))
    return int(value)


def as_points(values, name: str) -> np.ndarray:
    """A float or a 1-d array as a 1-d float grid of the laws' variable ``name``.

    Both laws live on [0, inf): a negative, NaN or infinite point, and input
    with more than one dimension, raise ValueError.
    """
    points = np.atleast_1d(np.asarray(values, dtype=float))
    if points.ndim != 1:
        raise ValueError(f"{name} must be a float or a 1-d array, got shape {points.shape}")
    bad = points[~((points >= 0.0) & (points < math.inf))]
    if bad.size:
        raise ValueError(f"{name} must be finite and >= 0, got {bad[0]}")
    return points


def make_config(beta: int, p: int, n: int) -> EnsembleConfig:
    """Validate (beta, p, n) and derive gamma and the kernel dimension.

    For beta=1 the rectangularity must keep gamma a non-negative integer,
    i.e. n - p - 1 must be even and >= 0; half-integer gamma is rejected.
    """
    beta = as_integer(beta, "beta must be 1 or 2, got {!r}")
    if beta not in (1, 2):
        raise ValueError(f"beta must be 1 or 2, got {beta}")
    p = as_integer(p, "p and n must be integers, got p={!r}")
    n = as_integer(n, "p and n must be integers, got n={!r}")
    if p < 1:
        raise ValueError(f"p must be at least 1, got {p}")
    if n < p:
        raise ValueError(f"n must be at least p, got p={p}, n={n}")
    if beta == 1:
        rect = n - p - 1
        if rect < 0 or rect % 2 != 0:
            raise ValueError(
                f"beta=1 requires n - p - 1 even and non-negative "
                f"(integer gamma); got n - p - 1 = {rect}"
            )
        gamma = rect // 2
    else:
        gamma = n - p
    return EnsembleConfig(beta=beta, p=p, n=n, gamma=gamma, kernel_dim=2 * gamma // beta)


def elementary_symmetric(spectrum: EmpiricalSpectrum) -> list:
    """All elementary symmetric polynomials e_0 .. e_p of the spectrum.

    Uses the stable product recurrence (multiplying out prod(1 + x*lam_i)
    one eigenvalue at a time, e_k += lam * e_{k-1} for every k at once from
    the old values); every intermediate is a sum of positive terms, so there
    is no cancellation.  The recurrence runs over a sorted copy so the result
    is bit-identical under permutations of the spectrum (the spectrum itself
    keeps its order).  An e_k that overflows, or that falls below the
    smallest normal double and so loses its relative precision, raises
    OverflowError.
    """
    lams = sorted(spectrum.lambdas)
    e = np.zeros(len(lams) + 1)
    e[0] = 1.0
    lower, upper = e[:-1], e[1:]
    term = np.empty(len(lams))
    with np.errstate(over="ignore", under="ignore"):  # reported below
        for lam in lams:
            # entries past the current degree add lam * 0.0 to 0.0
            np.multiply(lower, lam, out=term)
            np.add(upper, term, out=upper)
    e = e.tolist()
    if not (max(e) < math.inf and min(e) >= sys.float_info.min):
        raise OverflowError(
            "elementary symmetric polynomials leave double precision for this spectrum"
        )
    return e


def _inverse_sum(spectrum: EmpiricalSpectrum) -> float:
    """sum(1/lam); a subnormal eigenvalue overflows it, which raises OverflowError."""
    total = math.fsum(1.0 / v for v in spectrum.lambdas)
    if not math.isfinite(total):
        raise OverflowError("the sum of inverse eigenvalues overflows double precision")
    return total


def eta_scale(spectrum: EmpiricalSpectrum) -> float:
    """Mean inverse eigenvalue (1/p) * sum(1/lam); sets the hard-edge scale."""
    return _inverse_sum(spectrum) / spectrum.p


def inverse_trace_half_beta(spectrum: EmpiricalSpectrum, config: EnsembleConfig) -> float:
    """(beta/2) * sum(1/lam), the decay rate of the gap-probability prefactor."""
    return 0.5 * config.beta * _inverse_sum(spectrum)


def parse_spectrum(text: str) -> EmpiricalSpectrum:
    """Parse the spectrum file format: one positive decimal per line.

    Lines starting with '#' and blank lines are ignored; order is preserved.
    """
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 1:
            raise ValueError(f"line {lineno}: expected a single value, got {raw!r}")
        try:
            values.append(float(fields[0]))
        except ValueError:
            raise ValueError(f"line {lineno}: not a decimal number: {fields[0]!r}") from None
    if not values:
        raise ValueError("spectrum file contains no eigenvalues")
    return EmpiricalSpectrum(tuple(values))


def load_spectrum(path) -> EmpiricalSpectrum:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spectrum(fh.read())
