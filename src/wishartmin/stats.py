"""Goodness-of-fit machinery: KS test and histograms.

The primary verification path compares a sorted Monte Carlo batch against the
analytic CDF F(t) = 1 - E(t), evaluated at the samples in one gap-grid call;
no quadrature of the density is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Histogram",
    "KsReport",
    "ks_statistic",
    "ks_threshold",
    "build_histogram",
]

# asymptotic Kolmogorov quantiles c(alpha): threshold = c / sqrt(N)
KS_QUANTILES = {0.01: 1.63, 0.05: 1.36}


@dataclass(frozen=True, slots=True)
class KsReport:
    statistic: float
    n: int
    alpha: float
    threshold: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "statistic": self.statistic,
            "n": self.n,
            "alpha": self.alpha,
            "threshold": self.threshold,
            "pass": self.passed,
        }


@dataclass(frozen=True, slots=True)
class Histogram:
    """Equal-width density histogram; total mass is 1."""

    edges: np.ndarray
    densities: np.ndarray
    count: int


def ks_statistic(sorted_samples, cdf_values, alpha: float = 0.01, threshold=None) -> KsReport:
    """One-sample Kolmogorov-Smirnov statistic against a reference CDF.

    ``cdf_values`` holds F at the sorted samples, an array of the same
    shape.  D is the sup distance between the empirical step function and
    F over the sample points.  The pass threshold is c(alpha)/sqrt(N) with the
    asymptotic quantiles c(0.01) = 1.63 and c(0.05) = 1.36; an explicit
    ``threshold``, positive and finite, overrides it (used when comparing
    against a limiting law that carries a known finite-size bias).
    """
    xs = np.asarray(sorted_samples, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("need a non-empty 1-d sample array")
    if not np.isfinite(xs).all():
        raise ValueError("samples must be finite")
    if np.any(np.diff(xs) < 0):
        raise ValueError("samples must be sorted ascending")
    threshold = ks_threshold(alpha, xs.size, threshold)[0]
    fs = np.asarray(cdf_values, dtype=float)
    if fs.shape != xs.shape:
        raise ValueError(f"need one cdf value per sample, got shape {fs.shape} for {xs.shape}")
    if not np.all((fs >= -1e-12) & (fs <= 1 + 1e-12)):  # NaN fails both
        raise ValueError("cdf values must be finite and lie in [0, 1]")
    n = xs.size
    i = np.arange(1, n + 1)
    d = max(np.max(np.abs(i / n - fs)), np.max(np.abs((i - 1) / n - fs)))
    d = float(d)
    return KsReport(
        statistic=d, n=n, alpha=alpha, threshold=float(threshold), passed=d < threshold
    )


def ks_threshold(alpha: float, n: int, threshold=None):
    """(threshold, note): the KS pass threshold for n samples, and what it replaced.

    Without an explicit ``threshold`` it is c(alpha)/sqrt(n), alpha must
    have a tabulated quantile and the note is None.  An explicit threshold
    must be positive and finite; the note then names the c(alpha)/sqrt(n) it
    overrides, or says that alpha has none.
    """
    c = KS_QUANTILES.get(alpha)
    if threshold is None:
        if c is None:
            raise ValueError(f"alpha must be one of {sorted(KS_QUANTILES)}, got {alpha}")
        return c / math.sqrt(n), None
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError(f"the KS threshold must be positive and finite, got {threshold}")
    if c is None:
        note = f"alpha={alpha} has no tabulated KS quantile; threshold set to {threshold}"
    else:
        note = f"alpha-based threshold {round(c / math.sqrt(n), 6)} overridden to {threshold}"
    return threshold, note


def build_histogram(samples, bin_count: int) -> Histogram:
    """Equal-width bins spanning [min, max], normalized to unit mass."""
    xs = np.asarray(samples, dtype=float)
    if xs.size < 2:
        raise ValueError("need at least 2 samples to build a histogram")
    if bin_count < 1:
        raise ValueError(f"bin_count must be at least 1, got {bin_count}")
    lo, hi = float(xs.min()), float(xs.max())
    if lo == hi:
        raise ValueError("all samples are equal; histogram range is degenerate")
    edges = np.linspace(lo, hi, bin_count + 1)
    counts, edges = np.histogram(xs, bins=edges)
    widths = np.diff(edges)
    densities = counts / (xs.size * widths)
    return Histogram(edges=edges, densities=densities, count=int(xs.size))
