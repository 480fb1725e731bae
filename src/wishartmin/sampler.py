"""Seeded Monte Carlo sampling of the smallest eigenvalue of correlated Wishart matrices.

A batch reads two counter-based Philox streams keyed by its seed, each in
sample order, so a batch is reproducible and a larger count extends it
without changing its first samples.  Sampling happens in the eigenbasis of
the population correlation matrix: the observable, the smallest eigenvalue
of W W^dag, is invariant under the basis rotation, so W = Lambda^(1/2) G
with G a p x n matrix of standard real (beta=1) or complex (beta=2,
E|g|^2 = 1) Gaussians.

W itself is never formed.  The LQ decomposition G = L Q leaves
sigma(W) = sigma(Lambda^(1/2) L), and by Bartlett's decomposition (Bartlett
1933; in the form of Edelman 1989 for both betas) the p x p lower-triangular
factor L has independent entries: standard real or complex Gaussians below
the diagonal, and on it L_ii**2 ~ chi2 with n - i + 1 degrees of freedom
(beta=1) or Gamma(n - i + 1, 1) (beta=2), i = 1 .. p.  So each sample draws
T = Lambda^(1/2) L directly, and its smallest singular value comes from
``linalg.smallest_singular_value`` for lower-triangular matrices.

Each sample takes ``normals`` = beta p (p - 1) / 2 standard normals from the
Gaussian stream, Philox keyed (seed mod 2**64, 0): the strictly lower
triangle row by row, where for beta=2 two consecutive Gaussians are the
real and imaginary part of one entry.  It takes p Gamma variates from the
Gamma stream, Philox keyed (seed mod 2**64, 1): L_ii**2 = 2 Gamma((n - i +
1) / 2) = chi2_{n - i + 1} (beta=1) or Gamma(n - i + 1) (beta=2).  numpy
draws the normals by the ziggurat method (Marsaglia & Tsang, J. Stat.
Softw. 5(8), 2000) and the Gammas by Marsaglia & Tsang's method (ACM TOMS
26, 363, 2000; an exponential at shape 1), so the cost of a sample does
not grow with n.  Both methods reject a variable number of words, so there
is no skip-ahead to sample k: each stream is read in sample order, and
numpy draws the same sequence in one call or in chunks, so the first m
samples are the same for any count >= m and any chunking.  Their bits may change across numpy versions, as
those of any numpy ``Generator`` method may.  Nothing else is drawn, no
basis rotation either, as the observable does not depend on it (above).

Samples are drawn in chunks of as many samples as fit, with their normals,
Gammas and factors, in ``CHUNK_DRAWS`` float64 words: one ``gaussians``
and one ``gammas`` call, then one stacked sigma_min per chunk.  What
depends on the batch alone is built once per batch (``_plan``): the flat
indices of T's strict lower triangle and diagonal, the Gamma shapes of a
chunk and sqrt(lambda) per entry.  Once one sample needs more than
``CHUNK_DRAWS`` words, as at p=200, a chunk holds a single sample.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import smallest_singular_value
from .spectra import EmpiricalSpectrum, EnsembleConfig, as_integer

__all__ = [
    "SampleBatch",
    "sample_batch",
    "spectrum_hash",
    "batch_csv_text",
    "batch_metadata",
]

_MASK64 = (1 << 64) - 1

# float64 words per chunk of a batch (512 KiB) of normals, Gammas and
# factors: 422 samples at beta=1, p=10, and a single sample at p=200
CHUNK_DRAWS = 1 << 16


class RngStream:
    """The two random streams of a batch, each a Philox from counter 0.

    The Gaussians come from the one keyed (seed mod 2**64, 0), the Gammas
    from the one keyed (seed mod 2**64, 1).
    """

    __slots__ = ("seed", "_normal", "_gamma")

    def __init__(self, seed: int):
        self.seed = as_integer(seed, "seed must be an integer, got {!r}")
        key = self.seed & _MASK64
        self._normal = np.random.Generator(np.random.Philox(key=key))
        self._gamma = np.random.Generator(np.random.Philox(key=key | (1 << 64)))

    def gaussians(self, count: int) -> np.ndarray:
        """The next count standard normals of the Gaussian stream."""
        return self._normal.standard_normal(count)

    def gammas(self, shape: np.ndarray) -> np.ndarray:
        """The next Gamma(shape_j, 1) variates of the Gamma stream, one per entry of ``shape``."""
        return self._gamma.standard_gamma(shape)


@dataclass(frozen=True)
class _Plan:
    """What ``_triangular_factors`` needs of a batch, built once by ``_plan``."""

    beta: int
    p: int
    normals: int  # Gaussians per sample
    rows: int  # samples per chunk
    shape: np.ndarray  # Gamma shape of each diagonal entry of a whole chunk
    lower: np.ndarray  # flat indices into p * p of the strictly lower triangle, row by row
    diagonal: np.ndarray  # flat indices of the diagonal
    root: np.ndarray  # sqrt(lambda_i)
    scale: np.ndarray  # sqrt(lambda_i) (beta=1) or sqrt(lambda_i / 2) (beta=2), per lower entry


def _plan(spectrum: EmpiricalSpectrum, config: EnsembleConfig, count: int) -> _Plan:
    """The per-batch constants of a batch of ``count`` samples."""
    if spectrum.p != config.p:
        raise ValueError(f"spectrum has p={spectrum.p} but config expects p={config.p}")
    p, n, beta = config.p, config.n, config.beta
    dof = n - np.arange(p, dtype=float)  # degrees of freedom of L_ii**2, i = 1 .. p
    normals = beta * (p * (p - 1) // 2)
    rows = max(1, min(count, CHUNK_DRAWS // (normals + p + p * p)))
    below, col = np.tril_indices(p, -1)
    lam = np.asarray(spectrum.lambdas)
    return _Plan(
        beta=beta,
        p=p,
        normals=normals,
        rows=rows,
        shape=np.tile(dof if beta == 2 else 0.5 * dof, rows),
        lower=below * p + col,
        diagonal=np.arange(p) * (p + 1),
        root=np.sqrt(lam),
        scale=(np.sqrt(0.5 * lam) if beta == 2 else np.sqrt(lam))[below],
    )


def _triangular_factors(z, g, plan: _Plan, out):
    """Stack of T = Lambda^(1/2) L, one per row of ``z`` and ``g``, written into ``out``.

    Each row of ``z`` holds a sample's ``plan.normals`` Gaussians and each
    row of ``g`` its p Gamma variates, in the order of the module
    docstring; both are overwritten.  ``out`` holds one flat p * p matrix
    per row, zero above the diagonal; the strict lower triangle and the
    diagonal are overwritten, and the (k, p, p) view of ``out`` is returned.
    """
    if plan.beta == 2:
        # consecutive Gaussians are the real and imaginary part of one entry
        z = z.view(np.complex128)
    else:
        g *= 2.0
    z *= plan.scale
    out[:, plan.lower] = z
    np.sqrt(g, out=g)
    g *= plan.root
    out[:, plan.diagonal] = g
    return out.reshape(len(z), plan.p, plan.p)


@dataclass(frozen=True)
class SampleBatch:
    """Sorted smallest eigenvalues of W W^dag from one seeded run."""

    values: np.ndarray
    config: EnsembleConfig
    spectrum_hash: str
    seed: int
    count: int

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 1 or len(values) != self.count:
            raise ValueError("batch count does not match number of values")
        if not np.all(np.isfinite(values)):
            raise ValueError("batch values must be finite")
        if np.any(values < 0):
            raise ValueError("batch values must be non-negative")
        if np.any(values[1:] < values[:-1]):
            raise ValueError("batch values must be sorted ascending")


def spectrum_hash(spectrum: EmpiricalSpectrum) -> str:
    """Stable hex digest of the spectrum (shortest round-trip float reprs)."""
    payload = "\n".join(repr(v) for v in spectrum.lambdas)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def sample_batch(
    spectrum: EmpiricalSpectrum,
    config: EnsembleConfig,
    count: int,
    seed: int,
) -> SampleBatch:
    """count smallest eigenvalues lambda_min(W W^dag), sorted ascending.

    Sample k draws T = Lambda^(1/2) L from ``RngStream(seed)``: its
    Gaussians follow those of samples 0 .. k-1 on the Gaussian stream, its
    Gammas follow theirs on the Gamma stream, as the module docstring lays
    out, so the first m samples are the same for any count >= m.  There is
    no skip-ahead: reaching sample k draws the samples before it.  Samples
    are drawn in chunks of ``plan.rows``, one ``gaussians`` and one
    ``gammas`` call each, and each chunk's lambda_min are the squared
    smallest singular values of its stack of T.
    """
    seed = as_integer(seed, "seed must be an integer, got {!r}")
    count = as_integer(count, "count must be an integer, got {!r}")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    plan = _plan(spectrum, config, count)
    p, beta = plan.p, plan.beta
    # one buffer for every chunk (the factors never write above the diagonal):
    # at p=200 a fresh 640 KB T per sample made glibc trim and re-fault the heap
    factors = np.zeros((plan.rows, p * p), dtype=np.complex128 if beta == 2 else np.float64)
    stream = RngStream(seed)
    values = np.empty(count)
    for start in range(0, count, plan.rows):
        k = min(plan.rows, count - start)
        z = stream.gaussians(k * plan.normals).reshape(k, plan.normals)
        g = stream.gammas(plan.shape[: k * p]).reshape(k, p)
        t = _triangular_factors(z, g, plan, factors[:k])
        values[start : start + k] = smallest_singular_value(t) ** 2
    values.sort()
    zeros = int(np.count_nonzero(values == 0.0))
    if zeros and config.p < config.n:
        warnings.warn(
            f"{zeros} exactly-zero smallest eigenvalues in a p < n batch "
            f"(sigma_min underflow)",
            RuntimeWarning,
        )
    return SampleBatch(
        values=values,
        config=config,
        spectrum_hash=spectrum_hash(spectrum),
        seed=seed,
        count=count,
    )


def batch_csv_text(batch: SampleBatch) -> str:
    """CSV export: header ``index,lambda_min``, one sorted sample per row."""
    lines = ["index,lambda_min"]
    lines.extend(f"{i},{v!r}" for i, v in enumerate(batch.values.tolist()))
    return "\n".join(lines) + "\n"


def batch_metadata(batch: SampleBatch) -> dict:
    """Side JSON record identifying the run."""
    return {
        "seed": batch.seed,
        "beta": batch.config.beta,
        "p": batch.config.p,
        "n": batch.config.n,
        "spectrum_hash": batch.spectrum_hash,
        "count": batch.count,
    }
