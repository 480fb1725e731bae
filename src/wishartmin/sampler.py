"""Seeded Monte Carlo sampling of the smallest eigenvalue of correlated Wishart matrices.

A batch reads one counter-based Philox stream keyed by its seed, and each
sample reads its own fixed block of it, so a batch is reproducible, a
larger count extends it without changing its first samples, and any sample
can be reached directly (below).  Sampling happens in the eigenbasis of the
population correlation matrix: the observable, the smallest eigenvalue of
W W^dag, is invariant under the basis rotation, so W = Lambda^(1/2) G with
G a p x n matrix of standard real (beta=1) or complex (beta=2, E|g|^2 = 1)
Gaussians.

W itself is never formed.  The LQ decomposition G = L Q leaves
sigma(W) = sigma(Lambda^(1/2) L), and by Bartlett's decomposition (Bartlett
1933; in the form of Edelman 1989 for both betas) the p x p lower-triangular
factor L has independent entries: standard real or complex Gaussians below
the diagonal, and on it L_ii**2 ~ chi2 with n - i + 1 degrees of freedom
(beta=1) or Gamma(n - i + 1, 1) (beta=2), i = 1 .. p.  So each sample draws
T = Lambda^(1/2) L directly, and its smallest singular value comes from
``linalg.smallest_singular_value`` for lower-triangular matrices.

Every sample takes a fixed number W = ``normals + draws`` of uniforms
from the stream, in this order (``_plan``): the Gaussians of
``RngStream.gaussians`` below the diagonal, the strictly lower triangle row
by row (for beta=2 two consecutive Gaussians are the real and imaginary
part of one entry), then (beta=1) one extra Gaussian for each row with an
odd number of degrees of freedom, with ``normals`` rounded up to even; then
the ``draws`` uniforms of the diagonal sums, Gamma(m) =
-sum_{j<=m} log1p(-U_j) and chi2_m = 2 Gamma(m // 2) plus the extra
Gaussian squared when m is odd.  Nothing else is drawn, no basis rotation
either, as the observable does not depend on it (above).  No draw is
rejected, so sample k reads words [k W, (k + 1) W) of the stream, whatever
the count and the chunking.  The stream is Philox keyed (seed mod 2**64, 0)
from counter 0, each counter giving four 64-bit words, one per uniform, so
a parallel caller reaches sample k by setting the counter to
floor(k W / 4) and skipping (k W) mod 4 words (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC 2011).

Samples are drawn in chunks of about ``CHUNK_DRAWS`` uniforms, each filled
by one call on the stream.  The whole chunk then goes through one
Box-Muller transform, one ``log1p``, one segmented sum (``np.add.reduceat``)
and one stacked sigma_min.  What depends on the batch alone is built once
per batch (``_plan``): the layout counts, the segment starts, the flat
indices of T's strict lower triangle and diagonal, the odd rows and
sqrt(lambda) per entry.  Once one sample needs more than ``CHUNK_DRAWS``
uniforms, as at p=200, a chunk holds a single sample, and T is all that is
left to build per chunk.
"""

from __future__ import annotations

import hashlib
import math
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

# uniforms drawn per chunk of a batch (512 KiB): some 500 samples at
# p=10, n=21, and a single sample once one sample needs more than this
CHUNK_DRAWS = 1 << 16


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Standard normals from uniforms in [0, 1), pairwise along the last axis.

    Each consecutive pair (u1, u2) of a row gives two deviates,
    sqrt(-2 log(1 - u1)) times cos and sin of 2 pi u2.  The log is applied
    to (1 - u1), which never vanishes for u1 in [0, 1).
    """
    r = np.negative(u[..., 0::2])
    np.log1p(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta = np.multiply(u[..., 1::2], 2.0 * math.pi)
    s = np.sin(theta)
    np.cos(theta, out=theta)
    z = np.empty(u.shape)
    np.multiply(r, theta, out=z[..., 0::2])
    np.multiply(r, s, out=z[..., 1::2])
    return z


class RngStream:
    """Counter-based random stream: Philox keyed (seed mod 2**64, 0), from counter 0."""

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: int):
        self.seed = as_integer(seed, "seed must be an integer, got {!r}")
        self._gen = np.random.Generator(np.random.Philox(key=self.seed & _MASK64))

    def uniforms(self, out: np.ndarray):
        """Fill the contiguous float64 array ``out`` with the next uniforms in [0, 1)."""
        self._gen.random(out=out)

    def gaussians(self, count: int) -> np.ndarray:
        """count standard normals via Box-Muller on stream uniforms.

        Draws are consumed in pairs; an odd count discards the last deviate.
        """
        return _box_muller(self._gen.random(2 * ((count + 1) // 2)))[:count]


@dataclass(frozen=True)
class _Plan:
    """What ``_triangular_factors`` needs of a batch, built once by ``_plan``."""

    beta: int
    p: int
    normals: int  # uniforms per sample: Gaussians, then diagonal sums
    draws: int
    rows: int  # samples per chunk
    starts: np.ndarray  # np.add.reduceat starts of the diagonal sums of a whole chunk
    lower: np.ndarray  # flat indices into p * p of the strictly lower triangle, row by row
    diagonal: np.ndarray  # flat indices of the diagonal
    odd: np.ndarray  # rows with an odd number of degrees of freedom (beta=1)
    root: np.ndarray  # sqrt(lambda_i)
    scale: np.ndarray  # sqrt(lambda_i) (beta=1) or sqrt(lambda_i / 2) (beta=2), per lower entry


def _plan(spectrum: EmpiricalSpectrum, config: EnsembleConfig, count: int) -> _Plan:
    """The per-batch constants of a batch of ``count`` samples.

    ``normals`` is rounded up to even: Box-Muller takes its uniforms in
    pairs, as a ``gaussians`` call of that size would.
    """
    if spectrum.p != config.p:
        raise ValueError(f"spectrum has p={spectrum.p} but config expects p={config.p}")
    p, n, beta = config.p, config.n, config.beta
    dof = n - np.arange(p)  # degrees of freedom of L_ii**2, i = 1 .. p
    normals = beta * (p * (p - 1) // 2) + (int(np.count_nonzero(dof % 2)) if beta == 1 else 0)
    normals += normals % 2
    group = dof if beta == 2 else dof // 2
    draws = int(group.sum())
    rows = max(1, min(count, CHUNK_DRAWS // (normals + draws)))
    starts = np.concatenate(([0], np.cumsum(group)[:-1])) + draws * np.arange(rows)[:, None]
    below, col = np.tril_indices(p, -1)
    lam = np.asarray(spectrum.lambdas)
    return _Plan(
        beta=beta,
        p=p,
        normals=normals,
        draws=draws,
        rows=rows,
        starts=starts.reshape(-1),
        lower=below * p + col,
        diagonal=np.arange(p) * (p + 1),
        odd=np.flatnonzero(dof % 2),
        root=np.sqrt(lam),
        scale=(np.sqrt(0.5 * lam) if beta == 2 else np.sqrt(lam))[below],
    )


def _triangular_factors(u, plan: _Plan, out):
    """Stack of T = Lambda^(1/2) L, one per row of ``u``, written into ``out``.

    Each row holds a sample's Gaussian and diagonal-sum uniforms, in the
    order of the module docstring (``plan.normals`` and ``plan.draws``).
    ``out`` holds one flat p * p matrix per row, zero above the diagonal;
    the strict lower triangle and the diagonal are overwritten, and the
    (k, p, p) view of ``out`` is returned.
    """
    p, normals, draws = plan.p, plan.normals, plan.draws
    k = len(u)
    z = _box_muller(u[:, :normals])
    logs = np.negative(u[:, normals : normals + draws])
    np.log1p(logs, out=logs)
    sums = np.add.reduceat(logs.reshape(-1), plan.starts[: k * p]).reshape(k, p)
    np.negative(sums, out=sums)
    lower = len(plan.lower)
    if plan.beta == 2:
        # consecutive Gaussians are the real and imaginary part of one entry
        entries = z[:, : 2 * lower].view(np.complex128) * plan.scale
    else:
        sums *= 2.0
        sums[:, plan.odd] += z[:, lower : lower + len(plan.odd)] ** 2
        entries = z[:, :lower] * plan.scale
    out[:, plan.lower] = entries
    np.sqrt(sums, out=sums)
    out[:, plan.diagonal] = plan.root * sums
    return out.reshape(k, p, p)


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

    Sample k draws T = Lambda^(1/2) L from words [k W, (k + 1) W) of the
    one stream ``RngStream(seed)``, W = ``normals + draws`` uniforms in the
    order of the module docstring, so the first m samples are the same for
    any count >= m; a parallel caller reaches sample k by setting the
    stream's counter to floor(k W / 4) and skipping (k W) mod 4 words.
    Samples are drawn in chunks of about ``CHUNK_DRAWS`` uniforms, one
    ``uniforms`` call each, and each chunk's lambda_min are the squared
    smallest singular values of its stack of T.
    """
    seed = as_integer(seed, "seed must be an integer, got {!r}")
    count = as_integer(count, "count must be an integer, got {!r}")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    plan = _plan(spectrum, config, count)
    p, beta = plan.p, plan.beta
    u = np.empty((plan.rows, plan.normals + plan.draws))
    # one buffer for every chunk (the factors never write above the diagonal):
    # at p=200 a fresh 640 KB T per sample made glibc trim and re-fault the heap
    factors = np.zeros((plan.rows, p * p), dtype=np.complex128 if beta == 2 else np.float64)
    stream = RngStream(seed)
    values = np.empty(count)
    for start in range(0, count, plan.rows):
        chunk = u[: min(plan.rows, count - start)]
        stream.uniforms(chunk)
        t = _triangular_factors(chunk, plan, factors[: len(chunk)])
        values[start : start + len(chunk)] = smallest_singular_value(t) ** 2
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
