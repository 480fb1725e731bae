"""Seeded Monte Carlo sampling of correlated Wishart matrices.

Each sample index owns its own counter-based Philox stream keyed by
(seed, index), so batches are reproducible regardless of evaluation order
and trivially parallelizable.  Sampling happens in the eigenbasis of the
population correlation matrix: the observable, the smallest eigenvalue of
W W^dag, is invariant under the basis rotation, so row j of W simply gets
variance lam_j (beta=1) or lam_j/2 per real component (beta=2).
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import smallest_singular_value
from .spectra import EmpiricalSpectrum, EnsembleConfig

__all__ = [
    "RngStream",
    "SampleBatch",
    "sample_wishart",
    "sample_batch",
    "spectrum_hash",
    "batch_csv_text",
    "batch_metadata",
]

_MASK64 = (1 << 64) - 1


class RngStream:
    """Counter-based random stream; (seed, stream_index) fixes the sequence."""

    __slots__ = ("seed", "stream_index", "_gen")

    def __init__(self, seed: int, stream_index: int = 0):
        self.seed = int(seed)
        self.stream_index = int(stream_index)
        key = np.array([self.seed & _MASK64, self.stream_index & _MASK64], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def gaussians(self, count: int) -> np.ndarray:
        """count standard normals via Box-Muller on stream uniforms.

        The log is applied to (1 - u), which never vanishes for u in [0, 1).
        Draws are consumed in pairs; an odd count discards the last deviate.
        """
        pairs = (count + 1) // 2
        u = self._gen.random(2 * pairs)
        r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
        theta = 2.0 * math.pi * u[1::2]
        z = np.empty(2 * pairs)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return z[:count]


def sample_wishart(
    spectrum: EmpiricalSpectrum, config: EnsembleConfig, stream: RngStream
) -> np.ndarray:
    """One p x n data matrix W with row j variance set by lam_j.

    beta=1: real entries N(0, lam_j).  beta=2: complex entries with
    independent real and imaginary parts N(0, lam_j/2).
    """
    if spectrum.p != config.p:
        raise ValueError(f"spectrum has p={spectrum.p} but config expects p={config.p}")
    p, n = config.p, config.n
    lam = np.asarray(spectrum.lambdas)
    if config.beta == 1:
        z = stream.gaussians(p * n).reshape(p, n)
        return z * np.sqrt(lam)[:, None]
    z = stream.gaussians(2 * p * n)
    re = z[: p * n].reshape(p, n)
    im = z[p * n :].reshape(p, n)
    return (re + 1j * im) * np.sqrt(0.5 * lam)[:, None]


@dataclass(frozen=True)
class SampleBatch:
    """Sorted smallest eigenvalues of W W^dag from one seeded run."""

    values: np.ndarray
    config: EnsembleConfig
    spectrum_hash: str
    seed: int
    count: int

    def __post_init__(self):
        if len(self.values) != self.count:
            raise ValueError("batch count does not match number of values")
        if np.any(self.values < 0):
            raise ValueError("batch values must be non-negative")


def spectrum_hash(spectrum: EmpiricalSpectrum) -> str:
    """Stable hex digest of the spectrum (shortest round-trip float reprs)."""
    payload = "\n".join(repr(v) for v in spectrum.lambdas)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def _random_rotation(p: int, beta: int, stream: RngStream) -> np.ndarray:
    """Orthogonal (beta=1) or unitary (beta=2) p x p matrix from the stream."""
    z = stream.gaussians(p * p).reshape(p, p)
    if beta == 2:
        z = z + 1j * stream.gaussians(p * p).reshape(p, p)
    q, _ = np.linalg.qr(z)
    return q


def sample_batch(
    spectrum: EmpiricalSpectrum,
    config: EnsembleConfig,
    count: int,
    seed: int,
    rotate: bool = False,
) -> SampleBatch:
    """count smallest eigenvalues lambda_min(W W^dag), sorted ascending.

    Sample index k draws from stream (seed, k), so the batch is independent
    of evaluation order.  ``rotate`` left-multiplies each W by a random
    basis rotation drawn from the same stream; the observable is invariant,
    so this exists purely as a self-test of the eigenbasis reduction.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    values = np.empty(count)
    for idx in range(count):
        stream = RngStream(seed, idx)
        w = sample_wishart(spectrum, config, stream)
        if rotate:
            w = _random_rotation(config.p, config.beta, stream) @ w
        values[idx] = smallest_singular_value(w) ** 2
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
        seed=int(seed),
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
