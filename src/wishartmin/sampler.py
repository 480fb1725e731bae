"""Seeded Monte Carlo sampling of correlated Wishart matrices.

Each sample index owns its own counter-based Philox stream keyed by
(seed, index), so batches are reproducible regardless of evaluation order
and trivially parallelizable.  Sampling happens in the eigenbasis of the
population correlation matrix: the observable, the smallest eigenvalue of
W W^dag, is invariant under the basis rotation, so row j of W simply gets
variance lam_j (beta=1) or lam_j/2 per real component (beta=2).

A batch is drawn in chunks of samples.  One Philox generator is re-keyed
to (seed, index) for each sample and fills that sample's row of uniforms,
so every sample sees exactly the draws of its own ``RngStream``; the whole
chunk then goes through one Box-Muller transform and one stacked SVD.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass
from itertools import accumulate

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

# uniforms drawn per chunk of a batch (512 KiB): some 300 samples at
# p=10, n=21, and a single sample once one sample needs more than this
CHUNK_DRAWS = 1 << 16


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Standard normals from a 1-d, even-length array of uniforms in [0, 1).

    Each consecutive pair (u1, u2) gives two deviates.  The log is applied
    to (1 - u1), which never vanishes for u1 in [0, 1).
    """
    r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    theta = 2.0 * math.pi * u[1::2]
    z = np.empty(u.shape)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return z


class RngStream:
    """Counter-based random stream; (seed, stream_index) fixes the sequence."""

    __slots__ = ("seed", "stream_index", "_gen")

    def __init__(self, seed: int, stream_index: int = 0):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.Philox(key=0))
        self.restart(stream_index)

    def restart(self, stream_index: int):
        """Rewind to the start of stream (seed, stream_index).

        The generator's Philox key becomes (seed, stream_index) modulo 2**64
        and its counter 0.  Re-keying costs a fraction of building a new
        generator, so one stream can serve a whole batch, index by index.
        """
        self.stream_index = int(stream_index)
        self._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0),
                      "key": (self.seed & _MASK64, self.stream_index & _MASK64)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def uniforms(self, out: np.ndarray):
        """Fill the contiguous float64 array ``out`` with the next uniforms in [0, 1)."""
        self._gen.random(out=out)

    def gaussians(self, count: int) -> np.ndarray:
        """count standard normals via Box-Muller on stream uniforms.

        Draws are consumed in pairs; an odd count discards the last deviate.
        """
        return _box_muller(self._gen.random(2 * ((count + 1) // 2)))[:count]


def _data_matrices(z: np.ndarray, spectrum: EmpiricalSpectrum, config: EnsembleConfig):
    """Stack of p x n data matrices, one per row of beta*p*n standard normals.

    beta=1: real entries N(0, lam_j) in row j.  beta=2: complex entries with
    independent real and imaginary parts N(0, lam_j/2), the real parts from
    the first p*n normals and the imaginary parts from the rest.
    """
    if spectrum.p != config.p:
        raise ValueError(f"spectrum has p={spectrum.p} but config expects p={config.p}")
    p, n = config.p, config.n
    lam = np.asarray(spectrum.lambdas)
    if config.beta == 1:
        return z.reshape(-1, p, n) * np.sqrt(lam)[:, None]
    re = z[:, : p * n].reshape(-1, p, n)
    im = z[:, p * n :].reshape(-1, p, n)
    return (re + 1j * im) * np.sqrt(0.5 * lam)[:, None]


def sample_wishart(
    spectrum: EmpiricalSpectrum, config: EnsembleConfig, stream: RngStream
) -> np.ndarray:
    """One p x n data matrix W with row j variance set by lam_j.

    beta=1: real entries N(0, lam_j).  beta=2: complex entries with
    independent real and imaginary parts N(0, lam_j/2).
    """
    z = stream.gaussians(config.beta * config.p * config.n)
    return _data_matrices(z[None], spectrum, config)[0]


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
    rotate: bool = False,
) -> SampleBatch:
    """count smallest eigenvalues lambda_min(W W^dag), sorted ascending.

    Sample index k draws from stream (seed, k), so the batch is independent
    of evaluation order: its W is ``sample_wishart(spectrum, config,
    RngStream(seed, k))``, bit for bit.  Samples are drawn in chunks of
    about ``CHUNK_DRAWS`` uniforms, each chunk reduced by one stacked SVD.
    ``rotate`` left-multiplies each W by a random orthogonal (beta=1) or
    unitary (beta=2) matrix, the Q of a QR of Gaussians drawn after W on the
    same stream; the observable is invariant, so this exists purely as a
    self-test of the eigenbasis reduction.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    p, n, beta = config.p, config.n, config.beta
    # the Gaussians of each sample, as successive RngStream.gaussians calls;
    # each call takes an even number of uniforms
    sizes = [beta * p * n] + [p * p] * (beta if rotate else 0)
    offsets = list(accumulate((c + c % 2 for c in sizes), initial=0))
    width = offsets[-1]
    u = np.empty((max(1, min(count, CHUNK_DRAWS // width)), width))
    stream = RngStream(seed)
    values = np.empty(count)
    for start in range(0, count, len(u)):
        chunk = u[: min(len(u), count - start)]
        for i, row in enumerate(chunk):
            stream.restart(start + i)
            stream.uniforms(row)
        z = _box_muller(chunk.reshape(-1)).reshape(chunk.shape)
        draws = [z[:, o : o + c] for o, c in zip(offsets, sizes)]
        w = _data_matrices(draws[0], spectrum, config)
        if rotate:
            g = draws[1].reshape(-1, p, p)
            if beta == 2:
                g = g + 1j * draws[2].reshape(-1, p, p)
            w = np.linalg.qr(g)[0] @ w
        values[start : start + len(chunk)] = smallest_singular_value(w) ** 2
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
