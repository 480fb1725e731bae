import json
import math
import tracemalloc

import numpy as np
import pytest

from wishartmin import sampler
from wishartmin.sampler import (
    CHUNK_DRAWS,
    RngStream,
    SampleBatch,
    batch_csv_text,
    batch_metadata,
    sample_batch,
    spectrum_hash,
)
from wishartmin.linalg import smallest_singular_value
from wishartmin.spectra import EmpiricalSpectrum, make_config
from wishartmin.stats import ks_statistic

from conftest import BENCH10_SPECTRUM
from oracles import direct_smallest_eigenvalues, gamma2_tail, normal_cdf, sample_wishart


class TestRngStream:
    def test_gaussian_pair_reproducible(self):
        a = RngStream(42).gaussians(2)
        b = RngStream(42).gaussians(2)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        assert not np.array_equal(RngStream(42).gaussians(2), RngStream(43).gaussians(2))

    def test_moments(self):
        z = RngStream(7).gaussians(1_000_000)
        assert abs(z.mean()) < 4.0 / math.sqrt(1_000_000)
        assert abs(z.var() - 1.0) < 0.005

    def test_ks_against_normal(self):
        z = np.sort(RngStream(11).gaussians(100_000))
        report = ks_statistic(z, np.array([normal_cdf(x) for x in z]))
        assert report.statistic < 1.63 / math.sqrt(100_000)
        assert report.passed

    @pytest.mark.parametrize(
        "seed", [1.7, True, "3"], ids=["fractional-seed", "bool-seed", "string-seed"])
    def test_rejects_non_integral_seed_and_index(self, seed):
        with pytest.raises(ValueError, match="must be an integer"):
            RngStream(seed)

    def test_integral_floats_are_the_integer_stream(self):
        stream = RngStream(np.float64(1.0))
        assert type(stream.seed) is int
        assert stream.gaussians(4).tolist() == RngStream(1).gaussians(4).tolist()

    def test_key_is_seed_and_index_modulo_2_64(self):
        # the Gaussians start at counter 0 of a Philox keyed (seed mod 2**64, 0),
        # the Gammas at counter 0 of one keyed (seed mod 2**64, 1)
        shape = np.array([0.5, 1.0, 1.5, 6.0, 101.0])
        for seed in (8, -3, (1 << 64) + 2):
            normal, gamma = keyed_generators(seed)
            stream = RngStream(seed)
            assert stream.gaussians(13).tolist() == normal.standard_normal(13).tolist()
            assert stream.gammas(shape).tolist() == gamma.standard_gamma(shape).tolist()

    def test_pair_consistent_with_batch(self):
        z = RngStream(5).gaussians(6)
        pair = RngStream(5).gaussians(2)
        assert pair.tolist() == z[:2].tolist()


def keyed_generators(seed):
    """The Gaussian and the Gamma generator of a batch, built from their documented keys."""
    return tuple(
        np.random.Generator(np.random.Philox(key=np.array([seed % (1 << 64), j], dtype=np.uint64)))
        for j in (0, 1))


def bartlett_factor(spectrum, config, normal, gamma):
    """T = Lambda^(1/2) L of one sample, read entry by entry off the two generators.

    The order is the sampler's documented one: off ``normal`` the Gaussians
    below the diagonal row by row (beta=2: real and imaginary part in turn),
    off ``gamma`` one Gamma variate per row, L_ii**2 = 2 Gamma((n - i + 1) / 2)
    (beta=1) or Gamma(n - i + 1) (beta=2).
    """
    p, n, beta = config.p, config.n, config.beta
    lam = spectrum.lambdas
    z = normal.standard_normal(beta * p * (p - 1) // 2)
    g = gamma.standard_gamma([float(n - i) if beta == 2 else (n - i) / 2 for i in range(p)])
    t = np.zeros((p, p), dtype=complex if beta == 2 else float)
    k = 0
    for i in range(p):
        for j in range(i):
            if beta == 2:
                t[i, j] = np.complex128(complex(z[2 * k], z[2 * k + 1])) * np.sqrt(0.5 * lam[i])
            else:
                t[i, j] = z[k] * np.sqrt(lam[i])
            k += 1
        t[i, i] = np.sqrt(lam[i]) * np.sqrt(g[i] if beta == 2 else 2.0 * g[i])
    return t


def bartlett_factors(spectrum, config, count, seed):
    """The first count factors of a batch at seed, one sample after the other."""
    normal, gamma = keyed_generators(seed)
    return np.stack([bartlett_factor(spectrum, config, normal, gamma) for _ in range(count)])


def rows_per_chunk(config):
    """Samples per chunk: as many as fit with their normals, Gammas and factor in CHUNK_DRAWS words."""
    p = config.p
    return CHUNK_DRAWS // (config.beta * p * (p - 1) // 2 + p + p * p)


def recorded_factors(monkeypatch):
    """The list that each stack of T the sampler passes to sigma_min is appended to, as a copy."""
    stacks = []

    def record(t):
        stacks.append(t.copy())
        return smallest_singular_value(t)

    monkeypatch.setattr(sampler, "smallest_singular_value", record)
    return stacks


def two_sample_ks(a, b):
    """sup |F_a - F_b| of two empirical CDFs."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


class TestSampleWishart:
    # the direct reference path: the whole p x n W, each read in turn off one stream
    def test_shapes_and_dtypes(self):
        spec = EmpiricalSpectrum((1.0, 2.0))
        w1 = sample_wishart(spec, make_config(1, 2, 5), RngStream(0))
        assert w1.shape == (2, 5) and w1.dtype == np.float64
        w2 = sample_wishart(spec, make_config(2, 2, 5), RngStream(0))
        assert w2.shape == (2, 5) and w2.dtype == np.complex128

    def test_unit_spectrum_entry_variance(self):
        spec = EmpiricalSpectrum((1.0,) * 10)
        cfg = make_config(1, 10, 21)
        stream = RngStream(1)
        pooled = np.concatenate([sample_wishart(spec, cfg, stream).ravel() for _ in range(200)])
        n = pooled.size
        assert abs(pooled.var() - 1.0) < 3.0 * math.sqrt(2.0 / n)

    def test_trace_expectation(self):
        lams = (0.5, 1.5, 4.0)
        spec = EmpiricalSpectrum(lams)
        cfg = make_config(1, 3, 6)
        stream = RngStream(7)
        traces = np.array([np.sum(sample_wishart(spec, cfg, stream) ** 2) for _ in range(10_000)])
        want = cfg.n * sum(lams)
        se = math.sqrt(2.0 * cfg.n * sum(v * v for v in lams) / traces.size)
        assert abs(traces.mean() - want) < 3.0 * se

    def test_beta2_row_second_moment(self):
        lams = (0.5, 2.0, 8.0)
        spec = EmpiricalSpectrum(lams)
        cfg = make_config(2, 3, 6)
        stream = RngStream(3)
        rows = np.array(
            [np.sum(np.abs(sample_wishart(spec, cfg, stream)) ** 2, axis=1) for _ in range(10_000)]
        )
        for j, lam in enumerate(lams):
            se = math.sqrt(cfg.n * lam * lam / rows.shape[0])
            assert abs(rows[:, j].mean() - cfg.n * lam) < 3.0 * se


class TestSampleBatch:
    def test_single_sample_deterministic(self):
        spec = EmpiricalSpectrum((1.0, 3.0))
        cfg = make_config(2, 2, 3)
        a = sample_batch(spec, cfg, 1, seed=99)
        b = sample_batch(spec, cfg, 1, seed=99)
        assert a.values[0] == b.values[0]

    def test_bit_identical_batches(self):
        spec = EmpiricalSpectrum(BENCH10_SPECTRUM)
        cfg = make_config(1, 10, 13)
        a = sample_batch(spec, cfg, 500, seed=4)
        b = sample_batch(spec, cfg, 500, seed=4)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize(
        "beta, lams, n, count",
        [(1, BENCH10_SPECTRUM, 13, None), (2, (0.8, 2.0, 5.0), 4, None),
         (1, tuple(np.geomspace(0.5, 2.0, 72)), 73, None),
         (2, (1.0,) * 100 + (4.0,) * 100, 202, 3)],
        ids=["beta1-p10-n13", "beta2-p3-n4", "beta1-p72-n73", "beta2-p200-n202"],
    )
    def test_samples_read_one_stream_in_order(self, beta, lams, n, count):
        spec = EmpiricalSpectrum(lams)
        cfg = make_config(beta, len(lams), n)
        # by default two chunks and a remainder; at p=200 a chunk is one sample
        count = count or 2 * rows_per_chunk(cfg) + 7
        batch = sample_batch(spec, cfg, count, seed=21)
        factors = bartlett_factors(spec, cfg, count, seed=21)
        # squared as the batch squares: one correctly rounded multiply;
        # each value of a stack is independent of the rest of it
        assert np.array_equal(batch.values, np.sort(smallest_singular_value(factors) ** 2))

    @pytest.mark.parametrize(
        "beta, n", [(1, 9), (2, 6)], ids=["beta1-p4-n9", "beta2-p4-n6"])
    def test_chunked_factors_are_the_stream_factors(self, monkeypatch, beta, n):
        stacks = recorded_factors(monkeypatch)
        spec = EmpiricalSpectrum((0.5, 1.0, 2.0, 7.0))
        cfg = make_config(beta, 4, n)
        count = 2 * rows_per_chunk(cfg) + 5
        sample_batch(spec, cfg, count, seed=-3)
        assert len(stacks) == 3
        assert np.array_equal(np.concatenate(stacks), bartlett_factors(spec, cfg, count, seed=-3))

    def test_one_gaussians_and_one_gammas_call_per_chunk(self, monkeypatch):
        calls = []
        gaussians, gammas = RngStream.gaussians, RngStream.gammas

        def record_gaussians(stream, count):
            calls.append(("gaussians", count))
            return gaussians(stream, count)

        def record_gammas(stream, shape):
            calls.append(("gammas", len(shape)))
            return gammas(stream, shape)

        monkeypatch.setattr(RngStream, "gaussians", record_gaussians)
        monkeypatch.setattr(RngStream, "gammas", record_gammas)
        spec = EmpiricalSpectrum(BENCH10_SPECTRUM)
        cfg = make_config(1, 10, 21)
        rows = rows_per_chunk(cfg)
        assert rows == 422
        sample_batch(spec, cfg, 2 * rows + 3, seed=6)
        assert calls == [(name, size * k) for k in (rows, rows, 3)
                         for name, size in (("gaussians", 45), ("gammas", 10))]

    def test_memory_peak_at_real_p10_size(self):
        # the benchmark's real-p10 batch; sizing the chunk by uniforms alone
        # peaked at 2,399 KiB here, and so did the Box-Muller sampler before
        spec = EmpiricalSpectrum(BENCH10_SPECTRUM)
        cfg = make_config(1, 10, 21)
        sample_batch(spec, cfg, 3, seed=1)  # first-call imports and caches are not the batch's
        tracemalloc.start()
        try:
            sample_batch(spec, cfg, 5000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2399 * 1024

    @pytest.mark.parametrize(
        "beta, lams, n",
        [(1, BENCH10_SPECTRUM, 13), (2, BENCH10_SPECTRUM, 12), (2, (1.0,) * 100 + (4.0,) * 100, 202)],
        ids=["beta1-p10-n13", "beta2-p10-n12", "beta2-p200-n202"])
    def test_first_samples_do_not_depend_on_count(self, monkeypatch, beta, lams, n):
        stacks = recorded_factors(monkeypatch)
        spec = EmpiricalSpectrum(lams)
        cfg = make_config(beta, len(lams), n)
        rows = rows_per_chunk(cfg)  # at p=200 one sample fills a chunk
        m = rows + 2  # chunks of rows and 2, against rows, rows and 5
        sample_batch(spec, cfg, m, seed=13)
        first = np.concatenate(stacks)
        stacks.clear()
        sample_batch(spec, cfg, m + rows + 3, seed=13)
        assert len(first) == m and np.array_equal(np.concatenate(stacks)[:m], first)

    @pytest.mark.parametrize(
        "beta, n", [(1, 5), (2, 3)], ids=["beta1-p4-n5", "beta2-p3-n3"])
    def test_diagonal_entries_follow_their_law(self, monkeypatch, beta, n):
        # L_ii**2 = |T_ii|**2 / lambda_i ~ chi2(n - i + 1) (beta=1) or Gamma(n - i + 1) (beta=2),
        # down to Gamma shape 1, where numpy's Gamma method changes
        laws = pytest.importorskip("scipy.stats", exc_type=ImportError)
        stacks = recorded_factors(monkeypatch)
        lams = (0.5, 1.0, 2.0, 7.0)[: 5 - beta]
        spec = EmpiricalSpectrum(lams)
        cfg = make_config(beta, len(lams), n)
        sample_batch(spec, cfg, 20_000, seed=17)
        squares = np.abs(np.diagonal(np.concatenate(stacks), axis1=1, axis2=2)) ** 2 / np.array(lams)
        for i in range(len(lams)):
            law = laws.chi2(n - i) if beta == 1 else laws.gamma(n - i)
            x = np.sort(squares[:, i])
            report = ks_statistic(x, law.cdf(x))
            assert report.passed, f"row {i}: KS D = {report.statistic}"

    @pytest.mark.parametrize(
        "beta, p, n, seeds",
        [(1, 20, 25, (5, 6)), (2, 30, 32, (7, 8))],
        ids=["beta1-p20-n25", "beta2-p30-n32"],
    )
    def test_same_law_as_direct_path(self, beta, p, n, seeds):
        # two-sample KS at alpha = 0.01 against the sorted lambda_min of the
        # whole W, drawn from other streams so that the samples are independent
        spec = EmpiricalSpectrum(tuple(np.linspace(0.5, 3.0, p)))
        cfg = make_config(beta, p, n)
        count = 3000
        bartlett = sample_batch(spec, cfg, count, seed=seeds[0]).values
        direct = direct_smallest_eigenvalues(spec, cfg, count, seeds[1])
        assert two_sample_ks(bartlett, direct) < 1.63 * math.sqrt(2.0 / count)

    def test_never_calls_svd(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", forbidden)
        for beta, n in ((1, 13), (2, 12)):
            sample_batch(EmpiricalSpectrum(BENCH10_SPECTRUM), make_config(beta, 10, n), 600, seed=2)

    def test_never_calls_inv(self, monkeypatch):
        # sigma_min inverts T by row substitution and block products, at any p
        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg.inv called")

        monkeypatch.setattr(np.linalg, "inv", forbidden)
        for lams, n, count in ((BENCH10_SPECTRUM, 21, 600), ((1.0,) * 100 + (4.0,) * 100, 203, 2)):
            for beta in (1, 2):
                sample_batch(EmpiricalSpectrum(lams), make_config(beta, len(lams), n), count, seed=2)

    def test_gamma_2_1_distribution(self):
        # p=1, n=2, beta=2: lambda_min ~ Gamma(2, 1)
        spec = EmpiricalSpectrum((1.0,))
        cfg = make_config(2, 1, 2)
        batch = sample_batch(spec, cfg, 50_000, seed=12)
        report = ks_statistic(batch.values, 1.0 - np.vectorize(gamma2_tail)(batch.values))
        assert report.passed, f"KS D = {report.statistic}"

    def test_scaling_equivariance_exact_for_power_of_four(self):
        spec = EmpiricalSpectrum((0.6, 1.2, 6.7, 9.3, 10.5))
        cfg = make_config(1, 5, 8)
        spec4 = EmpiricalSpectrum(tuple(4.0 * v for v in spec.lambdas))
        base = sample_batch(spec, cfg, 300, seed=11)
        scaled = sample_batch(spec4, cfg, 300, seed=11)
        assert np.array_equal(scaled.values, 4.0 * base.values)

    def test_scaling_equivariance_general(self):
        c = 1.7
        spec = EmpiricalSpectrum((0.6, 1.2, 6.7))
        cfg = make_config(2, 3, 5)
        specc = EmpiricalSpectrum(tuple(c * v for v in spec.lambdas))
        base = sample_batch(spec, cfg, 200, seed=8)
        scaled = sample_batch(specc, cfg, 200, seed=8)
        assert np.allclose(scaled.values, c * base.values, rtol=1e-12)

    def test_values_positive_and_sorted(self):
        spec = EmpiricalSpectrum(BENCH10_SPECTRUM)
        cfg = make_config(1, 10, 13)
        batch = sample_batch(spec, cfg, 200, seed=1)
        assert np.all(batch.values > 0)
        assert np.all(np.diff(batch.values) >= 0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_batch(EmpiricalSpectrum((1.0,)), make_config(2, 1, 2), 0, seed=0)

    @pytest.mark.parametrize(
        "count, seed, name",
        [(5, 1.7, "seed"), (5, math.nan, "seed"), (5, "3", "seed"), (5, True, "seed"),
         (2.5, 1, "count"), (True, 1, "count"), (math.inf, 1, "count")],
    )
    def test_rejects_non_integral_seed_and_count(self, count, seed, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            sample_batch(EmpiricalSpectrum((1.0, 2.0)), make_config(2, 2, 3), count, seed)

    def test_integral_floats_become_int(self):
        spec, cfg = EmpiricalSpectrum((1.0, 2.0)), make_config(2, 2, 3)
        batch = sample_batch(spec, cfg, 5.0, np.float64(1.0))
        assert type(batch.seed) is int and type(batch.count) is int
        assert batch_metadata(batch) == batch_metadata(sample_batch(spec, cfg, 5, 1))
        assert np.array_equal(batch.values, sample_batch(spec, cfg, 5, 1).values)

    @pytest.mark.parametrize(
        "values, reason",
        [([np.nan, 1.0], "finite"), ([1.0, np.inf], "finite"),
         ([-1.0, 1.0], "non-negative"), ([2.0, 1.0], "sorted")],
    )
    def test_record_rejects_invalid_values(self, values, reason):
        with pytest.raises(ValueError, match=reason):
            SampleBatch(values=np.array(values), config=make_config(2, 1, 2),
                        spectrum_hash="0", seed=0, count=2)


class TestBatchExport:
    def test_csv_format(self):
        spec = EmpiricalSpectrum((1.0, 2.0))
        cfg = make_config(2, 2, 3)
        batch = sample_batch(spec, cfg, 3, seed=5)
        lines = batch_csv_text(batch).splitlines()
        assert lines[0] == "index,lambda_min"
        assert len(lines) == 4
        idx, val = lines[1].split(",")
        assert idx == "0"
        assert float(val) == batch.values[0]

    def test_metadata_record(self):
        spec = EmpiricalSpectrum((1.0, 2.0))
        cfg = make_config(1, 2, 5)
        batch = sample_batch(spec, cfg, 2, seed=31)
        meta = batch_metadata(batch)
        assert meta == {
            "seed": 31,
            "beta": 1,
            "p": 2,
            "n": 5,
            "spectrum_hash": spectrum_hash(spec),
            "count": 2,
        }
        json.dumps(meta)  # serializable

    def test_spectrum_hash_stable_and_order_sensitive(self):
        a = spectrum_hash(EmpiricalSpectrum((1.0, 2.0)))
        assert a == spectrum_hash(EmpiricalSpectrum((1.0, 2.0)))
        assert a != spectrum_hash(EmpiricalSpectrum((2.0, 1.0)))
