import json
import math

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
    sample_wishart,
    spectrum_hash,
)
from wishartmin.linalg import smallest_singular_value
from wishartmin.spectra import EmpiricalSpectrum, make_config
from wishartmin.stats import ks_statistic

from conftest import BENCH10_SPECTRUM
from oracles import gamma2_tail, normal_cdf


class TestRngStream:
    def test_gaussian_pair_reproducible(self):
        a = RngStream(42, 0).gaussians(2)
        b = RngStream(42, 0).gaussians(2)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        pair = RngStream(42, 0).gaussians(2)
        assert not np.array_equal(pair, RngStream(42, 1).gaussians(2))
        assert not np.array_equal(pair, RngStream(43, 0).gaussians(2))

    def test_moments(self):
        z = RngStream(7, 0).gaussians(1_000_000)
        assert abs(z.mean()) < 4.0 / math.sqrt(1_000_000)
        assert abs(z.var() - 1.0) < 0.005

    def test_ks_against_normal(self):
        z = np.sort(RngStream(11, 3).gaussians(100_000))
        report = ks_statistic(z, np.array([normal_cdf(x) for x in z]))
        assert report.statistic < 1.63 / math.sqrt(100_000)
        assert report.passed

    def test_pair_consistent_with_batch(self):
        stream = RngStream(5, 9)
        z = stream.gaussians(6)
        pair = RngStream(5, 9).gaussians(2)
        assert pair.tolist() == z[:2].tolist()


class TestSampleWishart:
    def test_shapes_and_dtypes(self):
        spec = EmpiricalSpectrum((1.0, 2.0))
        w1 = sample_wishart(spec, make_config(1, 2, 5), RngStream(0, 0))
        assert w1.shape == (2, 5) and w1.dtype == np.float64
        w2 = sample_wishart(spec, make_config(2, 2, 5), RngStream(0, 0))
        assert w2.shape == (2, 5) and w2.dtype == np.complex128

    def test_unit_spectrum_entry_variance(self):
        spec = EmpiricalSpectrum((1.0,) * 10)
        cfg = make_config(1, 10, 21)
        pooled = np.concatenate(
            [sample_wishart(spec, cfg, RngStream(1, k)).ravel() for k in range(200)]
        )
        n = pooled.size
        assert abs(pooled.var() - 1.0) < 3.0 * math.sqrt(2.0 / n)

    def test_trace_expectation(self):
        lams = (0.5, 1.5, 4.0)
        spec = EmpiricalSpectrum(lams)
        cfg = make_config(1, 3, 6)
        traces = np.array(
            [
                np.sum(sample_wishart(spec, cfg, RngStream(7, k)) ** 2)
                for k in range(10_000)
            ]
        )
        want = cfg.n * sum(lams)
        se = math.sqrt(2.0 * cfg.n * sum(v * v for v in lams) / traces.size)
        assert abs(traces.mean() - want) < 3.0 * se

    def test_beta2_row_second_moment(self):
        lams = (0.5, 2.0, 8.0)
        spec = EmpiricalSpectrum(lams)
        cfg = make_config(2, 3, 6)
        rows = np.array(
            [
                np.sum(np.abs(sample_wishart(spec, cfg, RngStream(3, k))) ** 2, axis=1)
                for k in range(10_000)
            ]
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
        "beta, lams, n",
        [(1, BENCH10_SPECTRUM, 13), (2, (0.8, 2.0, 5.0), 4)],
        ids=["beta1-p10-n13", "beta2-p3-n4"],
    )
    def test_streams_indexed_by_sample(self, beta, lams, n):
        spec = EmpiricalSpectrum(lams)
        cfg = make_config(beta, len(lams), n)
        count = 2 * (CHUNK_DRAWS // (beta * cfg.p * n)) + 7  # two chunks and a remainder
        batch = sample_batch(spec, cfg, count, seed=21)
        # squared as the batch squares: one correctly rounded multiply
        singles = np.sort([
            smallest_singular_value(sample_wishart(spec, cfg, RngStream(21, k)))
            for k in range(count)
        ]) ** 2
        assert np.array_equal(batch.values, singles)

    def test_chunked_draws_are_the_stream_gaussians(self, monkeypatch):
        # with a unit spectrum at beta=1, each W is its stream's Gaussians
        stacks = []

        def record(w):
            stacks.append(w.copy())
            return smallest_singular_value(w)

        monkeypatch.setattr(sampler, "smallest_singular_value", record)
        cfg = make_config(1, 4, 9)
        m = cfg.p * cfg.n
        count = 2 * (CHUNK_DRAWS // m) + 5
        sample_batch(EmpiricalSpectrum((1.0,) * cfg.p), cfg, count, seed=-3)
        assert len(stacks) == 3
        drawn = np.concatenate(stacks).reshape(count, m)
        want = np.stack([RngStream(-3, k).gaussians(m) for k in range(count)])
        assert np.array_equal(drawn, want)

    def test_restart_matches_new_stream(self):
        stream = RngStream(8, 0)
        stream.gaussians(5)
        for k in (3, 1, (1 << 64) + 2):
            stream.restart(k)
            assert stream.gaussians(7).tolist() == RngStream(8, k).gaussians(7).tolist()

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

    def test_rotation_invariance(self):
        spec = EmpiricalSpectrum((0.5, 1.0, 4.0))
        for beta, n in ((1, 6), (2, 4)):
            cfg = make_config(beta, 3, n)
            # more samples than one chunk holds, with or without rotation draws
            count = CHUNK_DRAWS // (beta * 3 * n) + 5
            plain = sample_batch(spec, cfg, count, seed=17)
            rotated = sample_batch(spec, cfg, count, seed=17, rotate=True)
            assert np.allclose(rotated.values, plain.values, rtol=1e-9)

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
