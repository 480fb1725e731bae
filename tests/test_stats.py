import math

import numpy as np
import pytest

from wishartmin.sampler import sample_batch
from wishartmin.spectra import EmpiricalSpectrum, make_config
from wishartmin.stats import build_histogram, ks_statistic, ks_threshold

from oracles import derivative_check, gamma2_density, gamma2_tail


class TestKsStatistic:
    def test_single_sample_against_uniform(self):
        report = ks_statistic([0.5], [0.5])
        assert report.statistic == pytest.approx(0.5, abs=1e-15)

    def test_exact_quantiles_give_half_over_n(self):
        n = 200
        samples = (np.arange(1, n + 1) - 0.5) / n  # uniform quantiles
        report = ks_statistic(samples, np.clip(samples, 0.0, 1.0))
        assert report.statistic == pytest.approx(0.5 / n, abs=1e-14)

    def test_own_cdf_passes(self):
        spec = EmpiricalSpectrum((1.0,))
        cfg = make_config(2, 1, 2)
        batch = sample_batch(spec, cfg, 20_000, seed=3)
        report = ks_statistic(batch.values, 1.0 - np.vectorize(gamma2_tail)(batch.values))
        assert report.passed

    def test_thresholds(self):
        r1 = ks_statistic([0.5], [0.5], alpha=0.01)
        assert r1.threshold == pytest.approx(1.63)
        r5 = ks_statistic([0.5], [0.5], alpha=0.05)
        assert r5.threshold == pytest.approx(1.36)
        with pytest.raises(ValueError):
            ks_statistic([0.5], [0.5], alpha=0.02)

    def test_threshold_override(self):
        report = ks_statistic([0.5], [0.5], threshold=0.6)
        assert report.threshold == 0.6
        assert report.passed

    def test_threshold_note_names_what_was_overridden(self):
        assert ks_threshold(0.01, 10_000) == (pytest.approx(0.0163), None)
        assert ks_threshold(0.01, 10_000, 0.05) == (
            0.05, "alpha-based threshold 0.0163 overridden to 0.05")
        assert ks_threshold(0.1, 10_000, 0.05) == (
            0.05, "alpha=0.1 has no tabulated KS quantile; threshold set to 0.05")

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0, 0.0])
    def test_rejects_threshold_not_positive_finite(self, threshold):
        with pytest.raises(ValueError, match="positive and finite"):
            ks_statistic([0.5], [0.5], threshold=threshold)

    def test_pass_iff_below_threshold(self):
        report = ks_statistic([0.5], [0.5], threshold=0.4)
        assert not report.passed

    def test_json_shape(self):
        doc = ks_statistic([0.5], [0.5], threshold=0.6).to_json()
        assert set(doc) == {"statistic", "n", "alpha", "threshold", "pass"}

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        xs = np.sort(rng.random(500))
        d0 = ks_statistic(xs, np.clip(xs, 0.0, 1.0)).statistic
        # affine map with exact binary scale: x -> 2x + 1
        ys = 2.0 * xs + 1.0
        d1 = ks_statistic(ys, np.clip((ys - 1.0) / 2.0, 0, 1)).statistic
        assert d1 == pytest.approx(d0, abs=1e-12)
        # cubic map on positives
        zs = xs ** 3
        d2 = ks_statistic(zs, np.clip(np.cbrt(zs), 0, 1)).statistic
        assert d2 == pytest.approx(d0, abs=1e-12)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            ks_statistic([0.5, 0.2], [0.5, 0.2])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ks_statistic([], [])

    def test_rejects_cdf_outside_unit_interval(self):
        with pytest.raises(ValueError):
            ks_statistic([0.5], [1.5])

    @pytest.mark.parametrize(
        "samples, cdf",
        [
            ([0.1, math.nan, 0.3], [0.2, 0.5, 0.9]),
            ([0.1, 0.2, math.inf], [0.2, 0.5, 0.9]),
            ([0.1, 0.2, 0.3], [0.2, math.nan, 0.9]),
            ([0.1, 0.2, 0.3], [0.2, 0.5, math.inf]),
        ],
        ids=["nan-sample", "inf-sample", "nan-cdf", "inf-cdf"],
    )
    def test_rejects_non_finite(self, samples, cdf):
        with pytest.raises(ValueError, match="finite"):
            ks_statistic(samples, cdf)

    def test_rejects_cdf_shape_mismatch(self):
        with pytest.raises(ValueError, match="one cdf value per sample"):
            ks_statistic([0.2, 0.5], [0.2])


class TestHistogram:
    def test_two_bins(self):
        h = build_histogram([0.0, 1.0], 2)
        assert np.allclose(h.densities, [1.0, 1.0])
        assert np.allclose(h.edges, [0.0, 0.5, 1.0])

    def test_unit_mass(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            xs = rng.exponential(2.0, size=rng.integers(2, 2000))
            h = build_histogram(xs, int(rng.integers(1, 40)))
            mass = np.sum(h.densities * np.diff(h.edges))
            assert mass == pytest.approx(1.0, abs=1e-12)

    def test_gamma_histogram_matches_density(self):
        spec = EmpiricalSpectrum((1.0,))
        cfg = make_config(2, 1, 2)
        batch = sample_batch(spec, cfg, 50_000, seed=44)
        h = build_histogram(batch.values, 60)
        widths = np.diff(h.edges)
        mids = 0.5 * (h.edges[:-1] + h.edges[1:])
        for k in range(60):
            dens = gamma2_density(mids[k])
            se = math.sqrt(max(dens, 1e-12) / (batch.count * widths[k]))
            assert abs(h.densities[k] - dens) < 5.0 * se + 5e-3

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            build_histogram([1.0, 1.0, 1.0], 4)
        with pytest.raises(ValueError):
            build_histogram([1.0], 4)
        with pytest.raises(ValueError):
            build_histogram([0.0, 1.0], 0)


class TestDerivativeCheck:
    """The central-difference instrument of tests/oracles.py (acceptance criterion 3)."""

    def test_known_derivative(self):
        grid = np.linspace(0.2, 3.0, 25)
        err = derivative_check(
            lambda t: math.exp(-t), lambda t: math.exp(-t), grid, rel_step=1e-4
        )
        assert err < 1e-7

    def test_second_order_convergence(self):
        grid = np.linspace(0.5, 2.0, 10)
        f = lambda t: math.exp(-1.3 * t)  # noqa: E731
        g = lambda t: 1.3 * math.exp(-1.3 * t)  # noqa: E731
        e1 = derivative_check(f, g, grid, rel_step=2e-3)
        e2 = derivative_check(f, g, grid, rel_step=1e-3)
        assert e1 / e2 == pytest.approx(4.0, rel=0.3)

    def test_mismatch_detected(self):
        grid = np.linspace(0.5, 2.0, 10)
        err = derivative_check(
            lambda t: math.exp(-t), lambda t: 1.05 * math.exp(-t), grid, rel_step=1e-5
        )
        assert err > 0.04

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            derivative_check(lambda t: t, lambda t: 1.0, [], rel_step=1e-5)
        with pytest.raises(ValueError):
            derivative_check(lambda t: t, lambda t: 1.0, [1.0], rel_step=0.0)
