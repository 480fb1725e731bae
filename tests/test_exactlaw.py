import math
import random

import numpy as np
import pytest

from wishartmin.exactlaw import ExactLaw, build_q_polynomials, q_prefactor
from wishartmin.numerics import signedlog_to_float
from wishartmin.spectra import EmpiricalSpectrum, make_config

from conftest import BENCH10_SPECTRUM
from oracles import adaptive_quadrature, gamma2_density, gamma2_tail


BENCH10 = EmpiricalSpectrum(BENCH10_SPECTRUM)
CFG_BENCH10 = make_config(1, 10, 13)
LAW_BENCH10 = ExactLaw(BENCH10, CFG_BENCH10)


def random_valid_config(rng):
    p = rng.randint(1, 12)
    beta = rng.choice([1, 2])
    n = p + 1 + 2 * rng.randint(0, 3) if beta == 1 else p + rng.randint(0, 3)
    lams = tuple(rng.uniform(0.2, 30.0) for _ in range(p))
    return EmpiricalSpectrum(lams), make_config(beta, p, n)


class TestQPrefactor:
    def test_beta1_diagonal_vanishes(self):
        assert q_prefactor(1, 1, CFG_BENCH10) == 0

    def test_beta1_off_diagonal(self):
        assert q_prefactor(1, 2, CFG_BENCH10) == -1

    def test_beta2_row_sign(self):
        cfg = make_config(2, 3, 5)  # kernel_dim 2
        assert q_prefactor(2, 1, cfg) == -1
        assert q_prefactor(2, 2, cfg) == -1
        assert q_prefactor(1, 1, cfg) == 1

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            q_prefactor(0, 1, CFG_BENCH10)
        with pytest.raises(IndexError):
            q_prefactor(1, 3, CFG_BENCH10)


class TestKernelPolynomials:
    def test_simplest_complex_kernel_is_t_plus_one(self):
        # p=1, n=2, beta=2: alpha=1, e=(1,1), q=+1, so Q11(t) = t + 1
        table = build_q_polynomials(EmpiricalSpectrum((1.0,)), make_config(2, 1, 2))
        poly = table[0][0]
        assert signedlog_to_float(poly.evaluate(0.0)) == pytest.approx(1.0, rel=1e-14)
        assert signedlog_to_float(poly.evaluate(1.0)) == pytest.approx(2.0, rel=1e-14)
        assert signedlog_to_float(poly.evaluate(2.5)) == pytest.approx(3.5, rel=1e-14)

    def test_beta1_diagonal_polynomials_are_zero(self):
        table = build_q_polynomials(BENCH10, CFG_BENCH10)
        for k in range(CFG_BENCH10.kernel_dim):
            assert table[k][k].is_zero

    def test_heaviside_cutoff(self):
        # p=1, n=5, beta=2: kernel_dim 4, alpha_(i,j) = 6 - i - j < 0 for i+j > 6
        cfg = make_config(2, 1, 5)
        table = build_q_polynomials(EmpiricalSpectrum((2.0,)), cfg)
        assert table[3][3].is_zero  # alpha = -2
        assert not table[0][0].is_zero

    def test_beta1_exact_negation_across_transpose(self):
        table = build_q_polynomials(BENCH10, CFG_BENCH10)
        dim = CFG_BENCH10.kernel_dim
        for i in range(dim):
            for j in range(dim):
                a, b = table[i][j], table[j][i]
                assert len(a.coeffs) == len(b.coeffs)
                for ca, cb in zip(a.coeffs, b.coeffs):
                    assert ca.sign == -cb.sign
                    assert ca.mantissa == cb.mantissa
                    assert ca.exp2 == cb.exp2

    def test_beta1_assembled_matrix_antisymmetric_exactly(self):
        cfg = make_config(1, 10, 17)  # kernel_dim 6
        table = build_q_polynomials(BENCH10, cfg)
        for t in (0.0, 0.08, 1.3):
            vals = [[poly.evaluate(t) for poly in row] for row in table]
            for i in range(cfg.kernel_dim):
                assert vals[i][i].sign == 0
                for j in range(cfg.kernel_dim):
                    a, b = vals[i][j], vals[j][i]
                    assert a.sign == -b.sign
                    assert a.mantissa == b.mantissa and a.exp2 == b.exp2

    def test_spectrum_config_mismatch(self):
        with pytest.raises(ValueError):
            build_q_polynomials(EmpiricalSpectrum((1.0, 2.0)), make_config(2, 3, 4))


class TestGapProbability:
    def test_is_one_at_zero(self):
        assert LAW_BENCH10.gap(0.0) == pytest.approx(1.0, abs=1e-10)

    def test_gamma0_closed_form(self):
        spec = EmpiricalSpectrum((1.0, 2.0, 4.0))
        cfg = make_config(2, 3, 3)
        assert ExactLaw(spec, cfg).gap(0.5) == pytest.approx(math.exp(-0.875), rel=1e-14)

    def test_wishart_1x2_matches_gamma_tail(self):
        spec = EmpiricalSpectrum((1.0,))
        law = ExactLaw(spec, make_config(2, 1, 2))
        for t in (0.1, 1.0, 3.0):
            assert law.gap(t) == pytest.approx(gamma2_tail(t), rel=1e-12)

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            LAW_BENCH10.gap(-0.1)

    def test_is_one_at_zero_for_random_configs(self):
        rng = random.Random(19)
        for _ in range(50):
            spec, cfg = random_valid_config(rng)
            assert ExactLaw(spec, cfg).gap(0.0) == pytest.approx(1.0, abs=1e-10)

    def test_non_increasing(self):
        rng = random.Random(23)
        for _ in range(10):
            spec, cfg = random_valid_config(rng)
            law = ExactLaw(spec, cfg)
            scale = 1.0 / law.trace_rate
            vals = law.gap_grid(np.linspace(0.0, 5.0 * scale, 80))
            assert np.all(np.diff(vals) <= 1e-12)

    def test_permutation_bit_identity(self):
        rng = random.Random(31)
        lams = [rng.uniform(0.3, 20.0) for _ in range(6)]
        perm = lams[:]
        rng.shuffle(perm)
        cfg = make_config(1, 6, 9)
        law = ExactLaw(EmpiricalSpectrum(tuple(lams)), cfg)
        law_perm = ExactLaw(EmpiricalSpectrum(tuple(perm)), cfg)
        for t in (0.0, 0.05, 0.3):
            assert law.gap(t) == law_perm.gap(t)

    def test_scaling_covariance(self):
        c = 3.7
        law_c = ExactLaw(EmpiricalSpectrum(tuple(c * v for v in BENCH10_SPECTRUM)), CFG_BENCH10)
        for t in (0.05, 0.2, 0.6):
            assert law_c.gap(t) == pytest.approx(LAW_BENCH10.gap(t / c), rel=1e-10)

    def test_grid_matches_scalar(self):
        rng = random.Random(37)
        for _ in range(8):
            spec, cfg = random_valid_config(rng)
            law = ExactLaw(spec, cfg)
            ts = np.linspace(0.0, 3.0 / law.trace_rate, 25)
            grid = law.gap_grid(ts)
            scalar = np.array([law.gap(t) for t in ts])
            assert np.array_equal(grid, scalar)


class TestPminDensity:
    def test_gamma0_closed_form(self):
        spec = EmpiricalSpectrum((1.0, 2.0, 4.0))
        law = ExactLaw(spec, make_config(2, 3, 3))
        # rate = 1 + 0.5 + 0.25 = 1.75, P(t) = 1.75 exp(-1.75 t)
        for t in (1e-9, 0.3, 1.0):
            assert law.density(t) == pytest.approx(1.75 * math.exp(-1.75 * t), rel=1e-12)

    def test_wishart_1x2_matches_gamma_density(self):
        spec = EmpiricalSpectrum((1.0,))
        law = ExactLaw(spec, make_config(2, 1, 2))
        assert law.density(1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
        for t in (0.2, 2.0):
            assert law.density(t) == pytest.approx(gamma2_density(t), rel=1e-12)

    def test_matches_finite_difference_bench10(self):
        law = LAW_BENCH10
        h = 4e-6
        for t in np.linspace(0.01, 0.4, 40):
            fd = -(law.gap(t + h) - law.gap(t - h)) / (2 * h)
            assert law.density(t) == pytest.approx(fd, rel=1e-6)

    def test_matches_finite_difference_beta2(self):
        # grid on the distribution's support, where both sides are well
        # conditioned (CDF between ~1e-3 and ~1 - 1e-3)
        spec = EmpiricalSpectrum((0.5, 1.0, 2.5, 8.0))
        cfg = make_config(2, 4, 7)
        law = ExactLaw(spec, cfg)
        h = 3e-5
        for t in np.linspace(0.3, 3.0, 40):
            fd = -(law.gap(t + h) - law.gap(t - h)) / (2 * h)
            assert law.density(t) == pytest.approx(fd, rel=1e-6)

    def test_non_negative_everywhere(self):
        rng = random.Random(41)
        for _ in range(10):
            spec, cfg = random_valid_config(rng)
            law = ExactLaw(spec, cfg)
            for t in np.linspace(1e-6, 8.0 / law.trace_rate, 50):
                assert law.density(t) >= 0.0

    def test_integral_matches_gap_drop(self):
        law = LAW_BENCH10
        t_max = 0.3
        integral = adaptive_quadrature(law.density, 1e-12, t_max, 1e-9)
        assert integral == pytest.approx(1.0 - law.gap(t_max), abs=1e-8)

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            LAW_BENCH10.density(-1.0)

    def test_permutation_bit_identity(self):
        rng = random.Random(43)
        lams = [rng.uniform(0.3, 20.0) for _ in range(5)]
        perm = lams[:]
        rng.shuffle(perm)
        cfg = make_config(2, 5, 7)
        law = ExactLaw(EmpiricalSpectrum(tuple(lams)), cfg)
        law_perm = ExactLaw(EmpiricalSpectrum(tuple(perm)), cfg)
        for t in (0.01, 0.2):
            assert law.density(t) == law_perm.density(t)


class TestLargeP:
    def test_two_point_spectrum_p40_normalized(self):
        p = 40
        spec = EmpiricalSpectrum((1.0,) * (p // 2) + (4.0,) * (p // 2))
        cfg = make_config(2, p, p + 2)
        law = ExactLaw(spec, cfg)
        assert law.gap(0.0) == pytest.approx(1.0, abs=1e-10)
        mid = law.gap(0.01)
        assert 0.0 < mid < 1.0
        grid = law.gap_grid(np.array([0.0, 0.005, 0.01, 0.05]))
        scalar = [law.gap(t) for t in [0.0, 0.005, 0.01, 0.05]]
        assert grid.tolist() == scalar
