import math
import random
from fractions import Fraction

import numpy as np
import pytest

from wishartmin.exactlaw import ExactLaw, KernelPolynomial, kernel_coefficients
from wishartmin.linalg import ZERO_EXP
from wishartmin.numerics import signedlog_to_float
from wishartmin.spectra import EmpiricalSpectrum, elementary_symmetric, make_config

from conftest import BENCH10_SPECTRUM
from oracles import adaptive_quadrature, gamma2_density, gamma2_tail


BENCH10 = EmpiricalSpectrum(BENCH10_SPECTRUM)
CFG_BENCH10 = make_config(1, 10, 13)
LAW_BENCH10 = ExactLaw(BENCH10, CFG_BENCH10)
KERNEL_CASES = [
    (BENCH10, make_config(1, 10, 21)),
    (EmpiricalSpectrum((1.0,) * 100 + (4.0,) * 100), make_config(2, 200, 202)),
]
KERNEL_IDS = ["bench10-dim10", "two-point-p200"]


def exact_value(mant, expo):
    """The exact rational value of a mantissa/exponent pair."""
    return Fraction(mant) * Fraction(2) ** int(expo) if mant else Fraction(0)


def kernel_views(spectrum, config):
    """KernelPolynomial views of Q's nonzero entries, keyed by 0-based (i, j)."""
    (rows, cols), mant, expo = kernel_coefficients(spectrum, config)
    index = zip(rows.tolist(), cols.tolist())
    return {(i, j): KernelPolynomial(i, j, mant[e], expo[e]) for e, (i, j) in enumerate(index)}


def random_valid_config(rng):
    p = rng.randint(1, 12)
    beta = rng.choice([1, 2])
    n = p + 1 + 2 * rng.randint(0, 3) if beta == 1 else p + rng.randint(0, 3)
    lams = tuple(rng.uniform(0.2, 30.0) for _ in range(p))
    return EmpiricalSpectrum(lams), make_config(beta, p, n)


class TestQPrefactor:
    def test_beta1_off_diagonal(self):
        # q_12 = (2-1) * (-1)^3 = -1: every coefficient of Q_12 is negative
        poly = kernel_views(BENCH10, CFG_BENCH10)[0, 1]
        assert np.all(poly.mant[poly.mant != 0] < 0)

    def test_beta2_row_sign(self):
        # q_ij = (-1)^(i+1): row 1 of Q and Q' positive, row 2 negative
        cfg = make_config(2, 3, 5)  # kernel_dim 2
        (rows, cols), mant, expo = kernel_coefficients(EmpiricalSpectrum((1.0, 2.0, 4.0)), cfg)
        assert len(rows) == 4
        for e, i in enumerate(np.concatenate([rows, rows])):
            nonzero = mant[e][mant[e] != 0]
            assert nonzero.size and np.all(np.sign(nonzero) == (-1) ** i)


class TestKernelPolynomials:
    def test_simplest_complex_kernel_is_t_plus_one(self):
        # p=1, n=2, beta=2: alpha=1, e=(1,1), q=+1, so Q11(t) = t + 1
        poly = kernel_views(EmpiricalSpectrum((1.0,)), make_config(2, 1, 2))[0, 0]
        assert signedlog_to_float(poly.evaluate(0.0)) == pytest.approx(1.0, rel=1e-14)
        assert signedlog_to_float(poly.evaluate(1.0)) == pytest.approx(2.0, rel=1e-14)
        assert signedlog_to_float(poly.evaluate(2.5)) == pytest.approx(3.5, rel=1e-14)

    def test_beta1_diagonal_polynomials_are_zero(self):
        (rows, cols), _, _ = kernel_coefficients(BENCH10, CFG_BENCH10)
        assert len(rows) and not np.any(rows == cols)

    def test_heaviside_cutoff(self):
        # p=1, n=5, beta=2: kernel_dim 4, alpha_(i,j) = 6 - i - j < 0 for i+j > 6
        cfg = make_config(2, 1, 5)
        views = kernel_views(EmpiricalSpectrum((2.0,)), cfg)
        assert (3, 3) not in views  # alpha = -2
        assert (0, 0) in views
        # alpha = 0 keeps the single k = 0 term: Q_33 = q_33 t / 0!
        poly = views[2, 2]
        assert poly.mant[0] != 0
        assert poly.mant[1] == 0 and poly.expo[1] == ZERO_EXP

    def test_beta1_exact_negation_across_transpose(self):
        (rows, cols), mant, expo = kernel_coefficients(BENCH10, CFG_BENCH10)
        entries = len(rows)
        position = {(i, j): e for e, (i, j) in enumerate(zip(rows.tolist(), cols.tolist()))}
        for (i, j), e in position.items():
            t = position[j, i]
            for shift in (0, entries):  # Q, then Q'
                assert np.array_equal(mant[shift + e], -mant[shift + t])
                assert np.array_equal(expo[shift + e], expo[shift + t])

    def test_beta1_assembled_matrix_antisymmetric_exactly(self):
        cfg = make_config(1, 10, 17)  # kernel_dim 6
        views = kernel_views(BENCH10, cfg)
        assert all(i != j for i, j in views)
        for t in (0.0, 0.08, 1.3):
            for (i, j), poly in views.items():
                a, b = poly.evaluate(t), views[j, i].evaluate(t)
                assert a.sign == -b.sign
                assert a.mantissa == b.mantissa and a.exp2 == b.exp2

    @pytest.mark.parametrize("spectrum, config", KERNEL_CASES, ids=KERNEL_IDS)
    def test_evaluate_matches_exact_rationals(self, spectrum, config):
        for poly in kernel_views(spectrum, config).values():
            coeffs = [exact_value(m, e) for m, e in zip(poly.mant, poly.expo)]
            for t in (0.0, 0.08, 1.3, 24.0):
                x = Fraction(t)
                want = sum(c * x ** (config.p - k) for k, c in enumerate(coeffs))
                value = poly.evaluate(t)
                got = value.sign * exact_value(value.mantissa, value.exp2)
                if want == 0:
                    assert got == 0
                else:
                    assert abs(got / want - 1) < 1e-13

    @pytest.mark.parametrize("spectrum, config", KERNEL_CASES, ids=KERNEL_IDS)
    def test_coefficients_match_exact_arithmetic(self, spectrum, config):
        # c_k = q_ij e_k / (a_ij - k)! from exact rationals, and (p-k) c_k in Q'
        p, beta = config.p, config.beta
        e_k = [Fraction(v) for v in elementary_symmetric(spectrum)]
        (rows, cols), mant, expo = kernel_coefficients(spectrum, config)
        entries = len(rows)
        for e, (i, j) in enumerate(zip(rows.tolist(), cols.tolist())):
            q = (j - i) * (-1) ** (i + j) if beta == 1 else (-1) ** i  # 0-based i, j
            a = p + 2 * (config.gamma + 1) // beta - (i + 1) - (j + 1)
            for k in range(p + 1):
                if k > a:
                    assert mant[e, k] == 0 and expo[e, k] == ZERO_EXP
                    continue
                want = q * e_k[k] / math.factorial(a - k)
                assert abs(exact_value(mant[e, k], expo[e, k]) / want - 1) < 1e-15
                if k < p:
                    got = exact_value(mant[entries + e, k + 1], expo[entries + e, k + 1])
                    assert abs(got / ((p - k) * want) - 1) < 1e-15

    def test_spectrum_config_mismatch(self):
        with pytest.raises(ValueError):
            kernel_coefficients(EmpiricalSpectrum((1.0, 2.0)), make_config(2, 3, 4))

    def test_overflowing_coefficient_raises(self):
        # q_12 e_1 = -3e308 for beta=1, p=1, n=6 (kernel_dim 4)
        with pytest.raises(OverflowError):
            kernel_coefficients(EmpiricalSpectrum((1e308,)), make_config(1, 1, 6))


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
