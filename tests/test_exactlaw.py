import math
import random
from fractions import Fraction

import numpy as np
import pytest

from wishartmin.exactlaw import ExactLaw, KernelPolynomial, kernel_coefficients
from wishartmin.exactlaw import HORNER_ONE_BLOCK, HORNER_STACK, _horner
from wishartmin.linalg import VALUE_CHUNK, ZERO_EXP, hankel_kernel, logdet_lu, sqrt_det_antisymmetric
from wishartmin.spectra import EmpiricalSpectrum, elementary_symmetric, make_config

from conftest import BENCH10_SPECTRUM
from oracles import (
    adaptive_quadrature,
    fraction_exact_law,
    fraction_kernel,
    gamma2_density,
    gamma2_tail,
    sequential_horner,
)


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
    """KernelPolynomial views of the polynomials f_s, keyed by s = i + j (1-based i, j)."""
    mant, expo = kernel_coefficients(spectrum, config)
    return {s: KernelPolynomial(s, mant[s - 2], expo[s - 2]) for s in range(2, len(mant) // 2 + 2)}


def assembled_kernels(spectrum, config, t):
    """Q(t) and Q'(t) as the engine assembles them: two (mant, expo) pairs of shape (dim, dim)."""
    mant, expo = kernel_coefficients(spectrum, config)
    values = [KernelPolynomial(0, m, e).evaluate(t) for m, e in zip(mant, expo)]
    vm = np.array([[m for m, _ in values]])
    ve = np.array([[e for _, e in values]])
    f = len(values) // 2
    q = hankel_kernel(config.beta, vm[:, :f], ve[:, :f])
    dq = hankel_kernel(config.beta, vm[:, f:], ve[:, f:])
    return (q[0][0], q[1][0]), (dq[0][0], dq[1][0])


def random_anti_diagonals(dim, seed):
    """One point of random anti-diagonal values F_2..F_2dim, as (1, 2*dim - 1) arrays."""
    rng = np.random.default_rng(seed)
    mant = rng.uniform(0.5, 1.0, (1, 2 * dim - 1)) * rng.choice([-1.0, 1.0], (1, 2 * dim - 1))
    return mant, rng.integers(-900, 900, (1, 2 * dim - 1))


def random_valid_config(rng):
    p = rng.randint(1, 12)
    beta = rng.choice([1, 2])
    n = p + 1 + 2 * rng.randint(0, 3) if beta == 1 else p + rng.randint(0, 3)
    lams = tuple(rng.uniform(0.2, 30.0) for _ in range(p))
    return EmpiricalSpectrum(lams), make_config(beta, p, n)


class TestQPrefactor:
    def test_beta1_off_diagonal(self):
        # w_ij = j - i: Q_ij = (j - i) F_{i+j}, exactly, with F's exponent
        mant, expo = random_anti_diagonals(5, seed=1)
        qm, qe = hankel_kernel(1, mant, expo)
        for i in range(5):
            for j in range(5):
                assert qm[0, i, j] == (j - i) * mant[0, i + j]
                assert qe[0, i, j] == (expo[0, i + j] if i != j else ZERO_EXP)

    def test_beta2_row_sign(self):
        # w_ij = (-1)^(i+1): row 1 of Q and Q' positive, row 2 negative
        cfg = make_config(2, 3, 5)  # kernel_dim 2
        for m, e in assembled_kernels(EmpiricalSpectrum((1.0, 2.0, 4.0)), cfg, 0.7):
            assert m.shape == (2, 2) and np.all(e > ZERO_EXP)
            assert np.all(m[0] > 0) and np.all(m[1] < 0)


class TestKernelPolynomials:
    def test_simplest_complex_kernel_is_t_plus_one(self):
        # p=1, n=2, beta=2: a_2 = 1, e=(1,1), so Q11(t) = f_2(t) = t + 1
        poly = kernel_views(EmpiricalSpectrum((1.0,)), make_config(2, 1, 2))[2]
        assert math.ldexp(*poly.evaluate(0.0)) == pytest.approx(1.0, rel=1e-14)
        assert math.ldexp(*poly.evaluate(1.0)) == pytest.approx(2.0, rel=1e-14)
        assert math.ldexp(*poly.evaluate(2.5)) == pytest.approx(3.5, rel=1e-14)

    def test_beta1_diagonal_polynomials_are_zero(self):
        off = ~np.eye(6, dtype=bool)
        for m, e in assembled_kernels(BENCH10, make_config(1, 10, 17), 0.3):  # kernel_dim 6
            assert np.all(np.diagonal(m) == 0) and np.all(np.diagonal(e) == ZERO_EXP)
            assert np.all(m[off] != 0)

    def test_heaviside_cutoff(self):
        # p=1, n=5, beta=2: kernel_dim 4, a_s = 6 - s < 0 for s > 6
        cfg = make_config(2, 1, 5)
        views = kernel_views(EmpiricalSpectrum((2.0,)), cfg)
        assert sorted(views) == list(range(2, 9))
        for s in (7, 8):
            assert np.all(views[s].mant == 0) and np.all(views[s].expo == ZERO_EXP)
            assert views[s].evaluate(1.5)[0] == 0
        # a_6 = 0 keeps the single k = 0 term: f_6 = t / 0!
        poly = views[6]
        assert poly.mant[0] != 0
        assert poly.mant[1] == 0 and poly.expo[1] == ZERO_EXP
        (qm, _), _ = assembled_kernels(EmpiricalSpectrum((2.0,)), cfg, 1.5)
        assert qm[3, 3] == 0 and qm[2, 3] == 0 and qm[3, 2] == 0 and qm[2, 2] != 0

    def test_beta1_exact_negation_across_transpose(self):
        # any anti-diagonal values: w_ji = -w_ij negates exactly, exponents equal
        mant, expo = random_anti_diagonals(6, seed=2)
        qm, qe = hankel_kernel(1, mant, expo)
        assert np.array_equal(qm[0], -qm[0].T) and np.array_equal(qe[0], qe[0].T)

    def test_beta1_assembled_matrix_antisymmetric_exactly(self):
        cfg = make_config(1, 10, 17)  # kernel_dim 6
        for t in (0.0, 0.08, 1.3):
            for m, e in assembled_kernels(BENCH10, cfg, t):  # Q, then Q'
                assert np.array_equal(m, -m.T) and np.array_equal(e, e.T)

    @pytest.mark.parametrize("spectrum, config", KERNEL_CASES, ids=KERNEL_IDS)
    def test_evaluate_matches_exact_rationals(self, spectrum, config):
        for poly in kernel_views(spectrum, config).values():
            coeffs = [exact_value(m, e) for m, e in zip(poly.mant, poly.expo)]
            for t in (0.0, 0.08, 1.3, 24.0):
                x = Fraction(t)
                want = sum(c * x ** (config.p - k) for k, c in enumerate(coeffs))
                got = exact_value(*poly.evaluate(t))
                if want == 0:
                    assert got == 0
                else:
                    assert abs(got / want - 1) < 1e-13

    @pytest.mark.parametrize("spectrum, config", KERNEL_CASES, ids=KERNEL_IDS)
    def test_coefficients_match_exact_arithmetic(self, spectrum, config):
        # c_k = e_k / (a_s - k)! from exact rationals, and (p-k) c_k in f_s'
        p, dim = config.p, config.kernel_dim
        e_k = [Fraction(v) for v in elementary_symmetric(spectrum)]
        mant, expo = kernel_coefficients(spectrum, config)
        assert mant.shape == expo.shape == (2 * (2 * dim - 1), p + 1)
        for s in range(2, 2 * dim + 1):
            row, drow = s - 2, 2 * dim - 3 + s
            a = p + 2 * (config.gamma + 1) // config.beta - s
            for k in range(p + 1):
                if k > a:
                    assert mant[row, k] == 0 and expo[row, k] == ZERO_EXP
                    continue
                want = e_k[k] / math.factorial(a - k)
                assert abs(exact_value(mant[row, k], expo[row, k]) / want - 1) < 1e-15
                if k < p:
                    got = exact_value(mant[drow, k + 1], expo[drow, k + 1])
                    assert abs(got / ((p - k) * want) - 1) < 1e-15

    @pytest.mark.parametrize("spectrum, config", KERNEL_CASES, ids=KERNEL_IDS)
    def test_assembled_kernel_matches_paper_entries(self, spectrum, config):
        # Q_ij = q_ij f_{i+j} up to the D-sign (-1)^(i+j) that beta=1 drops
        dim = config.kernel_dim
        i, j = np.indices((dim, dim))
        d_sign = (-1) ** (i + j) if config.beta == 1 else np.ones((dim, dim), dtype=int)
        for t in (0.0, 0.08, 1.3):
            want = fraction_kernel(spectrum.lambdas, config.beta, config.n, t)
            for (m, e), exact in zip(assembled_kernels(spectrum, config, t), want):
                for r in range(dim):
                    for c in range(dim):
                        got = d_sign[r, c] * exact_value(m[r, c], e[r, c])
                        if exact[r][c] == 0:
                            assert got == 0
                        else:
                            assert abs(got / exact[r][c] - 1) < 1e-13

    def test_spectrum_config_mismatch(self):
        with pytest.raises(ValueError):
            kernel_coefficients(EmpiricalSpectrum((1.0, 2.0)), make_config(2, 3, 4))

    def test_huge_eigenvalue_matches_exact_oracle(self):
        # e_1 = e_2 = 1e308: weighting the coefficients (j - i) e_k would
        # overflow, weighting the evaluated F_{i+j} does not
        lams = (1e308, 1.0)
        law = ExactLaw(EmpiricalSpectrum(lams), make_config(1, 2, 7))  # kernel_dim 4
        ts = np.geomspace(0.05, 6.0, 12)
        for t, gap, density in zip(ts, law.gap_grid(ts), law.density_grid(ts)):
            want_gap, want_density = fraction_exact_law(lams, 1, 7, t)
            assert gap == pytest.approx(want_gap, rel=1e-11)
            assert density == pytest.approx(want_density, rel=1e-11)


class TestPinnedDeterminants:
    """logdet_lu and sqrt_det_antisymmetric take Q as hankel_kernel builds it, and agree with the engine."""

    @pytest.mark.parametrize("t", [0.5, 2.0, 8.0])
    def test_sqrt_det_antisymmetric_gives_the_gap_at_beta1(self, t):
        config = make_config(1, 10, 21)  # kernel_dim 10
        law = ExactLaw(BENCH10, config)
        (qm, qe), _ = assembled_kernels(BENCH10, config, t)
        sign, log_root = sqrt_det_antisymmetric(qm, qe)
        got = math.exp(-config.gamma * law.log_det_lambda - law.trace_rate * t + log_root)
        assert sign == 1.0
        assert got == pytest.approx(law.gap(t), rel=1e-12)

    @pytest.mark.parametrize("t", [0.5, 2.0, 8.0])
    def test_logdet_lu_gives_the_gap_at_beta2(self, t):
        # det^(beta/2) is det itself at beta = 2
        config = make_config(2, 10, 12)  # kernel_dim 2
        law = ExactLaw(BENCH10, config)
        (qm, qe), _ = assembled_kernels(BENCH10, config, t)
        sign, log_det = logdet_lu(qm, qe)
        got = math.exp(-config.gamma * law.log_det_lambda - law.trace_rate * t + log_det)
        assert sign == 1.0
        assert got == pytest.approx(law.gap(t), rel=1e-12)


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


HORNER_TS = (0.0, 5e-324, 1e-300, 1e-3, 0.2, 1e3, 1e300)


def geometric_law_inputs(p, beta=2, extra=2):
    """Geometric spectrum 0.5..2 at p, with n = p + extra."""
    return EmpiricalSpectrum(tuple(np.geomspace(0.5, 2.0, p))), make_config(beta, p, p + extra)


def exact_polynomial(mant, expo, t):
    """sum_k c_k t^(L-1-k) for the mantissa/exponent row (mant, expo), as an exact Fraction.

    Horner's rule on integers: t = tn / 2^s, and c_k = (mant_k 2^53) 2^(expo_k - 53).
    """
    tn, td = Fraction(t).as_integer_ratio()
    shift = td.bit_length() - 1
    low = min(int(e) for m, e in zip(mant, expo) if m) - 53
    acc = 0
    for k, (m, e) in enumerate(zip(mant, expo)):
        acc = acc * tn + (int(m * 2.0 ** 53) << (int(e) - 53 - low + shift * k) if m else 0)
    return Fraction(acc) * Fraction(2) ** (low - shift * (len(mant) - 1))


class TestBlockedHorner:
    @pytest.mark.parametrize("p", [16, 64, 200])
    def test_values_match_exact_rationals_within_the_stated_bound(self, p):
        # every f_s and f_s' row; the docstring's bound is gamma_n, n < L + 3 ceil(sqrt(L))
        mant, expo = kernel_coefficients(*geometric_law_inputs(p))
        size = mant.shape[1]
        assert size > HORNER_ONE_BLOCK
        bound = (size + 3 * math.isqrt(size - 1) + 3) * np.finfo(float).eps
        am, ae = _horner(mant, expo, np.array(HORNER_TS))
        for i, t in enumerate(HORNER_TS):
            for r in range(len(mant)):
                want = exact_polynomial(mant[r], expo[r], t)
                got = exact_value(am[i, r], ae[i, r])
                if want == 0:
                    assert got == 0 and ae[i, r] <= ZERO_EXP + 1100, (t, r)
                else:
                    assert abs(got / want - 1) < bound, (t, r, float(abs(got / want - 1)))

    @pytest.mark.parametrize("p", [16, 200])
    def test_zero_reads_the_constant_coefficient(self, p):
        # t = 0 must not scale the sentinel exponent by the block width
        mant, expo = kernel_coefficients(*geometric_law_inputs(p))
        am, ae = _horner(mant, expo, np.array([0.0, 0.0]))
        nonzero = mant[:, -1] != 0
        assert np.array_equal(am[0], mant[:, -1]) and np.array_equal(am[1], am[0])
        assert np.array_equal(ae[0, nonzero], expo[nonzero, -1])
        assert np.all(ae[0, ~nonzero] >= ZERO_EXP)

    @pytest.mark.parametrize("p, n, beta", [(10, 21, 1), (10, 13, 1), (1, 2, 2), (15, 17, 2), (12, 30, 2)])
    def test_single_block_rows_keep_the_plain_loop_bits(self, p, n, beta):
        # up to HORNER_ONE_BLOCK coefficients (the BENCH10 laws have 11) the
        # blocked Horner is the plain loop, bit for bit
        spectrum = BENCH10 if p == 10 else geometric_law_inputs(p)[0]
        mant, expo = kernel_coefficients(spectrum, make_config(beta, p, n))
        assert mant.shape[1] <= HORNER_ONE_BLOCK
        rng = np.random.default_rng(p + n)
        ts = np.concatenate([HORNER_TS, rng.uniform(0.0, 30.0, 3000)])
        got, want = _horner(mant, expo, ts), sequential_horner(mant, expo, ts)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_grid_spanning_passes_and_chunks_matches_point_calls(self):
        # p=200, kernel dimension 2: passes of HORNER_STACK // (blocks * rows)
        # points inside each VALUE_CHUNK; every element must have the bits of
        # the one-point call at the same t, whatever pass or chunk it fell in
        spectrum, config = geometric_law_inputs(200)
        law = ExactLaw(spectrum, config)
        mant, expo = law._coeff_mant, law._coeff_exp
        size, rows = mant.shape[1], mant.shape[0]
        width = math.isqrt(size - 1) + 1
        per_pass = HORNER_STACK // (-(-size // width) * rows)
        ts = np.geomspace(1e-4, 0.2, 5000)
        assert 1 < per_pass < VALUE_CHUNK < len(ts) and VALUE_CHUNK % per_pass
        am, ae = _horner(mant, expo, ts)
        for k in range(len(ts)):
            pm, pe = _horner(mant, expo, ts[k:k + 1])
            assert np.array_equal(pm[0], am[k]) and np.array_equal(pe[0], ae[k]), k
        gap, density = law.curve(ts)
        edges = [c + d for c in range(0, len(ts), VALUE_CHUNK) for d in range(0, VALUE_CHUNK, per_pass)]
        for k in sorted({min(max(e + d, 0), len(ts) - 1) for e in edges for d in (-1, 0, 1)}):
            one_gap, one_density = law.curve(float(ts[k]))
            assert (one_gap.item(), one_density.item()) == (gap[k], density[k]), k

    def test_gamma0_with_blocked_rows(self):
        # kernel dimension 0 leaves no polynomial rows: E = exp(-r t) at any p
        lams = tuple(np.geomspace(0.5, 2.0, 20))
        law = ExactLaw(EmpiricalSpectrum(lams), make_config(2, 20, 20))
        rate = math.fsum(1.0 / v for v in lams)
        gap, density = law.curve(np.array([0.0, 0.1]))
        assert gap[0] == 1.0 and gap[1] == pytest.approx(math.exp(-0.1 * rate), rel=1e-14)
        assert density[1] == pytest.approx(rate * math.exp(-0.1 * rate), rel=1e-14)
