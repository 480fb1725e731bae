import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wishartmin import microlaw
from wishartmin.exactlaw import ExactLaw
from wishartmin.spectra import (
    EmpiricalSpectrum,
    elementary_symmetric,
    eta_scale,
    inverse_trace_half_beta,
    load_spectrum,
    make_config,
    parse_spectrum,
)

from conftest import BENCH10_SPECTRUM
from oracles import decimal_inverse_sum, enum_elementary_symmetric


def scalar_elementary_symmetric(lams):
    """The one-entry-at-a-time recurrence that ``elementary_symmetric`` vectorizes."""
    lams = sorted(lams)
    p = len(lams)
    e = [0.0] * (p + 1)
    e[0] = 1.0
    for i, lam in enumerate(lams):
        for k in range(min(i + 1, p), 0, -1):
            e[k] += lam * e[k - 1]
    return e


class TestEmpiricalSpectrum:
    def test_order_preserved(self):
        s = EmpiricalSpectrum((3.0, 1.0, 2.0))
        assert s.lambdas == (3.0, 1.0, 2.0)
        assert s.p == 3

    @pytest.mark.parametrize("bad", [(), (0.0,), (-1.0, 2.0), (math.inf,), (math.nan,)])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            EmpiricalSpectrum(bad)

    @pytest.mark.parametrize("text", ["123", b"123"], ids=["str", "bytes"])
    def test_rejects_strings(self, text):
        # iterating them would read the characters as eigenvalues
        with pytest.raises(TypeError, match="sequence of numbers"):
            EmpiricalSpectrum(text)

    def test_repeated_eigenvalues_allowed(self):
        assert EmpiricalSpectrum((2.0, 2.0, 2.0)).p == 3


class TestMakeConfig:
    def test_beta1_example(self):
        cfg = make_config(1, 10, 13)
        assert (cfg.gamma, cfg.kernel_dim) == (1, 2)

    def test_beta2_example(self):
        cfg = make_config(2, 200, 202)
        assert (cfg.gamma, cfg.kernel_dim) == (2, 2)

    def test_square_complex(self):
        cfg = make_config(2, 3, 3)
        assert (cfg.gamma, cfg.kernel_dim) == (0, 0)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            make_config(4, 3, 5)

    def test_rejects_p_above_n(self):
        with pytest.raises(ValueError):
            make_config(2, 5, 4)

    def test_rejects_half_integer_gamma_naming_parity(self):
        with pytest.raises(ValueError, match="even"):
            make_config(1, 10, 14)

    def test_rejects_non_integer_p_and_n(self):
        with pytest.raises(ValueError, match="integers"):
            make_config(2, 3, 4.5)
        with pytest.raises(ValueError, match="integers"):
            make_config(1, 2.5, 6)

    @pytest.mark.parametrize(
        "beta, p, n", [(2, True, 3), (2, "3", "4"), (2, 3, np.True_), (True, 3, 4), ("2", 3, 4)],
        ids=["bool-p", "string-p-n", "numpy-bool-n", "bool-beta", "string-beta"])
    def test_rejects_bool_and_string_arguments(self, beta, p, n):
        with pytest.raises(ValueError, match="integers|beta must be 1 or 2"):
            make_config(beta, p, n)

    def test_integral_float_beta_becomes_int(self):
        cfg = make_config(1.0, 10, 21)
        assert cfg == make_config(1, 10, 21)
        assert type(cfg.beta) is int and type(cfg.kernel_dim) is int
        law = ExactLaw(EmpiricalSpectrum(tuple(range(1, 11))), cfg)
        assert 0.0 < law.gap(0.5) < 1.0

    def test_rejects_beta1_square(self):
        # n = p gives n - p - 1 = -1
        with pytest.raises(ValueError):
            make_config(1, 5, 5)

    def test_total_on_valid_inputs(self):
        for p in range(1, 8):
            for extra in range(0, 6):
                make_config(2, p, p + extra)
                if extra % 2 == 1:
                    make_config(1, p, p + extra)


class TestElementarySymmetric:
    def test_identity_spectrum_gives_binomials(self):
        assert elementary_symmetric(EmpiricalSpectrum((1.0, 1.0, 1.0))) == [1.0, 3.0, 3.0, 1.0]

    def test_single_eigenvalue(self):
        assert elementary_symmetric(EmpiricalSpectrum((2.0,))) == [1.0, 2.0]

    def test_against_enumeration_example(self):
        lams = (0.6, 1.2, 6.7)
        got = elementary_symmetric(EmpiricalSpectrum(lams))
        want = enum_elementary_symmetric(lams)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=8),
    )
    def test_matches_enumeration(self, lams):
        got = elementary_symmetric(EmpiricalSpectrum(tuple(lams)))
        want = enum_elementary_symmetric(lams)
        assert got[0] == 1.0
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12)

    def test_top_coefficient_is_product(self):
        rng = random.Random(5)
        for _ in range(100):
            lams = tuple(rng.uniform(0.1, 10.0) for _ in range(rng.randint(1, 8)))
            e = elementary_symmetric(EmpiricalSpectrum(lams))
            assert e[-1] == pytest.approx(math.prod(lams), rel=1e-12)

    def test_permutation_bit_identity(self):
        rng = random.Random(11)
        lams = [rng.uniform(0.2, 40.0) for _ in range(7)]
        perm = lams[:]
        rng.shuffle(perm)
        assert elementary_symmetric(EmpiricalSpectrum(tuple(lams))) == elementary_symmetric(
            EmpiricalSpectrum(tuple(perm))
        )

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            elementary_symmetric(EmpiricalSpectrum((1e300, 1e300)))

    @pytest.mark.parametrize(
        "lams, beta, n",
        [((1e-200, 2e-200, 3e-200), 2, 5), ((1e-120, 2e-120, 3e-120), 1, 8)],
        ids=["beta2", "beta1"],
    )
    def test_underflow_reported(self, lams, beta, n):
        # e_3 (and for beta=2 also e_2) falls below the smallest normal
        # double; the law built on it used to return gap 0 at t = 0
        spectrum = EmpiricalSpectrum(lams)
        with pytest.raises(OverflowError, match="leave double precision"):
            elementary_symmetric(spectrum)
        with pytest.raises(OverflowError):
            ExactLaw(spectrum, make_config(beta, 3, n))

    def test_bit_identical_to_the_scalar_recurrence(self):
        rng = random.Random(23)
        for _ in range(40):
            p = rng.randint(1, 300)
            lams = [math.exp(rng.uniform(-2.0, 2.0)) for _ in range(p)]
            assert elementary_symmetric(EmpiricalSpectrum(tuple(lams))) == scalar_elementary_symmetric(lams)


class TestEtaScale:
    def test_identity(self):
        assert eta_scale(EmpiricalSpectrum((1.0, 1.0, 1.0, 1.0))) == 1.0

    def test_small_example(self):
        assert eta_scale(EmpiricalSpectrum((1.0, 2.0, 4.0))) == pytest.approx(7.0 / 12.0, rel=1e-15)

    def test_bench10_matches_extended_precision(self):
        want = float(decimal_inverse_sum(BENCH10_SPECTRUM) / len(BENCH10_SPECTRUM))
        assert eta_scale(EmpiricalSpectrum(BENCH10_SPECTRUM)) == pytest.approx(want, rel=1e-14)

    def test_scaling_law_exact_for_binary_scale(self):
        s = EmpiricalSpectrum(BENCH10_SPECTRUM)
        s4 = EmpiricalSpectrum(tuple(4.0 * v for v in BENCH10_SPECTRUM))
        assert eta_scale(s4) == eta_scale(s) / 4.0

    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_scaling_law_general(self, c):
        s = EmpiricalSpectrum((0.7, 3.0, 11.0))
        sc = EmpiricalSpectrum(tuple(c * v for v in s.lambdas))
        assert eta_scale(sc) == pytest.approx(eta_scale(s) / c, rel=1e-14)


class TestInverseTraceHalfBeta:
    def test_beta2_single(self):
        assert inverse_trace_half_beta(EmpiricalSpectrum((1.0,)), make_config(2, 1, 2)) == 1.0

    def test_beta1_pair(self):
        assert inverse_trace_half_beta(EmpiricalSpectrum((2.0, 2.0)), make_config(1, 2, 3)) == 0.5

    def test_bench10_identity_with_eta(self):
        s = EmpiricalSpectrum(BENCH10_SPECTRUM)
        cfg = make_config(1, 10, 13)
        want = cfg.p * eta_scale(s) / 2.0
        assert inverse_trace_half_beta(s, cfg) == pytest.approx(want, rel=1e-14)


class TestSpectrumFile:
    def test_parse_with_comments_and_blanks(self):
        text = "# population spectrum\n0.6\n\n1.2\n# tail\n6.7\n"
        assert parse_spectrum(text).lambdas == (0.6, 1.2, 6.7)

    def test_order_preserved(self):
        assert parse_spectrum("3.0\n1.0\n2.0\n").lambdas == (3.0, 1.0, 2.0)

    def test_rejects_multiple_tokens(self):
        with pytest.raises(ValueError, match="single value"):
            parse_spectrum("1.0 2.0\n")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="not a decimal"):
            parse_spectrum("abc\n")

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no eigenvalues"):
            parse_spectrum("# nothing\n")

    def test_rejects_nonpositive_entry(self):
        with pytest.raises(ValueError):
            parse_spectrum("1.0\n-2.0\n")

    def test_load_roundtrip(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("# benchmark\n" + "\n".join(str(v) for v in BENCH10_SPECTRUM) + "\n")
        assert load_spectrum(path).lambdas == BENCH10_SPECTRUM


POINT_LAW = ExactLaw(EmpiricalSpectrum((1.0, 2.0, 4.0)), make_config(1, 3, 6))
POINT_MICRO = microlaw.make_micro_config(1, 2)
# every public evaluation of both laws, with the name of its variable
POINT_CALLS = {
    "gap": (POINT_LAW.gap, "t"),
    "density": (POINT_LAW.density, "t"),
    "gap_grid": (POINT_LAW.gap_grid, "t"),
    "density_grid": (POINT_LAW.density_grid, "t"),
    "curve": (POINT_LAW.curve, "t"),
    "micro_gap": (lambda u: microlaw.micro_gap(u, POINT_MICRO), "u"),
    "micro_pmin": (lambda u: microlaw.micro_pmin(u, POINT_MICRO), "u"),
    "micro_curve": (lambda u: microlaw.micro_curve(u, POINT_MICRO), "u"),
}


class TestAsPoints:
    @pytest.mark.parametrize("call", POINT_CALLS)
    @pytest.mark.parametrize(
        "bad, got",
        [(-0.1, "finite and >= 0, got -0.1"), (math.nan, "finite and >= 0, got nan"),
         (math.inf, "finite and >= 0, got inf"), (-math.inf, "finite and >= 0, got -inf"),
         (np.zeros((2, 2)), "a float or a 1-d array, got shape (2, 2)")],
        ids=["negative", "nan", "inf", "-inf", "2-d"],
    )
    def test_laws_reject_points_outside_the_domain(self, call, bad, got):
        evaluate, name = POINT_CALLS[call]
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {got}')}$"):
            evaluate(bad)

    @pytest.mark.parametrize("call", POINT_CALLS)
    def test_laws_accept_zero(self, call):
        evaluate, _ = POINT_CALLS[call]
        values = np.hstack([evaluate(0.0)])  # gap, density or both, as floats or 1-point arrays
        assert np.all(np.isfinite(values) & (values >= 0.0))
