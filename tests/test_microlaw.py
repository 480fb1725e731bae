import math
from fractions import Fraction

import numpy as np
import pytest

from wishartmin.exactlaw import ExactLaw
from wishartmin.microlaw import make_micro_config, micro_gap, micro_pmin, micro_rescale
from wishartmin.spectra import EmpiricalSpectrum, eta_scale, make_config

from oracles import adaptive_quadrature, fraction_bessel_i


class TestMicroConfig:
    def test_beta2(self):
        m = make_micro_config(2, 2)
        assert (m.kappa_prime, m.kernel_dim) == (3, 2)

    def test_beta1(self):
        m = make_micro_config(1, 2)
        assert (m.kappa_prime, m.kernel_dim) == (6, 4)

    def test_integral_float_beta_becomes_int(self):
        m = make_micro_config(2.0, 2)
        assert m == make_micro_config(2, 2)
        assert type(m.kappa_prime) is int and type(m.kernel_dim) is int
        assert micro_gap(1.0, m) == micro_gap(1.0, make_micro_config(2, 2))

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            make_micro_config(3, 1)
        with pytest.raises(ValueError):
            make_micro_config(2, -1)

    def test_bessel_order_limit(self):
        # the density reads Bessel orders up to 2*gamma+1 (beta=1) or gamma (beta=2)
        make_micro_config(1, 31)
        make_micro_config(2, 64)
        with pytest.raises(ValueError, match="Bessel order 65"):
            make_micro_config(1, 32)
        with pytest.raises(ValueError, match="Bessel order 65"):
            make_micro_config(2, 65)


class TestMicroGap:
    def test_gamma0_is_pure_exponential(self):
        m = make_micro_config(2, 0)
        # no Bessel series is summed at kernel dimension 0, so u = 1e6 does not overflow
        for u in (0.5, 4.0, 30.0, 1e6):
            assert micro_gap(u, m) == pytest.approx(math.exp(-u / 4.0), rel=1e-15)

    def test_beta2_gamma1_closed_form(self):
        m = make_micro_config(2, 1)
        for u in (0.2, 1.0, 9.0, 25.0):
            want = math.exp(-u / 4.0) * float(fraction_bessel_i(0, Fraction(math.sqrt(u))))
            assert micro_gap(u, m) == pytest.approx(want, rel=1e-13)

    def test_rejects_non_positive_u(self):
        with pytest.raises(ValueError):
            micro_gap(0.0, make_micro_config(2, 1))

    def test_series_overflow_raises(self):
        with pytest.raises(ValueError, match="u = 1000000.0"):
            micro_gap(1e6, make_micro_config(2, 2))

    def test_far_right_tail_is_zero(self):
        assert micro_gap(5000.0, make_micro_config(2, 2)) == 0.0

    @pytest.mark.parametrize(
        "beta,gamma",
        [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (2, 0), (2, 1), (2, 2), (2, 4), (2, 8)],
    )
    def test_limit_at_zero_is_one(self, beta, gamma):
        m = make_micro_config(beta, gamma)
        assert micro_gap(1e-12, m) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("beta,gamma", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 4)])
    def test_monotone_and_bounded(self, beta, gamma):
        m = make_micro_config(beta, gamma)
        us = np.linspace(1e-3, 60.0, 300)
        vals = np.array([micro_gap(u, m) for u in us])
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0 + 1e-12)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_matches_rescaled_exact_law_identity_spectrum(self):
        # beta=2, gamma=1: exact law at p=80 with unit spectrum, rescaled by
        # u = 4 p t, should track the limit to a few percent
        p = 80
        law = ExactLaw(EmpiricalSpectrum((1.0,) * p), make_config(2, p, p + 1))
        m = make_micro_config(2, 1)
        us = np.linspace(0.05, 30.0, 120)
        sup = max(abs(law.gap(u / (4 * p)) - micro_gap(u, m)) for u in us)
        assert sup < 2e-2


class TestMicroPmin:
    def test_gamma0_closed_form(self):
        m = make_micro_config(2, 0)
        for u in (1e-6, 0.5, 10.0):
            assert micro_pmin(u, m) == pytest.approx(0.25 * math.exp(-u / 4.0), rel=1e-14)

    @pytest.mark.parametrize("beta,gamma", [(2, 1), (2, 2), (1, 1), (1, 2)])
    def test_matches_derivative_of_gap(self, beta, gamma):
        m = make_micro_config(beta, gamma)
        for u in np.linspace(0.25, 40.0, 30):
            h = 1e-5 * max(u, 40.0)
            fd = -(micro_gap(u + h, m) - micro_gap(u - h, m)) / (2 * h)
            assert micro_pmin(u, m) == pytest.approx(fd, rel=1e-6)

    def test_non_negative(self):
        m = make_micro_config(1, 2)
        for u in np.geomspace(1e-3, 80.0, 60):
            assert micro_pmin(u, m) >= 0.0

    def test_integral_matches_gap_drop(self):
        m = make_micro_config(2, 2)
        u_max = 25.0
        integral = adaptive_quadrature(lambda u: micro_pmin(u, m), 1e-9, u_max, 1e-9)
        assert integral == pytest.approx(1.0 - micro_gap(u_max, m), abs=1e-7)

    def test_rejects_non_positive_u(self):
        with pytest.raises(ValueError):
            micro_pmin(0.0, make_micro_config(2, 1))


class TestMicroRescale:
    def test_identity_spectrum(self):
        p = 200
        spec = EmpiricalSpectrum((1.0,) * p)
        cfg = make_config(2, p, 202)
        assert micro_rescale([0.01], spec, cfg)[0] == pytest.approx(8.0, rel=1e-15)

    def test_scale_matches_eta(self):
        spec = EmpiricalSpectrum((0.5, 2.0, 8.0))
        cfg = make_config(2, 3, 4)
        u = micro_rescale([1.0], spec, cfg)[0]
        assert u == pytest.approx(4.0 * 3 * eta_scale(spec), rel=1e-15)

    def test_rejects_mismatched_config(self):
        spec = EmpiricalSpectrum((1.0, 2.0))
        with pytest.raises(ValueError):
            micro_rescale([0.1], spec, make_config(2, 3, 4))
