import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from wishartmin import linalg
from wishartmin.exactlaw import ExactLaw
from wishartmin.linalg import (
    RITZ_RTOL,
    VALUE_CHUNK,
    _GRAM_ROWS,
    _ritz_step,
    logdet_lu,
    smallest_singular_value,
    sqrt_det_antisymmetric,
)
from wishartmin.microlaw import make_micro_config, micro_curve, micro_gap, micro_pmin
from wishartmin.spectra import EmpiricalSpectrum, make_config

from conftest import BENCH10_SPECTRUM
from oracles import (
    cofactor_det,
    decimal_smallest_singular_value_2x2,
    decimal_tridiagonal_top,
    fraction_det_solve,
    hermitian_smallest_eigenvalue,
    jacobi_smallest_eigenvalue,
    pfaffian_recursive,
    tril_factor,
)


EPS = np.finfo(float).eps


def pair(a):
    """The matrix a as the (mantissa, exponent) arrays the determinants take."""
    return np.frexp(np.asarray(a, dtype=float))


def det_value(sign_log):
    sign, log = sign_log
    return sign * math.exp(log)


class TestLogdetLu:
    def test_empty_matrix_is_one(self):
        assert logdet_lu(*pair(np.zeros((0, 0)))) == (1.0, 0.0)

    def test_diagonal(self):
        sign, log = logdet_lu(*pair([[2.0, 0.0], [0.0, 3.0]]))
        assert sign == 1.0
        assert log == pytest.approx(math.log(6.0), rel=1e-15)

    def test_sign_from_swap(self):
        assert det_value(logdet_lu(*pair([[0.0, 1.0], [1.0, 0.0]]))) == pytest.approx(-1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_6x6_against_cofactor_expansion(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, size=(6, 6))
        want = cofactor_det(a)
        got = det_value(logdet_lu(*pair(a)))
        assert got == pytest.approx(want, rel=1e-10)

    def test_exact_singularity_returns_zero(self):
        a = [[1.0, 2.0], [2.0, 4.0]]
        assert logdet_lu(*pair(a)) == (0.0, -math.inf)

    def test_huge_magnitude_spread(self):
        # diag entries across ~600 orders of magnitude stay exact in log space
        sign, log = logdet_lu(*pair([[1e300, 0.0], [0.0, 1e300]]))
        assert sign == 1.0
        assert log == pytest.approx(2 * math.log(1e300), rel=1e-14)

    def test_column_spread_beyond_float_range(self):
        # scaling rows alone would flush the 1e-200 column to zero next to the 1e200 one
        core = np.random.default_rng(8).uniform(-1.0, 1.0, size=(3, 3))
        sign, log = logdet_lu(*pair(core * np.array([1e200, 1.0, 1e-200])))
        want = cofactor_det(core)
        assert sign == (1.0 if want > 0 else -1.0)
        assert log == pytest.approx(
            math.log(abs(want)) + math.log(1e200) + math.log(1e-200), abs=1e-11
        )

    def test_exponents_beyond_double_range(self):
        # columns scaled by 2**5000, 1 and 2**-5000: no float holds them, the pair does
        core = np.random.default_rng(9).uniform(-1.0, 1.0, size=(3, 3))
        mant, expo = pair(core)
        sign, log = logdet_lu(mant, expo + np.array([5000, 0, -5000]))
        want = cofactor_det(core)
        assert sign == (1.0 if want > 0 else -1.0)
        assert log == pytest.approx(math.log(abs(want)), abs=1e-11)

    def test_exponent_of_a_zero_mantissa_is_ignored(self):
        # a zero carrying exponent 2000 must not set its column's shift, which
        # would flush the entry above it to zero once its row is scaled
        mant, expo = pair([[1.0, 1.0], [0.0, 1.0]])
        expo[1, 0] = 2000
        assert logdet_lu(mant, expo) == (1.0, 0.0)

    @pytest.mark.parametrize("d", [2, 4, 7, 10])
    def test_product_rule(self, d):
        rng = np.random.default_rng(d)
        a = rng.uniform(-1.0, 1.0, size=(d, d))
        b = rng.uniform(-1.0, 1.0, size=(d, d))
        sa, la = logdet_lu(*pair(a))
        sb, lb = logdet_lu(*pair(b))
        sab, lab = logdet_lu(*pair(a @ b))
        assert sab == sa * sb
        assert lab == pytest.approx(la + lb, rel=1e-9, abs=1e-9)


class TestSqrtDetAntisymmetric:
    def test_2x2(self):
        sign, log = sqrt_det_antisymmetric(*pair([[0.0, 3.0], [-3.0, 0.0]]))
        assert sign == 1.0
        assert math.exp(log) == pytest.approx(3.0, rel=1e-15)

    def test_zero_matrix(self):
        assert sqrt_det_antisymmetric(*pair(np.zeros((4, 4)))) == (0.0, -math.inf)

    def test_empty(self):
        assert sqrt_det_antisymmetric(*pair(np.zeros((0, 0)))) == (1.0, 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_recursive_pfaffian(self, seed):
        rng = np.random.default_rng(seed)
        b = rng.uniform(-1.0, 1.0, size=(6, 6))
        a = b - b.T
        want = abs(pfaffian_recursive(a))
        got = det_value(sqrt_det_antisymmetric(*pair(a)))
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_square_equals_determinant(self, seed):
        rng = np.random.default_rng(seed)
        b = rng.uniform(-1.0, 1.0, size=(8, 8))
        a = b - b.T
        _, log_root = sqrt_det_antisymmetric(*pair(a))
        sign, log_det = logdet_lu(*pair(a))
        assert sign == 1.0
        assert 2.0 * log_root == pytest.approx(log_det, rel=1e-9, abs=1e-9)

    def test_equal_values_in_different_forms_are_antisymmetric(self):
        # 1 * 2**0 against -0.5 * 2**1: the check compares values, not mantissas
        mant = np.array([[0.0, 1.0], [-0.5, 0.0]])
        expo = np.array([[0, 0], [1, 0]])
        sign, log = sqrt_det_antisymmetric(mant, expo)
        assert sign == 1.0 and log == 0.0

    def test_rejects_odd_dimension(self):
        a = [[0.0, 1.0, 2.0], [-1.0, 0.0, 3.0], [-2.0, -3.0, 0.0]]
        with pytest.raises(ValueError, match="even"):
            sqrt_det_antisymmetric(*pair(a))

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            sqrt_det_antisymmetric(*pair([[0.0, 3.0], [-2.9, 0.0]]))

    def test_rejects_equal_signs(self):
        with pytest.raises(ValueError, match=r"antisymmetric at entry \(0,1\)"):
            sqrt_det_antisymmetric(*pair([[0.0, 3.0], [3.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            sqrt_det_antisymmetric(*pair([[1.0, 3.0], [-3.0, 0.0]]))

    def test_negative_determinant_clamps_below_the_noise_floor(self, monkeypatch):
        # rows' largest entries 3 and 3: the floor is log(9e-10)
        m = pair([[0.0, 3.0], [-3.0, 0.0]])
        monkeypatch.setattr(linalg, "logdet_lu", lambda *_: (-1.0, math.log(9e-10) - 1.0))
        assert sqrt_det_antisymmetric(*m) == (0.0, -math.inf)
        monkeypatch.setattr(linalg, "logdet_lu", lambda *_: (-1.0, math.log(9e-10) + 1.0))
        with pytest.raises(ArithmeticError, match="noise floor"):
            sqrt_det_antisymmetric(*m)


def bartlett_factors(rng, lams, n, k, beta=1):
    """k Bartlett factors Lambda^(1/2) L of p x n Wishart draws, p = len(lams); complex for beta=2."""
    p = len(lams)
    if beta == 1:
        low = np.tril(rng.standard_normal((k, p, p)), -1)
        diag = rng.chisquare(n - np.arange(p), size=(k, p))
    else:
        low = np.tril(rng.standard_normal((k, p, p)) + 1j * rng.standard_normal((k, p, p)), -1)
        low *= math.sqrt(0.5)
        diag = rng.gamma(n - np.arange(p), size=(k, p))
    low[:, np.arange(p), np.arange(p)] = np.sqrt(diag)
    return np.sqrt(lams)[:, None] * low


class TestSmallestSingularValue:
    # general p x n matrices enter through their lower-triangular LQ factor,
    # which has the same singular values

    def test_padded_diagonal(self):
        w = np.array([[3.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert smallest_singular_value(tril_factor(w)) == pytest.approx(2.0, rel=1e-14)

    def test_row_vector_is_norm(self):
        w = np.array([[1.0, 2.0, 2.0]])
        assert smallest_singular_value(tril_factor(w)) == pytest.approx(3.0, rel=1e-14)

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(42)
        w = rng.standard_normal((5, 8))
        want = jacobi_smallest_eigenvalue(w @ w.T)
        assert smallest_singular_value(tril_factor(w)) ** 2 == pytest.approx(want, rel=1e-9)

    def test_complex_against_hermitian_embedding(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        want = hermitian_smallest_eigenvalue(w @ w.conj().T)
        assert smallest_singular_value(tril_factor(w)) ** 2 == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_invariant_under_right_rotation(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((4, 7))
        q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        assert smallest_singular_value(tril_factor(w @ q)) == pytest.approx(
            smallest_singular_value(tril_factor(w)), rel=1e-9
        )

    @pytest.mark.parametrize(
        "dtype, p, lanczos",
        [(float, 4, False), (complex, 4, False), (float, 72, True), (complex, 40, True)],
        ids=["real-p4", "complex-p4", "real-p72", "complex-p40"])
    def test_invariant_under_left_rotation(self, dtype, p, lanczos):
        # sigma_min of Q T, made lower-triangular again by a QR of its
        # conjugate transpose, is that of T
        rng = np.random.default_rng(p)
        z = (dtype is complex) * 1j
        t = np.tril(rng.standard_normal((5, p, p)) + z * rng.standard_normal((5, p, p)))
        t[:, np.arange(p), np.arange(p)] = np.sqrt(p + 3.0 - np.arange(p))
        q = np.linalg.qr(rng.standard_normal((5, p, p)) + z * rng.standard_normal((5, p, p)))[0]
        r = np.linalg.qr((q @ t).conj().swapaxes(1, 2))[1].conj().swapaxes(1, 2)
        assert (p > _GRAM_ROWS[t.dtype]) == lanczos
        want = smallest_singular_value(t)
        assert np.allclose(smallest_singular_value(r), want, rtol=1e-9, atol=0.0)

    def test_complex_transposed_view(self):
        # a non-contiguous complex matrix is valid input
        rng = np.random.default_rng(5)
        upper = np.triu(rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))
        t = upper.T
        assert not t.flags.c_contiguous
        assert smallest_singular_value(t) == smallest_singular_value(t.copy())

    @pytest.mark.parametrize(
        "case",
        ["complex-p4", "bench10-p10", "bartlett-p33", "complex-p40", "bartlett-p72", "complex-p200"])
    def test_stack_matches_each_matrix(self, case, monkeypatch):
        # above _INV_LEAF rows the diagonal leaves of all matrices are inverted
        # as one stack: one 16-row and one 17-row leaf at p=33, eight 25-row
        # leaves at p=200
        rng = np.random.default_rng(3)
        if case.startswith("complex"):
            p = int(case[len("complex-p") :])
            t = np.tril(rng.standard_normal((6, p, p)) + 1j * rng.standard_normal((6, p, p)))
        elif case == "bench10-p10":
            # 60 Bartlett factors Lambda^(1/2) L at beta=1, n=21 on the Gram
            # path: the certificate accepts 59, and one takes eigvalsh
            t = bartlett_factors(np.random.default_rng(8), np.array(BENCH10_SPECTRUM), 21, 60)
            eigvalsh, rejected = np.linalg.eigvalsh, []
            monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: rejected.append(len(g)) or eigvalsh(g))
            smallest_singular_value(t)
            assert rejected == [1]
        else:
            # at p=72, above _GRAM_ROWS, Lanczos: the factors leave the iteration
            # at different steps, and each step solves only the rest of the stack
            p = int(case[len("bartlett-p") :])
            t = bartlett_factors(rng, np.geomspace(0.5, 2.0, p), p + 1, 12)
        s = smallest_singular_value(t)
        assert s.shape == (len(t),)
        assert s.tolist() == [smallest_singular_value(m) for m in t]

    @pytest.mark.parametrize("p", [1, 2, 10, 33, 200])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_svd(self, p, dtype):
        rng = np.random.default_rng(p)
        t = np.tril(rng.standard_normal((3, p, p)))
        if dtype is complex:
            t = t + 1j * np.tril(rng.standard_normal((3, p, p)), -1)
        # Bartlett-like diagonal, so that the matrices are well conditioned
        t[:, np.arange(p), np.arange(p)] += np.sqrt(p + 2.0 - np.arange(p))
        want = np.linalg.svd(t, compute_uv=False)[:, -1]
        assert np.allclose(smallest_singular_value(t), want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_two_smallest_singular_values_coincide(self, dtype):
        rng = np.random.default_rng(11)
        # the second size takes the Lanczos path
        for p in (12, 40 if dtype is complex else 72):
            z = (dtype is complex) * 1j
            u, _ = np.linalg.qr(rng.standard_normal((p, p)) + z * rng.standard_normal((p, p)))
            v, _ = np.linalg.qr(rng.standard_normal((p, p)) + z * rng.standard_normal((p, p)))
            sigma = np.linspace(0.5, 4.0, p)
            sigma[:2] = 0.5
            t = tril_factor((u * sigma) @ v.conj().T)
            want = np.linalg.svd(t, compute_uv=False)
            assert want[-1] == pytest.approx(want[-2], rel=1e-13)
            assert smallest_singular_value(t) == pytest.approx(want[-1], rel=1e-12)

    @pytest.mark.parametrize(
        "dtype, p", [(complex, 32), (complex, 33), (float, 64), (float, 65)],
        ids=["complex-32", "complex-33", "float-64", "float-65"])
    def test_one_path_each_side_of_the_split(self, dtype, p, monkeypatch):
        # up to _GRAM_ROWS rows, one Kato-Temple certificate of the Gram
        # stack, then one eigvalsh of exactly the Gram matrices of the
        # matrices it rejects: here only the identity's, a p-fold tie.
        # Lanczos above
        assert _GRAM_ROWS[np.dtype(dtype)] in (p, p - 1)
        calls = []
        eigvalsh, ritz_step, kato_temple = np.linalg.eigvalsh, linalg._ritz_step, linalg._kato_temple

        def certificate(a, c, g, m):
            theta, ok = kato_temple(a, c, g, m)
            calls.append(("certificate", a[~ok]))
            return theta, ok

        monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: calls.append(("gram", g)) or eigvalsh(g))
        monkeypatch.setattr(linalg, "_kato_temple", certificate)
        monkeypatch.setattr(linalg, "_ritz_step", lambda *args: calls.append(("ritz",)) or ritz_step(*args))
        t = bartlett_factors(np.random.default_rng(p), np.ones(p), p + 1, 5).astype(dtype)
        smallest_singular_value(np.concatenate([t, np.eye(p, dtype=dtype)[None]]))
        if p <= _GRAM_ROWS[np.dtype(dtype)]:
            assert [call[0] for call in calls] == ["certificate", "gram"]
            rejected, gram = calls[0][1], calls[1][1]
            # the identity, scaled to 1/2 before its Gram matrix is formed
            assert np.array_equal(rejected, 0.5 * np.eye(p)[None])
            assert np.array_equal(gram, rejected.conj().swapaxes(1, 2) @ rejected)
        else:
            assert {call[0] for call in calls} == {"ritz"}

    def test_singular_is_exactly_zero(self):
        t = np.tril(np.arange(1.0, 17.0).reshape(4, 4))
        t[2, 2] = 0.0
        assert smallest_singular_value(t) == 0.0
        s = smallest_singular_value(np.stack([t, np.eye(4)]))
        assert s[0] == 0.0 and s[1] == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("lams", [(1e-310, 2.0), (1e300, 1.0), (2.0, 1e-310), (1.0, 1e300)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_extreme_row_scales(self, lams, dtype):
        # T = Lambda^(1/2) L as the sampler draws it; LAPACK's SVD loses all
        # relative accuracy on such graded rows, so the reference is decimal
        rng = np.random.default_rng(19)
        low = np.tril(rng.standard_normal((2, 2)))
        if dtype is complex:
            low = low + 1j * np.tril(rng.standard_normal((2, 2)), -1)
        low[np.arange(2), np.arange(2)] = np.abs(low.diagonal()) + 1.0
        t = np.sqrt(np.array(lams))[:, None] * low
        want = decimal_smallest_singular_value_2x2(t)
        assert smallest_singular_value(t) == pytest.approx(want, rel=1e-12)
        # the same block in a block-diagonal T above _GRAM_ROWS, whose
        # (p-2)x(p-2) block I + N (||N|| < 1/2), scaled by 4 * want, has
        # singular values above 2 * want: sigma_min is the block's, here
        # from the Lanczos iteration
        p = 40 if dtype is complex else 72
        big = np.zeros((p, p), dtype=t.dtype)
        n = np.tril(rng.uniform(-1.0, 1.0, (p - 2, p - 2)), -1) / (2 * p - 4)
        big[:-2, :-2] = 4.0 * want * (np.eye(p - 2) + n)
        big[-2:, -2:] = t
        assert smallest_singular_value(big) == pytest.approx(want, rel=1e-12)

    def test_overflowing_inverse_raises_without_warnings(self):
        # the inverse has an entry 1e600; numpy's floating-point warnings of
        # the substitution stay silent, the OverflowError names the cause
        t = np.array([[1.0, 0.0, 0.0], [1e300, 1.0, 0.0], [0.0, 1e300, 1.0]])
        for x in (t, t.astype(complex)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(OverflowError, match="leaves double precision"):
                    smallest_singular_value(x)

    def test_rejects_tall_matrix(self):
        with pytest.raises(ValueError):
            smallest_singular_value(np.zeros((3, 2)))

    def test_rejects_upper_entries(self):
        with pytest.raises(ValueError, match="lower-triangular"):
            smallest_singular_value(np.array([[1.0, 1e-300], [0.0, 1.0]]))

    def test_rejects_upper_entry_after_other_sizes(self):
        # the upper-triangle index is built once per p
        for p in (3, 200, 7):
            smallest_singular_value(np.eye(p))
        t = np.eye(200, dtype=complex)
        t[17, 151] = 1e-300j
        with pytest.raises(ValueError, match="lower-triangular"):
            smallest_singular_value(t)
        with pytest.raises(ValueError, match="lower-triangular"):
            smallest_singular_value(np.stack([np.eye(200), np.eye(200) + np.eye(200, k=199)]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            smallest_singular_value(np.array([[1.0, 0.0], [math.nan, 1.0]]))

    @pytest.mark.parametrize("shape", [(2, 3, 2), (3,), (1, 1, 2, 3)])
    def test_rejects_bad_stack_shape(self, shape):
        with pytest.raises(ValueError):
            smallest_singular_value(np.zeros(shape))

    def test_rejects_non_finite_in_stack(self):
        with pytest.raises(ValueError):
            smallest_singular_value(np.array([[[1.0]], [[1j * math.inf]]]))


def assert_mpmath_bracket(t, sigma, delta):
    """sigma**2 (1 - delta) < lambda_min(T T^H) < sigma**2 (1 + delta), for lower-triangular T.

    At 30 digits, G - s I passes a Cholesky factorization exactly when
    s < lambda_min(G) for G = T T^H.
    """
    mpmath = pytest.importorskip("mpmath")
    p = len(t)
    e = math.frexp(sigma)[1] - 1
    # exactly scaled to sigma in [1, 2): cholesky's positive-definite test
    # is a pivot above an absolute 10**-30
    t, sigma = t * 2.0 ** -e, sigma * 2.0 ** -e
    with mpmath.workdps(30):
        rows = [[mpmath.mpmathify(x) for x in row[: i + 1]] for i, row in enumerate(t.tolist())]
        g = mpmath.matrix(p)  # the lower triangle and diagonal, all that cholesky reads
        for i in range(p):
            for j in range(i + 1):
                g[i, j] = mpmath.fdot(rows[i][: j + 1], rows[j], conjugate=True)

        def positive_definite(shift):
            h = g.copy()
            for i in range(p):
                h[i, i] -= shift
            try:
                mpmath.cholesky(h)
            except ValueError:
                return False
            return True

        s2 = mpmath.mpf(sigma) ** 2
        assert positive_definite(s2 * (1 - delta))
        assert not positive_definite(s2 * (1 + delta))


@pytest.mark.parametrize("p", [65, 100, pytest.param(200, marks=pytest.mark.slow)])
@pytest.mark.parametrize("beta", [1, 2])
def test_lanczos_path_against_mpmath_bracket(beta, p):
    # above _GRAM_ROWS sigma_min comes from the Lanczos iteration, without
    # reorthogonalization, bracketed here at delta = c * p * eps with c = 1.
    # The top Ritz value stops once the Kato-Temple certificate puts it
    # within eps of the top eigenvalue, or at a residual of RITZ_RTOL =
    # 2.8e-14 times itself, with an error of the order of that residual
    # squared over the gap; these draws pass at c = 0.1 too.  A Cholesky at
    # p=200 takes ~1.5 s real and ~3.5 s complex, so that size is slow
    rng = np.random.default_rng(10 * p + beta)
    lams = np.geomspace(0.5, 2.0, p)
    rng.shuffle(lams)
    t = bartlett_factors(rng, lams, p + 1, 1, beta)[0]
    assert p > _GRAM_ROWS[t.dtype]
    assert_mpmath_bracket(t, smallest_singular_value(t), p * EPS)


@pytest.mark.parametrize("case", ["bench10-p10", "real-p64", "complex-p32"])
def test_gram_path_against_mpmath_bracket(case, monkeypatch):
    # up to _GRAM_ROWS sigma_min comes from the Kato-Temple certificate of
    # the Gram matrix or, where it fails, from eigvalsh, bracketed here at
    # the stated p**2 * eps; these draws pass at p * eps too.  The BENCH10
    # draws are the certified first four and the one that falls back of 60
    if case == "bench10-p10":
        draws = bartlett_factors(np.random.default_rng(8), np.array(BENCH10_SPECTRUM), 21, 60)
    else:
        p, beta = (64, 1) if case == "real-p64" else (32, 2)
        rng = np.random.default_rng(p)
        lams = np.geomspace(0.5, 2.0, p)
        rng.shuffle(lams)
        draws = bartlett_factors(rng, lams, p + 1, 2, beta)
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: calls.append(len(g)) or eigvalsh(g))
    fallback = []
    for t in draws:
        calls.clear()
        sigma = smallest_singular_value(t)
        fallback.append(bool(calls))
        if len(fallback) - sum(fallback) <= 4 or fallback[-1]:
            assert_mpmath_bracket(t, sigma, len(t) ** 2 * EPS)
    if case == "bench10-p10":
        assert sum(fallback) == 1


@pytest.mark.parametrize("dtype, p", [(float, 10), (float, 64), (complex, 32)],
                         ids=["real-p10", "real-p64", "complex-p32"])
def test_gram_path_falls_back_on_exactly_the_near_ties(dtype, p, monkeypatch):
    # A = U diag(s) V^H, whose A^H A has the top pair 1 and 1 - gap: one
    # matrix per relative gap from 1e-4 to 1e-12 and at an exact tie
    # (diagonal A), between controls whose top pair is 1 and 1/2.  Squaring
    # cannot separate the near-tied pairs, so their certificates fail and
    # they, and only they, take eigvalsh of the same Gram matrix
    rng = np.random.default_rng(p)

    def unitary():
        x = rng.standard_normal((p, p))
        return np.linalg.qr(x + 1j * rng.standard_normal((p, p)) if dtype is complex else x)[0]

    gaps = [1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 0.0]
    rest = np.linspace(0.4, 0.01, p - 2)
    stack, near = [], []
    for gap in gaps:
        for top, tied in ((0.5, False), (1.0 - gap, True)):
            s = np.sqrt(np.concatenate(([1.0, top], rest)))
            if gap == 0.0 and tied:
                a = np.diag(s).astype(dtype)
            else:
                a = (unitary() * s) @ unitary().conj().T
            stack.append(a)
            near.append(tied)
    a, near = np.array(stack), np.array(near)
    assert a.dtype == dtype and p <= _GRAM_ROWS[a.dtype]
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: calls.append(g) or eigvalsh(g))
    theta, _ = linalg._top_eigenvalue(a)  # scales a in place, as its caller does
    gram = a.conj().swapaxes(1, 2) @ a
    assert len(calls) == 1 and np.array_equal(calls[0], gram[near])
    want = eigvalsh(gram)[:, -1]
    assert np.array_equal(theta[near], want[near])
    # each path is within a few p * eps of lambda_max of that Gram matrix
    assert np.allclose(theta[~near], want[~near], rtol=p * EPS, atol=0.0)


class TestTrilInvert:
    @pytest.mark.parametrize("p", [3, 10, 33])
    def test_matches_fraction_inverse(self, p):
        # a Bartlett factor Lambda^(1/2) L, lambda from 1e-150 to 1e150 in
        # random row order.  Every entry of the computed inverse is within
        # p * eps * |X| |T| |X| of the exact inverse X, the forward error
        # bound of substitution.  At p=33 two leaves and one block product
        # make up the inverse
        rng = np.random.default_rng(p)
        lams = np.geomspace(1e-150, 1e150, p)
        rng.shuffle(lams)
        t = bartlett_factors(rng, lams, p + 1, 1)
        x = t.copy()
        linalg._tril_invert(x)
        exact = fraction_det_solve([[Fraction(v) for v in row] for row in t[0].tolist()],
                                   [[Fraction(int(i == j)) for j in range(p)] for i in range(p)])[1]
        err = [[float(abs(Fraction(v) - e)) for v, e in zip(row, erow)]
               for row, erow in zip(x[0].tolist(), exact)]
        xf = np.array([[float(e) for e in row] for row in exact])
        bound = p * EPS * (np.abs(xf) @ np.abs(t[0]) @ np.abs(xf))
        assert np.all(np.array(err) <= bound)

    @pytest.mark.parametrize("p", [64, 200])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_componentwise_residual(self, p, dtype):
        # |X T - I| and |T X - I| <= p * eps * |X| |T| (resp. |T| |X|); the
        # residual's own rounding is part of that bound
        rng = np.random.default_rng(p)
        t = np.tril(rng.standard_normal((3, p, p)))
        if dtype is complex:
            t = t + 1j * np.tril(rng.standard_normal((3, p, p)), -1)
        t[:, np.arange(p), np.arange(p)] = np.sqrt(rng.chisquare(p + 1 - np.arange(p), size=(3, p)))
        t *= np.sqrt(np.geomspace(1e-150, 1e150, p))[:, None]
        x = t.copy()
        linalg._tril_invert(x)
        eye = np.eye(p)
        assert np.all(np.abs(x @ t - eye) <= p * EPS * (np.abs(x) @ np.abs(t)))
        assert np.all(np.abs(t @ x - eye) <= p * EPS * (np.abs(t) @ np.abs(x)))


def _tridiagonal(alpha, beta2):
    """The symmetric tridiagonal matrix with diagonal alpha and off-diagonals sqrt(beta2)."""
    beta = np.sqrt(beta2)
    return np.diag(alpha) + np.diag(beta, -1) + np.diag(beta, 1)


def _ritz_cases(m, rng, k=50):
    """k PSD tridiagonal T_m, their top eigenvalue and y_m**2, and the norm2 _ritz_step takes.

    The off-diagonals span six decades, and norm2 puts the residual of the
    top Ritz pair a factor 10**(0.3 .. 2) above or below the RITZ_RTOL
    bound, or at zero.  Matrix 0 has a zero beta; matrix 1 is two copies of
    one block (and a zero row when m is odd), so its top eigenvalue is double.
    """
    beta2 = (rng.uniform(0.0, 1.0, (m - 1, k)) * 10.0 ** rng.uniform(-6.0, 0.0, (m - 1, k))) ** 2
    beta = np.sqrt(beta2)
    alpha = rng.uniform(0.0, 2.0, (m, k))
    alpha[:-1] += beta
    alpha[1:] += beta  # diagonally dominant, so positive semidefinite
    if m > 1:
        beta2[rng.integers(m - 1), 0] = 0.0
        h = m // 2
        alpha[h : 2 * h, 1] = alpha[:h, 1]
        beta2[h : 2 * h - 1, 1] = beta2[: h - 1, 1]
        beta2[h - 1, 1] = 0.0
        if m % 2:
            alpha[m - 1, 1] = beta2[m - 2, 1] = 0.0
    top = np.array([decimal_tridiagonal_top(alpha[:, i], beta2[:, i]) for i in range(k)])
    factor = 10.0 ** (rng.choice([-1.0, 1.0], k) * rng.uniform(0.3, 2.0, k))
    norm2 = (factor * RITZ_RTOL * top[:, 0]) ** 2 / np.maximum(top[:, 1], 1e-300)
    norm2[rng.choice(k, 3, replace=False)] = 0.0
    return alpha, beta2, norm2, top[:, 0], top[:, 1]


def _tridiagonal_stack(alpha, beta2):
    """The (k, m, m) stack of T_m as _ritz_step takes it: diagonals alpha (m, k), off-diagonals sqrt(beta2) below."""
    m, k = alpha.shape
    t, i = np.zeros((k, m, m)), np.arange(m)
    t[:, i, i] = alpha.T
    t[:, i[1:], i[:-1]] = np.sqrt(beta2.T)
    return t


@pytest.mark.parametrize("m", range(1, 13))
def test_ritz_step_against_decimal_eigenvector(m):
    # theta is LAPACK's top eigenvalue, a reported convergence holds for the
    # exact eigenvector, and an unconverged pair is not within half the bound.
    # An infinite trace bound leaves the residual rule alone
    alpha, beta2, norm2, top, last2 = _ritz_cases(m, np.random.default_rng(100 + m))
    theta, conv = _ritz_step(_tridiagonal_stack(alpha, beta2), norm2, np.full(len(norm2), np.inf))
    for i in range(alpha.shape[1]):
        want = np.linalg.eigvalsh(_tridiagonal(alpha[:, i], beta2[:, i]))[-1]
        assert theta[i] == pytest.approx(want, rel=8 * np.finfo(float).eps, abs=0.0)
        assert theta[i] == pytest.approx(top[i], rel=8 * m * np.finfo(float).eps, abs=0.0)
        residual = math.sqrt(norm2[i] * last2[i])
        if conv[i]:
            # a double top eigenvalue has an eigenvector with y_m = 0
            assert residual <= RITZ_RTOL * top[i] or (m > 1 and i == 1)
        else:
            assert residual > 0.5 * RITZ_RTOL * top[i]
    assert np.all(conv[norm2 == 0.0])
    assert 3 < np.count_nonzero(conv) < len(conv)


def _stress_pairs(dtype, p, tails):
    """(gap, U diag(s), V^H), p x p, with the top squared singular values 1 and 1 - gap.

    One per gap from 0.5 to 1e-12 and at 0, an exact tie, for each tail of
    squared singular values: "decaying" 0.4 * 2**-k down to 1e-6, "flat"
    0.3 / (p - 2) each, and "zero" 1e-30 each.  U and V are random unitary.
    """
    rng = np.random.default_rng(p)

    def unitary():
        x = rng.standard_normal((p, p))
        return np.linalg.qr(x + 1j * rng.standard_normal((p, p)) if dtype is complex else x)[0]

    rests = {"decaying": np.maximum(0.4 * 0.5 ** np.arange(p - 2), 1e-6),
             "flat": np.full(p - 2, 0.3 / (p - 2)), "zero": np.full(p - 2, 1e-30)}
    pairs = []
    for tail in tails:
        for gap in (0.5, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 0.0):
            s = np.sqrt(np.concatenate(([1.0, 1.0 - gap], rests[tail])))
            pairs.append((gap, unitary() * s, unitary().conj().T))
    return pairs


def _record_certificates(monkeypatch):
    """The (mu, certified) of every _certified call of a Lanczos iteration, in order."""
    certified, steps = linalg._certified, []

    def certificate(theta, mu, r2):
        ok = certified(theta, mu, r2)
        steps.extend(zip(mu.tolist(), ok.tolist()))
        return ok

    monkeypatch.setattr(linalg, "_certified", certificate)
    return steps


@pytest.mark.parametrize("dtype, p", [(complex, 40), (float, 70)], ids=["complex-p40", "real-p70"])
def test_lanczos_certificate_is_sound(dtype, p, monkeypatch):
    # T is the LQ factor of (U diag(s) V^H)^-1, so sigma_min(T) is 1 up to
    # rounding; the tails keep its condition number at 1e3.  A matrix that
    # leaves by the Kato-Temple certificate has sigma_min inside the
    # 30-digit bracket at 16 eps (these pass at 2 eps).  An exact tie, whose
    # second top eigenvector lies outside the Krylov space and puts mu at or
    # above theta, is never certified; it leaves by the residual rule.  Here
    # 7 of the 16 matrices are certified, among them the gaps 1e-6 and 1e-8
    # with the flat tail, where the Krylov space holds both top
    # eigenvectors after 3 steps.  Each matrix runs alone, so the last step
    # recorded is its exit
    steps, certified = _record_certificates(monkeypatch), 0
    for gap, us, vh in _stress_pairs(dtype, p, ("decaying", "flat")):
        t = tril_factor(np.linalg.inv(us @ vh))
        assert p > _GRAM_ROWS[t.dtype]
        steps.clear()
        sigma = smallest_singular_value(t)
        if steps[-1][1]:
            assert_mpmath_bracket(t, sigma, 16 * EPS)
            certified += 1
        if gap == 0.0:
            assert not any(ok for _, ok in steps)
    assert certified >= 6


@pytest.mark.parametrize("dtype, p", [(complex, 40), (float, 70)], ids=["complex-p40", "real-p70"])
def test_lanczos_trace_bound_holds_at_every_step(dtype, p, monkeypatch):
    # mu = (max(theta_2, tr B - sum alpha_j) + beta_m) (1 + margin) is at or
    # above lambda_2 of B = A^H A at every step, certified or not.  With the
    # zero tail, tr B - sum alpha_j falls to rounding once the Krylov space
    # holds the top pair, and theta_2 meets lambda_2 from below
    steps = _record_certificates(monkeypatch)
    for gap, us, vh in _stress_pairs(dtype, p, ("decaying", "flat", "zero")):
        a = (us @ vh)[None]
        steps.clear()
        linalg._top_eigenvalue(a)  # scales a in place: the units of mu
        second = np.linalg.eigvalsh(a[0].conj().T @ a[0])[-2]
        assert all(mu >= second for mu, _ in steps), gap


@pytest.mark.parametrize("dtype, p", [(float, 72), (complex, 40)], ids=["real-p72", "complex-p40"])
def test_lanczos_diagonal_with_smallest_entry_inside(dtype, p):
    # for a diagonal T, A^H e_p alone, the row part of the start vector, is
    # an eigenvector of A^H A for 1 / T_pp**2; the fixed part still finds
    # the smallest |T_ii|, here in row 17
    d = np.linspace(1.0, 3.0, p)
    d[17] = 0.5
    t = np.diag(d).astype(dtype)
    assert p > _GRAM_ROWS[t.dtype]
    assert smallest_singular_value(t) == pytest.approx(0.5, rel=4 * EPS, abs=0.0)


def _steps_per_matrix(t, monkeypatch, certificate=True):
    """Lanczos steps (_ritz_step calls) of each matrix of the stack t, each run alone."""
    ritz_step, calls = linalg._ritz_step, []
    monkeypatch.setattr(linalg, "_ritz_step", lambda *args: calls.append(1) or ritz_step(*args))
    if not certificate:
        monkeypatch.setattr(linalg, "_certified", lambda theta, mu, r2: np.zeros(theta.shape, bool))
    steps = []
    for m in t:
        calls.clear()
        smallest_singular_value(m)
        steps.append(len(calls))
    monkeypatch.undo()
    return np.array(steps)


@pytest.mark.parametrize(
    "beta, lams, n",
    [(2, (1.0,) * 100 + (4.0,) * 100, 202), (1, tuple(np.geomspace(0.5, 2.0, 100)), 1001)],
    ids=["beta2-p200-n202", "beta1-p100-n1001"])
def test_certificate_saves_lanczos_steps(beta, lams, n, monkeypatch):
    # the certificate is a second exit, so no matrix takes more steps than
    # under the residual rule alone.  Near the hard edge (n = p + 2) it
    # saves 28% of them here (7.8 against 10.9 per matrix); at n = 1001 the
    # trace of A^H A lies mostly outside the top pair, and the certificate
    # never holds on these draws
    t = bartlett_factors(np.random.default_rng(n), np.array(lams), n, 20, beta)
    both = _steps_per_matrix(t, monkeypatch)
    residual = _steps_per_matrix(t, monkeypatch, certificate=False)
    assert np.all(both <= residual)
    if n == 202:
        assert both.mean() <= 0.8 * residual.mean()


def _grid_case(case, mode):
    """(evaluate, lo, hi): a law's grid call in ``mode`` "gap" or "curve" and a span of its support."""
    if case.startswith("exact"):
        lams, beta, n, lo, hi = {
            "exact": ((1.0, 2.0, 3.0), 2, 33, 0.5, 20.0),  # kernel dimension 30
            "exact-dim10": (BENCH10_SPECTRUM, 1, 21, 0.5, 24.0),
            "exact-dim16": (BENCH10_SPECTRUM, 1, 27, 0.5, 40.0),
        }[case]
        law = ExactLaw(EmpiricalSpectrum(lams), make_config(beta, len(lams), n))
        return (law.gap_grid if mode == "gap" else law.curve), lo, hi
    beta, gamma, lo, hi = {
        "micro": (2, 30, 5.0, 60.0),  # kernel dimension 30
        "micro-gamma5": (1, 5, 0.01, 100.0),  # kernel dimension 10
    }[case]
    micro = make_micro_config(beta, gamma)
    return (lambda us: (micro_gap if mode == "gap" else micro_curve)(us, micro)), lo, hi


@pytest.mark.parametrize("case, mode", [
    pytest.param("exact", "curve", id="exact"),
    pytest.param("micro", "curve", id="micro"),
    pytest.param("exact-dim16", "gap", id="exact-dim16-gap"),
    pytest.param("exact-dim16", "curve", id="exact-dim16-curve"),
    pytest.param("micro-gamma5", "gap", id="micro-gamma5-gap"),
])
def test_grid_memory_is_bounded(case, mode):
    # the laws' value providers run VALUE_CHUNK points at a time, and
    # jacobi_gap_density factors their kernels GRID_BLOCK points at a time, so
    # a grid of four chunks peaks no higher than one chunk.  At kernel
    # dimension 30 ("exact", "micro") the (points, dim, dim) stacks outweigh
    # the values; at dimension 16 the (points, polynomials) Horner values, and
    # at the hard edge's beta=1, gamma=5 the (points, orders) Bessel table,
    # outweigh the stacks
    evaluate, lo, hi = _grid_case(case, mode)
    evaluate(np.linspace(lo, hi, 4))  # one-time set-up stays out of the peaks
    peaks = []
    for points in (VALUE_CHUNK, 4 * VALUE_CHUNK):
        grid = np.linspace(lo, hi, points)
        tracemalloc.start()
        try:
            evaluate(grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], [peak / 2**20 for peak in peaks]


@pytest.mark.parametrize("mode", ["gap", "curve"])
@pytest.mark.parametrize("case", ["exact-dim10", "micro-gamma5"])
def test_grid_elements_do_not_depend_on_the_blocking(case, mode):
    # more than two value chunks, unsorted, with 0, repeated points, the deep
    # left tail and the bulk: every element has the bits of a one-point call
    # and of the same point in the reversed grid
    evaluate, _, hi = _grid_case(case, mode)
    rng = np.random.default_rng(16)
    grid = np.concatenate([np.zeros(3), np.geomspace(1e-7 * hi, 0.05 * hi, 1500),
                           rng.uniform(0.0, hi, 3500), np.full(5, 0.3 * hi)])
    rng.shuffle(grid)
    assert len(grid) > 2 * VALUE_CHUNK
    values = np.array(evaluate(grid)).reshape(-1, len(grid))
    backwards = np.array(evaluate(grid[::-1])).reshape(-1, len(grid))[:, ::-1]
    assert values.tobytes() == backwards.tobytes()
    for k in range(0, len(grid), 37):
        point = np.array(evaluate(float(grid[k])), dtype=float).reshape(-1)
        assert point.tobytes() == values[:, k].tobytes(), grid[k]
