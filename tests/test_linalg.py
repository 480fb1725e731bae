import math

import numpy as np
import pytest

from wishartmin.linalg import (
    SignedLogMatrix,
    logdet_lu,
    smallest_singular_value,
    sqrt_det_antisymmetric,
)
from wishartmin.numerics import SLOG_ZERO, signedlog_from_float, signedlog_to_float

from oracles import cofactor_det, hermitian_smallest_eigenvalue, jacobi_smallest_eigenvalue, pfaffian_recursive


def slog_matrix(a):
    return SignedLogMatrix([[signedlog_from_float(float(x)) for x in row] for row in a])


class TestLogdetLu:
    def test_empty_matrix_is_one(self):
        det = logdet_lu(SignedLogMatrix([]))
        assert signedlog_to_float(det) == 1.0

    def test_diagonal(self):
        det = logdet_lu(slog_matrix([[2.0, 0.0], [0.0, 3.0]]))
        assert det.sign == 1
        assert det.logmag == pytest.approx(math.log(6.0), rel=1e-15)

    def test_sign_from_swap(self):
        det = logdet_lu(slog_matrix([[0.0, 1.0], [1.0, 0.0]]))
        assert signedlog_to_float(det) == pytest.approx(-1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_6x6_against_cofactor_expansion(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, size=(6, 6))
        want = cofactor_det(a)
        got = signedlog_to_float(logdet_lu(slog_matrix(a)))
        assert got == pytest.approx(want, rel=1e-10)

    def test_exact_singularity_returns_zero(self):
        a = [[1.0, 2.0], [2.0, 4.0]]
        assert logdet_lu(slog_matrix(a)) == SLOG_ZERO

    def test_huge_magnitude_spread(self):
        # diag entries across ~600 orders of magnitude stay exact in log space
        det = logdet_lu(slog_matrix([[1e300, 0.0], [0.0, 1e300]]))
        assert det.sign == 1
        assert det.logmag == pytest.approx(2 * math.log(1e300), rel=1e-14)

    def test_column_spread_beyond_float_range(self):
        # scaling rows alone would flush the 1e-200 column to zero next to the 1e200 one
        core = np.random.default_rng(8).uniform(-1.0, 1.0, size=(3, 3))
        det = logdet_lu(slog_matrix(core * np.array([1e200, 1.0, 1e-200])))
        want = cofactor_det(core)
        assert det.sign == (1 if want > 0 else -1)
        assert det.logmag == pytest.approx(
            math.log(abs(want)) + math.log(1e200) + math.log(1e-200), abs=1e-11
        )

    @pytest.mark.parametrize("d", [2, 4, 7, 10])
    def test_product_rule(self, d):
        rng = np.random.default_rng(d)
        a = rng.uniform(-1.0, 1.0, size=(d, d))
        b = rng.uniform(-1.0, 1.0, size=(d, d))
        da = logdet_lu(slog_matrix(a))
        db = logdet_lu(slog_matrix(b))
        dab = logdet_lu(slog_matrix(a @ b))
        assert dab.sign == da.sign * db.sign
        assert dab.logmag == pytest.approx(da.logmag + db.logmag, rel=1e-9, abs=1e-9)

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            SignedLogMatrix([[SLOG_ZERO, SLOG_ZERO], [SLOG_ZERO]])


class TestSqrtDetAntisymmetric:
    def test_2x2(self):
        m = slog_matrix([[0.0, 3.0], [-3.0, 0.0]])
        assert signedlog_to_float(sqrt_det_antisymmetric(m)) == pytest.approx(3.0, rel=1e-15)

    def test_zero_matrix(self):
        m = slog_matrix(np.zeros((4, 4)))
        assert sqrt_det_antisymmetric(m) == SLOG_ZERO

    def test_empty(self):
        assert signedlog_to_float(sqrt_det_antisymmetric(SignedLogMatrix([]))) == 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_recursive_pfaffian(self, seed):
        rng = np.random.default_rng(seed)
        b = rng.uniform(-1.0, 1.0, size=(6, 6))
        a = b - b.T
        want = abs(pfaffian_recursive(a))
        got = signedlog_to_float(sqrt_det_antisymmetric(slog_matrix(a)))
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_square_equals_determinant(self, seed):
        rng = np.random.default_rng(seed)
        b = rng.uniform(-1.0, 1.0, size=(8, 8))
        a = b - b.T
        root = sqrt_det_antisymmetric(slog_matrix(a))
        det = logdet_lu(slog_matrix(a))
        assert det.sign == 1
        assert 2.0 * root.logmag == pytest.approx(det.logmag, rel=1e-9, abs=1e-9)

    def test_rejects_odd_dimension(self):
        m = slog_matrix([[0.0, 1.0, 2.0], [-1.0, 0.0, 3.0], [-2.0, -3.0, 0.0]])
        with pytest.raises(ValueError, match="even"):
            sqrt_det_antisymmetric(m)

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            sqrt_det_antisymmetric(slog_matrix([[0.0, 3.0], [-2.9, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            sqrt_det_antisymmetric(slog_matrix([[1.0, 3.0], [-3.0, 0.0]]))


class TestSmallestSingularValue:
    def test_padded_diagonal(self):
        w = np.array([[3.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert smallest_singular_value(w) == pytest.approx(2.0, rel=1e-14)

    def test_row_vector_is_norm(self):
        w = np.array([[1.0, 2.0, 2.0]])
        assert smallest_singular_value(w) == pytest.approx(3.0, rel=1e-14)

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(42)
        w = rng.standard_normal((5, 8))
        want = jacobi_smallest_eigenvalue(w @ w.T)
        assert smallest_singular_value(w) ** 2 == pytest.approx(want, rel=1e-9)

    def test_complex_against_hermitian_embedding(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        want = hermitian_smallest_eigenvalue(w @ w.conj().T)
        assert smallest_singular_value(w) ** 2 == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_invariant_under_right_rotation(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((4, 7))
        q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        assert smallest_singular_value(w @ q) == pytest.approx(
            smallest_singular_value(w), rel=1e-9
        )

    def test_complex_transposed_view(self):
        # a non-contiguous complex matrix is valid input
        rng = np.random.default_rng(5)
        w = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
        assert smallest_singular_value(w.T) == smallest_singular_value(w.T.copy())

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((6, 4, 7)) + 1j * rng.standard_normal((6, 4, 7))
        s = smallest_singular_value(w)
        assert s.shape == (6,)
        assert s.tolist() == [smallest_singular_value(m) for m in w]

    def test_rejects_tall_matrix(self):
        with pytest.raises(ValueError):
            smallest_singular_value(np.zeros((3, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            smallest_singular_value(np.array([[1.0, math.nan]]))

    @pytest.mark.parametrize("shape", [(2, 3, 2), (3,), (1, 1, 2, 3)])
    def test_rejects_bad_stack_shape(self, shape):
        with pytest.raises(ValueError):
            smallest_singular_value(np.zeros(shape))

    def test_rejects_non_finite_in_stack(self):
        with pytest.raises(ValueError):
            smallest_singular_value(np.array([[[1.0, 2.0]], [[1j * math.inf, 0.0]]]))
