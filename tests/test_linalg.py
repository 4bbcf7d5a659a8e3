import math

import numpy as np
import pytest

from symplat import (
    det_int,
    inverse,
    is_orthogonal,
    is_unimodular,
    kron_pow,
    round_to_int,
    sqrt_spd,
    sym_eig,
)
from symplat.errors import NotIntegral, NotSPD, NotSymmetric, NumericalBreakdown, Singular
from symplat.groups import j_matrix
from symplat import linalg
from symplat.linalg import as_intmat, as_mat, intmat_from_obj, intmat_to_obj, mat_from_obj, mat_to_obj

from conftest import random_spd


J2 = np.array([[0.0, 1.0], [1.0, 0.0]])
H2 = np.array([[1.0, 1.0], [1.0, -1.0]])


class TestKron:
    """Kronecker algebra of ``kron_pow``."""

    def test_identity(self):
        assert np.array_equal(kron_pow(np.eye(2), 2), np.eye(4))

    def test_hadamard_square(self):
        got = kron_pow(H2, 2)
        expected = np.array(
            [
                [1, 1, 1, 1],
                [1, -1, 1, -1],
                [1, 1, -1, -1],
                [1, -1, -1, 1],
            ],
            dtype=float,
        )
        assert np.array_equal(got, expected)

    def test_associative_exact_on_integer_entries(self, rng):
        # triple products of small integers are exact in float64, so
        # either bracketing gives the power entrywise with no tolerance
        a = rng.integers(-9, 10, size=(3, 3)).astype(float)
        got = kron_pow(a, 3)
        assert np.array_equal(got, np.kron(np.kron(a, a), a))
        assert np.array_equal(got, np.kron(a, np.kron(a, a)))

    def test_associative_generic(self, rng):
        a = rng.normal(size=(2, 2))
        rhs = np.kron(a, np.kron(a, a))
        assert np.allclose(kron_pow(a, 3), rhs, rtol=1e-15, atol=0.0)

    def test_det_multiplicativity(self, rng):
        # det(a (x) b) = det(a)^db det(b)^da, so det of the n-th power of
        # a d x d matrix is det(a)^(n d^(n-1))
        for _ in range(20):
            d, n = (int(k) for k in rng.integers(2, 4, size=2))
            a = rng.normal(size=(d, d))
            lhs = np.linalg.det(kron_pow(a, n))
            rhs = np.linalg.det(a) ** (n * d ** (n - 1))
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_rejects_complex(self):
        with pytest.raises(ValueError, match="complex"):
            kron_pow([[1, 1], [1, 1j]], 2)


class TestKronPow:
    def test_identity(self):
        assert np.array_equal(kron_pow(np.eye(2), 3), np.eye(8))

    def test_j2_square_is_antidiagonal(self):
        assert np.array_equal(kron_pow(J2, 2), j_matrix(4).astype(float))

    def test_single_factor(self):
        assert np.array_equal(kron_pow(H2, 1), H2)


class TestSymEig:
    def test_identity(self):
        q, d = sym_eig(np.eye(3))
        assert np.allclose(d, [1, 1, 1])
        assert is_orthogonal(q, 1e-12)

    def test_two_by_two(self):
        _, d = sym_eig([[2.0, 1.0], [1.0, 2.0]])
        assert d == pytest.approx([3.0, 1.0], abs=1e-12)

    def test_diagonal_sorted_descending(self):
        _, d = sym_eig(np.diag([5.0, 2.0, 9.0]))
        assert d == pytest.approx([9.0, 5.0, 2.0], abs=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            sym_eig([[0.0, 1.0], [0.0, 0.0]])

    def test_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(NumericalBreakdown,
                           match="^Jacobi sweeps did not converge within the sweep cap$"):
            sym_eig(random_spd(np.random.default_rng(1), 6))

    def test_reconstruction_random(self, rng):
        for dim in (2, 5, 8, 17, 32):
            m = rng.normal(size=(dim, dim))
            s = 0.5 * (m + m.T)
            q, d = sym_eig(s)
            err = np.max(np.abs(q @ np.diag(d) @ q.T - s))
            assert err <= 1e-10 * max(np.max(np.abs(s)), 1e-30)
            assert is_orthogonal(q, 1e-10)

    def test_zero_matrix(self):
        q, d = sym_eig(np.zeros((4, 4)))
        assert np.array_equal(d, np.zeros(4))
        assert is_orthogonal(q, 0.0)


class TestSqrtSpd:
    def test_identity(self):
        assert np.allclose(sqrt_spd(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        assert sqrt_spd(np.diag([4.0, 9.0])) == pytest.approx(np.diag([2.0, 3.0]))

    def test_two_by_two_closed_form(self):
        got = sqrt_spd([[2.0, 1.0], [1.0, 2.0]])
        r3 = math.sqrt(3.0)
        expected = 0.5 * np.array([[r3 + 1, r3 - 1], [r3 - 1, r3 + 1]])
        assert got == pytest.approx(expected, abs=1e-12)

    def test_square_round_trip(self, rng):
        for dim in (2, 3, 6, 12):
            y = random_spd(rng, dim)
            r = sqrt_spd(y)
            assert np.array_equal(r, r.T)
            assert np.max(np.abs(r @ r - y)) <= 1e-9 * np.max(np.abs(y))

    def test_rejects_indefinite(self):
        with pytest.raises(NotSPD):
            sqrt_spd(np.diag([1.0, -1.0]))

    def test_spd_floor_is_relative(self):
        np.testing.assert_allclose(sqrt_spd(1e-12 * np.eye(3)), 1e-6 * np.eye(3), rtol=1e-12, atol=0.0)
        with pytest.raises(NotSPD):
            sqrt_spd(np.diag([1.0, 1e-12]))


class TestDet:
    def test_identity(self):
        assert det_int(np.eye(5, dtype=np.int64)) == 1

    def test_antidiagonal_sign(self):
        # reversal permutation of 4 elements has 6 inversions: even, det +1;
        # Bareiss reaches both by pivot swaps
        assert det_int(j_matrix(4)) == 1
        assert det_int(j_matrix(2)) == -1

    def test_det_int_diagonal(self):
        assert det_int([[2, 0], [0, 3]]) == 6

    def test_det_int_matches_float(self, rng):
        for _ in range(25):
            dim = int(rng.integers(2, 6))
            m = rng.integers(-5, 6, size=(dim, dim))
            assert det_int(m) == pytest.approx(np.linalg.det(m.astype(float)), abs=1e-6)

    def test_det_int_exact_large_entries(self):
        # Bareiss works over Python ints; no intermediate overflow
        m = np.diag([10 ** 6] * 6)
        assert det_int(m) == 10 ** 36


def unit_triangular_product(rng, n, r):
    """L @ U with unit triangular integer factors: determinant exactly 1."""
    low = np.eye(n, dtype=np.int64) + np.tril(rng.integers(-r, r + 1, size=(n, n)), -1)
    up = np.eye(n, dtype=np.int64) + np.triu(rng.integers(-r, r + 1, size=(n, n)), 1)
    return low @ up


class TestIsUnimodular:
    """The certificate is tested on every dimension: ``bareiss_calls``
    turns off the direct Bareiss path for small matrices."""

    @pytest.fixture
    def bareiss_calls(self, monkeypatch):
        calls = []
        original = linalg.det_int

        def counting(a):
            calls.append(a)
            return original(a)

        monkeypatch.setattr(linalg, "det_int", counting)
        monkeypatch.setattr(linalg, "BAREISS_MAX_DIM", 0)
        return calls

    def test_agrees_with_bareiss_on_random_matrices(self, rng, monkeypatch):
        for bareiss_max_dim in (linalg.BAREISS_MAX_DIM, 0):
            monkeypatch.setattr(linalg, "BAREISS_MAX_DIM", bareiss_max_dim)
            for _ in range(300):
                n = int(rng.integers(1, 9))
                m = rng.integers(-2, 3, size=(n, n))
                assert is_unimodular(m) == (abs(det_int(m)) == 1)

    def test_small_matrices_go_straight_to_bareiss(self, monkeypatch):
        calls = []
        original = linalg.det_int
        monkeypatch.setattr(linalg, "det_int", lambda a: calls.append(a) or original(a))
        n = linalg.BAREISS_MAX_DIM
        assert is_unimodular(np.eye(n, dtype=np.int64))
        assert len(calls) == 1
        assert is_unimodular(np.eye(n + 1, dtype=np.int64))
        assert len(calls) == 1

    def test_certificate_decides_moderate_unimodular_matrices(self, rng, bareiss_calls):
        for n, r in ((1, 2), (2, 2), (8, 2), (16, 2), (32, 1)):
            for _ in range(5):
                u = unit_triangular_product(rng, n, r)
                p = rng.permutation(n)
                assert is_unimodular(u[p])
                assert is_unimodular(-u.T)
        assert bareiss_calls == []
        # at n = 32 with entries up to 2 the inverse has entries near 1e13,
        # past the guard
        assert is_unimodular(unit_triangular_product(np.random.default_rng(1), 32, 2))
        assert len(bareiss_calls) == 1

    def test_singular_and_determinant_two(self, rng, bareiss_calls):
        u = unit_triangular_product(rng, 6, 2)
        singular = u.copy()
        singular[:, 3] = 2 * singular[:, 1] - singular[:, 0]
        doubled = u.copy()
        doubled[:, 2] *= 2
        for m, d in ((np.zeros((4, 4), dtype=np.int64), 0), (singular, 0), (doubled, 2),
                     (-doubled, 2), (np.diag([1, 1, 2]), 2), (np.diag([-1, 1, -1]), 1)):
            assert abs(det_int(m)) == d
            assert is_unimodular(m) == (d == 1)

    def test_inexact_inverse_falls_back_to_bareiss(self, bareiss_calls):
        # [[k, k+1], [k-1, k]] has determinant 1 and an inverse of the same
        # size; at these k the bounds pass the guard, but the rounded float
        # inverse is wrong
        for k in (2 ** 20 + 1, 2 ** 25 + 3):
            m = np.array([[k, k + 1], [k - 1, k]], dtype=np.int64)
            assert det_int(m) == 1
            x = np.rint(np.linalg.inv(m.astype(np.float64)))
            assert 2 * (k + 1) * int(np.max(np.abs(x))) < 2 ** 53
            assert not np.array_equal(m.astype(np.float64) @ x, np.eye(2))
            assert is_unimodular(m)
            assert not is_unimodular(m + np.array([[1, 0], [0, 0]]))
        assert len(bareiss_calls) == 4

    def test_entries_beyond_the_guard_fall_back_to_bareiss(self, bareiss_calls):
        # the inverse of [[1, b], [0, 1]] is exact, but 2 b^2 >= 2^53, so
        # float64 products are not guaranteed exact and Bareiss decides
        for b in (2 ** 26, 2 ** 40, 2 ** 62):
            m = np.array([[1, b], [0, 1]], dtype=np.int64)
            assert is_unimodular(m)
            assert not is_unimodular(np.array([[2, b], [0, 1]], dtype=np.int64))
        big = np.array([[2 ** 62, 2 ** 62 + 1], [2 ** 62 - 1, 2 ** 62]], dtype=np.int64)
        assert det_int(big) == 1
        assert is_unimodular(big)
        assert len(bareiss_calls) == 7

    def test_below_the_guard_needs_no_bareiss(self, bareiss_calls):
        b = 2 ** 25
        assert is_unimodular(np.array([[1, b], [0, 1]], dtype=np.int64))
        assert bareiss_calls == []


class TestInverse:
    def test_identity(self):
        assert np.allclose(inverse(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert inverse(np.diag([2.0, 4.0])) == pytest.approx(np.diag([0.5, 0.25]))

    def test_antidiagonal_self_inverse(self):
        j4 = j_matrix(4).astype(float)
        assert inverse(j4) == pytest.approx(j4)

    def test_singular(self):
        with pytest.raises(Singular):
            inverse(np.zeros((2, 2)))

    def test_singularity_is_scale_free(self):
        # det 2.3e-10
        assert np.allclose(inverse(0.25 * np.eye(16)), 4.0 * np.eye(16))
        # rank 2 with det 4.6e15
        with pytest.raises(Singular):
            inverse(1e10 * np.arange(1.0, 10.0).reshape(3, 3))


class TestIsOrthogonal:
    def test_identity(self):
        assert is_orthogonal(np.eye(3))

    def test_alternating_antidiagonal(self):
        from symplat import k_matrix

        assert is_orthogonal(k_matrix(4).astype(float))

    def test_shear_is_not(self):
        assert not is_orthogonal([[1.0, 1.0], [0.0, 1.0]])


class TestRoundToInt:
    def test_identity(self):
        assert np.array_equal(round_to_int(np.eye(3)), np.eye(3, dtype=np.int64))

    def test_near_integer(self):
        got = round_to_int([[1.0000000001, 0.0], [0.0, 1.0]], tol=1e-6)
        assert np.array_equal(got, np.eye(2, dtype=np.int64))

    def test_rejects_half_integer(self):
        with pytest.raises(NotIntegral):
            round_to_int([[0.5, 0.0], [0.0, 1.0]])


class TestValidation:
    def test_as_mat_rejects_complex(self):
        with pytest.raises(ValueError, match="complex"):
            as_mat([[1.0, 1j], [0.0, 1.0]])
        with pytest.raises(ValueError, match="complex"):
            as_mat(np.eye(2, dtype=np.complex128))      # zero imaginary part too

    def test_as_intmat_rejects_complex(self):
        with pytest.raises(ValueError, match="complex"):
            as_intmat([[1, 1j], [0, 1]])
        with pytest.raises(ValueError, match="complex"):
            as_intmat(np.eye(2, dtype=np.complex128))


class TestJsonForms:
    def test_mat_round_trip(self, rng):
        m = rng.normal(size=(3, 3))
        assert np.array_equal(mat_from_obj(mat_to_obj(m)), m)

    def test_intmat_round_trip(self):
        m = np.array([[1, -2], [3, 4]], dtype=np.int64)
        assert np.array_equal(intmat_from_obj(intmat_to_obj(m)), m)

    def test_schema_errors(self):
        from symplat.errors import SchemaError

        with pytest.raises(SchemaError):
            mat_from_obj({"dim": 2, "rows": [[1.0, 2.0]]})
        with pytest.raises(SchemaError):
            mat_from_obj({"rows": [[1.0]]})
        with pytest.raises(SchemaError):
            intmat_from_obj({"dim": 1, "rows": [[1.5]]})
