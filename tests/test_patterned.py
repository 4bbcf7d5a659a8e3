import cmath

import numpy as np
import pytest

from symplat import (
    KSymParams,
    a2n_eigenvalues,
    a2n_from_row,
    circulant_from_row,
    cyclic_shift,
    is_circulant,
    is_in_a2n,
    k_matrix,
    k_symmetric_from_params,
    ksym_param_count,
    ksym_region,
    sym_eig,
    walsh_matrix,
)
from symplat.errors import InconsistentParams, NotPowerOfTwo, OddDimension

from conftest import random_a2n_row


class TestCirculant:
    def test_scalar(self):
        assert np.array_equal(circulant_from_row([3.0]), [[3.0]])

    def test_shift_row(self):
        got = circulant_from_row([0.0, 1.0, 0.0])
        expected = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        assert np.array_equal(got, expected)

    def test_unit_row_gives_identity(self):
        assert np.array_equal(circulant_from_row([1.0, 0.0, 0.0, 0.0]), np.eye(4))

    def test_fixed_by_conjugation_exactly(self, rng):
        for g in (2, 3, 5, 8):
            a = circulant_from_row(rng.normal(size=g))
            c = cyclic_shift(g).astype(float)
            assert np.array_equal(c.T @ a @ c, a)
            assert is_circulant(a, 0.0)

    def test_non_circulant(self):
        assert not is_circulant([[1.0, 2.0], [3.0, 4.0]])
        assert is_circulant(np.eye(5))

    def test_dft_eigenvalue_oracle(self, rng):
        # symmetric circulants have real spectrum; compare Jacobi with the
        # brute-force discrete Fourier sums over the defining row
        for g in (2, 3, 4, 6, 8):
            half = rng.normal(size=g // 2 + 1)
            row = np.array([half[min(j, g - j)] for j in range(g)])
            a = circulant_from_row(row)
            assert np.array_equal(a, a.T)
            _, d = sym_eig(a)
            omega = cmath.exp(2j * cmath.pi / g)
            dft = sorted(
                sum(row[j] * (omega ** (j * k)) for j in range(g)).real
                for k in range(g)
            )
            assert np.allclose(sorted(d), dft, atol=1e-8)


class TestA2n:
    def test_two_by_two(self):
        got = a2n_from_row([1.5, -2.0])
        assert np.array_equal(got, [[1.5, -2.0], [-2.0, 1.5]])

    def test_four_by_four_block_structure(self):
        a, b, c, d = 1.0, 2.0, 3.0, 4.0
        got = a2n_from_row([a, b, c, d])
        expected = np.array(
            [[a, b, c, d], [b, a, d, c], [c, d, a, b], [d, c, b, a]]
        )
        assert np.array_equal(got, expected)

    def test_unit_row_gives_identity(self):
        assert np.array_equal(a2n_from_row([1.0, 0.0, 0.0, 0.0]), np.eye(4))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(NotPowerOfTwo):
            a2n_from_row([1.0, 2.0, 3.0])

    def test_block_recursion_matches_xor_fill(self, rng):
        # one step of the inductive [[A, B], [B, A]] description
        for n in (1, 2, 3, 4):
            row = rng.normal(size=2 ** (n + 1))
            full = a2n_from_row(row)
            a = a2n_from_row(row[: 2 ** n])
            b = a2n_from_row(row[2 ** n:])
            expected = np.block([[a, b], [b, a]])
            assert np.array_equal(full, expected)

    def test_membership(self, rng):
        for n in (1, 2, 3):
            row = rng.normal(size=2 ** n)
            assert is_in_a2n(a2n_from_row(row))
        generic = rng.normal(size=(4, 4))
        generic = 0.5 * (generic + generic.T)
        assert not is_in_a2n(generic)
        assert is_in_a2n(np.eye(8))

    def test_round_trip_first_row(self, rng):
        row = rng.normal(size=8)
        a = a2n_from_row(row)
        assert np.array_equal(a[0], row)
        assert np.array_equal(a2n_from_row(a[0]), a)

    def test_product_closure_and_commutation(self, rng):
        for n in (1, 2, 3, 4):
            ra = rng.normal(size=2 ** n)
            rb = rng.normal(size=2 ** n)
            a = a2n_from_row(ra)
            b = a2n_from_row(rb)
            prod = a @ b
            assert is_in_a2n(prod, 1e-9)
            assert np.max(np.abs(prod - b @ a)) <= 1e-9


class TestWalsh:
    def test_base(self):
        assert np.array_equal(walsh_matrix(1), [[1.0, 1.0], [1.0, -1.0]])

    def test_self_inverse_up_to_dimension(self):
        v = walsh_matrix(2)
        assert np.array_equal(v @ v, 4.0 * np.eye(4))

    def test_columns_orthogonal(self):
        for n in range(1, 6):
            v = walsh_matrix(n)
            g = 2 ** n
            assert np.array_equal(v.T @ v, g * np.eye(g))

    def test_row_eigenvalues_two(self):
        assert np.array_equal(a2n_eigenvalues([3.0, 1.0]), [4.0, 2.0])

    def test_unit_row_all_ones(self):
        assert np.array_equal(a2n_eigenvalues([1.0, 0.0, 0.0, 0.0]), np.ones(4))

    def test_eigen_identity(self, rng):
        for n in range(1, 6):
            for _ in range(20):
                row = rng.normal(size=2 ** n)
                a = a2n_from_row(row)
                v = walsh_matrix(n)
                d = a2n_eigenvalues(row)
                resid = np.max(np.abs(a @ v - v @ np.diag(d)))
                assert resid <= 1e-9 * max(np.max(np.abs(a)), 1e-30)

    def test_matches_jacobi_oracle(self, rng):
        row = rng.normal(size=8)
        _, dense = sym_eig(a2n_from_row(row))
        fast = np.sort(a2n_eigenvalues(row))[::-1]
        assert np.allclose(dense, fast, atol=1e-9)


class TestKSymmetric:
    def test_region_count(self):
        assert ksym_param_count(2) == 2
        assert ksym_param_count(4) == 6
        assert ksym_param_count(8) == 20
        for g in range(2, 21, 2):
            assert len(ksym_region(g)) == ksym_param_count(g)

    def test_region_two(self):
        assert ksym_region(2) == [(1, 1), (1, 2)]

    def test_odd_dimension(self):
        with pytest.raises(OddDimension):
            ksym_param_count(3)

    def test_two_by_two_shape(self):
        x = k_symmetric_from_params(KSymParams(2, {(1, 1): 0.7, (1, 2): 0.2}))
        assert np.array_equal(x, [[0.7, 0.2], [0.2, -0.7]])

    def test_zero_params(self):
        p = KSymParams(4, {key: 0.0 for key in ksym_region(4)})
        assert np.array_equal(k_symmetric_from_params(p), np.zeros((4, 4)))

    def test_defining_identities_exact(self, rng):
        for g in (4, 6, 8):
            values = {key: float(v) for key, v in
                      zip(ksym_region(g), rng.uniform(-1, 1, size=ksym_param_count(g)))}
            x = k_symmetric_from_params(KSymParams(g, values))
            k = k_matrix(g).astype(float)
            assert np.array_equal(k @ x @ k, x)
            assert np.array_equal(x, x.T)

    def test_restriction_returns_params(self, rng):
        g = 6
        values = {key: float(v) for key, v in
                  zip(ksym_region(g), rng.uniform(-1, 1, size=ksym_param_count(g)))}
        x = k_symmetric_from_params(KSymParams(g, values))
        for (i, j), v in values.items():
            assert x[i - 1, j - 1] == v

    def test_inconsistent_params(self):
        with pytest.raises(InconsistentParams):
            KSymParams(2, {(1, 1): 0.0})
        with pytest.raises(InconsistentParams):
            KSymParams(2, {(1, 1): 0.0, (1, 2): 0.0, (2, 2): 0.0})


class TestParamSerialization:
    def test_round_trip(self, rng):
        from symplat.patterned import ksym_params_from_obj, ksym_params_to_obj

        g = 4
        values = {key: float(v) for key, v in
                  zip(ksym_region(g), rng.uniform(0, 1, size=ksym_param_count(g)))}
        p = KSymParams(g, values)
        p2 = ksym_params_from_obj(ksym_params_to_obj(p))
        assert p2 == p

    def test_nan_value_is_inconsistent(self):
        import json

        from symplat.patterned import ksym_params_from_obj

        # the stdlib json module accepts NaN, so a parameter file can carry one
        obj = json.loads('{"g": 2, "values": [{"i": 1, "j": 1, "value": NaN},'
                         ' {"i": 1, "j": 2, "value": 0.5}]}')
        with pytest.raises(InconsistentParams):
            k_symmetric_from_params(ksym_params_from_obj(obj))
