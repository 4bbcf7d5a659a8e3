import numpy as np
import pytest

from symplat import (
    cyclic_shift,
    group_closure,
    j_generator,
    j_matrix,
    k_matrix,
    k_prime,
)
from symplat.errors import OddDimension, OrderExceeded, OutOfRange
from symplat.groups import bit_flips
from symplat.linalg import det_int, is_orthogonal


class TestCyclicShift:
    def test_two(self):
        assert np.array_equal(cyclic_shift(2), [[0, 1], [1, 0]])

    def test_degenerate(self):
        assert np.array_equal(cyclic_shift(1), [[1]])

    def test_order_exactly_g(self):
        for g in range(2, 17):
            c = cyclic_shift(g)
            power = np.eye(g, dtype=np.int64)
            for k in range(1, g):
                power = power @ c
                assert not np.array_equal(power, np.eye(g, dtype=np.int64)), (g, k)
            assert np.array_equal(power @ c, np.eye(g, dtype=np.int64))

    def test_transpose_is_inverse(self):
        c = cyclic_shift(5)
        assert np.array_equal(c.T @ c, np.eye(5, dtype=np.int64))


class TestJMatrix:
    def test_two(self):
        assert np.array_equal(j_matrix(2), [[0, 1], [1, 0]])

    def test_one(self):
        assert np.array_equal(j_matrix(1), [[1]])

    def test_self_inverse(self):
        j4 = j_matrix(4)
        assert np.array_equal(j4 @ j4, np.eye(4, dtype=np.int64))
        assert np.array_equal(j4, j4.T)


class TestJGenerator:
    def test_n1(self):
        assert np.array_equal(j_generator(1, 1), [[0, 1], [1, 0]])

    def test_full_flip_is_antidiagonal(self):
        assert np.array_equal(j_generator(2, 2), j_matrix(4))

    def test_partial_flip(self):
        # J_2 (x) Id_2 swaps the two row blocks
        expected = np.zeros((4, 4), dtype=np.int64)
        expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1
        assert np.array_equal(j_generator(2, 1), expected)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            j_generator(2, 3)
        with pytest.raises(OutOfRange):
            j_generator(2, 0)

    def test_all_symmetric_orthogonal_involutions(self):
        for n in range(1, 6):
            for k in range(1, n + 1):
                jk = j_generator(n, k)
                assert np.array_equal(jk, jk.T)
                assert np.array_equal(jk @ jk, np.eye(2 ** n, dtype=np.int64))


class TestKMatrix:
    def test_two(self):
        assert np.array_equal(k_matrix(2), [[0, 1], [-1, 0]])

    def test_two_squares_to_minus_identity(self):
        k = k_matrix(2)
        assert np.array_equal(k @ k, -np.eye(2, dtype=np.int64))

    def test_four_sign_pattern(self):
        k = k_matrix(4)
        expected = np.zeros((4, 4), dtype=np.int64)
        expected[0, 3] = 1
        expected[1, 2] = -1
        expected[2, 1] = 1
        expected[3, 0] = -1
        assert np.array_equal(k, expected)

    def test_exact_identities_even_dims(self):
        for g in range(2, 17, 2):
            k = k_matrix(g)
            assert np.array_equal(k @ k, -np.eye(g, dtype=np.int64))
            assert np.array_equal(k @ k.T, np.eye(g, dtype=np.int64))

    def test_odd_dimension(self):
        with pytest.raises(OddDimension):
            k_matrix(3)


class TestKPrime:
    def test_squares_to_minus_identity(self):
        kp = k_prime(2)
        assert kp.shape == (4, 4)
        assert np.array_equal(kp @ kp, -np.eye(4, dtype=np.int64))

    def test_orthogonal(self):
        for g in (2, 4, 6):
            assert is_orthogonal(k_prime(g).astype(float))

    def test_only_fixed_point_is_zero(self):
        for g in (2, 4, 6):
            kp = k_prime(g)
            assert det_int(kp - np.eye(2 * g, dtype=np.int64)) != 0


class TestGroupClosure:
    def test_cyclic_three(self):
        grp = group_closure([cyclic_shift(3)])
        assert grp.order == 3

    def test_j_group_n2(self):
        grp = group_closure([j_generator(2, 1), j_generator(2, 2)])
        assert grp.order == 4

    def test_identity_alone(self):
        grp = group_closure([np.eye(2, dtype=np.int64)])
        assert grp.order == 1

    def test_j_group_structure(self):
        for n in range(1, 6):
            gens = [j_generator(n, k) for k in range(1, n + 1)]
            grp = group_closure(gens)
            assert grp.order == 2 ** n
            eye = np.eye(2 ** n, dtype=np.int64)
            for e in grp.elements:
                assert np.array_equal(e @ e, eye)
                assert np.array_equal(e, e.T)
                assert is_orthogonal(e.astype(float))

    def test_contains_identity_and_inverses(self):
        grp = group_closure([cyclic_shift(5)])
        keys = {e.tobytes() for e in grp.elements}
        assert np.eye(5, dtype=np.int64).tobytes() in keys
        for e in grp.elements:
            inv = np.linalg.inv(e.astype(float)).round().astype(np.int64)
            assert inv.tobytes() in keys

    def test_elements_distinct(self):
        grp = group_closure([k_prime(2)])
        keys = {e.tobytes() for e in grp.elements}
        assert len(keys) == grp.order == 4

    def test_order_exceeded(self, monkeypatch):
        from symplat import groups

        monkeypatch.setattr(groups, "DEFAULT_MAX_ORDER", 5)
        with pytest.raises(OrderExceeded):
            group_closure([cyclic_shift(9)])
        assert group_closure([cyclic_shift(5)]).order == 5

    def test_generator_indices(self):
        gens = [j_generator(2, 1), j_generator(2, 2)]
        grp = group_closure(gens)
        for idx, gen in zip(grp.generator_indices, gens):
            assert np.array_equal(grp.elements[idx], gen)


class TestBitFlips:
    def test_non_identity_elements_in_closure_order(self):
        for n in (1, 2, 3, 4):
            grp = group_closure([j_generator(n, k) for k in range(1, n + 1)])
            eye = np.eye(2 ** n, dtype=np.int64)
            flips = bit_flips(n)
            assert len(flips) == 2 ** n - 1 == grp.order - 1
            assert [e.tobytes() for e in flips] == [
                e.tobytes() for e in grp.elements if not np.array_equal(e, eye)]
            for e in flips:
                assert np.array_equal(e @ e, eye)        # involutions: (Z_2^n, +)
                assert e.dtype == np.int64

    def test_elements_are_read_only_and_each_list_is_new(self):
        flips = bit_flips(3)
        keys = [e.tobytes() for e in flips]
        for e in flips:
            assert not e.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            flips[0][0, 0] = 5
        flips.reverse()
        flips.append(np.eye(8, dtype=np.int64))
        again = bit_flips(3)
        assert again is not flips
        assert [e.tobytes() for e in again] == keys
