import json

import numpy as np
import pytest

from symplat import (
    det_int,
    is_orthogonal,
    is_unimodular,
    kron_pow,
    round_to_int,
    sym_eig,
)
from symplat.errors import NotIntegral, NotSymmetric, NumericalBreakdown, Singular
from symplat.groups import bit_flips, j_matrix
from symplat import linalg
from symplat.linalg import as_intmat, as_mat, check_symmetric, intmat_to_obj, mat_from_obj, mat_to_obj
from symplat.patterned import k_symmetric_stack
from symplat.symplectic import k_family_bases, vcube_wedges

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
        assert np.max(np.abs(q.T @ q - np.eye(3))) <= 1e-12

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
            assert np.max(np.abs(q.T @ q - np.eye(dim))) <= 1e-10

    def test_zero_matrix(self):
        q, d = sym_eig(np.zeros((4, 4)))
        assert np.array_equal(d, np.zeros(4))
        assert np.max(np.abs(q.T @ q - np.eye(4))) <= 0.0


class TestCheckSymmetric:
    def test_bound_is_relative_to_the_largest_entry(self):
        check_symmetric(np.array([[4.0, 1.0], [1.0 + 3e-9, 0.0]]))
        with pytest.raises(NotSymmetric):
            check_symmetric(np.array([[4.0, 1.0], [1.0 + 5e-9, 0.0]]))


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

    @pytest.mark.parametrize("entry", [2 ** 70, -2 ** 63 - 1, float("inf"), float("-inf"),
                                       float("nan"), 1e19, -1e19, 2.0 ** 63, 0.5])
    def test_refuses_entries_int64_cannot_hold(self, entry):
        # numpy would wrap each out-of-range entry to -2^63, silently
        with pytest.raises(ValueError, match=r"^entry \(1,0\) = .* is not an integer in int64's range$"):
            det_int([[1, 0], [entry, 1]])
        with pytest.raises(ValueError, match=r"entry \(1,0\)"):
            as_intmat([[1, 0], [entry, 1]])

    def test_refuses_unsigned_and_object_entries_int64_cannot_hold(self):
        for m in (np.array([[2 ** 63, 0], [0, 1]], dtype=np.uint64),
                  np.array([[2 ** 64, 0], [0, 1]], dtype=object),
                  np.array([[-2 ** 63 - 1, 0], [0, 1]], dtype=object)):
            with pytest.raises(ValueError, match=r"entry \(0,0\) = -?\d+ is not an integer"):
                as_intmat(m)

    def test_accepts_the_ends_of_int64_exactly(self):
        assert as_intmat(np.array([[2 ** 63 - 1]], dtype=np.uint64))[0, 0] == 2 ** 63 - 1
        assert as_intmat([[-2.0 ** 63]])[0, 0] == -2 ** 63
        # object-dtype Python ints convert exactly, not through float64
        assert as_intmat(np.array([[2 ** 62 + 1]], dtype=object))[0, 0] == 2 ** 62 + 1
        assert as_intmat([[2.0, True], [-0.0, 3]]).tolist() == [[2, 1], [0, 3]]


def dense_bareiss(a) -> int:
    """Reference Bareiss loop: every row below the pivot is recomputed at every step."""
    m = [[int(x) for x in row] for row in np.asarray(a)]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


class TestDetParity:
    """``det_int`` skips and rescales rows; each result must be the dense loop's."""

    def test_signed_permutations(self, rng):
        for d in range(1, 33):
            for _ in range(4):
                perm = rng.permutation(d)
                signs = rng.choice([-1, 1], size=d)
                m = np.zeros((d, d), dtype=np.int64)
                m[np.arange(d), perm] = signs
                cycles, seen = 0, np.zeros(d, dtype=bool)
                for start in range(d):
                    cycles += not seen[start]
                    i = start
                    while not seen[i]:
                        seen[i] = True
                        i = perm[i]
                expected = (-1) ** (d - cycles) * int(np.prod(signs))
                assert det_int(m) == dense_bareiss(m) == expected

    def test_bit_flip_witnesses(self):
        for n in range(1, 5):
            for e in bit_flips(n):
                w = np.kron(np.eye(2, dtype=np.int64), e)
                assert det_int(w) == dense_bareiss(w) == 1

    def test_random_sparse(self, rng):
        for _ in range(600):
            d = int(rng.integers(1, 13))
            mask = rng.random((d, d)) < rng.uniform(0.1, 0.5)
            m = rng.integers(-3, 4, size=(d, d)) * mask
            assert det_int(m) == dense_bareiss(m)

    def test_zero_pivot_columns_and_swaps(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 9))
            m = rng.integers(-3, 4, size=(d, d))
            k = int(rng.integers(0, d - 1))
            upper = m.copy()
            upper[k + 1:, k] = 0        # pivot column already clear below the diagonal
            swap = m.copy()
            swap[0, 0] = swap[k, k] = 0  # pivots that need a row swap
            for a in (upper, swap, np.triu(m), m[::-1]):
                assert det_int(a) == dense_bareiss(a)

    def test_singular_with_a_zero_column(self, rng):
        for d in range(1, 9):
            for _ in range(10):
                m = rng.integers(-3, 4, size=(d, d))
                m[:, int(rng.integers(0, d))] = 0
                assert det_int(m) == dense_bareiss(m) == 0

    def test_distinct_pivots_rescale_rows_they_skip(self, rng):
        # rows with m[i][k] == 0 meet p != prev: skipping them gives 5 for diag(2, 3, 5)
        assert det_int(np.diag([2, 3, 5])) == dense_bareiss(np.diag([2, 3, 5])) == 30
        assert det_int(np.diag([-2, 7, 1, -3])) == 42
        for _ in range(100):
            blocks = [rng.integers(-4, 5, size=(b, b)) for b in rng.integers(1, 4, size=3)]
            m = np.zeros((sum(len(b) for b in blocks),) * 2, dtype=np.int64)
            at = 0
            for b in blocks:
                m[at:at + len(b), at:at + len(b)] = b
                at += len(b)
            assert det_int(m) == dense_bareiss(m) == int(np.prod([dense_bareiss(b) for b in blocks]))


def unit_triangular_product(rng, n, r):
    """L @ U with unit triangular integer factors: determinant exactly 1."""
    low = np.eye(n, dtype=np.int64) + np.tril(rng.integers(-r, r + 1, size=(n, n)), -1)
    up = np.eye(n, dtype=np.int64) + np.triu(rng.integers(-r, r + 1, size=(n, n)), 1)
    return low @ up


class TestIsUnimodular:
    """``bareiss_calls`` counts the matrices the certificate leaves to Bareiss."""

    @pytest.fixture
    def bareiss_calls(self, monkeypatch):
        calls = []
        original = linalg.det_int

        def counting(a):
            calls.append(a)
            return original(a)

        monkeypatch.setattr(linalg, "det_int", counting)
        return calls

    def test_agrees_with_bareiss_on_random_matrices(self, rng):
        for _ in range(600):
            n = int(rng.integers(1, 9))
            m = rng.integers(-2, 3, size=(n, n))
            assert is_unimodular(m) == (abs(det_int(m)) == 1)

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


    def test_stack_agrees_with_bareiss(self, rng):
        for n in (1, 2, 4, 8):
            stack = rng.integers(-2, 3, size=(200, n, n))
            stack[:20] = [unit_triangular_product(rng, n, 2) for _ in range(20)]
            got = is_unimodular(stack)
            assert got.dtype == bool and got.shape == (200,)
            assert got.tolist() == [abs(det_int(m)) == 1 for m in stack]
            assert got[:20].all()

    def test_stack_falls_back_per_sample(self, monkeypatch):
        calls = []
        original = linalg.det_int
        monkeypatch.setattr(linalg, "det_int", lambda a: calls.append(a) or original(a))
        b = 2 ** 40
        stack = np.array([np.eye(2, dtype=np.int64), [[1, b], [0, 1]], [[2, b], [0, 1]], [[1, 5], [0, 1]]])
        assert is_unimodular(stack).tolist() == [True, True, False, True]
        assert len(calls) == 2
        # a singular matrix makes the stacked inverse fail: every sample goes to Bareiss
        calls.clear()
        stack[0] = 0
        assert is_unimodular(stack).tolist() == [False, True, False, True]
        assert len(calls) == 4


class TestStacks:
    """numpy's stacked calls give each matrix of a stack the bits it gets in
    a stack of one, which ``lattice.short_counts`` relies on to count what
    ``enumerate_short`` counts; ``check_nonsingular`` takes stacks."""

    def test_matmul_cholesky_svd_bits(self, rng):
        def steps(w):
            b = w.transpose(0, 2, 1)              # reduced bases, as lattice._reduce leaves them
            gram = b.transpose(0, 2, 1) @ b
            return gram, np.linalg.cholesky(gram), np.linalg.svd(b, compute_uv=False)

        for d in (2, 4, 8, 16):
            w = rng.normal(size=(50, d, d))
            stacked = steps(w)
            for i in range(50):
                for got, one in zip(stacked, steps(w[i:i + 1].copy())):
                    assert np.array_equal(got[i].view(np.int64), one[0].view(np.int64))

    def test_check_nonsingular_on_a_stack(self, rng):
        stack = rng.normal(size=(5, 3, 3))
        linalg.check_nonsingular(stack)
        stack[3] = 1e10 * np.arange(1.0, 10.0).reshape(3, 3)
        stack[4] = 0.0
        with pytest.raises(Singular) as one:
            linalg.check_nonsingular(stack[3])
        with pytest.raises(Singular) as many:
            linalg.check_nonsingular(stack)
        assert str(many.value) == str(one.value)

    def test_stacked_cholesky_fails_as_a_whole(self, rng):
        # linalg._well_conditioned proves a whole stack with one Cholesky call
        for n in (2, 4, 16):
            a = rng.normal(size=(6, n, n))
            spd = np.swapaxes(a, -1, -2) @ a + np.eye(n)
            np.linalg.cholesky(spd)
            for i in (0, 3, 5):
                for bad in (-np.eye(n), spd[i] - 2.0 * np.eye(n) * np.linalg.eigvalsh(spd[i])[0]):
                    stack = spd.copy()
                    stack[i] = bad
                    with pytest.raises(np.linalg.LinAlgError):
                        np.linalg.cholesky(stack)


def svd_rule(a):
    """The outcome ``check_nonsingular`` gives by the SVD alone: None, or (type, message)."""
    try:
        sv = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        return np.linalg.LinAlgError, str(exc)
    low, floor = sv[..., -1], a.shape[-1] * np.finfo(np.float64).eps * sv[..., 0]
    bad = low <= floor
    if not bad.any():
        return None
    i = np.argmax(bad)
    return Singular, (f"smallest singular value {low.flat[i]:.3e} is not above "
                      f"dim * eps * largest = {floor.flat[i]:.3e}")


def outcome(a):
    try:
        linalg.check_nonsingular(a)
    except (Singular, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)
    return None


def conditioned(rng, n, cond, count=1):
    """``count`` random n x n matrices with singular values spread from 1 to 1/cond."""
    q1 = np.linalg.qr(rng.normal(size=(count, n, n)))[0]
    q2 = np.linalg.qr(rng.normal(size=(count, n, n)))[0]
    return (q1 * np.logspace(0.0, -np.log10(cond), n)) @ q2


class TestRankCertificate:
    """``check_nonsingular`` runs the SVD only where the shifted-Cholesky
    certificate fails; the decision and the message stay the SVD's."""

    def test_svd_decides_where_the_unshifted_gram_factors(self, rng):
        # each Gram is diagonal or, up to a symmetric permutation, block
        # diagonal with one tiny 1 x 1 block, so it factors unshifted: a
        # certificate without its shift would pass every one of them
        cases = [np.diag([1.0, 1e-17]), np.stack([np.eye(3), np.diag([1.0, 1e-17, 1.0])])]
        for n in (2, 4, 8, 16, 32):
            for tiny in (1e-17, 1e-16):
                a = np.zeros((n, n))
                a[:-1, :-1] = rng.normal(size=(n - 1, n - 1)) + 2 * n * np.eye(n - 1)
                a[-1, -1] = tiny * np.linalg.norm(a, 2)
                cases += [a, a[rng.permutation(n)][:, rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n)]
        for a in cases:
            np.linalg.cholesky(np.swapaxes(a, -1, -2) @ a)
            expected = svd_rule(a)
            assert expected is not None and expected[0] is Singular
            assert outcome(a) == expected

    def test_no_false_passes(self, rng):
        passed = svd_singular = 0
        for n in (2, 4, 8, 16, 32):
            for cond in np.logspace(0, 17, 35):
                stack = conditioned(rng, n, cond, count=8)
                for a in (stack, *stack):
                    sv = np.linalg.svd(a, compute_uv=False)
                    svd_passes = (sv[..., -1] > n * np.finfo(np.float64).eps * sv[..., 0]).all()
                    svd_singular += not svd_passes
                    if linalg._well_conditioned(a):
                        passed += 1
                        assert svd_passes
                        assert (sv[..., -1] >= n * np.sqrt(np.finfo(np.float64).eps) * sv[..., 0]).all()
        assert passed > 500 and svd_singular > 100

    def test_passes_on_well_conditioned_stacks(self, rng):
        for n in (2, 4, 8, 16, 32):
            assert linalg._well_conditioned(conditioned(rng, n, 100.0, count=50))
            assert linalg._well_conditioned(rng.normal(size=(n, n)) + 4 * n * np.eye(n))

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e-155, 1e-150, 1e150, 1e155, 1e160])
    def test_extremes_give_the_svd_outcome(self, rng, scale):
        # the suite turns warnings into errors, so these also show none
        for a in (scale * rng.normal(size=(4, 4)), scale * conditioned(rng, 4, 1e17)[0],
                  scale * np.diag([1.0, 1e-17]), scale * rng.normal(size=(5, 3, 3))):
            assert outcome(a) == svd_rule(a)

    def test_underflow_proves_nothing(self, rng):
        # rank-one matrices whose Gram entries are subnormal: rounding can
        # leave that Gram positive definite, and tau underflows to 0
        factored = 0
        for _ in range(200):
            a = 10.0 ** rng.uniform(-161, -158) * np.outer(rng.normal(size=2), rng.normal(size=2))
            with np.errstate(all="ignore"):
                try:
                    np.linalg.cholesky(a.T @ a)
                    factored += 1
                except np.linalg.LinAlgError:
                    pass
            assert outcome(a) == svd_rule(a) and svd_rule(a)[0] is Singular
        assert factored >= 5

    def test_a_factor_that_is_not_finite_proves_nothing(self, monkeypatch):
        # OpenBLAS's Cholesky returns NaN, rather than raising, once NaN
        # reaches a pivot; overflow inside the factorisation can get there
        monkeypatch.setattr(np.linalg, "cholesky", lambda h: np.full(h.shape, np.nan))
        assert not linalg._well_conditioned(np.eye(3))

    def test_nan_and_inf_give_the_svd_outcome(self, rng):
        stack = rng.normal(size=(5, 3, 3))
        stack[2, 1, 1] = np.nan
        assert not linalg._well_conditioned(stack)
        assert outcome(stack) == svd_rule(stack) == (np.linalg.LinAlgError, "SVD did not converge")
        for bad in (np.nan, np.inf, -np.inf):
            a = np.eye(3)
            a[0, 2] = bad
            assert not linalg._well_conditioned(a)
            assert outcome(a) == svd_rule(a)


def triangular(rng, n, cond, count):
    """``count`` upper-triangular n x n matrices with singular values spread
    from 1 to 1/cond (R of ``conditioned``'s QR), every other one with its
    strictly upper part scaled up to skew it."""
    r = np.linalg.qr(conditioned(rng, n, cond, count))[1]
    r[1::2] += np.triu(r[1::2], 1) * rng.uniform(0.0, 3.0, size=(count // 2, 1, 1))
    return r


def triangular_outcome(a):
    """``outcome`` with the caller's word that every matrix is upper triangular."""
    try:
        linalg.check_nonsingular(a, upper=True)
    except (Singular, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)
    return None


@pytest.fixture
def cholesky_calls(monkeypatch):
    calls = []
    original = np.linalg.cholesky

    def counting(a):
        calls.append(a.shape)
        return original(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    return calls


class TestTriangularCertificate:
    """An upper-triangular stack first tries the comparison-matrix
    certificate, which calls no LAPACK; where it proves nothing the
    Cholesky certificate and then the SVD decide, as for any stack."""

    def test_sound_wherever_it_passes(self, rng):
        eps = np.finfo(np.float64).eps
        passed = failed = 0
        for n in (2, 4, 8, 16, 32):
            for cond in np.logspace(0, 17, 35):
                stack = triangular(rng, n, cond, count=8)
                for a in (stack, *stack):
                    if linalg._triangular_certificate(a):
                        passed += 1
                        sv = np.linalg.svd(a, compute_uv=False)
                        assert (sv[..., -1] >= n * np.sqrt(eps) * sv[..., 0]).all()
                    else:
                        failed += 1
                    assert triangular_outcome(a) == outcome(a)
        assert passed > 300 and failed > 1000

    def test_sound_where_the_bound_is_nearly_tight(self):
        # A^-1 = [[I, c e], [0, c]]: M(A) = A, and 2 sqrt(n) ||A^-1||_inf
        # ||A||_F is within about 2 sqrt(2) of the condition number, so a
        # bound without its sqrt(n) would pass some of these at n >= 16
        # whose sigma_min is below n sqrt(eps) sigma_max
        eps = np.finfo(np.float64).eps
        for n in (2, 4, 8, 16, 32):
            passed = 0
            for c in np.logspace(3, 9, 200):
                a = np.eye(n)
                a[:-1, -1] = -1.0
                a[-1, -1] = 1.0 / c
                sv = np.linalg.svd(a, compute_uv=False)
                if linalg._triangular_certificate(a):
                    passed += 1
                    assert sv[-1] >= n * np.sqrt(eps) * sv[0]
            assert 20 < passed < 200

    @pytest.mark.parametrize("g", [2, 4, 8, 16])
    def test_k_family_stacks_pass_below_the_cholesky_path(self, g, cholesky_calls):
        # the estimator's P_Z: every stack here passes without LAPACK, up to
        # y = 100 below g = 16; at g = 16 and y = 100 the bound is about 6.7
        # times its threshold, and the Cholesky certificate passes the stack
        for y in (0.5, 8.0, 100.0):
            b = k_family_bases(k_symmetric_stack(g, vcube_wedges(g, 1, 0, 64)), y)
            linalg.check_nonsingular(b, upper=True)
            assert linalg._triangular_certificate(b) == (g < 16 or y < 100.0)
        assert len(cholesky_calls) == (g == 16)

    @pytest.mark.parametrize("g", [2, 4, 8, 16])
    @pytest.mark.parametrize("y", [1e3, 1e4, 1e8])
    def test_large_heights_fall_back_to_the_same_verdict(self, g, y, cholesky_calls):
        b = k_family_bases(k_symmetric_stack(g, vcube_wedges(g, 1, 0, 64)), y)
        proved = linalg._triangular_certificate(b)
        assert proved == ((g, y) == (2, 1e3))
        verdict = triangular_outcome(b)
        assert len(cholesky_calls) == (not proved)
        assert verdict == outcome(b)
        assert (verdict is not None) == (y == 1e8)

    def test_bad_input_proves_nothing(self, rng):
        a = np.triu(rng.normal(size=(5, 4, 4))) + 8 * np.eye(4)
        assert linalg._triangular_certificate(a)
        cases = [np.zeros((0, 4, 4))]
        for i, j, bad in [(1, 1, np.nan), (0, 3, np.nan), (0, 2, np.inf), (3, 3, -np.inf), (2, 2, 0.0),
                          (0, 0, 1e-320), (0, 1, 1e200)]:
            b = a.copy()
            b[3, i, j] = bad
            cases += [b, b[3]]
        cases += [1e-170 * a, 1e170 * a]
        for b in cases:
            assert not linalg._triangular_certificate(b)
            assert triangular_outcome(b) == outcome(b)


class TestIsOrthogonal:
    def test_identity(self):
        assert is_orthogonal(np.eye(3))

    def test_alternating_antidiagonal(self):
        from symplat import k_matrix

        assert is_orthogonal(k_matrix(4).astype(float))

    def test_shear_is_not(self):
        assert not is_orthogonal([[1.0, 1.0], [0.0, 1.0]])

    def test_threshold_is_the_rounding_tolerance(self):
        assert is_orthogonal([[1.0 + 4e-7, 0.0], [0.0, 1.0]])
        assert not is_orthogonal([[1.0 + 6e-7, 0.0], [0.0, 1.0]])


class TestRoundToInt:
    def test_identity(self):
        assert np.array_equal(round_to_int(np.eye(3)), np.eye(3, dtype=np.int64))

    def test_near_integer(self):
        got = round_to_int([[1.0000009, 0.0], [0.0, 1.0]])
        assert np.array_equal(got, np.eye(2, dtype=np.int64))

    def test_rejects_beyond_the_rounding_threshold(self):
        with pytest.raises(NotIntegral):
            round_to_int([[1.0000011, 0.0], [0.0, 1.0]])

    def test_rejects_half_integer(self):
        with pytest.raises(NotIntegral):
            round_to_int([[0.5, 0.0], [0.0, 1.0]])

    def test_message_quotes_the_entry_as_a_python_float(self):
        # numpy 2 reprs a scalar as np.float64(...), numpy 1.x does not;
        # error records must read the same under both
        with pytest.raises(NotIntegral) as exc:
            round_to_int([[1.0, 0.0], [0.0, 1.3]])
        assert str(exc.value) == "entry (1,1) = 1.3 is 3.000e-01 from an integer"


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
        obj = json.loads(json.dumps(intmat_to_obj(m)))
        assert obj["dim"] == 2
        assert all(type(x) is int for row in obj["rows"] for x in row)
        assert np.array_equal(as_intmat(obj["rows"]), m)

    def test_schema_errors(self):
        from symplat.errors import SchemaError

        with pytest.raises(SchemaError):
            mat_from_obj({"dim": 2, "rows": [[1.0, 2.0]]})
        with pytest.raises(SchemaError):
            mat_from_obj({"rows": [[1.0]]})

    def test_boolean_dim_is_refused(self):
        from symplat.errors import SchemaError

        with pytest.raises(SchemaError, match="dim"):
            mat_from_obj({"dim": True, "rows": [[2.0]]})
