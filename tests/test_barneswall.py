import numpy as np
import pytest

from symplat import (
    a2n_from_row,
    bw_complex,
    bw_lattice,
    bw_prime,
    from_basis,
    j_matrix,
    lattice_det,
    realify,
    symmetry_pattern,
    systole,
)
from symplat.linalg import det_int


class TestBwComplex:
    def test_base_case(self):
        m = bw_complex(1)
        assert m.dtype == np.complex128
        assert np.array_equal(m, [[1, 1], [1, 1j]])

    def test_square_corner(self):
        m = bw_complex(2)
        assert m.shape == (4, 4)
        # bottom-right entry is i*i = -1
        assert m[3, 3] == -1.0

    def test_matches_complex_kron(self):
        base = np.array([[1.0, 1.0], [1.0, 1j]])
        ref = np.kron(np.kron(base, base), base)
        assert np.array_equal(bw_complex(3), ref)


class TestRealify:
    def test_imaginary_unit(self):
        got = realify([[1j]])
        assert np.array_equal(got, [[0.0, 1.0], [-1.0, 0.0]])

    def test_identity(self):
        got = realify(np.eye(3))
        assert np.array_equal(got, np.eye(6))

    def test_base_generator(self):
        got = realify(bw_complex(1))
        expected = np.array(
            [
                [1, 0, 1, 0],
                [0, 1, 0, 1],
                [1, 0, 0, 1],
                [0, 1, -1, 0],
            ],
            dtype=float,
        )
        assert np.array_equal(got, expected)

    def test_multiplicative(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.allclose(realify(a) @ realify(b), realify(a @ b))


class TestBwPrime:
    def test_same_lattice(self):
        for n in (1, 2, 3):
            b = realify(bw_complex(n))
            bp = bw_prime(n)
            change = np.linalg.solve(b, bp)
            r = np.rint(change)
            assert np.max(np.abs(change - r)) <= 1e-9
            assert abs(det_int(r)) == 1

    def test_det_preserved(self):
        for n in (1, 2):
            assert abs(np.linalg.det(bw_prime(n))) == pytest.approx(
                abs(np.linalg.det(realify(bw_complex(n)))), rel=1e-12
            )

    def test_diagonal_reflection(self):
        # the alternative bases are symmetric at every size; that is the
        # reflection symmetry they share with the XOR-patterned class
        for n in (1, 2, 3):
            rep = symmetry_pattern(bw_prime(n))
            assert rep.is_symmetric


class TestBwLattice:
    def test_minimal_norms(self):
        for n, g in ((1, 4), (2, 8), (3, 16)):
            lat = bw_lattice(n)
            assert lat.dim == g
            assert lattice_det(lat) == pytest.approx(1.0, rel=1e-12)
            s2, _ = systole(lat)
            assert s2 == pytest.approx(np.sqrt(g / 2.0), rel=1e-6)

    def test_kissing_numbers(self):
        # 24, 240, 4320 short vectors at the minimum (both signs counted)
        expected = {1: 24, 2: 240, 3: 4320}
        for n, kiss in expected.items():
            _, count = systole(bw_lattice(n))
            assert count == kiss

    def test_kissing_number_on_scrambled_bases(self):
        # Scrambles as in the bw16-shells benchmark workload (seeds 1-8).
        # Float noise in the scrambled norms straddles a 12-digit rounding
        # boundary of sqrt(8); the shell must still count all 4320 vectors.
        lat = bw_lattice(3)
        for seed in range(1, 9):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0, 1))))
            low = np.eye(16, dtype=np.int64) + np.tril(rng.integers(-1, 2, size=(16, 16)), -1)
            up = np.eye(16, dtype=np.int64) + np.triu(rng.integers(-1, 2, size=(16, 16)), 1)
            s2, count = systole(from_basis(lat.basis @ (low @ up)))
            assert s2 == pytest.approx(np.sqrt(8.0), rel=1e-9)
            assert count == 4320

    @pytest.mark.slow
    def test_minimal_norm_g32(self, bw32_systole):
        s2, count = bw32_systole
        assert s2 == pytest.approx(4.0, rel=1e-6)
        assert count == 146880

    def test_basis_columns_are_minimal(self):
        for n in (1, 2, 3):
            lat = bw_lattice(n)
            s2, _ = systole(lat)
            col_norms = np.sum(np.asarray(lat.basis) ** 2, axis=0)
            assert np.max(np.abs(col_norms - s2)) <= 1e-9 * s2


class TestSymmetryPattern:
    def test_patterned_matrix(self, rng):
        rep = symmetry_pattern(a2n_from_row(rng.normal(size=4)))
        assert rep.is_symmetric
        assert rep.is_persymmetric
        assert rep.j_conjugation == {1: True, 2: True}

    def test_antidiagonal(self):
        rep = symmetry_pattern(j_matrix(4).astype(float))
        assert rep.is_symmetric
        assert rep.is_persymmetric

    def test_generic_matrix(self, rng):
        rep = symmetry_pattern(rng.normal(size=(8, 8)))
        assert not rep.is_symmetric
        assert not rep.is_persymmetric
        assert not any(rep.j_conjugation.values())

    def test_non_power_of_two_omits_conjugation(self, rng):
        rep = symmetry_pattern(np.eye(6))
        assert rep.j_conjugation == {}
