import dataclasses

import numpy as np
import pytest

from symplat import symplectic
from symplat import (
    a2n_family_point,
    enumerate_short,
    from_basis,
    is_symplectic,
    j_generator,
    k_family_point,
    k_prime,
    p_z,
    sample_vcube,
    siegel_point,
    SiegelPoint,
    sym_eig,
    systole,
    verify_kprime,
    verify_a2n_symmetries,
)
from symplat.errors import NotSPD, NotSymmetric, OddDimension, OutOfRange
from symplat.patterned import KSymParams, ksym_region

from conftest import random_spd


def random_siegel(rng, g):
    x = rng.normal(size=(g, g))
    return siegel_point(0.5 * (x + x.T), random_spd(rng, g))


class TestSiegelPoint:
    def test_symmetrized_storage(self, rng):
        z = random_siegel(rng, 3)
        assert np.array_equal(z.x, z.x.T)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            siegel_point([[0.0, 1.0], [0.0, 0.0]], np.eye(2))

    def test_rejects_indefinite(self):
        with pytest.raises(NotSPD):
            siegel_point(np.zeros((2, 2)), np.diag([1.0, -1.0]))

    def test_y_symmetry_threshold_scales_with_y(self):
        small = 1e-8 * np.eye(2)
        small[0, 1] += 5e-10
        with pytest.raises(NotSymmetric):
            siegel_point(np.zeros((2, 2)), small)
        large = 1e8 * np.eye(2)
        large[0, 1] += 1e-8
        assert np.array_equal(siegel_point(np.zeros((2, 2)), large).y, large)

    def test_x_symmetry_threshold_scales_with_x(self):
        small = np.array([[1e-8, 5e-10], [0.0, 1e-8]])
        with pytest.raises(ValueError, match="X asymmetry"):
            siegel_point(small, np.eye(2))
        large = np.array([[1e8, 1e-8], [0.0, 1e8]])
        z = siegel_point(large, np.eye(2))
        assert np.array_equal(z.x, 0.5 * (large + large.T))

    def test_checks_run_in_order(self):
        bad_x = [[0.0, 1.0], [0.0, 0.0]]
        bad_y = [[1.0, 1.0], [0.0, 1.0]]
        with pytest.raises(ValueError, match="must both be"):
            siegel_point(np.zeros((3, 3)), bad_y)
        with pytest.raises(ValueError, match="X asymmetry"):
            siegel_point(bad_x, bad_y)
        with pytest.raises(NotSymmetric):
            siegel_point(np.zeros((2, 2)), [[-1.0, 1.0], [0.0, 1.0]])

    def test_stored_matrices_are_read_only_copies(self):
        x = np.zeros((2, 2))
        y = np.eye(2)
        z = SiegelPoint(2, x, y)
        x[0, 0] = y[0, 0] = 5.0
        assert z.x[0, 0] == 0.0 and z.y[0, 0] == 1.0
        for a in (z.x, z.y, *z.eig):
            assert not a.flags.writeable


class TestValidByConstruction:
    """Every SiegelPoint is checked where it is made, ``replace`` included."""

    def test_replace_runs_the_checks(self, rng):
        z = random_siegel(rng, 3)
        with pytest.raises(ValueError, match="X asymmetry"):
            dataclasses.replace(z, x=np.triu(np.ones((3, 3))))
        with pytest.raises(NotSymmetric):
            dataclasses.replace(z, y=np.triu(np.ones((3, 3))))
        with pytest.raises(NotSPD):
            dataclasses.replace(z, y=-z.y)
        with pytest.raises(ValueError, match="must both be"):
            dataclasses.replace(z, g=2)

    def test_direct_construction_runs_the_checks(self):
        with pytest.raises(NotSPD):
            SiegelPoint(2, np.zeros((2, 2)), np.diag([1.0, 0.0]))

    def test_basis_and_witnesses_check_nothing_again(self, monkeypatch):
        z = k_family_point(sample_vcube(4, 3), 1.3)
        za = a2n_family_point([0.1, 0.2, 0.3, 0.4], [4.0, 0.5, 0.25, 0.1])

        def refuse(*args):
            raise AssertionError("the point was checked again")

        for name in ("check_symmetric", "check_spd", "sym_eig"):
            monkeypatch.setattr(symplectic, name, refuse)
        p_z(z)
        verify_kprime(z)
        verify_a2n_symmetries(za)


class TestPz:
    def test_trivial_point(self):
        z = siegel_point(np.zeros((3, 3)), np.eye(3))
        assert np.allclose(p_z(z), np.eye(6))

    def test_g1_closed_form(self):
        x, y = 0.7, 1.9
        z = siegel_point([[x]], [[y * y]])
        expected = np.array([[1.0 / y, x / y], [0.0, y]])
        assert p_z(z) == pytest.approx(expected, abs=1e-12)

    def test_symplectic_and_unit_det(self, rng):
        for g in (1, 2, 3, 4, 8):
            for _ in range(20):
                basis = p_z(random_siegel(rng, g))
                assert is_symplectic(basis)
                assert abs(np.linalg.det(basis) - 1.0) <= 1e-9


class TestIsSymplectic:
    def test_identity(self):
        assert is_symplectic(np.eye(4))

    def test_diagonal_stretch_is_not(self):
        assert not is_symplectic(np.diag([2.0, 1.0]))

    def test_odd_dimension(self):
        with pytest.raises(OddDimension):
            is_symplectic(np.eye(3))


class TestSampleVcube:
    def test_reproducible(self):
        a = sample_vcube(4, 123, 7)
        b = sample_vcube(4, 123, 7)
        assert a == b

    def test_distinct_indices_differ(self):
        assert sample_vcube(4, 123, 0) != sample_vcube(4, 123, 1)

    def test_count_and_range(self):
        p = sample_vcube(8, 5)
        assert len(p.values) == len(ksym_region(8))
        assert set(p.values) == set(ksym_region(8))
        assert all(0.0 <= v <= 1.0 for v in p.values.values())


class TestKFamily:
    def test_zero_params_unit_height(self):
        p = KSymParams(2, {(1, 1): 0.0, (1, 2): 0.0})
        z = k_family_point(p, 1.0)
        assert np.array_equal(z.x, np.zeros((2, 2)))
        assert np.array_equal(z.y, np.eye(2))

    def test_g2_shape(self):
        z = k_family_point(KSymParams(2, {(1, 1): 0.3, (1, 2): 0.8}), 2.0)
        assert np.array_equal(z.x, [[0.3, 0.8], [0.8, -0.3]])
        assert np.allclose(z.y, np.eye(2) / 4.0)

    def test_commutation(self, rng):
        for g in (2, 4):
            for i in range(5):
                z = k_family_point(sample_vcube(g, 31, i), float(rng.uniform(0.5, 2.0)))
                basis = p_z(z)
                kp = k_prime(g).astype(float)
                assert np.max(np.abs(kp @ basis - basis @ kp)) <= 1e-9

    def test_rejects_bad_height(self):
        with pytest.raises(OutOfRange):
            k_family_point(sample_vcube(2, 0), 0.0)

    def test_verify_kprime(self, rng):
        for g in (2, 4):
            z = k_family_point(sample_vcube(g, 77), 1.1)
            w = verify_kprime(z)
            assert w.residual <= 1e-9
            assert np.array_equal(w.r, k_prime(g))
            r = w.r
            assert np.array_equal(r @ r, -np.eye(2 * g, dtype=np.int64))
            assert np.array_equal(r @ r @ r @ r, np.eye(2 * g, dtype=np.int64))

    def test_verify_kprime_trivial_point(self):
        p = KSymParams(2, {key: 0.0 for key in ksym_region(2)})
        w = verify_kprime(k_family_point(p, 1.0))
        assert np.array_equal(w.r, k_prime(2))
        assert w.residual == 0.0

    def test_bucket_counts_divisible_by_four(self):
        for g, seed in ((2, 11), (4, 12)):
            z = k_family_point(sample_vcube(g, seed), 1.0)
            lat = from_basis(p_z(z))
            s2, _ = systole(lat)
            rep = enumerate_short(lat, 2.0 * s2)
            assert rep.count > 0
            for count in rep.histogram.values():
                assert count % 4 == 0


class TestEigReuse:
    """p_z builds on the eigendecomposition siegel_point already made."""

    @staticmethod
    def count_sym_eig(monkeypatch):
        calls = []
        real = symplectic.sym_eig

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(symplectic, "sym_eig", counting)
        return calls

    def test_one_decomposition_per_point(self, rng, monkeypatch):
        calls = self.count_sym_eig(monkeypatch)
        z = random_siegel(rng, 4)
        p_z(z)
        p_z(z)
        assert len(calls) == 1

    def test_one_decomposition_per_a2n_verification(self, rng, monkeypatch):
        calls = self.count_sym_eig(monkeypatch)
        s_row = rng.uniform(0, 1, size=8)
        s_row[0] += 8
        z = a2n_family_point(rng.uniform(0, 1, size=8), s_row)
        verify_a2n_symmetries(z)
        p_z(z)
        assert len(calls) == 1

    def test_bit_equal_to_a_fresh_decomposition(self, rng):
        for g in (1, 2, 4, 8):
            z = random_siegel(rng, g)
            q, d = sym_eig(z.y)
            root = np.sqrt(d)
            sqrt_y_inv = (q / root) @ q.T
            expected = np.zeros((2 * g, 2 * g))
            expected[:g, :g] = sqrt_y_inv
            expected[:g, g:] = sqrt_y_inv @ z.x
            expected[g:, g:] = (q * root) @ q.T
            assert np.array_equal(p_z(z).view(np.int64), expected.view(np.int64))

    def test_point_built_without_decomposition(self, rng):
        z = random_siegel(rng, 3)
        bare = SiegelPoint(z.g, z.x, z.y)
        assert np.array_equal(bare.x, z.x) and np.array_equal(bare.y, z.y)
        assert "eig" not in repr(bare)
        assert np.array_equal(p_z(bare), p_z(z))

    def test_replace_recomputes_the_decomposition(self, rng):
        z = random_siegel(rng, 3)
        moved = dataclasses.replace(z, y=2 * z.y)
        assert np.array_equal(p_z(moved), p_z(siegel_point(z.x, 2 * z.y)))

    def test_decomposition_is_not_a_constructor_argument(self, rng):
        z = random_siegel(rng, 2)
        with pytest.raises(TypeError):
            SiegelPoint(z.g, z.x, z.y, eig=z.eig)


class TestLargeHeight:
    def test_k_family_point_at_height_1e5(self):
        y = 1e5
        params = sample_vcube(4, 1, 0)
        z = k_family_point(params, y)
        g = z.g
        expected = np.zeros((2 * g, 2 * g))
        expected[:g, :g] = y * np.eye(g)
        expected[:g, g:] = y * z.x
        expected[g:, g:] = np.eye(g) / y
        np.testing.assert_allclose(p_z(z), expected, rtol=1e-12, atol=0.0)

    def test_spd_floor_is_relative(self):
        assert siegel_point(np.zeros((2, 2)), 1e-12 * np.eye(2)).g == 2
        with pytest.raises(NotSPD):
            siegel_point(np.zeros((2, 2)), np.diag([1.0, 1e-12]))


class TestA2nFamily:
    def test_trivial_point(self):
        z = a2n_family_point([0.0, 0.0], [1.0, 0.0])
        assert np.array_equal(z.x, np.zeros((2, 2)))
        assert np.array_equal(z.y, np.eye(2))

    def test_rejects_indefinite_sqrt_row(self):
        with pytest.raises(NotSPD):
            a2n_family_point([0.0, 0.0], [0.0, 1.0])

    def test_block_commutation(self, rng):
        for n in (1, 2, 3):
            g = 2 ** n
            x_row = rng.uniform(0, 1, size=g)
            s_row = rng.uniform(0, 1, size=g)
            s_row[0] += g  # dominant diagonal keeps the Walsh spectrum positive
            z = a2n_family_point(x_row, s_row)
            basis = p_z(z)
            for k in range(1, n + 1):
                jk = j_generator(n, k).astype(float)
                o = np.block([[jk, np.zeros((g, g))], [np.zeros((g, g)), jk]])
                assert np.max(np.abs(o @ basis @ o - basis)) <= 1e-9

    def test_x_y_commute(self, rng):
        g = 8
        x_row = rng.uniform(0, 1, size=g)
        s_row = rng.uniform(0, 1, size=g)
        s_row[0] += g
        z = a2n_family_point(x_row, s_row)
        scale = np.max(np.abs(z.x)) * np.max(np.abs(z.y))
        assert np.max(np.abs(z.x @ z.y - z.y @ z.x)) <= 1e-9 * scale

    def test_verify_a2n_symmetries_counts(self, rng):
        for n in (2, 3):
            g = 2 ** n
            x_row = rng.uniform(0, 1, size=g)
            s_row = rng.uniform(0, 1, size=g)
            s_row[0] += g
            witnesses = verify_a2n_symmetries(a2n_family_point(x_row, s_row))
            assert len(witnesses) == g - 1
            assert max(w.residual for w in witnesses) <= 1e-9

    def test_verify_a2n_symmetries_trivial_point(self):
        z = a2n_family_point([0.0] * 4, [1.0, 0.0, 0.0, 0.0])
        for w in verify_a2n_symmetries(z):
            e = w.r[:4, :4]
            assert np.array_equal(w.r[4:, 4:], e)
            assert np.array_equal(w.o, w.r.astype(float))

