import sys

import numpy as np
import pytest

from symplat import (
    a2n_family_point,
    a2n_from_row,
    circulant_from_row,
    count_symmetries,
    cyclic_shift,
    from_basis,
    induced_change_of_basis,
    j_matrix,
    p_z,
    verify_a2n_symmetries,
)
from symplat import symmetry
from symplat.errors import NotASymmetry, NotIntegral, NotUnimodular
from symplat.groups import bit_flips
from symplat.linalg import det_int, round_to_int

from conftest import random_a2n_row, random_circulant_row


def cyclic_candidates(g):
    c = cyclic_shift(g).astype(float)
    out = []
    power = np.eye(g)
    for _ in range(g - 1):
        power = power @ c
        out.append(power.copy())
    return out


class TestInducedChangeOfBasis:
    def test_identity_basis_signed_permutation(self):
        o = np.array([[0.0, -1.0], [1.0, 0.0]])
        w = induced_change_of_basis(from_basis(np.eye(2)), o)
        assert np.array_equal(w.r, np.array([[0, -1], [1, 0]], dtype=np.int64))
        assert w.residual == 0.0

    def test_circulant_shift_symmetry(self):
        # row must have no vanishing Fourier coefficient, else the
        # circulant is singular; [2,1,0,0] gives |eigenvalues| >= 1
        a = circulant_from_row([2.0, 1.0, 0.0, 0.0])
        assert abs(np.linalg.det(a)) > 0.1
        c = cyclic_shift(4).astype(float)
        # circulants commute with the shift, so each power witnesses itself
        lat = from_basis(a)
        w = induced_change_of_basis(lat, c)
        assert np.array_equal(w.r, cyclic_shift(4))
        assert w.residual <= 1e-12
        w_inv = induced_change_of_basis(lat, c.T)
        assert np.array_equal(w_inv.r, cyclic_shift(4).T)

    def test_rejects_non_symmetry(self):
        with pytest.raises(NotASymmetry):
            induced_change_of_basis(from_basis(np.diag([1.0, 2.0])), j_matrix(2).astype(float))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(NotASymmetry):
            induced_change_of_basis(from_basis(np.eye(2)), [[1.0, 1.0], [0.0, 1.0]])

    def test_rejects_a_change_of_basis_that_is_not_unimodular(self, monkeypatch):
        # an integral R from an orthogonal O is unimodular, so only a failed
        # exact check reaches the error; the message quotes Bareiss's det R
        monkeypatch.setattr(symmetry, "is_unimodular", lambda r: False)
        lat = from_basis(np.eye(2))
        o = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(NotUnimodular, match=r"^induced matrix has determinant 1$"):
            induced_change_of_basis(lat, o)
        assert count_symmetries(lat, [o]) == (0, [])

    def test_witness_soundness(self, rng):
        for _ in range(20):
            g = int(rng.integers(3, 9))
            row = random_circulant_row(rng, g)
            a = circulant_from_row(row)
            k = int(rng.integers(1, g))
            o = np.linalg.matrix_power(cyclic_shift(g).astype(float), k)
            w = induced_change_of_basis(from_basis(a), o)
            assert abs(det_int(w.r)) == 1
            resid = np.max(np.abs(w.o @ a - a @ w.r.astype(float)))
            assert resid <= 1e-9 * np.max(np.abs(a))

    def test_witness_composition(self, rng):
        g = 6
        lat = from_basis(circulant_from_row(random_circulant_row(rng, g)))
        c = cyclic_shift(g).astype(float)
        w1 = induced_change_of_basis(lat, c)
        w2 = induced_change_of_basis(lat, c @ c)
        w12 = induced_change_of_basis(lat, c @ (c @ c))
        assert np.array_equal(w12.r, w1.r @ w2.r)


class TestCountSymmetries:
    def test_circulant_full_count(self, rng):
        g = 5
        lat = from_basis(circulant_from_row(random_circulant_row(rng, g)))
        count, witnesses = count_symmetries(lat, cyclic_candidates(g))
        assert count == g - 1
        assert len(witnesses) == g - 1

    def test_circulant_counts_sweep(self, rng):
        for g in range(3, 13):
            lat = from_basis(circulant_from_row(random_circulant_row(rng, g)))
            count, _ = count_symmetries(lat, cyclic_candidates(g))
            assert count == g - 1, g

    def test_patterned_count(self, rng):
        for n in (2, 3, 4):
            lat = from_basis(a2n_from_row(random_a2n_row(rng, 2 ** n)))
            count, witnesses = count_symmetries(lat, bit_flips(n))
            assert count == 2 ** n - 1
            for w in witnesses:
                # involutions witness themselves
                assert np.array_equal(w.r.astype(float), w.o)

    def test_plus_minus_identity_filtered(self):
        count, witnesses = count_symmetries(from_basis(np.eye(2)), [-np.eye(2), np.eye(2)])
        assert count == 0
        assert witnesses == []

    def test_failures_not_counted(self):
        lat = from_basis(np.diag([1.0, 2.0]))
        count, _ = count_symmetries(lat, [j_matrix(2).astype(float)])
        assert count == 0

    def test_mixed_candidates(self):
        # each kind of candidate the filters and the witness stages drop,
        # next to the three shifts that witness a circulant's symmetries
        lat = from_basis(circulant_from_row([2.0, 1.0, 0.0, 0.0]))
        shifts = cyclic_candidates(4)
        t = np.pi / 6
        rotation = np.eye(4)
        rotation[:2, :2] = [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
        cands = [np.eye(4) + np.triu(np.ones((4, 4)), 1),   # not orthogonal
                 shifts[0],
                 rotation,                                  # orthogonal, R not integral
                 np.eye(4), -np.eye(4),                     # +-Id
                 shifts[1],
                 cyclic_shift(3).astype(float),             # wrong dimension
                 j_matrix(4).astype(float),                 # orthogonal, not a symmetry
                 shifts[2]]
        count, witnesses = count_symmetries(lat, cands)
        assert count == 3
        assert [w.o.tolist() for w in witnesses] == [m.tolist() for m in shifts]
        with pytest.raises(NotASymmetry, match="not orthogonal"):
            induced_change_of_basis(lat, cands[0])
        with pytest.raises(NotASymmetry, match="not integral"):
            induced_change_of_basis(lat, rotation)
        with pytest.raises(ValueError, match="share one dimension"):
            induced_change_of_basis(lat, cands[6])


def xor_point(rng, g):
    s_row = rng.uniform(0.0, 1.0, size=g)
    s_row[0] += g
    return a2n_family_point(rng.uniform(0.0, 1.0, size=g), s_row)


class TestLatticeWitnesses:
    """A witness reads the basis ``from_basis`` checked once: the rank is
    checked once per lattice, and R and the residual keep the bits of
    A^-1 O A computed with ``np.linalg.inv``."""

    @staticmethod
    def assert_reference_bits(a, witnesses):
        for w in witnesses:
            r = np.round(np.linalg.inv(a) @ w.o @ a).astype(np.int64)
            residual = float(np.max(np.abs(w.o @ a - a @ r.astype(np.float64))))
            assert np.array_equal(w.r, r)
            assert np.float64(w.residual).view(np.int64) == np.float64(residual).view(np.int64)

    def test_bits_match_the_reference(self, rng):
        for g in (4, 8):
            for _ in range(5):
                z = xor_point(rng, g)
                witnesses = verify_a2n_symmetries(z)
                assert len(witnesses) == g - 1
                self.assert_reference_bits(p_z(z), witnesses)
        for g in (3, 5, 8):
            a = circulant_from_row(random_circulant_row(rng, g))
            count, witnesses = count_symmetries(from_basis(a), cyclic_candidates(g))
            assert count == g - 1
            self.assert_reference_bits(a, witnesses)
            # a rejection quotes the raw entry of A^-1 O A
            o = j_matrix(g).astype(float)
            with pytest.raises(NotIntegral) as ref:
                round_to_int(np.linalg.inv(a) @ o @ a)
            with pytest.raises(NotASymmetry) as got:
                induced_change_of_basis(from_basis(a), o)
            assert str(got.value) == f"induced change of basis is not integral: {ref.value}"

    @pytest.fixture
    def rank_checks(self, monkeypatch):
        from symplat import linalg

        calls = []
        original = linalg.check_nonsingular

        def counting(a):
            calls.append(a.shape)
            return original(a)

        for name, module in list(sys.modules.items()):
            if name.startswith("symplat.") and hasattr(module, "check_nonsingular"):
                monkeypatch.setattr(module, "check_nonsingular", counting)
        return calls

    def test_one_rank_check_per_call(self, rng, rank_checks):
        for g in (4, 8):
            verify_a2n_symmetries(xor_point(rng, g))
            assert rank_checks == [(2 * g, 2 * g)]
            rank_checks.clear()
        a = circulant_from_row(random_circulant_row(rng, 6))
        count, _ = count_symmetries(from_basis(a), cyclic_candidates(6))
        assert count == 5
        assert rank_checks == [(6, 6)]

    def test_one_basis_inverse_per_lattice(self, rng, monkeypatch):
        inverted = []
        original = np.linalg.inv

        def counting(a):
            inverted.append(np.array(a))
            return original(a)

        monkeypatch.setattr(np.linalg, "inv", counting)
        for g in (2, 4, 8):
            inverted.clear()
            z = xor_point(rng, g)
            assert len(verify_a2n_symmetries(z)) == g - 1
            basis = p_z(z)
            assert sum(np.array_equal(a, basis) for a in inverted) == 1

    def test_one_witness_call_per_group_element(self, rng, monkeypatch):
        from symplat import symplectic

        calls = []
        original = symplectic.induced_change_of_basis

        def counting(lat, o):
            calls.append(lat)
            return original(lat, o)

        monkeypatch.setattr(symplectic, "induced_change_of_basis", counting)
        for g in (2, 4, 8):
            calls.clear()
            assert len(verify_a2n_symmetries(xor_point(rng, g))) == g - 1
            assert len(calls) == g - 1
            assert all(lat is calls[0] for lat in calls)
