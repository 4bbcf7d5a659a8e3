import numpy as np
import pytest

from symplat import (
    enumerate_short,
    from_basis,
    group_closure,
    hermite_invariant,
    j_generator,
    k_prime,
    lattice_det,
    lll_reduce,
    orbit_histogram,
    scale_to_unit_det,
    systole,
)
from symplat.errors import NotInvariant, NumericalBreakdown, OutOfRange, RadiusTooLarge, Singular
from symplat.lattice import report_to_obj
from symplat.linalg import det_int

from conftest import brute_force_short, coord_multiset, random_invertible


class TestConstruction:
    def test_integer_lattice(self):
        lat = from_basis(np.eye(4))
        assert lat.dim == 4
        assert np.array_equal(lat.gram, np.eye(4))

    def test_unit_det_rectangle(self):
        lat = from_basis(np.diag([2.0, 0.5]))
        assert lattice_det(lat) == pytest.approx(1.0)

    def test_singular_rejected(self):
        with pytest.raises(Singular):
            from_basis([[1.0, 2.0], [2.0, 4.0]])

    def test_dets(self):
        assert lattice_det(from_basis(np.eye(3))) == pytest.approx(1.0)
        assert lattice_det(from_basis(np.diag([2.0, 3.0]))) == pytest.approx(6.0)

    def test_scale_to_unit_det(self):
        assert np.allclose(scale_to_unit_det(from_basis(np.diag([2.0, 2.0]))).basis, np.eye(2))
        assert np.allclose(scale_to_unit_det(from_basis(np.eye(5))).basis, np.eye(5))
        lat = scale_to_unit_det(from_basis([[3.0, 1.0], [0.5, 4.0]]))
        assert lattice_det(lat) == pytest.approx(1.0, rel=1e-12)


class TestLLL:
    def test_identity_fixed(self):
        lat = from_basis(np.eye(3))
        reduced, u = lll_reduce(lat)
        assert np.array_equal(u, np.eye(3, dtype=np.int64))
        assert np.array_equal(reduced.basis, np.eye(3))

    def test_textbook_2d(self):
        # columns (1, 100) and (0, 1): reduction must find the short pair
        lat = from_basis(np.array([[1.0, 0.0], [100.0, 1.0]]))
        reduced, u = lll_reduce(lat)
        norms = np.sort(np.diag(reduced.gram))
        assert norms == pytest.approx([1.0, 1.0])
        assert abs(det_int(u)) == 1
        assert np.allclose(lat.basis @ u, reduced.basis)

    def test_unimodular_on_random(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            b = random_invertible(rng, dim, max_cond=500.0)
            lat = from_basis(b)
            reduced, u = lll_reduce(lat)
            assert abs(det_int(u)) == 1
            assert np.allclose(lat.basis @ u, reduced.basis, atol=1e-9)
            assert lattice_det(reduced) == pytest.approx(lattice_det(lat), rel=1e-12)
            # Gram-Schmidt of the reduced basis: G = L L^T, mu_ij = L_ij / L_jj
            chol = np.linalg.cholesky(reduced.gram)
            gs = np.diag(chol) ** 2
            mu = chol / np.diag(chol)[None, :]
            assert np.all(np.abs(np.tril(mu, -1)) <= 0.5 + 1e-9)
            for k in range(1, dim):
                assert gs[k] >= (0.99 - mu[k, k - 1] ** 2) * gs[k - 1] * (1.0 - 1e-9)

    def test_non_unimodular_transform_raises(self, monkeypatch):
        from symplat import lattice

        monkeypatch.setattr(lattice, "det_int", lambda u: 2)
        with pytest.raises(NumericalBreakdown):
            lll_reduce(from_basis(np.array([[1.0, 0.0], [100.0, 1.0]])))

    def test_delta_range(self):
        lat = from_basis(np.eye(2))
        with pytest.raises(OutOfRange):
            lll_reduce(lat, delta=0.2)
        with pytest.raises(OutOfRange):
            lll_reduce(lat, delta=1.0)


class TestEnumerate:
    def test_z2_unit_radius(self):
        rep = enumerate_short(from_basis(np.eye(2)), 1.0)
        assert rep.count == 4
        assert rep.systole2 == 1.0
        assert rep.kissing == 4
        assert coord_multiset(rep.vectors) == [(-1, 0), (0, -1), (0, 1), (1, 0)]

    def test_z2_radius_two(self):
        rep = enumerate_short(from_basis(np.eye(2)), 2.0)
        assert rep.count == 8
        assert rep.histogram == {1.0: 4, 2.0: 4}

    def test_hexagonal_six_minimal(self):
        basis = np.array([[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]])
        rep = enumerate_short(from_basis(basis), 1.0)
        assert rep.count == 6
        assert rep.kissing == 6

    def test_vectors_satisfy_radius(self, rng):
        b = random_invertible(rng, 3, max_cond=50.0)
        lat = from_basis(b)
        rep = enumerate_short(lat, 4.0)
        for vec in rep.vectors:
            q = vec.astype(float) @ lat.gram @ vec.astype(float)
            assert q <= 4.0 * (1 + 1e-9) + 1e-12

    def test_negation_closure(self, rng):
        for _ in range(10):
            b = random_invertible(rng, 3, max_cond=50.0)
            rep = enumerate_short(from_basis(b), 3.0)
            keys = set(coord_multiset(rep.vectors))
            for vec in rep.vectors:
                assert tuple(int(-c) for c in vec) in keys
            assert all(c % 2 == 0 for c in rep.histogram.values())

    def test_oracle_equivalence(self, rng):
        # dims 2..4, squared radii up to 9, exact multiset agreement
        for trial in range(60):
            dim = int(rng.integers(2, 5))
            r2 = float(rng.uniform(0.5, 9.0))
            while True:
                b = random_invertible(rng, dim, min_det=0.3, max_cond=None)
                if np.sqrt(r2) * np.linalg.norm(np.linalg.inv(b), 2) <= 9.0:
                    break
            rep = enumerate_short(from_basis(b), r2)
            ref_coords, _ = brute_force_short(b, r2)
            assert coord_multiset(rep.vectors) == coord_multiset(ref_coords)

    def test_lll_invariance(self, rng):
        for _ in range(10):
            b = random_invertible(rng, 4, max_cond=100.0)
            lat = from_basis(b)
            reduced, u = lll_reduce(lat)
            rep_orig = enumerate_short(lat, 2.5)
            rep_red = enumerate_short(reduced, 2.5)
            # map reduced coordinates back through U before comparing
            mapped = rep_red.vectors @ u.T
            assert coord_multiset(rep_orig.vectors) == coord_multiset(mapped)
            assert rep_orig.histogram == rep_red.histogram

    def test_radius_budget(self):
        with pytest.raises(RadiusTooLarge):
            enumerate_short(from_basis(np.eye(4)), 100.0, node_budget=50)

    def test_bad_radius(self):
        with pytest.raises(OutOfRange):
            enumerate_short(from_basis(np.eye(2)), 0.0)

    def test_empty_report(self):
        rep = enumerate_short(from_basis(np.eye(2)), 0.5)
        assert rep.count == 0
        assert rep.systole2 is None
        assert rep.kissing == 0

    def test_report_obj(self):
        obj = report_to_obj(enumerate_short(from_basis(np.eye(2)), 1.0))
        assert obj["count"] == 4
        assert obj["histogram"] == [[1.0, 4]]


class TestSystole:
    def test_integer_lattices(self):
        for g in (2, 3, 5):
            assert systole(from_basis(np.eye(g))) == (1.0, 2 * g)

    def test_rectangular(self):
        s2, count = systole(from_basis(np.diag([3.0, 1.0 / 3.0])))
        assert s2 == pytest.approx(1.0 / 9.0)
        assert count == 2

    def test_matches_enumeration(self, rng):
        for _ in range(10):
            b = random_invertible(rng, 3, max_cond=50.0)
            lat = from_basis(b)
            s2, count = systole(lat)
            rep = enumerate_short(lat, s2 * 1.0000001)
            assert rep.systole2 == pytest.approx(s2, rel=1e-12)
            assert rep.kissing == count


class TestHermite:
    def test_integer_lattice(self):
        assert hermite_invariant(from_basis(np.eye(4))) == pytest.approx(1.0)

    def test_rectangular(self):
        assert hermite_invariant(from_basis(np.diag([2.0, 0.5]))) == pytest.approx(0.25)

    def test_scale_invariance(self):
        b = np.array([[1.0, 0.3], [0.0, 1.4]])
        h1 = hermite_invariant(from_basis(b))
        h2 = hermite_invariant(from_basis(2.7 * b))
        assert h1 == pytest.approx(h2, rel=1e-12)

    def test_unimodular_invariance(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 7))
            b = random_invertible(rng, dim, max_cond=100.0)
            h1 = hermite_invariant(from_basis(b))
            u = np.eye(dim, dtype=np.int64)
            for _ in range(6):
                i, j = rng.integers(0, dim, size=2)
                if i != j:
                    u[:, j] += int(rng.integers(-2, 3)) * u[:, i]
            assert abs(det_int(u)) == 1
            h2 = hermite_invariant(from_basis(b @ u))
            assert h1 == pytest.approx(h2, rel=1e-9)


class TestOrbits:
    def test_sign_orbits(self):
        grp = group_closure([np.eye(2, dtype=np.int64), -np.eye(2, dtype=np.int64)])
        hist = orbit_histogram(from_basis(np.eye(2)), grp, 1.0)
        assert hist == {2: 2}

    def test_jgroup_orbit_sizes_divide(self):
        grp = group_closure([j_generator(2, 1), j_generator(2, 2)])
        hist = orbit_histogram(from_basis(np.eye(4)), grp, 2.0)
        for size in hist:
            assert (2 * grp.order) % size == 0

    def test_complex_structure_forces_multiples_of_four(self):
        from symplat import k_family_point, p_z, sample_vcube

        params = sample_vcube(2, 99)
        lat = from_basis(p_z(k_family_point(params, 1.2)))
        s2, _ = systole(lat)
        grp = group_closure([k_prime(2)])
        hist = orbit_histogram(lat, grp, s2)
        assert set(hist) == {4}

    def test_not_invariant(self):
        from symplat import MatrixGroup

        stretch = np.array([[2, 0], [0, 1]], dtype=np.int64)
        grp = MatrixGroup(dim=2, elements=[stretch], generator_indices=[0])
        with pytest.raises(NotInvariant):
            orbit_histogram(from_basis(np.eye(2)), grp, 1.0)
