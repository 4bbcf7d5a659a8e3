import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from symplat import (
    enumerate_short,
    from_basis,
    group_closure,
    hermite_invariant,
    j_generator,
    k_prime,
    lattice_det,
    lll_reduce,
    multiplicity_check,
    orbit_histogram,
    sample_vcube,
    scale_to_unit_det,
    systole,
)
from symplat import _kernels
from symplat.errors import NotInvariant, NumericalBreakdown, OutOfRange, RadiusTooLarge, Singular
from symplat.lattice import _histogram, report_to_obj
from symplat.linalg import det_int, is_unimodular
from symplat.meanvalue import k_family_lattice

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

    def test_singularity_is_scale_free(self):
        assert from_basis(0.25 * np.eye(16)).dim == 16      # det 2.3e-10
        rank2 = np.arange(1.0, 10.0).reshape(3, 3)
        with pytest.raises(Singular):
            from_basis(1e10 * rank2)                        # det 4.6e15
        rng = np.random.default_rng(5)
        full = random_invertible(rng, 6, max_cond=100.0)
        for b, ok in ((full, True), (np.eye(4), True), (rank2, False),
                      (np.vstack([full[:5], full[:5].sum(axis=0)]), False)):
            for c in (1e-3, 1.0, 1e3):
                if ok:
                    assert from_basis(c * b).dim == b.shape[0]
                else:
                    with pytest.raises(Singular):
                        from_basis(c * b)

    @pytest.mark.parametrize("g", [2, 4, 8])
    def test_k_family_accepted_at_large_heights(self, g):
        for y in (100.0, 1e4):
            for i in range(5):
                assert k_family_lattice(sample_vcube(g, 1, i), y).dim == 2 * g

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

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(2, 12), st.integers(0, 2 ** 32 - 1), st.sampled_from([0.75, 0.99]))
    @example(11, 594500, 0.75)     # cond(B) ~ 1e7: solve(B, B') misses integers by 1.3e-4
    def test_reduced_basis_generates_the_same_lattice(self, dim, seed, delta):
        # B' = B U with U unimodular, checked without solving against B:
        # U is exactly unimodular, and each entry of B' is B U's up to the
        # rounding of its dot product, a relative 1e-12 of |B| @ |U|.
        rng = np.random.default_rng(seed)
        b = random_invertible(rng, dim, min_det=0.05)
        scramble = np.eye(dim, dtype=np.int64) + np.triu(rng.integers(-3, 4, size=(dim, dim)), 1)
        lat = from_basis(b @ scramble)
        reduced, u = lll_reduce(lat, delta)
        assert is_unimodular(u)
        assert abs(det_int(u)) == 1
        err = np.abs(reduced.basis - lat.basis @ u)
        assert np.all(err <= 1e-12 * (np.abs(lat.basis) @ np.abs(u)))

    def test_iteration_cap_raises_its_own_breakdown(self, monkeypatch):
        from symplat import _kernels

        monkeypatch.setattr(_kernels, "LLL_MAX_ITER", 1)
        with pytest.raises(NumericalBreakdown, match="^LLL exceeded its iteration cap of 1$"):
            lll_reduce(from_basis(np.array([[1.0, 0.0], [100.0, 1.0]])))

    def test_non_unimodular_transform_raises(self, monkeypatch):
        from symplat import lattice

        monkeypatch.setattr(lattice, "is_unimodular", lambda u: False)
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

    def test_oracle_equivalence_dims_5_to_7(self, rng):
        # Box half-widths keep the oracle under about 10^6 points; bases
        # near the identity keep ||B^-1|| small, so radii are large enough
        # for trees on both sides of the small-tree threshold.
        half_width = {5: 7, 6: 4, 7: 3}
        sizes = []
        for dim, half in half_width.items():
            for _ in range(4):
                b = np.eye(dim) + rng.uniform(-0.4, 0.4, size=(dim, dim))
                r2_box = (half / np.linalg.norm(np.linalg.inv(b), 2)) ** 2
                r2 = float(rng.uniform(0.25, 0.999)) * r2_box
                rep = enumerate_short(from_basis(b), r2)
                ref_coords, _ = brute_force_short(b, r2)
                assert coord_multiset(rep.vectors) == coord_multiset(ref_coords)
                sizes.append(rep.nodes / dim)
        small = _kernels.SMALL_TREE_NODES_PER_LEVEL
        assert min(sizes) <= small < max(sizes)

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
        with pytest.raises(RadiusTooLarge):
            enumerate_short(from_basis(np.eye(4)), 100.0, node_budget=5000)

    def test_node_count(self):
        # 3 nodes at the top level, then 1 + 3 + 1 below them
        assert enumerate_short(from_basis(np.eye(2)), 1.0).nodes == 8

    def test_histogram_rounds_each_norm(self, rng):
        # Five lengths, each with float noise of 1e-14; the first sits on a
        # 12-digit rounding boundary, so its noisy copies round to two keys.
        # Each length is one shell, keyed by its smallest copy, rounded.
        base = np.concatenate([[2.828427124745], rng.uniform(0.5, 3.0, size=4)])
        copies = np.stack([base, base * (1 + 1e-14), base * (1 - 1e-14)])
        pick = rng.integers(0, copies.size, size=400)
        norms = copies.ravel()[pick]
        shell = pick % base.size
        expected = {}
        for k in np.argsort(base):
            members = norms[shell == k]
            if members.size:
                expected[float(f"{members.min():.12g}")] = int(members.size)
        assert len({f"{v:.12g}" for v in norms[shell == 0]}) == 2
        hist = _histogram(norms)
        assert list(hist.items()) == list(expected.items())
        assert all(type(c) is int for c in hist.values())
        assert _histogram(np.zeros(0)) == {}

    def test_bad_radius(self):
        for r2 in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(OutOfRange):
                enumerate_short(from_basis(np.eye(2)), r2)

    def test_empty_report(self):
        rep = enumerate_short(from_basis(np.eye(2)), 0.5)
        assert rep.count == 0
        assert rep.systole2 is None
        assert rep.kissing == 0

    def test_report_obj(self):
        obj = report_to_obj(enumerate_short(from_basis(np.eye(2)), 1.0))
        assert "nodes" not in obj
        assert obj["count"] == 4
        assert obj["histogram"] == [[1.0, 4]]


class TestReductionCache:
    @pytest.fixture
    def lll_calls(self, monkeypatch):
        from symplat import lattice

        calls = []
        original = lattice.lll_reduce

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(lattice, "lll_reduce", counting)
        return calls

    def test_one_reduction_per_lattice(self, rng, lll_calls):
        b = random_invertible(rng, 6, max_cond=50.0)
        lat = from_basis(b)
        s2, kissing = systole(lat)
        rep = enumerate_short(lat, 2.0 * s2)
        h = hermite_invariant(lat)
        assert len(lll_calls) == 1
        assert systole(from_basis(b)) == (s2, kissing)
        ref = enumerate_short(from_basis(b), 2.0 * s2)
        assert np.array_equal(rep.vectors, ref.vectors)
        assert np.array_equal(rep.norms.view(np.int64), ref.norms.view(np.int64))
        assert rep.histogram == ref.histogram and rep.nodes == ref.nodes
        assert h == hermite_invariant(from_basis(b))
        assert len(lll_calls) == 4

    def test_multiplicity_check_reduces_once_per_sample(self, lll_calls):
        samples = 3
        report = multiplicity_check(4, "a2n", samples, seed=5)
        assert len(lll_calls) == samples
        lll_calls.clear()
        from symplat.meanvalue import sample_a2n_family

        counts = []
        for i in range(samples):
            s2, _ = systole(sample_a2n_family(4, 5, i))
            counts += enumerate_short(sample_a2n_family(4, 5, i), 2.0 * s2).histogram.values()
        assert report.buckets_total == len(counts)
        assert report.buckets_divisible == sum(c % 8 == 0 for c in counts)
        assert len(lll_calls) == 2 * samples

    def test_other_delta_reduces_afresh(self, rng, lll_calls):
        lat = from_basis(random_invertible(rng, 5, max_cond=50.0))
        cached, u = lat.reduced
        assert lat.reduced[0] is cached
        assert len(lll_calls) == 1
        assert not u.flags.writeable
        loose, u_loose = lll_reduce(lat, 0.75)
        assert loose is not cached
        assert u_loose.flags.writeable
        again, _ = lll_reduce(lat)
        assert again is not cached
        assert np.array_equal(again.basis, cached.basis)


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
