import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from symplat import (
    enumerate_short,
    from_basis,
    lattice_det,
    lll_reduce,
    multiplicity_check,
    sample_vcube,
    scale_to_unit_det,
    systole,
)
from symplat import _kernels, lattice
from symplat.errors import NumericalBreakdown, OutOfRange, RadiusTooLarge, Singular
from symplat.lattice import BOUNDARY_EPS, _histogram, _through_u, _upper_factors, report_to_obj, short_counts
from symplat.linalg import det_int, exact_in_float, is_unimodular, mat_from_obj
from symplat.meanvalue import k_family_lattice
from symplat.patterned import k_symmetric_stack
from symplat.symplectic import k_family_bases, vcube_wedges

from conftest import brute_force_short, coord_multiset, random_invertible


def histogram_reference(norms):
    """``_histogram``'s shells, grouped over ``Counter`` keys in sorted order."""
    hist = {}
    counts = Counter(norms.tolist())
    start = None
    for v in sorted(counts):
        if start is not None and v - start <= BOUNDARY_EPS * max(abs(v), 1.0):
            hist[key] += counts[v]
        else:
            start = v
            key = float(f"{v:.12g}")
            hist[key] = counts[v]
    return hist


@st.composite
def noisy_shells(draw):
    """Norms from up to a dozen lengths on both sides of 1, each copied
    with relative noise from 1e-16 to past BOUNDARY_EPS, so some shells
    hold many distinct values and some noisy copies leave their shell."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = rng.uniform(0.1, 40.0, size=draw(st.integers(1, 12)))
    if draw(st.booleans()):
        base[0] = 2.828427124745      # on a 12-digit rounding boundary
    noise = 10.0 ** -draw(st.integers(8, 16))
    copies = base * (1.0 + noise * rng.integers(-3, 4, size=(6, base.size)))
    return copies.ravel()[rng.integers(0, copies.size, size=draw(st.integers(0, 300)))]


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
        from symplat import lattice

        rng = np.random.default_rng(seed)
        b = random_invertible(rng, dim, min_det=0.05)
        scramble = np.eye(dim, dtype=np.int64) + np.triu(rng.integers(-3, 4, size=(dim, dim)), 1)
        lat = from_basis(b @ scramble)
        with mock.patch.object(lattice, "DEFAULT_LLL_DELTA", delta):   # 0.75: looser bases
            reduced, u = lll_reduce(lat)
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

        monkeypatch.setattr(lattice, "is_unimodular", lambda u: np.zeros(len(u), dtype=bool))
        with pytest.raises(NumericalBreakdown):
            lll_reduce(from_basis(np.array([[1.0, 0.0], [100.0, 1.0]])))


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

    def test_radius_past_int64_raises(self):
        # the frontier's interval ends once wrapped here, and 0 vectors came back
        with pytest.raises(RadiusTooLarge):
            enumerate_short(from_basis(np.eye(2)), 1e38)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_non_positive_budget_is_out_of_range(self, budget):
        # refused as bad input before the lattice is reduced, not reported
        # as a budget the enumeration ran past
        lat = from_basis(np.eye(4))
        with pytest.raises(OutOfRange, match="node budget must be at least 1"):
            enumerate_short(lat, 1.0, node_budget=budget)
        with pytest.raises(OutOfRange, match="node budget must be at least 1"):
            systole(lat, node_budget=budget)
        assert "reduced" not in vars(lat)

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

    @settings(max_examples=150, deadline=None)
    @given(noisy_shells())
    def test_histogram_matches_counter_reference(self, norms):
        hist = _histogram(norms)
        assert list(hist.items()) == list(histogram_reference(norms).items())
        assert all(type(c) is int for c in hist.values())

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


class TestThroughU:
    """H @ U^T goes through float64 only where ``exact_in_float`` proves it exact."""

    @staticmethod
    def exact(h, u):
        """H @ U^T over Python ints."""
        return np.array(h.astype(object) @ u.T.astype(object), dtype=object)

    def test_matches_the_exact_product_on_both_sides_of_the_bound(self, rng):
        # (d, max|H|, max|U|): well below, just below, at, and past 2^53
        for d, hmax, umax in ((16, 5, 547), (16, 2 ** 26, 2 ** 23 - 1), (16, 2 ** 26, 2 ** 23),
                              (16, 2 ** 30, 2 ** 28), (4, 2 ** 40, 2 ** 9), (3, 1, 1)):
            h = rng.integers(-hmax, hmax + 1, size=(500, d))
            u = rng.integers(-umax, umax + 1, size=(d, d))
            h[0, 0], u[0, 0] = hmax, umax           # pin the maxima
            assert exact_in_float(h.astype(float), u.T.astype(float)) == (d * hmax * umax < 2 ** 53)
            got = _through_u(h, u)
            assert got.dtype == np.int64
            assert np.array_equal(got, h @ u.T)
            assert (got.astype(object) == self.exact(h, u)).all()

    def test_past_the_bound_a_float_product_would_round(self, rng):
        h = rng.integers(2 ** 29, 2 ** 30, size=(200, 16)) * rng.choice([-1, 1], size=(200, 16))
        u = rng.integers(2 ** 27, 2 ** 28, size=(16, 16))
        rounded = (h.astype(float) @ u.T.astype(float)).astype(np.int64)
        assert not np.array_equal(rounded, h @ u.T)
        assert np.array_equal(_through_u(h, u), h @ u.T)

    def test_bound_edges(self):
        assert exact_in_float(np.full((1, 16), 2.0 ** 26), np.full((16, 1), 2.0 ** 23 - 1))
        assert not exact_in_float(np.full((1, 16), 2.0 ** 26), np.full((16, 1), -2.0 ** 23))
        # maxima whose int64 product wraps to a small number still fail
        assert not exact_in_float(np.array([[2.0 ** 32]]), np.array([[2.0 ** 32]]))
        for bad in (np.nan, np.inf):
            assert not exact_in_float(np.array([[1.0, bad]]), np.eye(2))
        assert exact_in_float(np.zeros((0, 16)), np.eye(16))
        assert _through_u(np.zeros((0, 3), dtype=np.int64), np.eye(3, dtype=np.int64)).shape == (0, 3)

    def test_bw16_vectors_equal_the_int64_product(self):
        path = Path(__file__).parent / "golden" / "inputs" / "bw16_scrambled.json"
        lat = from_basis(mat_from_obj(json.loads(path.read_text())))
        r2 = 3.0 * np.sqrt(2.0)
        rep = enumerate_short(lat, r2)
        reduced, u = lat.reduced
        coords_z, norms, _ = _kernels.enumerate_core(
            _upper_factors(reduced.gram[None])[0], r2 * (1 + BOUNDARY_EPS), 10 ** 7)
        m = rep.count // 2
        assert rep.count == 65760
        assert exact_in_float(coords_z[m:].astype(float), u.T.astype(float))    # the float path ran
        assert np.array_equal(rep.vectors[m:], coords_z[m:] @ u.T)
        assert np.array_equal(rep.vectors[:m], -rep.vectors[m:][::-1])


class TestShortCounts:
    def test_counts_match_enumerate_short(self, rng):
        for d in (2, 3, 6):
            bases = np.array([random_invertible(rng, d, max_cond=50.0) for _ in range(40)])
            r2 = 1.5 * float(np.median([systole(from_basis(b))[0] for b in bases]))
            got = short_counts(bases, r2)
            assert got.tolist() == [enumerate_short(from_basis(b), r2).count for b in bases]
            assert 0 < got.sum()

    def test_empty_stack_counts_nothing(self):
        for d in (2, 4):
            counts = short_counts(np.zeros((0, d, d)), 1.0)
            assert counts.dtype == np.int64 and counts.shape == (0,)

    def test_checks_apply_to_the_stack(self, rng, monkeypatch):
        bases = np.array([random_invertible(rng, 3) for _ in range(4)])
        with pytest.raises(OutOfRange):
            short_counts(bases, np.inf)
        bad = bases.copy()
        bad[2, :, 1] = 2.0 * bad[2, :, 0]
        with pytest.raises(Singular):
            short_counts(bad, 1.0)
        bad[2, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            short_counts(bad, 1.0)
        # the checks after LLL and the Cholesky step serve one lattice and a stack alike
        def poisoned(w, v, delta, kernel=_kernels.lll_core):
            kernel(w, v, delta)
            w[..., 0, 0] = np.nan

        monkeypatch.setattr(_kernels, "lll_core", poisoned)
        with pytest.raises(ValueError, match="finite"):
            lll_reduce(from_basis(bases[0]))
        with pytest.raises(ValueError, match="finite"):
            short_counts(bases, 1.0)
        monkeypatch.undo()

        def not_pd(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", not_pd)
        for run in (lambda: enumerate_short(from_basis(bases[0]), 1.0),
                    lambda: short_counts(bases, 1.0)):
            with pytest.raises(NumericalBreakdown, match="^Cholesky of the reduced Gram failed: "
                                                         "Matrix is not positive definite$"):
                run()


def k_family_stack(g, y, seed, n):
    return k_family_bases(k_symmetric_stack(g, vcube_wedges(g, seed, 0, n)), y)


def counts_by_side(bases, r2):
    """(short_counts(bases, r2), each tree's node count if the stack was
    walked as given, else None).

    A stack of upper-triangular bases with a positive diagonal is tried as
    given on RAW_TREE_NODES_PER_LEVEL nodes per level; a stack whose try
    completes takes no other ``enumerate_core`` call.  Any other stack,
    and one whose try a tree stops, is walked once more on the reduced
    factors."""
    calls = []
    original = _kernels.enumerate_core

    def recording(r, r2cap, node_budget):
        calls.append([r is bases, node_budget, True])     # raised, until it returns
        out = original(r, r2cap, node_budget)
        calls[-1][2] = False
        return out

    with mock.patch.object(_kernels, "enumerate_core", recording):
        counts = short_counts(bases, r2)
    raw = lattice.RAW_TREE_NODES_PER_LEVEL * bases.shape[1]
    if calls == [[True, raw, False]]:
        cap = r2 * (1 + BOUNDARY_EPS)
        return counts, [_kernels.enumerate_core(b, cap, 10 ** 7)[2] for b in bases]
    triangular = not np.tril(bases, -1).any() and bool((np.diagonal(bases, axis1=1, axis2=2) > 0).all())
    assert calls == [[True, raw, True]] * triangular + [[False, lattice.DEFAULT_NODE_BUDGET, False]]
    return counts, None


def assert_sides_agree(bases, r2):
    """The counts as short_counts takes them equal the reduction path's,
    and a stack walked as given has every tree within
    RAW_TREE_NODES_PER_LEVEL nodes per level.  Returns whether the stack
    was walked as given."""
    counts, nodes = counts_by_side(bases, r2)
    with mock.patch.object(lattice, "RAW_TREE_NODES_PER_LEVEL", 0):
        reduced, none = counts_by_side(bases, r2)
    assert none is None
    assert counts.tolist() == reduced.tolist()
    if nodes is None:
        return False
    for b, n in zip(bases, nodes):
        assert n <= lattice.RAW_TREE_NODES_PER_LEVEL * b.shape[0]
    return True


def exact_count(b, cap):
    """Nonzero z with ||B z||^2 <= cap in exact rational arithmetic, for
    an upper-triangular B.  Each level scans its float interval widened by
    one on either side and prunes on the exact partial mass."""
    d = b.shape[0]
    q = [[Fraction(x) for x in row] for row in b.tolist()]
    capq = Fraction(cap)
    radius = math.sqrt(cap)
    z = [0] * d

    def walk(i, mass):
        if i < 0:
            return int(any(z))
        s = sum((q[i][j] * z[j] for j in range(i + 1, d)), Fraction(0))
        c, w = float(s) / b[i, i], radius / b[i, i]
        found = 0
        for zi in range(math.floor(-c - w) - 1, math.ceil(-c + w) + 2):
            t = q[i][i] * zi + s
            if mass + t * t <= capq:
                z[i] = zi
                found += walk(i - 1, mass + t * t)
        z[i] = 0
        return found

    return walk(d - 1, Fraction(0))


@st.composite
def skewed_triangular(draw):
    """(stack, r2): upper-triangular bases with log-uniform diagonals in
    [1/3, 3] and off-diagonal entries up to ``skew`` times the diagonal."""
    d = draw(st.integers(2, 6))
    skew = draw(st.sampled_from([0.0, 0.5, 3.0, 20.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    diag = np.exp(rng.uniform(-math.log(3.0), math.log(3.0), size=(8, d)))
    off = np.triu(rng.uniform(-skew, skew, size=(8, d, d)), 1) * diag[:, None, :]
    bases = off + diag[:, :, None] * np.eye(d)
    r2 = draw(st.floats(0.05, 2.0)) * float(np.min(diag)) ** 2 * d
    return bases, r2


class TestRawPath:
    """short_counts walks upper-triangular stacks as given while every
    tree stays within its node budget; the counts must not tell the paths
    apart."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from([2, 4]), st.floats(math.log(0.02), math.log(50.0)),
           st.floats(0.01, 1.5), st.integers(0, 2 ** 32 - 1))
    @example(2, math.log(8.0), 0.25, 1)      # mc-k: as given
    @example(2, math.log(0.02), 1.0, 2)      # 7,948-node trees the Gaussian heuristic puts at 5
    @example(4, math.log(8.0), 1.0, 3)       # criterion 3 at g = 4: reduced
    def test_k_family_sides_agree(self, g, log_y, r2, seed):
        y = math.exp(log_y)
        if g == 4:
            r2 *= min(1.0, y / 0.5) ** 2     # keeps the small-y g = 4 trees small
        assert_sides_agree(k_family_stack(g, y, seed, 8), r2)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(skewed_triangular())
    def test_skewed_triangular_sides_agree(self, case):
        assert_sides_agree(*case)

    def test_both_sides_run(self):
        assert assert_sides_agree(k_family_stack(2, 8.0, 1, 64), 0.25)
        assert assert_sides_agree(k_family_stack(4, 2.0, 1, 16), 1.0)
        assert not assert_sides_agree(k_family_stack(2, 0.02, 1, 8), 1.0)
        assert not assert_sides_agree(k_family_stack(4, 8.0, 1, 8), 1.0)
        lower = k_family_stack(2, 8.0, 1, 8).transpose(0, 2, 1)
        assert not assert_sides_agree(np.ascontiguousarray(lower), 0.25)

    @pytest.mark.parametrize("g", [2, 4])
    def test_k_family_stacks_share_their_last_g_levels(self, g):
        # every P_Z of a stack has the rows [0, S], S = I / y, bit for bit,
        # so the frontier walks their levels once; the reduced side's
        # Cholesky factors share nothing
        bases = k_family_stack(g, 8.0, 1, 16)
        bits = bases.view(np.int64)
        assert (bits[:, g:, g:] == bits[0, g:, g:]).all()
        assert not (bits[:, g - 1:, g - 1:] == bits[0, g - 1:, g - 1:]).all()
        half = np.zeros(16)
        assert _kernels._shared_top(bases, 0.25, 10 ** 7, half)[0] == g
        assert (half == half[0]).all() and half[0] > 0
        factors = _upper_factors(lattice._reduce(bases)[2])
        assert len(set(factors[:, -1, -1].tolist())) > 1
        assert _kernels._shared_top(factors, 0.25, 10 ** 7, np.zeros(16))[0] == 2 * g

    def test_one_tree_past_the_budget_reduces_the_stack(self):
        cap = 0.25 * (1 + BOUNDARY_EPS)
        bases = k_family_stack(2, 8.0, 1, 16)
        bases[-1] = k_family_stack(2, 64.0, 1, 37)[-1]     # 3,316 nodes, 4 vectors
        nodes = [_kernels.enumerate_core(b, cap, 10 ** 7)[2] for b in bases]
        limit = lattice.RAW_TREE_NODES_PER_LEVEL * 4
        assert max(nodes[:-1]) <= limit < nodes[-1]
        # the stopped try as given, then the reduced walk
        assert not assert_sides_agree(bases, 0.25)
        assert short_counts(bases, 0.25)[-1] > 0

    def test_mc_k_counts_match_exact_norms(self):
        # mc-k's cell, and two cells of larger trees that still fit the
        # node budget
        for g, y, r2, n in ((2, 8.0, 0.25, 200), (2, 16.0, 0.25, 100), (4, 2.0, 1.0, 24)):
            bases = k_family_stack(g, y, 1, n)
            counts, nodes = counts_by_side(bases, r2)
            assert nodes is not None
            cap = r2 * (1 + BOUNDARY_EPS)
            assert counts.tolist() == [exact_count(b, cap) for b in bases]
            assert counts.sum() > 0


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
        assert len(lll_calls) == 1
        assert systole(from_basis(b)) == (s2, kissing)
        ref = enumerate_short(from_basis(b), 2.0 * s2)
        assert np.array_equal(rep.vectors, ref.vectors)
        assert np.array_equal(rep.norms.view(np.int64), ref.norms.view(np.int64))
        assert rep.histogram == ref.histogram and rep.nodes == ref.nodes
        assert len(lll_calls) == 3

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
        again, u_again = lll_reduce(lat)
        assert again is not cached
        assert u_again.flags.writeable
        assert np.array_equal(again.basis, cached.basis)

    def test_inverse_is_cached_and_read_only(self, rng):
        lat = from_basis(random_invertible(rng, 5, max_cond=50.0))
        inverse = lat.inverse
        assert lat.inverse is inverse
        assert not inverse.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            inverse[0, 0] = 0.0
        assert np.array_equal(inverse.view(np.int64), np.linalg.inv(lat.basis).view(np.int64))


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

    def test_unimodular_invariance(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 7))
            b = random_invertible(rng, dim, max_cond=100.0)
            s1, count1 = systole(from_basis(b))
            u = np.eye(dim, dtype=np.int64)
            for _ in range(6):
                i, j = rng.integers(0, dim, size=2)
                if i != j:
                    u[:, j] += int(rng.integers(-2, 3)) * u[:, i]
            assert abs(det_int(u)) == 1
            s2, count2 = systole(from_basis(b @ u))
            assert s1 == pytest.approx(s2, rel=1e-9)
            assert count1 == count2
