import math
import re

import numpy as np
import pytest

from symplat import (
    _kernels,
    ball_volume_limit,
    bounds,
    enumerate_short,
    estimate_I,
    k_family_point,
    limit_sweep,
    meanvalue,
    multiplicity_check,
    p_z,
    sample_vcube,
    systole,
    witness_search,
)
from symplat.errors import OddDimension, OutOfRange, RadiusTooLarge, Singular
from symplat.meanvalue import SearchResult, k_family_lattice
from symplat.patterned import k_symmetric_stack
from symplat.symplectic import k_family_bases, vcube_wedges


class TestBounds:
    def test_g2_closed_forms(self):
        b = bounds(2)
        assert b.buser_sarnak == pytest.approx(2.0 / math.pi, rel=1e-14)
        assert b.theorem1 == pytest.approx(2.0 * math.sqrt(2.0) / math.pi, rel=1e-14)
        assert b.conjecture == pytest.approx(b.theorem1, rel=1e-14)

    def test_g4(self):
        assert bounds(4).theorem1 == pytest.approx(96.0 ** 0.25 / math.pi, rel=1e-12)

    def test_ratio_identity(self):
        for g in range(2, 41, 2):
            b = bounds(g)
            assert b.theorem1 / b.buser_sarnak == pytest.approx(
                2.0 ** (1.0 / g), rel=1e-12
            )
            assert b.theorem1 > b.buser_sarnak

    def test_conjecture_ordering(self):
        assert bounds(2).conjecture == bounds(2).theorem1
        for g in range(4, 21, 2):
            assert bounds(g).conjecture > bounds(g).theorem1

    def test_log_domain_continuity(self):
        # the two evaluation branches must agree where they meet
        direct = (4.0 * math.factorial(20)) ** (1.0 / 20) / math.pi
        assert bounds(20).theorem1 == pytest.approx(direct, rel=1e-13)
        assert bounds(22).theorem1 == pytest.approx(
            (4.0 * math.factorial(22)) ** (1.0 / 22) / math.pi, rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(OddDimension):
            bounds(3)
        with pytest.raises(OutOfRange):
            bounds(0)


class TestBallVolume:
    def test_disk(self):
        assert ball_volume_limit(1, 1.0) == pytest.approx(math.pi)

    def test_four_ball(self):
        assert ball_volume_limit(2, 1.0) == pytest.approx(math.pi ** 2 / 2.0)

    def test_radius_scaling(self):
        assert ball_volume_limit(2, 0.5) == pytest.approx(math.pi ** 2 / 32.0)

    def test_large_g_log_domain(self):
        v = ball_volume_limit(30, 1.0)
        assert v == pytest.approx(math.pi ** 30 / math.factorial(30), rel=1e-12)

    def test_validation(self):
        with pytest.raises(OutOfRange):
            ball_volume_limit(2, 0.0)

    @pytest.mark.parametrize("g, r", [(2, 1e100), (2, 1e77), (30, 1e20), (2, math.inf)])
    def test_past_float64_is_out_of_range(self, g, r):
        with pytest.raises(OutOfRange, match="past float64's range"):
            ball_volume_limit(g, r)


class TestEstimate:
    def test_reproducible(self):
        a = estimate_I(2, 8.0, 0.25, 50, seed=9)
        b = estimate_I(2, 8.0, 0.25, 50, seed=9)
        assert a == b

    def test_tiny_radius_is_zero(self):
        est = estimate_I(2, 8.0, 0.01, 40, seed=1)
        assert est.mean == 0.0

    def test_mean_near_limit(self):
        # statistical but deterministic under the fixed seed
        est = estimate_I(2, 8.0, 0.25, 400, seed=20240811)
        limit = ball_volume_limit(2, 0.5)
        assert abs(est.mean - limit) <= 3.0 * est.stderr

    @pytest.mark.parametrize("seed, total", [(1, 300), (2, 276), (3, 176)])
    def test_pinned_totals(self, seed, total):
        # the benchmark's mc-k parameters; counts are integers, so a change
        # in LLL's float bits must leave these exactly as they are
        est = estimate_I(2, 8.0, 0.25, 1000, seed=seed)
        assert round(est.mean * 1000) == total

    def test_as_given_pass_calls_no_lapack(self, monkeypatch):
        # the mc-k stack walks as given: its rank check is the triangular
        # certificate, P_Z's matmuls are BLAS and the walk is elementwise
        def refuse(*args, **kwargs):
            raise AssertionError("a LAPACK routine ran")

        for name in ("cholesky", "svd", "inv", "det", "solve", "eigh", "eigvalsh", "qr"):
            monkeypatch.setattr(np.linalg, name, refuse)
        est = estimate_I(2, 8.0, 0.25, 1000, seed=1)
        assert round(est.mean * 1000) == 300

    def test_single_sample(self):
        est = estimate_I(2, 8.0, 0.25, 1, seed=2)
        assert est.stderr == 0.0

    def test_validation(self):
        with pytest.raises(OutOfRange):
            estimate_I(2, 8.0, 0.25, 0, seed=0)
        with pytest.raises(OutOfRange):
            estimate_I(2, -1.0, 0.25, 1, seed=0)


def counted_estimate(monkeypatch, *args, **kwargs):
    """(estimate_I(*args), every sample's vector count, read from the stacked
    _kernels.enumerate_core calls)."""
    counts = []
    original = _kernels.enumerate_core

    def counting(r, r2cap, node_budget):
        out = original(r, r2cap, node_budget)
        counts.extend(np.bincount(out[0], minlength=r.shape[0]).tolist())
        return out

    monkeypatch.setattr(_kernels, "enumerate_core", counting)
    est = estimate_I(*args, **kwargs)
    monkeypatch.setattr(_kernels, "enumerate_core", original)
    return est, counts


def kernel_calls(monkeypatch):
    """The stack size of each ``_kernels.lll_core`` call from now on."""
    sizes = []
    original = _kernels.lll_core

    def recording(w, v, delta):
        sizes.append(w.shape[0])
        return original(w, v, delta)

    monkeypatch.setattr(_kernels, "lll_core", recording)
    return sizes


class TestStackPipeline:
    """estimate_I runs its samples as stacks; each sample must count what
    the one-lattice path counts, whatever the chunk size."""

    @pytest.mark.parametrize("g, y, r2", [(2, 0.7, 1.5), (2, 8.0, 0.25), (2, 1e3, 0.5),
                                          (4, 0.7, 1.0), (4, 8.0, 1.0), (4, 1e3, 0.8)])
    def test_counts_match_one_lattice_path(self, monkeypatch, g, y, r2):
        samples = 60
        ref = [enumerate_short(k_family_lattice(sample_vcube(g, 5, i), y), r2).count
               for i in range(samples)]
        est, counts = counted_estimate(monkeypatch, g, y, r2, samples, seed=5)
        assert counts == ref
        assert est.mean == np.mean(np.array(ref, dtype=np.float64))
        assert sum(ref) > 0

    def test_chunk_size_leaves_the_bits(self, monkeypatch):
        # (2, 2.0, 1.0) is counted on the bases as given (trees of at most 36 nodes), (2, 1e3, 0.5) reduced
        for g, y, r2 in ((2, 2.0, 1.0), (2, 1e3, 0.5)):
            runs = []
            for chunk in (1, 7, 64, 100, 5000):
                monkeypatch.setattr(meanvalue, "ESTIMATE_CHUNK", chunk)
                runs.append(counted_estimate(monkeypatch, g, y, r2, 100, seed=11))
            for est, counts in runs[1:]:
                assert est == runs[0][0]
                assert counts == runs[0][1]
            assert len(set(runs[0][1])) > 1

    def test_reduction_side_stacks_and_stacks_of_one(self, monkeypatch):
        # 8 samples in chunks of 7: a stack of 7, then a stack of one
        monkeypatch.setattr(meanvalue, "ESTIMATE_CHUNK", 7)
        sizes = kernel_calls(monkeypatch)
        split = counted_estimate(monkeypatch, 2, 1e3, 0.5, 8, seed=11)
        assert sizes == [7, 1]
        monkeypatch.setattr(meanvalue, "ESTIMATE_CHUNK", 5000)
        assert counted_estimate(monkeypatch, 2, 1e3, 0.5, 8, seed=11) == split
        assert sizes == [7, 1, 8]
        # a single lattice is a stack of one
        systole(k_family_lattice(sample_vcube(2, 11, 0), 1e3))
        assert sizes == [7, 1, 8, 1]

    # mc-k's configuration, g = 4 at y = 2 and g = 8 at y = 1 run as given;
    # criterion 3 at g = 4 and y = 1e3 reduce
    @pytest.mark.parametrize("g, y, r2, reduced", [(2, 8.0, 0.25, False), (4, 2.0, 1.0, False),
                                                   (8, 1.0, 1.0, False), (4, 8.0, 1.0, True),
                                                   (2, 1e3, 0.5, True)])
    def test_side_each_configuration_takes(self, monkeypatch, g, y, r2, reduced):
        sizes = kernel_calls(monkeypatch)
        estimate_I(g, y, r2, 40, seed=7)
        assert sizes == ([40] if reduced else [])

    def test_enumeration_once_per_chunk_through_the_module(self, monkeypatch):
        monkeypatch.setattr(meanvalue, "ESTIMATE_CHUNK", 16)
        stacks = []
        original = _kernels.enumerate_core

        def recording(r, r2cap, node_budget):
            stacks.append(r.shape)
            return original(r, r2cap, node_budget)

        monkeypatch.setattr(_kernels, "enumerate_core", recording)
        est, counts = counted_estimate(monkeypatch, 2, 8.0, 0.25, 50, seed=3)
        assert stacks == [(16, 4, 4)] * 3 + [(2, 4, 4)]
        assert len(counts) == 50
        assert sum(counts) == round(est.mean * 50)

    def test_infinite_radius_is_refused(self):
        with pytest.raises(OutOfRange, match="squared radius must be positive and finite"):
            estimate_I(2, 8.0, math.inf, 5, seed=0)

    def test_radius_past_int64_raises(self):
        # the frontier's interval ends once wrapped here, giving a mean of 0.0
        with pytest.raises(RadiusTooLarge):
            estimate_I(2, 8.0, 1e40, 10, seed=1)


class TestKFamilyLattice:
    def test_basis_is_p_z_bit_for_bit(self):
        n = 0
        for g in (2, 4):
            for y in (0.5, 1.0, 8.0, 100.0, 1e3, 1e4):
                for i in range(25):
                    p = sample_vcube(g, 17, i)
                    ref = p_z(k_family_point(p, y))
                    basis = k_family_lattice(p, y).basis
                    assert np.array_equal(basis.view(np.int64), ref.view(np.int64))
                    n += 1
        assert n == 300

    @pytest.mark.parametrize("g, y", [(2, 0.5), (2, 8.0), (2, 1e4), (4, 0.5), (4, 8.0),
                                      (4, 1e4), (8, 0.5), (8, 8.0), (8, 1e4)])
    def test_stack_bases_are_p_z_bit_for_bit(self, g, y):
        wedges = vcube_wedges(g, 23, 0, 40)
        x = k_symmetric_stack(g, wedges)
        stack = k_family_bases(x, y)
        assert stack.shape == (40, 2 * g, 2 * g)
        for i in range(40):
            ref = p_z(k_family_point(sample_vcube(g, 23, i), y))
            assert np.array_equal(stack[i].view(np.int64), ref.view(np.int64))

    def test_estimate_draws_through_vcube_wedges(self, monkeypatch):
        calls = []

        def recording(g, seed, lo, hi):
            calls.append((g, seed, lo, hi))
            return vcube_wedges(g, seed, lo, hi)

        monkeypatch.setattr(meanvalue, "ESTIMATE_CHUNK", 4)
        monkeypatch.setattr(meanvalue, "vcube_wedges", recording)
        estimate_I(2, 8.0, 0.25, 10, seed=6)
        assert calls == [(2, 6, 0, 4), (2, 6, 4, 8), (2, 6, 8, 10)]

    def test_height_past_float64_reach_is_named(self):
        p = sample_vcube(2, 1, 0)
        for call in (lambda: k_family_lattice(p, 1e8),
                     lambda: estimate_I(2, 1e8, 0.25, 10, seed=1)):
            with pytest.raises(Singular, match=r"^float64 cannot represent the K-family basis "
                                               r"at height y = 1e\+08: smallest singular value "):
                call()
        # a height still in range builds and counts as before
        assert k_family_lattice(p, 1e7).dim == 4
        assert estimate_I(2, 1e7, 0.25, 10, seed=1).samples == 10

    @pytest.mark.parametrize("y, value", [(1e200, "0"), (1.35e154, "0"), (1e-200, "inf"),
                                          (7.4e-155, "inf")])
    def test_height_past_the_float_range_is_named(self, y, value):
        # 1/y^2 rounds to 0 or inf: the same named Singular as y = 1e8
        p = sample_vcube(2, 1, 0)
        reason = f"1/y^2 evaluates to {value} in float64"
        named = f"float64 cannot represent the K-family basis at height y = {y:g}: {reason}"
        for call in (lambda: k_family_lattice(p, y), lambda: estimate_I(2, y, 0.25, 3, seed=0)):
            with pytest.raises(Singular, match=f"^{re.escape(named)}$"):
                call()
        with pytest.raises(Singular, match=f"^{re.escape(reason)}$"):
            k_family_point(p, y)

    @pytest.mark.parametrize("y", [math.inf, -math.inf, math.nan, 0.0])
    def test_height_outside_the_positive_floats_is_out_of_range(self, y):
        p = sample_vcube(2, 1, 0)
        for call in (lambda: k_family_lattice(p, y), lambda: k_family_point(p, y),
                     lambda: k_family_bases(np.zeros((2, 2)), y),
                     lambda: estimate_I(2, y, 0.25, 3, seed=0)):
            with pytest.raises(OutOfRange, match="^height parameter y must be positive and finite$"):
                call()


class TestSweep:
    def test_trend_toward_limit(self):
        ests = limit_sweep(2, 0.25, [2.0, 4.0, 8.0, 16.0], 400, seed=6)
        limit = ball_volume_limit(2, 0.5)
        gaps = [abs(e.mean - limit) for e in ests]
        assert gaps[-1] < gaps[0]
        assert abs(ests[-1].mean - limit) <= 4.0 * max(ests[-1].stderr, 1e-3)

    def test_empty(self):
        for ys in ([], ()):
            with pytest.raises(OutOfRange, match="^need at least one height y$"):
                limit_sweep(2, 0.25, ys, 10, seed=0)

    def test_single(self):
        ests = limit_sweep(2, 0.25, [8.0], 20, seed=0)
        assert len(ests) == 1

    def test_requires_increasing(self):
        with pytest.raises(OutOfRange):
            limit_sweep(2, 0.25, [4.0, 2.0], 10, seed=0)


class TestMultiplicity:
    def test_k_family_always_divisible_by_four(self):
        for g in (2, 4):
            rep = multiplicity_check(g, "k", 25, seed=14)
            assert rep.divisor == 4
            assert rep.buckets_total > 0
            assert rep.all_divisible
            assert rep.violations == []

    def test_a2n_report(self):
        rep = multiplicity_check(4, "a2n", 10, seed=3)
        assert rep.divisor == 8
        assert 0.0 <= rep.pass_rate <= 1.0
        assert rep.buckets_divisible <= rep.buckets_total

    def test_deterministic(self):
        a = multiplicity_check(4, "a2n", 8, seed=5)
        b = multiplicity_check(4, "a2n", 8, seed=5)
        assert a == b

    def test_unknown_family(self):
        with pytest.raises(OutOfRange):
            multiplicity_check(2, "nope", 1)

    @pytest.mark.parametrize("factor", [0.5, math.nan, math.inf])
    def test_radius_factor_out_of_range(self, factor):
        # below 1 no bucket exists, and the empty report would read
        # all_divisible with a pass rate of 1.0
        with pytest.raises(OutOfRange, match="radius factor must be finite and at least 1"):
            multiplicity_check(2, "k", 3, radius_factor=factor)

    def test_radius_factor_one_reaches_the_systole(self):
        # one bucket per sample: its shortest vectors
        for family, g in (("k", 2), ("a2n", 4)):
            rep = multiplicity_check(g, family, 6, radius_factor=1.0, seed=1)
            assert rep.buckets_total == rep.samples


class TestSearch:
    def test_budget_one(self):
        res = witness_search(2, "k", None, 1, seed=8)
        assert res.evaluations == 1
        assert res.systole2 > 0

    def test_reproducible(self):
        a = witness_search(2, "k", None, 40, seed=8)
        b = witness_search(2, "k", None, 40, seed=8)
        assert a == b

    def test_monotone_in_budget(self):
        best = -1.0
        for budget in (1, 5, 20, 60):
            res = witness_search(2, "k", None, budget, seed=8)
            assert res.systole2 >= best
            best = res.systole2

    def test_target_stops_early(self):
        res = witness_search(2, "k", 0.2, 500, seed=8)
        assert res.systole2 >= 0.2
        assert res.evaluations < 500

    def test_a2n_family(self):
        res = witness_search(4, "a2n", None, 10, seed=8)
        assert res.systole2 > 0
        assert set(res.params) == {"x_row", "sqrt_y_row"}

    def test_within_the_hermite_bounds(self):
        # reads 1.41094: above Theorem 1's 0.9003, and no lattice of
        # dimension 4 and determinant 1 beats gamma_4 = sqrt(2) (D4)
        res = witness_search(2, "k", None, 2000, seed=99)
        assert bounds(2).theorem1 < res.systole2 <= math.sqrt(2.0)

    def test_regression_floor(self):
        # 80% of the g=2 lower bound, reached quickly from random starts
        res = witness_search(2, "k", None, 200, seed=1)
        assert res.systole2 >= 0.72

    def test_unknown_family(self):
        with pytest.raises(OutOfRange, match="unknown family 'nope'"):
            witness_search(2, "nope", None, 5, seed=1)
        # the budget is checked first
        with pytest.raises(OutOfRange, match="budget must be at least 1"):
            witness_search(2, "nope", None, 0, seed=1)

    # Full results of searches that restart and of targets first reached
    # after a restart: any change to the draws or their order moves them.
    PINNED = [
        ((4, "a2n", None, 501, 3), SearchResult(
            family="a2n", g=4, y=None, systole2=1.63864239404, evaluations=501, seed=3,
            params={"x_row": [0.24411006260302287, 0.0, 0.7966979608297982, 0.707753640820901],
                    "sqrt_y_row": [0.9355308266768088, 0.07624155223433153,
                                   0.28984462984473414, 0.24374122285678715]})),
        ((2, "k", None, 1001, 8), SearchResult(
            family="k", g=2, y=2.0382749676922565, systole2=1.38634207661, evaluations=1001,
            seed=8, params={"g": 2, "values": [{"i": 1, "j": 1, "value": 0.4999896592444661},
                                               {"i": 1, "j": 2, "value": 0.16051657216566503}]})),
        ((2, "k", 1.3864, 2000, 8), SearchResult(
            family="k", g=2, y=1.200615963171366, systole2=1.38794088417, evaluations=1203,
            seed=8, params={"g": 2, "values": [{"i": 1, "j": 1, "value": 0.5105408016688833},
                                               {"i": 1, "j": 2, "value": 0.507365868837901}]})),
        ((4, "a2n", 1.2, 600, 3), SearchResult(
            family="a2n", g=4, y=None, systole2=1.3443755752, evaluations=62, seed=3,
            params={"x_row": [0.30141976167071044, 0.0, 0.8981393747898434, 0.8923774490909041],
                    "sqrt_y_row": [0.9301897151941747, 0.23196927429608635,
                                   0.3052841138909075, 0.24735615140178577]})),
    ]

    @pytest.mark.parametrize("args, expected", PINNED)
    def test_pinned_trajectories(self, args, expected):
        g, family, target_r2, budget, seed = args
        assert witness_search(g, family, target_r2, budget, seed=seed) == expected

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf, -1.0, 0.0])
    def test_target_must_be_positive_and_finite(self, monkeypatch, target):
        # a NaN target would run the whole budget, one at or below 0 stop
        # after the first evaluation; both are refused before any evaluation
        monkeypatch.setattr(meanvalue, "systole", None)
        with pytest.raises(OutOfRange, match="^target squared systole must be positive and finite$"):
            witness_search(2, "k", target, 30, seed=8)
        # the budget is checked first
        with pytest.raises(OutOfRange, match="budget must be at least 1"):
            witness_search(2, "k", target, 0, seed=8)
