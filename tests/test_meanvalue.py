import math

import numpy as np
import pytest

from symplat import (
    ball_volume_limit,
    bounds,
    estimate_I,
    limit_sweep,
    multiplicity_check,
    witness_search,
)
from symplat.errors import OddDimension, OutOfRange


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

    def test_single_sample(self):
        est = estimate_I(2, 8.0, 0.25, 1, seed=2)
        assert est.stderr == 0.0

    def test_validation(self):
        with pytest.raises(OutOfRange):
            estimate_I(2, 8.0, 0.25, 0, seed=0)
        with pytest.raises(OutOfRange):
            estimate_I(2, -1.0, 0.25, 1, seed=0)


class TestSweep:
    def test_trend_toward_limit(self):
        ests = limit_sweep(2, 0.25, [2.0, 4.0, 8.0, 16.0], 400, seed=6)
        limit = ball_volume_limit(2, 0.5)
        gaps = [abs(e.mean - limit) for e in ests]
        assert gaps[-1] < gaps[0]
        assert abs(ests[-1].mean - limit) <= 4.0 * max(ests[-1].stderr, 1e-3)

    def test_empty(self):
        assert limit_sweep(2, 0.25, [], 10, seed=0) == []

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

    def test_regression_floor(self):
        # 80% of the g=2 lower bound, reached quickly from random starts
        res = witness_search(2, "k", None, 200, seed=1)
        assert res.systole2 >= 0.72
