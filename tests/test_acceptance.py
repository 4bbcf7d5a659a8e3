"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import functools
import math

import numpy as np
import pytest

import symplat as sp
from symplat.cli import main as cli_main

from conftest import brute_force_short, coord_multiset, random_circulant_row


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL - {desc}")
                raise
            print(f"ACCEPTANCE {num}: PASS - {desc}")
        return wrapper
    return deco


@criterion(1, "bound values exact to 1e-12 relative, ratio 2^(1/g) for g<=40")
def test_criterion_1_bounds(capsys):
    import json

    code = cli_main(["bounds", "--g", "2", "--stable-output"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    res = out["result"]
    assert abs(res["buser_sarnak"] - 2.0 / math.pi) <= 1e-12 * (2.0 / math.pi)
    th = 2.0 * math.sqrt(2.0) / math.pi
    assert abs(res["theorem1"] - th) <= 1e-12 * th
    for g in range(2, 41, 2):
        b = sp.bounds(g)
        ratio = b.theorem1 / b.buser_sarnak
        assert abs(ratio - 2.0 ** (1.0 / g)) <= 1e-12 * 2.0 ** (1.0 / g), g


@criterion(2, "Barnes-Wall systole^2 = sqrt(g/2) for g in {4, 8, 16} within 1e-6")
def test_criterion_2_barnes_wall():
    for n, g in ((1, 4), (2, 8), (3, 16)):
        s2, _ = sp.systole(sp.bw_lattice(n))
        expected = math.sqrt(g / 2.0)
        assert abs(s2 - expected) <= 1e-6 * expected, (n, g, s2)


@pytest.mark.slow
@criterion("2-long", "Barnes-Wall systole^2 at g=32 (gated long case)")
def test_criterion_2_long_g32(bw32_systole):
    s2, _ = bw32_systole
    assert abs(s2 - 4.0) <= 1e-6 * 4.0


@criterion(3, "mean at g=2, y=8, r2=0.25, 1e4 samples within 4 stderr of pi^2 r2^2 / 2")
def test_criterion_3_mean_value_limit():
    est = sp.estimate_I(2, 8.0, 0.25, 10_000, seed=20240811)
    limit = math.pi ** 2 * 0.25 ** 2 / 2.0
    assert abs(est.mean - limit) <= 4.0 * est.stderr, (est.mean, est.stderr, limit)


@criterion("3-g4", "mean at g=4, y=8, r2=1, 1e4 samples within 4 stderr of pi^4 / 24, total divisible by 4")
def test_criterion_3_mean_value_limit_at_g4():
    est = sp.estimate_I(4, 8.0, 1.0, 10_000, seed=20240811)
    limit = sp.ball_volume_limit(4, 1.0)
    assert abs(est.mean - limit) <= 4.0 * est.stderr, (est.mean, est.stderr, limit)
    total = round(est.mean * est.samples)
    assert abs(est.mean * est.samples - total) < 1e-6 and total % 4 == 0, est.mean


@criterion(4, "200 K-family lattices at g in {2, 4}: all bucket counts divisible by 4")
def test_criterion_4_multiplicity_of_four():
    for g in (2, 4):
        rep = sp.multiplicity_check(g, "k", 100, radius_factor=2.0, seed=1000 + g)
        assert rep.buckets_total > 0
        assert rep.all_divisible, rep.violations
        assert rep.violations == []


@criterion(5, "circulant bases give g-1 witnesses, XOR-family lattices 2^n - 1")
def test_criterion_5_symmetry_counts():
    rng = np.random.default_rng(55)
    bases = 0
    for g in range(3, 13):
        c = sp.cyclic_shift(g).astype(float)
        cands = []
        power = np.eye(g)
        for _ in range(g - 1):
            power = power @ c
            cands.append(power.copy())
        for _ in range(10):
            a = sp.circulant_from_row(random_circulant_row(rng, g))
            count, witnesses = sp.count_symmetries(sp.from_basis(a), cands)
            assert count == g - 1, g
            bases += 1
    assert bases == 100

    lattices = 0
    for n, reps in ((1, 34), (2, 33), (3, 33)):
        g = 2 ** n
        for _ in range(reps):
            x_row = rng.uniform(0.0, 1.0, size=g)
            s_row = rng.uniform(0.0, 1.0, size=g)
            s_row[0] += g
            witnesses = sp.verify_a2n_symmetries(sp.a2n_family_point(x_row, s_row))
            assert len(witnesses) == 2 ** n - 1
            for w in witnesses:
                assert w.residual <= 1e-9
                assert abs(sp.det_int(w.r)) == 1
            lattices += 1
    assert lattices == 100


@criterion(6, "Walsh eigenvalue residuals <= 1e-9 ||A||_inf; multisets match Jacobi to 1e-8")
def test_criterion_6_eigendecomposition():
    rng = np.random.default_rng(66)
    for n in range(1, 6):
        g = 2 ** n
        v = sp.walsh_matrix(n)
        for _ in range(500):
            row = rng.normal(size=g)
            a = sp.a2n_from_row(row)
            d = sp.a2n_eigenvalues(row)
            resid = np.max(np.abs(a @ v - v @ np.diag(d)))
            assert resid <= 1e-9 * max(np.max(np.abs(a)), 1e-30)
            _, dense = sp.sym_eig(a)
            assert np.max(np.abs(np.sort(d) - np.sort(dense))) <= 1e-8


@criterion(7, "enumeration equals axis-bounded brute force exactly, 200 bases")
def test_criterion_7_enumeration_oracle():
    rng = np.random.default_rng(77)
    for trial in range(200):
        dim = int(rng.integers(2, 5))
        r2 = float(rng.uniform(0.5, 9.0))
        while True:
            b = rng.uniform(-1.0, 1.0, size=(dim, dim))
            if abs(np.linalg.det(b)) <= 0.3:
                continue
            if math.sqrt(r2) * np.linalg.norm(np.linalg.inv(b), 2) <= 9.0:
                break
        rep = sp.enumerate_short(sp.from_basis(b), r2)
        ref_coords, _ = brute_force_short(b, r2)
        assert coord_multiset(rep.vectors) == coord_multiset(ref_coords), trial


@criterion(8, "500 Siegel points: symplectic to 1e-9 and |det - 1| <= 1e-9")
def test_criterion_8_symplecticity():
    rng = np.random.default_rng(88)
    per_g = {1: 125, 2: 125, 4: 125, 8: 125}
    for g, reps in per_g.items():
        for _ in range(reps):
            x = rng.normal(size=(g, g))
            m = rng.normal(size=(g, g))
            z = sp.siegel_point(0.5 * (x + x.T), m.T @ m + np.eye(g))
            basis = sp.p_z(z)
            assert sp.is_symplectic(basis)
            assert abs(np.linalg.det(basis) - 1.0) <= 1e-9


@criterion(9, "witness search at g=2, budget 2000: systole^2 >= 0.72 regression floor")
def test_criterion_9_witness_search():
    res = sp.witness_search(2, "k", None, 2000, seed=99)
    assert res.systole2 >= 0.72, res.systole2


@criterion(10, "XOR-family divisibility-by-2g report exists and is deterministic")
def test_criterion_10_conjecture_premise_report():
    rep1 = sp.multiplicity_check(4, "a2n", 20, radius_factor=2.0, seed=10)
    rep2 = sp.multiplicity_check(4, "a2n", 20, radius_factor=2.0, seed=10)
    assert rep1.divisor == 8
    assert rep1.buckets_total > 0
    assert 0.0 <= rep1.pass_rate <= 1.0
    assert rep1 == rep2
