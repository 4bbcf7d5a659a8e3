"""Status codes of the numpy kernels, parity of the two enumeration kernels,
and parity of the lazy Gram-Schmidt LLL with a full recompute after every swap."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symplat import _kernels, bw_lattice

BIG_BUDGET = np.int64(10 ** 7)


def chol_upper(gram):
    return np.ascontiguousarray(np.linalg.cholesky(gram).T)


def assert_same_enumeration(a, b):
    assert a[0].dtype == b[0].dtype == np.int64
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1].view(np.int64), b[1].view(np.int64))
    assert a[2] == b[2]
    assert a[3] == b[3]


@st.composite
def trees(draw):
    """(upper Cholesky factor, squared radius) of a random SPD Gram matrix.

    Squared radii run from 0.3 to 4 times the first basis vector's, so
    trees fall on both sides of SMALL_TREE_NODES.
    """
    dim = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim))
    gram = m.T @ m + draw(st.floats(0.2, 2.0)) * np.eye(dim)
    r2 = float(gram[0, 0]) * draw(st.floats(0.3, 4.0))
    return chol_upper(gram), r2


def test_enumeration_budget_status(rng):
    gram = np.eye(4)
    r = chol_upper(gram)
    _, _, _, status = _kernels.enumerate_core(r, 100.0, np.int64(10))
    assert status == _kernels.BUDGET_EXCEEDED


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(trees())
def test_frontier_matches_depth_first(tree):
    r, r2 = tree
    ref = _kernels.enumerate_depth_first(r, r2, BIG_BUDGET)
    assert ref[3] == _kernels.OK
    assert_same_enumeration(_kernels.enumerate_frontier(r, r2, BIG_BUDGET), ref)
    assert_same_enumeration(_kernels.enumerate_core(r, r2, BIG_BUDGET), ref)


def test_frontier_matches_depth_first_over_many_chunks(monkeypatch):
    rng = np.random.default_rng(7)
    m = rng.normal(size=(6, 6))
    gram = m.T @ m + np.eye(6)
    r = chol_upper(gram)
    r2 = 3.0 * float(gram[0, 0])
    ref = _kernels.enumerate_depth_first(r, r2, BIG_BUDGET)
    assert ref[2] > 300      # over a hundred chunks of 3 rows
    monkeypatch.setattr(_kernels, "FRONTIER_CHUNK_ROWS", 3)
    assert_same_enumeration(_kernels.enumerate_frontier(r, r2, BIG_BUDGET), ref)


def test_frontier_on_ties():
    # Z^5: many nodes sit exactly on the radius and on interval ends.
    # 3 Z^2 below radius 3 - 1e-14: the interval ends fall 3e-15 short of
    # +-1, and only the 1e-12 slack takes those nodes into the tree.
    cases = [(np.eye(5), r2) for r2 in (1.0, 2.0, 3.0 * (1 + 1e-9))]
    cases.append((3.0 * np.eye(2), (3.0 - 1e-14) ** 2))
    for r, r2 in cases:
        ref = _kernels.enumerate_depth_first(r, r2, BIG_BUDGET)
        assert_same_enumeration(_kernels.enumerate_frontier(r, r2, BIG_BUDGET), ref)


def test_budget_is_exact_above_small_tree_threshold():
    r = np.eye(4)
    _, _, nodes, status = _kernels.enumerate_core(r, 4.0, BIG_BUDGET)
    assert status == _kernels.OK
    assert nodes > _kernels.SMALL_TREE_NODES
    for kernel in (_kernels.enumerate_core, _kernels.enumerate_frontier,
                   _kernels.enumerate_depth_first):
        assert kernel(r, 4.0, nodes)[3] == _kernels.OK
        _, _, over, status = kernel(r, 4.0, nodes - 1)
        assert status == _kernels.BUDGET_EXCEEDED
        assert over == nodes


# -- LLL ------------------------------------------------------------------------

def lll_full_recompute(w, v, delta):
    """The LLL kernel that recomputes every Gram-Schmidt row after every swap.

    ``_kernels.lll_core`` must match it bit for bit; it reads the module's
    constants at call time, so a monkeypatched LLL_MAX_ITER caps both.
    """
    d = w.shape[0]
    bstar = np.zeros((d, d))
    mu = np.zeros((d, d))
    nrm = np.zeros(d)
    need_gso = True
    k = 1
    it = 0
    while k < d:
        it += 1
        if it > _kernels.LLL_MAX_ITER:
            return _kernels.ITER_CAP
        if need_gso:
            for i in range(d):
                bstar[i] = w[i]
                for j in range(i):
                    m = np.dot(w[i], bstar[j]) / nrm[j]
                    mu[i, j] = m
                    bstar[i] = bstar[i] - m * bstar[j]
                mu[i, i] = 1.0
                s = np.dot(bstar[i], bstar[i])
                if s <= _kernels.GS_UNDERFLOW:
                    return _kernels.BREAKDOWN
                nrm[i] = s
            need_gso = False
        for j in range(k - 1, -1, -1):
            q = np.floor(mu[k, j] + 0.5)
            if q != 0.0:
                qi = np.int64(q)
                w[k] = w[k] - q * w[j]
                v[k] = v[k] - qi * v[j]
                mu[k, : j + 1] = mu[k, : j + 1] - q * mu[j, : j + 1]
        if nrm[k] >= (delta - mu[k, k - 1] * mu[k, k - 1]) * nrm[k - 1]:
            k += 1
        else:
            tmp = w[k].copy()
            w[k] = w[k - 1]
            w[k - 1] = tmp
            tmpv = v[k].copy()
            v[k] = v[k - 1]
            v[k - 1] = tmpv
            need_gso = True
            k = max(k - 1, 1)
    return _kernels.OK


def run_both(w, delta):
    """(status, w, v) of lll_core and of the reference on copies of ``w``."""
    out = []
    for kernel in (_kernels.lll_core, lll_full_recompute):
        wk = np.array(w, dtype=np.float64)
        vk = np.eye(wk.shape[0], dtype=np.int64)
        out.append((kernel(wk, vk, delta), wk, vk))
    return out


def assert_same_lll(a, b):
    assert a[0] == b[0]
    assert np.array_equal(a[1].view(np.int64), b[1].view(np.int64))
    assert np.array_equal(a[2], b[2])


def scramble(rng, d, r):
    """Unimodular L @ U with unit triangular factors, off-diagonals in [-r, r]."""
    low = np.eye(d, dtype=np.int64) + np.tril(rng.integers(-r, r + 1, size=(d, d)), -1)
    up = np.eye(d, dtype=np.int64) + np.triu(rng.integers(-r, r + 1, size=(d, d)), 1)
    return low @ up


BW_BASES = {n: bw_lattice(n).basis for n in (2, 3)}


@st.composite
def lll_inputs(draw):
    """(rows to reduce, delta): random, near-dependent or scrambled structured bases.

    Scrambled Z^n and Barnes-Wall bases have integer Gram matrices, so
    size-reduction coefficients meet exact half-integer ties.  There a mu
    row updated by size reduction and the same row recomputed can round
    to different integers, which random bases almost never show.
    """
    kind = draw(st.sampled_from(["random", "near_dependent", "zn", "bw2", "bw3"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    delta = draw(st.sampled_from([0.75, 0.99]))
    if kind == "random":
        d = draw(st.integers(2, 16))
        w = rng.normal(size=(d, d))
    elif kind == "near_dependent":
        d = draw(st.integers(2, 8))
        w = rng.normal(size=(d, d))
        eps = 10.0 ** -draw(st.integers(3, 8))
        w[-1] = rng.integers(-3, 4, size=d - 1) @ w[:-1] + eps * rng.normal(size=d)
    elif kind == "zn":
        w = scramble(rng, draw(st.integers(2, 16)), draw(st.integers(1, 3))).T.astype(np.float64)
    else:
        basis = BW_BASES[int(kind[2])]
        w = (basis @ scramble(rng, basis.shape[0], draw(st.integers(1, 3)))).T
    return np.ascontiguousarray(w), delta


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lll_inputs())
def test_lll_matches_full_recompute(case):
    w, delta = case
    new, ref = run_both(w, delta)
    assert ref[0] == _kernels.OK
    assert_same_lll(new, ref)


def test_lll_breakdown_on_underflowing_norm():
    # the second row's Gram-Schmidt norm is 1e-300, below GS_UNDERFLOW
    for w in ([[1.0, 0.0], [1.0, 1e-150]],
              [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1e-150]]):
        new, ref = run_both(w, 0.99)
        assert new[0] == ref[0] == _kernels.BREAKDOWN


def test_lll_iteration_cap_matches_reference(monkeypatch):
    w = np.random.default_rng(3).normal(size=(6, 6))
    capped = 0
    for cap in range(1, 1000):
        monkeypatch.setattr(_kernels, "LLL_MAX_ITER", cap)
        new, ref = run_both(w, 0.99)
        assert_same_lll(new, ref)
        if ref[0] == _kernels.OK:
            break
        assert ref[0] == _kernels.ITER_CAP
        capped += 1
    else:
        pytest.fail("the reference did not finish within 1000 iterations")
    assert capped > 20
