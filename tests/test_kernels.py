"""Status codes of the numpy kernels and parity of the two enumeration kernels."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symplat import _kernels

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
