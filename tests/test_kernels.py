"""Errors raised by the kernels, parity of the two enumeration kernels,
parity of the lazy Gram-Schmidt LLL with a full recompute after every swap,
and parity of the scalar Jacobi sweep with a numpy one."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symplat import _kernels, a2n_eigenvalues, a2n_family_point, a2n_from_row, bw_lattice
from symplat.errors import NumericalBreakdown, RadiusTooLarge

BIG_BUDGET = 10 ** 7


def chol_upper(gram):
    return np.ascontiguousarray(np.linalg.cholesky(gram).T)


def assert_same_enumeration(a, b):
    assert a[0].dtype == b[0].dtype == np.int64
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1].view(np.int64), b[1].view(np.int64))
    assert type(a[2]) is type(b[2]) is int
    assert a[2] == b[2]


@st.composite
def trees(draw):
    """(upper Cholesky factor, squared radius) of a random SPD Gram matrix.

    Squared radii run from 0.3 to 4 times the first basis vector's, so
    trees fall on both sides of SMALL_TREE_NODES_PER_LEVEL.
    """
    dim = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim))
    gram = m.T @ m + draw(st.floats(0.2, 2.0)) * np.eye(dim)
    r2 = float(gram[0, 0]) * draw(st.floats(0.3, 4.0))
    return chol_upper(gram), r2


def test_enumeration_over_budget_raises():
    r = chol_upper(np.eye(4))
    with pytest.raises(RadiusTooLarge, match="^enumeration exceeded the node budget of 10; "
                                             "shrink the radius or raise the budget$"):
        _kernels.enumerate_core(r, 100.0, 10)


def test_frontier_matches_depth_first():
    sizes = []

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(trees())
    def check(tree):
        r, r2 = tree
        ref = _kernels.enumerate_frontier(r, r2, BIG_BUDGET)
        assert_same_enumeration(_kernels.enumerate_depth_first(r, r2, BIG_BUDGET), ref)
        assert_same_enumeration(_kernels.enumerate_core(r, r2, BIG_BUDGET), ref)
        sizes.append(ref[2] / r.shape[0])

    check()
    small = _kernels.SMALL_TREE_NODES_PER_LEVEL
    assert min(sizes) <= small < max(sizes)


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
    nodes = _kernels.enumerate_core(r, 4.0, BIG_BUDGET)[2]
    assert nodes == 140 > 4 * _kernels.SMALL_TREE_NODES_PER_LEVEL
    for kernel in (_kernels.enumerate_core, _kernels.enumerate_frontier,
                   _kernels.enumerate_depth_first):
        assert kernel(r, 4.0, nodes)[2] == nodes
        with pytest.raises(RadiusTooLarge, match=f"node budget of {nodes - 1};"):
            kernel(r, 4.0, nodes - 1)


# -- LLL ------------------------------------------------------------------------

def dot(x, y):
    """Left to right, each product and sum rounded on its own."""
    s = 0.0
    for a, b in zip(x, y):
        s += a * b
    return s


def lll_full_recompute(w, v, delta):
    """The LLL kernel that recomputes every Gram-Schmidt row after every swap.

    ``_kernels.lll_core`` must match it bit for bit; it reads the module's
    constants at call time, so a monkeypatched LLL_MAX_ITER caps both.
    Like the kernel it runs on Python numbers and writes ``w`` and ``v``
    back however it ends.
    """
    d = w.shape[0]
    rows = w.tolist()
    ops = v.tolist()
    bstar = [[0.0] * d for _ in range(d)]
    mu = [[0.0] * d for _ in range(d)]
    nrm = [0.0] * d
    need_gso = True
    k = 1
    it = 0
    try:
        while k < d:
            it += 1
            if it > _kernels.LLL_MAX_ITER:
                raise NumericalBreakdown(f"LLL exceeded its iteration cap of {_kernels.LLL_MAX_ITER}")
            if need_gso:
                for i in range(d):
                    bstar[i] = list(rows[i])
                    for j in range(i):
                        m = dot(rows[i], bstar[j]) / nrm[j]
                        mu[i][j] = m
                        bstar[i] = [a - m * b for a, b in zip(bstar[i], bstar[j])]
                    mu[i][i] = 1.0
                    s = dot(bstar[i], bstar[i])
                    if s <= _kernels.GS_UNDERFLOW:
                        raise NumericalBreakdown("Gram-Schmidt norms underflowed during LLL")
                    nrm[i] = s
                need_gso = False
            for j in range(k - 1, -1, -1):
                q = math.floor(mu[k][j] + 0.5)
                if q != 0:
                    rows[k] = [a - q * b for a, b in zip(rows[k], rows[j])]
                    ops[k] = [a - q * b for a, b in zip(ops[k], ops[j])]
                    for t in range(j + 1):
                        mu[k][t] -= q * mu[j][t]
            if nrm[k] >= (delta - mu[k][k - 1] * mu[k][k - 1]) * nrm[k - 1]:
                k += 1
            else:
                rows[k], rows[k - 1] = rows[k - 1], rows[k]
                ops[k], ops[k - 1] = ops[k - 1], ops[k]
                need_gso = True
                k = max(k - 1, 1)
    finally:
        w[:] = rows
        v[:] = ops


def raised(fn, *args):
    """(type, message) of the NumericalBreakdown ``fn(*args)`` raises, else None."""
    try:
        fn(*args)
    except NumericalBreakdown as exc:
        return type(exc), str(exc)
    return None


def run_both(w, delta):
    """(error, w, v) of lll_core and of the reference on copies of ``w``."""
    out = []
    for kernel in (_kernels.lll_core, lll_full_recompute):
        wk = np.array(w, dtype=np.float64)
        vk = np.eye(wk.shape[0], dtype=np.int64)
        out.append((raised(kernel, wk, vk, delta), wk, vk))
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

LLL_DIMS = st.one_of(st.integers(2, 15), st.integers(16, 20))


@st.composite
def lll_inputs(draw):
    """(rows to reduce, delta): random, near-dependent or scrambled structured bases.

    Scrambled Z^n and Barnes-Wall bases have integer Gram matrices, so
    size-reduction coefficients meet exact half-integer ties.  There a mu
    row updated by size reduction and the same row recomputed can round
    to different integers, which random bases almost never show.  Random
    and Z^n dimensions fall on both sides of 16, the length at which
    numpy's dot switches BLAS kernels on common builds.
    """
    kind = draw(st.sampled_from(["random", "near_dependent", "zn", "bw2", "bw3"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    delta = draw(st.sampled_from([0.75, 0.99]))
    if kind == "random":
        d = draw(LLL_DIMS)
        w = rng.normal(size=(d, d))
    elif kind == "near_dependent":
        d = draw(st.integers(2, 8))
        w = rng.normal(size=(d, d))
        eps = 10.0 ** -draw(st.integers(3, 8))
        w[-1] = rng.integers(-3, 4, size=d - 1) @ w[:-1] + eps * rng.normal(size=d)
    elif kind == "zn":
        w = scramble(rng, draw(LLL_DIMS), draw(st.integers(1, 3))).T.astype(np.float64)
    else:
        basis = BW_BASES[int(kind[2])]
        w = (basis @ scramble(rng, basis.shape[0], draw(st.integers(1, 3)))).T
    return np.ascontiguousarray(w), delta


def test_lll_matches_full_recompute():
    dims = []

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(lll_inputs())
    def check(case):
        w, delta = case
        new, ref = run_both(w, delta)
        assert ref[0] is None
        assert_same_lll(new, ref)
        dims.append(w.shape[0])

    check()
    assert min(dims) < 16 <= max(dims)


def test_lll_breakdown_on_underflowing_norm():
    # the second row's Gram-Schmidt norm is 1e-300, below GS_UNDERFLOW
    for w in ([[1.0, 0.0], [1.0, 1e-150]],
              [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1e-150]]):
        new, ref = run_both(w, 0.99)
        assert new[0] == ref[0] == (NumericalBreakdown, "Gram-Schmidt norms underflowed during LLL")


def test_lll_iteration_cap_matches_reference(monkeypatch):
    w = np.random.default_rng(3).normal(size=(6, 6))
    capped = 0
    for cap in range(1, 1000):
        monkeypatch.setattr(_kernels, "LLL_MAX_ITER", cap)
        new, ref = run_both(w, 0.99)
        assert_same_lll(new, ref)
        if ref[0] is None:
            break
        assert ref[0] == (NumericalBreakdown, f"LLL exceeded its iteration cap of {cap}")
        capped += 1
    else:
        pytest.fail("the reference did not finish within 1000 iterations")
    assert capped > 20


# -- Jacobi ---------------------------------------------------------------------

def jacobi_reference(a, q, rel_tol, max_sweeps):
    """The cyclic Jacobi kernel that rotates whole numpy columns and rows.

    ``_kernels.jacobi_core`` must match it bit for bit in the diagonal of
    ``a`` and in ``q``, in the sweep count, and in the error it raises.
    """
    n = a.shape[0]
    fro = np.sqrt(np.sum(a * a))
    thresh = rel_tol * fro
    for sweep in range(max_sweeps):
        off = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                off += 2.0 * a[i, j] * a[i, j]
        if np.sqrt(off) <= thresh:
            return sweep
        for p in range(n - 1):
            for r_ in range(p + 1, n):
                apq = a[p, r_]
                if apq == 0.0:
                    continue
                tau = (a[r_, r_] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                colp = a[:, p].copy()
                colq = a[:, r_].copy()
                a[:, p] = c * colp - s * colq
                a[:, r_] = s * colp + c * colq
                rowp = a[p, :].copy()
                rowq = a[r_, :].copy()
                a[p, :] = c * rowp - s * rowq
                a[r_, :] = s * rowp + c * rowq
                a[p, r_] = 0.0
                a[r_, p] = 0.0
                qp = q[:, p].copy()
                qq = q[:, r_].copy()
                q[:, p] = c * qp - s * qq
                q[:, r_] = s * qp + c * qq
    raise NumericalBreakdown("Jacobi sweeps did not converge within the sweep cap")


def assert_same_jacobi(s, max_sweeps=100, rel_tol=1e-12):
    """Run both Jacobi kernels on copies of symmetric ``s``; return the sweep count."""
    s = np.array(s, dtype=np.float64)
    a = s.copy()
    q = np.eye(a.shape[0])
    with np.errstate(over="ignore"):     # tau * tau may overflow to inf
        ref = jacobi_reference(a, q, rel_tol, max_sweeps)
    s_in = s.copy()
    sweeps, d, q_new = _kernels.jacobi_core(s_in, rel_tol, max_sweeps)
    assert type(sweeps) is int and sweeps == ref
    assert np.array_equal(d.view(np.int64), np.diag(a).view(np.int64))
    assert np.array_equal(q_new.view(np.int64), q.view(np.int64))
    assert np.array_equal(s_in.view(np.int64), s.view(np.int64))    # input untouched
    return sweeps


def symmetrize(m):
    return 0.5 * (m + m.T)


@st.composite
def jacobi_inputs(draw):
    """Symmetric matrices: random dense, XOR-family X and Y at g=8,
    Walsh-patterned rows (criterion 6's inputs), diagonal, zero, and
    matrices with exact-zero off-diagonal entries.  A block-diagonal
    matrix keeps its zeros through every rotation, so the kernels keep
    skipping them after the first sweep."""
    kind = draw(st.sampled_from(["random", "xor_x", "xor_y", "walsh", "diagonal", "zero",
                                 "sparse", "blocks"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "random":
        return symmetrize(rng.normal(size=(draw(st.integers(1, 32)),) * 2))
    if kind in ("xor_x", "xor_y"):
        s_row = rng.uniform(0.0, 1.0, 8)
        s_row[0] += 0.1 - min(float(np.min(a2n_eigenvalues(s_row))), 0.0)
        z = a2n_family_point(rng.uniform(0.0, 1.0, 8), s_row)
        return z.x if kind == "xor_x" else z.y
    if kind == "walsh":
        return a2n_from_row(rng.normal(size=2 ** draw(st.integers(1, 5))))
    n = draw(st.integers(1, 16))
    if kind == "diagonal":
        return np.diag(rng.normal(size=n))
    if kind == "zero":
        return np.zeros((n, n))
    m = symmetrize(rng.normal(size=(n, n)))
    if kind == "sparse":
        return m * symmetrize(rng.random((n, n)) < 0.5)
    k = draw(st.integers(0, n))
    m[:k, k:] = 0.0
    m[k:, :k] = 0.0
    return m


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(jacobi_inputs())
def test_jacobi_matches_numpy_reference(s):
    assert_same_jacobi(s)


@pytest.mark.parametrize("dim", [16, 24, 32])
def test_jacobi_matches_numpy_reference_at_large_dims(dim):
    rng = np.random.default_rng(dim)
    assert assert_same_jacobi(symmetrize(rng.normal(size=(dim, dim)))) > 0
    if dim != 24:
        assert assert_same_jacobi(a2n_from_row(rng.normal(size=dim))) > 0


@pytest.mark.parametrize("max_sweeps", [0, 1, 2, 3])
def test_jacobi_iteration_cap_matches_reference(max_sweeps):
    s = symmetrize(np.random.default_rng(9).normal(size=(12, 12)))
    with np.errstate(over="ignore"):
        ref = raised(jacobi_reference, s.copy(), np.eye(12), 1e-12, max_sweeps)
    new = raised(_kernels.jacobi_core, s, 1e-12, max_sweeps)
    assert new == ref == (NumericalBreakdown, "Jacobi sweeps did not converge within the sweep cap")
