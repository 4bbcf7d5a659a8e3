"""Errors raised by the kernels, parity of the depth-first and frontier
enumeration kernels on one tree and of a stacked walk with one call per tree,
of the frontier's in-place product step with its expression form,
parity of the lazy Gram-Schmidt LLL and of the stacked LLL with a full
recompute after every swap, on both sides of the stack's handoff to the
scalar loop, of the stacked Gram-Schmidt with a per-sample one, and parity
of the scalar Jacobi sweep with a numpy one."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symplat import _kernels, a2n_eigenvalues, a2n_family_point, a2n_from_row, bw_lattice, p_z, sample_vcube
from symplat.errors import NumericalBreakdown, RadiusTooLarge
from symplat.meanvalue import k_family_lattice
from symplat.patterned import k_symmetric_stack
from symplat.symplectic import k_family_bases, vcube_wedges

BIG_BUDGET = 10 ** 7


def xor_family_point(rng, g):
    """A random XOR-family point of dimension g as the xor-verify benchmark
    draws one: its sqrt(Y) row shifted to a Walsh minimum of 0.1."""
    x_row = rng.uniform(0.0, 1.0, g)
    s_row = rng.uniform(0.0, 1.0, g)
    emin = float(np.min(a2n_eigenvalues(s_row)))
    if emin < 0.1:
        s_row[0] += 0.1 - emin
    return a2n_family_point(x_row, s_row)


def chol_upper(gram):
    return np.ascontiguousarray(np.linalg.cholesky(gram).T)


def assert_same_enumeration(a, b):
    assert a[0].dtype == b[0].dtype == np.int64
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1].view(np.int64), b[1].view(np.int64))
    assert type(a[2]) is type(b[2]) is int
    assert a[2] == b[2]


@st.composite
def trees(draw, min_scale=0.3, dims=st.integers(2, 8)):
    """(upper Cholesky factor, squared radius) of a random SPD Gram matrix.

    Squared radii run from ``min_scale`` (by default 0.3) to 4 times the
    first basis vector's, so trees fall on both sides of
    SMALL_TREE_NODES_PER_LEVEL.  The dimension is drawn from ``dims``.
    """
    dim = draw(dims)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim))
    gram = m.T @ m + draw(st.floats(0.2, 2.0)) * np.eye(dim)
    r2 = float(gram[0, 0]) * draw(st.floats(min_scale, 4.0))
    return chol_upper(gram), r2


def frontier(r, r2cap, node_budget):
    """The frontier walker on one tree, as its stack of one, less the tree index."""
    return _kernels.enumerate_frontier(r[None], r2cap, node_budget)[1:]


ENUMERATION_KERNELS = (_kernels.enumerate_depth_first, frontier, _kernels.enumerate_core)

#: (id, R, squared radius) trees whose nodes sit on ties.  Z^5: many nodes
#: sit exactly on the radius and on interval ends.  3 Z^2 below radius
#: 3 - 1e-14: the interval ends fall 3e-15 short of +-1, and only the
#: 1e-12 slack takes those nodes into the tree.
TIES = [(f"z5-r2-{r2:g}", np.eye(5), r2) for r2 in (1.0, 2.0, 3.0 * (1 + 1e-9))]
TIES.append(("3z2", 3.0 * np.eye(2), (3.0 - 1e-14) ** 2))


def many_chunks_tree():
    """A seeded 6-dim tree of over 300 nodes: over a hundred chunks of 3 rows."""
    rng = np.random.default_rng(7)
    m = rng.normal(size=(6, 6))
    gram = m.T @ m + np.eye(6)
    return chol_upper(gram), 3.0 * float(gram[0, 0])


def assert_mirrored(out):
    """Rows are concat(-H[::-1], H): reversed, they are negated, with bit-equal norms."""
    coords, norms, _ = out
    assert np.array_equal(coords[::-1], -coords)
    assert np.array_equal(norms[::-1].view(np.uint64), norms.view(np.uint64))


def assert_kernels_agree_and_mirror(r, r2):
    """Every kernel returns the depth-first rows, norms and nodes, mirrored."""
    ref = _kernels.enumerate_depth_first(r, r2, BIG_BUDGET)
    for kernel in ENUMERATION_KERNELS:
        out = kernel(r, r2, BIG_BUDGET)
        assert_same_enumeration(out, ref)
        assert_mirrored(out)
    return ref


def test_enumeration_over_budget_raises():
    r = chol_upper(np.eye(4))
    with pytest.raises(RadiusTooLarge, match="^enumeration exceeded the node budget of 10; "
                                             "shrink the radius or raise the budget$"):
        _kernels.enumerate_core(r, 100.0, 10)


def test_interval_past_int64_raises_in_every_kernel():
    # z[1] = 1 puts z[0] near -1e19, past int64, where the frontier's cast once wrapped
    r = np.array([[1.0, 1e19], [0.0, 1.0]])
    for kernel in ENUMERATION_KERNELS:
        with pytest.raises(RadiusTooLarge, match="int64"):
            kernel(r, 1.1, BIG_BUDGET)
    # the same tree within reach keeps every kernel's bits
    r[0, 1] = 1e17
    ref = _kernels.enumerate_depth_first(r, 1.1, BIG_BUDGET)
    assert ref[0][:, 0].max() == 10 ** 17
    for kernel in ENUMERATION_KERNELS[1:]:
        assert_same_enumeration(kernel(r, 1.1, BIG_BUDGET), ref)


def test_child_count_past_the_budget_raises_before_the_cast():
    # 2e19 children of the root: past int64 and past any budget
    with pytest.raises(RadiusTooLarge, match="node budget"):
        _kernels.enumerate_frontier(np.eye(2)[None], 1e38, BIG_BUDGET)


def test_frontier_matches_depth_first():
    sizes = []

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(trees())
    def check(tree):
        r, r2 = tree
        sizes.append(assert_kernels_agree_and_mirror(r, r2)[2] / r.shape[0])

    check()
    small = _kernels.SMALL_TREE_NODES_PER_LEVEL
    assert min(sizes) <= small < max(sizes)


def test_frontier_matches_depth_first_over_many_chunks(monkeypatch):
    r, r2 = many_chunks_tree()
    monkeypatch.setattr(_kernels, "FRONTIER_CHUNK_ROWS", 3)
    assert assert_kernels_agree_and_mirror(r, r2)[2] > 300


def test_frontier_on_ties():
    for _, r, r2 in TIES:
        assert_kernels_agree_and_mirror(r, r2)


def test_budget_is_exact_above_small_tree_threshold():
    r = np.eye(4)
    nodes = _kernels.enumerate_core(r, 4.0, BIG_BUDGET)[2]
    assert nodes == 140 > 4 * _kernels.SMALL_TREE_NODES_PER_LEVEL
    for kernel in ENUMERATION_KERNELS:
        assert kernel(r, 4.0, nodes)[2] == nodes
        with pytest.raises(RadiusTooLarge, match=f"node budget of {nodes - 1};"):
            kernel(r, 4.0, nodes - 1)


def test_budget_is_exact_on_random_trees():
    # The frontier walks half the tree against (budget + d) // 2.  The
    # full count is 2 * half - d, so nodes + d is even and nodes - 1 + d
    # odd: the two budgets cover both parities.
    large = []

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(trees(min_scale=1.5))
    def check(tree):
        r, r2 = tree
        d = r.shape[0]
        nodes = _kernels.enumerate_depth_first(r, r2, BIG_BUDGET)[2]
        if nodes <= _kernels.SMALL_TREE_NODES_PER_LEVEL * d:
            return
        large.append(nodes)
        assert (nodes + d) % 2 == 0
        for kernel in (frontier, _kernels.enumerate_core):
            assert kernel(r, r2, nodes)[2] == nodes
            with pytest.raises(RadiusTooLarge, match=f"node budget of {nodes - 1};"):
                kernel(r, r2, nodes - 1)

    check()
    assert len(large) >= 5


# -- stacks of trees -----------------------------------------------------------

@st.composite
def stacks(draw):
    """(N x d x d stack of upper Cholesky factors, squared radius): 1 to 12
    ``trees()`` of one dimension from 1 to 6, enumerated to the first one's radius.

    The trees share their last s levels, s from 0 to d: each takes the
    first one's R[d-s:, d-s:], so at s = d the trees are identical.
    """
    dim = draw(st.integers(1, 6))
    members = draw(st.lists(trees(dims=st.just(dim)), min_size=1, max_size=12))
    r = np.array([r for r, _ in members])
    k = dim - draw(st.integers(0, dim))
    r[:, k:, k:] = r[0, k:, k:]
    return r, members[0][1]


def shared_stack(n, d, shared, seed):
    """n random trees of dimension d that share their last ``shared`` levels."""
    rng = np.random.default_rng(seed)
    r = []
    for _ in range(n):
        m = rng.normal(size=(d, d))
        r.append(chol_upper(m.T @ m + np.eye(d)))
    r = np.array(r)
    r[:, d - shared:, d - shared:] = r[0, d - shared:, d - shared:]
    return r


def shared_level(r, r2):
    """The level ``enumerate_frontier``'s product expands at, plus one: d
    when the stack's walk shares nothing."""
    return _kernels._shared_top(r, r2, BIG_BUDGET, np.zeros(r.shape[0]))[0]


def assert_stack_is_its_trees(r, r2):
    """One stacked walk finds, tree by tree, what one call per tree finds:
    the counts, the coordinate rows and norms in order and bit for bit, and
    the summed nodes.  A stacked ``enumerate_core`` call returns the walk's
    tree indices, norms and nodes."""
    tree, coords, norms, nodes = _kernels.enumerate_frontier(r, r2, BIG_BUDGET)
    assert_same_enumeration(_kernels.enumerate_core(r, r2, BIG_BUDGET), (tree, norms, nodes))
    outs = [_kernels.enumerate_core(ri, r2, BIG_BUDGET) for ri in r]
    assert np.bincount(tree, minlength=r.shape[0]).tolist() == [out[0].shape[0] for out in outs]
    assert nodes == sum(out[2] for out in outs)
    # concat(T[::-1], T), T in depth-first order, so each tree's half of
    # T holds its one-tree call's second half, H
    assert np.array_equal(tree[::-1], tree)
    assert_mirrored((coords, norms, nodes))
    m = tree.shape[0] // 2
    for i, (c, h, _) in enumerate(outs):
        assert np.array_equal(norms[m:][tree[m:] == i].view(np.uint64),
                              h[h.shape[0] // 2:].view(np.uint64))
        assert np.array_equal(coords[tree == i], c)
        assert np.array_equal(norms[tree == i].view(np.uint64), h.view(np.uint64))


def assert_stack_budget_is_exact(r, r2):
    """The stack passes at its largest tree's node count and raises one below."""
    largest = max(_kernels.enumerate_core(ri, r2, BIG_BUDGET)[2] for ri in r)
    assert _kernels.enumerate_core(r, r2, largest)[2] == _kernels.enumerate_core(r, r2, BIG_BUDGET)[2]
    with pytest.raises(RadiusTooLarge, match=f"^enumeration exceeded the node budget of {largest - 1}; "
                                             "shrink the radius or raise the budget$"):
        _kernels.enumerate_core(r, r2, largest - 1)


def test_stack_matches_one_call_per_tree():
    sizes = []
    shared = []

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stacks())
    def check(stack):
        r, r2 = stack
        assert_stack_is_its_trees(r, r2)
        assert_stack_budget_is_exact(r, r2)
        sizes.append(r.shape[0])
        shared.append(r.shape[1] - shared_level(r, r2))

    check()
    assert min(sizes) == 1 < max(sizes)
    assert shared.count(0) > 10 and sum(s > 0 for s in shared) > 10


def stack_cases():
    """Named (stack, squared radius) cases the random stacks may miss."""
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 6))
    random6 = chol_upper(m.T @ m + np.eye(6))
    # each tie tree beside the unit and a scaled tree of its dimension
    ties = [(f"ties-{name}", np.array([r, np.eye(r.shape[0]), 1.5 * r]), r2) for name, r, r2 in TIES]
    return ties + [
        ("d1", np.array([[[1.0]], [[0.5]], [[2.0]], [[3.0]]]), 4.0),
        ("one-z5", np.eye(5)[None], 2.0),
        ("one-random", random6[None], 2.0 * float(random6[0, 0] ** 2)),
        ("identical", np.array([random6] * 3), 2.0 * float(random6[0, 0] ** 2)),
        # float32 rows, of an odd dimension, compared as int32 bits
        ("float32-d3", shared_stack(4, 3, 2, 14).astype(np.float32), 3.0),
        # mc-k's P_Z trees, which share their last g = 2 levels
        ("k-family", k_family_bases(k_symmetric_stack(2, vcube_wedges(2, 3, 0, 40)), 8.0), 0.25 * (1 + 1e-9)),
        # Z^6's level-1 frontier at r2 = 20 holds over 5,000 half-space nodes
        ("over-a-chunk", np.array([np.eye(6), 2.0 * np.eye(6), random6]), 20.0),
    ]


@pytest.mark.parametrize("r, r2", [case[1:] for case in stack_cases()],
                         ids=[case[0] for case in stack_cases()])
def test_stack_cases_match_one_call_per_tree(r, r2):
    assert_stack_is_its_trees(r, r2)
    assert_stack_budget_is_exact(r, r2)


def test_largest_stack_case_crosses_a_chunk(monkeypatch):
    # the level-1 children of one chunk of parents: more than one chunk
    # of them means the walk below splits them
    _, r, r2 = stack_cases()[-1]
    widths = []
    children = _kernels._children

    def recording(r2cap, rk, rkk, zt, *rest):
        out = children(r2cap, rk, rkk, zt, *rest)
        if zt.shape[0] == r.shape[1] - 2:
            widths.append(out[1].shape[0])
        return out

    monkeypatch.setattr(_kernels, "_children", recording)
    _kernels.enumerate_core(r, r2, BIG_BUDGET)
    assert max(widths) > _kernels.FRONTIER_CHUNK_ROWS


def test_stack_over_many_chunks(monkeypatch):
    _, r, r2 = stack_cases()[-1]
    monkeypatch.setattr(_kernels, "FRONTIER_CHUNK_ROWS", 3)
    assert_stack_is_its_trees(r[:, :4, :4], 4.0)


def test_stack_cases_share_as_built():
    cases = {name: (r, r2) for name, r, r2 in stack_cases()}
    assert shared_level(*cases["identical"]) == 1
    assert shared_level(*cases["k-family"]) == 2
    assert shared_level(*cases["float32-d3"]) == 1
    for name in ("over-a-chunk", "one-random", "d1"):
        assert shared_level(*cases[name]) == cases[name][0].shape[1]


def test_shared_stack_over_many_chunks(monkeypatch):
    # the shared walk stops where a level passes 3 nodes, and the product
    # runs in blocks of a few trees
    r = shared_stack(12, 5, 4, 11)
    r2 = 1.5 * float(r[0, 0, 0] ** 2)
    assert shared_level(r, r2) == 1
    monkeypatch.setattr(_kernels, "FRONTIER_CHUNK_ROWS", 3)
    assert 1 < shared_level(r, r2) < 5
    assert_stack_is_its_trees(r, r2)
    assert_stack_budget_is_exact(r, r2)


def radius_errors(r, r2, budget):
    """The RadiusTooLarge message of the stacked walk, then of each tree's own
    call; None where a walk passes."""
    def message(x):
        try:
            _kernels.enumerate_frontier(x, r2, budget)
        except RadiusTooLarge as exc:
            return str(exc)
        return None

    return message(r), [message(ri[None]) for ri in r]


def test_shared_levels_alone_pass_the_budget():
    r = shared_stack(5, 5, 4, 12)
    r2 = 9.0
    half = np.zeros(5)
    _kernels._shared_top(r, r2, BIG_BUDGET, half)
    walked = int(half[0])
    assert walked > 20 and (half == walked).all()
    # the largest budget whose half, (budget + d) // 2, is below the shared walk's
    budget = 2 * walked - 5 - 1
    stacked, alone = radius_errors(r, r2, budget)
    assert stacked == alone[0] == f"enumeration exceeded the node budget of {budget}; " \
                                  "shrink the radius or raise the budget"
    assert set(alone) == {stacked}
    with pytest.raises(RadiusTooLarge, match="node budget"):
        _kernels._shared_top(r, r2, budget, np.zeros(5))
    assert_stack_budget_is_exact(r, r2)


def test_shared_stack_past_int64_at_a_tree_level():
    # the trees share levels 1 to 3; tree 2's level-0 row sends z[0] past 2^62
    r = shared_stack(4, 4, 3, 13)
    r2 = 2.0 * float(r[0, 1, 1] ** 2)
    assert shared_level(r, r2) == 1
    r[2, 0, 1] = 1e20
    stacked, alone = radius_errors(r, r2, BIG_BUDGET)
    assert stacked == alone[2] and "2^62" in stacked
    assert alone[:2] + alone[3:] == [None] * 3
    r[2, 0, 1] = 1e17     # within reach, the stack is its trees again
    assert_stack_is_its_trees(r, r2)


def test_empty_stack_finds_nothing():
    for d in (1, 4):
        tree, coords, norms, nodes = _kernels.enumerate_frontier(np.zeros((0, d, d)), 1.0, BIG_BUDGET)
        assert tree.shape == norms.shape == (0,) and coords.shape == (0, d)
        assert tree.dtype == coords.dtype == np.int64 and norms.dtype == np.float64
        assert type(nodes) is int and nodes == 0
        assert_same_enumeration(_kernels.enumerate_core(np.zeros((0, d, d)), 1.0, BIG_BUDGET),
                                (tree, norms, 0))


# -- the product step ------------------------------------------------------------

def children_reference(r2cap, rk, rkk, zt, rho, zero, tree, half, node_budget, d):
    """``_kernels._children`` in expression form, a fresh temporary per
    operation: the arithmetic and the order of checks the in-place step
    keeps, bit for bit and error for error."""
    shape = zt.shape[1:]
    s = np.zeros(shape)
    for term in rk * zt:
        s += term
    rad = np.sqrt(np.maximum(r2cap - rho, 0.0))
    with np.errstate(over="ignore"):
        lo = np.ceil((-s - rad) / rkk - 1e-12)
        hi = np.floor((-s + rad) / rkk + 1e-12)
    np.copyto(lo, 0.0, where=zero)
    cnt = np.maximum(hi - lo + 1.0, 0.0).ravel()
    live = np.flatnonzero(cnt != 0.0)
    at = np.unravel_index(live, shape)
    half += np.bincount(np.broadcast_to(tree, shape)[at], weights=cnt[live], minlength=half.shape[0])
    if half.max() > (node_budget + d) // 2:
        raise _kernels._over_budget(node_budget)
    if lo.min(initial=0.0) < -_kernels.Z_LIMIT or hi.max(initial=0.0) > _kernels.Z_LIMIT:
        raise _kernels._past_int64()
    cnt = cnt[live].astype(np.int64)
    at = tuple(p.repeat(cnt) for p in at)
    z = np.arange(at[0].shape[0]) + (lo.ravel()[live].astype(np.int64) - (cnt.cumsum() - cnt)).repeat(cnt)
    total = np.broadcast_to(rkk, shape)[at] * z + s[at]
    total *= total
    total += np.broadcast_to(rho, shape)[at]
    return at, z, total, np.broadcast_to(zero, shape)[at] & (z == 0)


def product_step(seed, trees=3, nodes=6, d=4, i=2):
    """(rk, rkk, zt, rho, zero, tree) of a (trees x shared nodes) product at
    level i, as ``enumerate_frontier`` passes them to ``_children``.  Shared
    node 0 is the all-zero parent."""
    rng = np.random.default_rng(seed)
    r = np.triu(rng.normal(size=(trees, d, d)), 1) + np.eye(d) * rng.uniform(0.5, 2.0, size=(trees, 1, d))
    shared = rng.integers(-2, 3, size=(d - i, nodes))
    shared[:, 0] = 0
    rho = rng.uniform(0.0, 1.0, size=nodes)
    rho[0] = 0.0
    return [r[:, i - 1, i:].T[:, :, None], r[:, i - 1, i - 1, None],
            np.broadcast_to(shared[:, None], (d - i, trees, nodes)), rho, np.arange(nodes) == 0,
            np.arange(trees)[:, None]]


def step_outcome(step, r2cap, args, node_budget=BIG_BUDGET, d=4):
    """("returned", at, z, total, zero, half) of one step, the floats as
    bits, or ("raised", type, message); warnings are errors, as in the suite."""
    rk, rkk, zt, rho, zero, tree = args
    half = np.zeros(int(tree.max()) + 1)
    try:
        at, z, total, zero = step(r2cap, rk, rkk, zt, rho, zero, tree, half, node_budget, d)
    except (RadiusTooLarge, ValueError, RuntimeWarning) as exc:
        return "raised", type(exc), str(exc)
    return ("returned", [p.tolist() for p in at], z.tolist(), total.view(np.int64).tolist(),
            zero.tolist(), half.view(np.int64).tolist())


def assert_step_as_reference(r2cap, args, **kwargs):
    got = step_outcome(_kernels._children, r2cap, args, **kwargs)
    assert got == step_outcome(children_reference, r2cap, args, **kwargs)
    return got


def test_product_step_matches_the_expression_form():
    for seed in range(30):
        args = product_step(seed)
        for r2cap in (0.5, 2.0, 6.0):
            assert assert_step_as_reference(r2cap, args)[0] == "returned"
        # a 1-D chunk of one tree's parents takes the same step
        rk, rkk, zt, rho, zero, _ = product_step(seed, trees=1)
        assert_step_as_reference(2.0, [rk[:, 0], rkk[0], zt[:, 0], rho, zero, np.zeros(6, dtype=np.intp)])
    # the all-zero parent's children start at its all-zero child
    _, (_, node), z, _, zero, _ = step_outcome(_kernels._children, 2.0, product_step(1))
    first = node.index(0)
    assert z[first] == 0 and zero[first] and min(zi for zi, m in zip(z, node) if m == 0) == 0


def test_product_step_edge_cases_raise_as_the_expression_form():
    args = product_step(3)
    # a NaN count is charged, then refused at the cast
    rho = args[3].copy()
    rho[2] = np.nan
    nan_count = assert_step_as_reference(2.0, args[:3] + [rho] + args[4:])
    assert nan_count[:2] == ("raised", RuntimeWarning)
    # an interval end past Z_LIMIT with few children: the int64 error
    rk = args[0].copy()
    rk[0, 1] = 1e19
    far = assert_step_as_reference(0.5, [rk] + args[1:])
    assert far == ("raised", RadiusTooLarge, str(_kernels._past_int64()))
    # past Z_LIMIT and past the budget at once: the budget error comes first
    rkk = args[1].copy()
    rkk[2] = 1e-30
    wide = assert_step_as_reference(0.5, args[:1] + [rkk] + args[2:])
    assert wide == ("raised", RadiusTooLarge, str(_kernels._over_budget(BIG_BUDGET)))
    # a budget just below the children charged to one tree
    half = np.array(step_outcome(_kernels._children, 2.0, args)[5]).view(np.float64)
    budget = 2 * int(half.max()) - 4 - 1
    assert assert_step_as_reference(2.0, args, node_budget=budget) == \
        ("raised", RadiusTooLarge, str(_kernels._over_budget(budget)))


# -- LLL ------------------------------------------------------------------------

def dot(x, y):
    """Left to right, each product and sum rounded on its own."""
    s = 0.0
    for a, b in zip(x, y):
        s += a * b
    return s


def gram_schmidt_reference(rows):
    """(mu, squared norms) of a list of rows by the scalar loop's arithmetic:
    row i's dot with each b_j, j ascending, then b_i = b_i - mu[i][j] b_j."""
    d = len(rows)
    bstar = []
    mu = [[0.0] * d for _ in range(d)]
    nrm = []
    for i, wi in enumerate(rows):
        b = list(wi)
        for j in range(i):
            m = dot(wi, bstar[j]) / nrm[j]
            mu[i][j] = m
            b = [x - m * y for x, y in zip(b, bstar[j])]
        mu[i][i] = 1.0
        s = dot(b, b)
        if s <= _kernels.GS_UNDERFLOW:
            raise NumericalBreakdown("Gram-Schmidt norms underflowed during LLL")
        bstar.append(b)
        nrm.append(s)
    return mu, nrm


def lll_full_recompute(w, v, delta):
    """The LLL kernel that recomputes every Gram-Schmidt row after every swap.

    The scalar loop, ``_kernels._lll_rows``, must match it bit for bit; it
    reads the module's constants at call time, so a monkeypatched
    LLL_MAX_ITER caps both.
    Like the kernel it runs on Python numbers and writes ``w`` and ``v``
    back however it ends.  Returns its iteration count.
    """
    d = w.shape[0]
    rows = w.tolist()
    ops = v.tolist()
    need_gso = True
    k = 1
    it = 0
    try:
        while k < d:
            it += 1
            if it > _kernels.LLL_MAX_ITER:
                raise NumericalBreakdown(f"LLL exceeded its iteration cap of {_kernels.LLL_MAX_ITER}")
            if need_gso:
                mu, nrm = gram_schmidt_reference(rows)
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
        return it
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


def lll_one(w, v, delta):
    """``lll_core`` on the stack of one basis."""
    _kernels.lll_core(w[None], v[None], delta)


def run_both(w, delta):
    """(error, w, v) of lll_core on a stack of one and of the reference on copies of ``w``."""
    out = []
    for kernel in (lll_one, lll_full_recompute):
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
    """(rows to reduce, delta): random, near-dependent, scrambled structured
    or symplectic family bases.

    Scrambled Z^n and Barnes-Wall bases have integer Gram matrices, so
    size-reduction coefficients meet exact half-integer ties.  There a mu
    row updated by size reduction and the same row recomputed can round
    to different integers, which random bases almost never show.  Random
    and Z^n dimensions fall on both sides of 16, the length at which
    numpy's dot switches BLAS kernels on common builds.  P_Z of XOR-family
    points (g = 2, 4 and 8, the xor-verify benchmark's traffic) and
    K-family bases at large heights swap often with size reductions in
    between, so the kernel both truncates Gram-Schmidt prefixes at swaps
    and resets them after size reduction.
    """
    kind = draw(st.sampled_from(["random", "near_dependent", "zn", "bw2", "bw3", "xor", "kfam"]))
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
    elif kind == "xor":
        w = p_z(xor_family_point(rng, draw(st.sampled_from([2, 4, 8])))).T
    elif kind == "kfam":
        g = draw(st.sampled_from([2, 4, 8]))
        y = draw(st.sampled_from([8.0, 1e3, 1e4]))
        w = k_family_lattice(sample_vcube(g, int(rng.integers(2 ** 31)), 0), y).basis.T
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


def loop_axpy(x, m, y):
    return [a - m * b for a, b in zip(x, y)]


def assert_same_floats(a, b):
    assert np.array_equal(np.array(a, dtype=np.float64).view(np.int64),
                          np.array(b, dtype=np.float64).view(np.int64))


@pytest.mark.parametrize("d", [*range(1, 65), 4096])
def test_row_ops_match_the_loops(d):
    """The generated straight-line dot and axpy are the loops bit for bit,
    on sums whose order shows and on rows of ints."""
    op_dot, op_axpy = _kernels._row_ops(d)
    rng = np.random.default_rng(d)
    ones = [1.0] * d
    wide = rng.normal(size=(2, d)) * 10.0 ** rng.integers(-12, 13, size=(2, d))
    # products 1e16, 1, -1e16, 1 sum to 1.0 left to right, 0.0 right to left
    cancel = [([1e16, 1.0, -1e16, 1.0] + [0.0] * d)[:d], ([1.0, 1e16, -1e16] + [0.0] * d)[:d]]
    cases = [wide.tolist(), [cancel[0], ones], [cancel[1], ones],
             [[0.0] * d, [-1.0] * d]]               # every product -0.0
    for x, y in cases:
        assert_same_floats([op_dot(x, y)], [dot(x, y)])
        assert_same_floats([op_dot(y, x)], [dot(y, x)])
        assert_same_floats(op_axpy(x, 0.7, y), loop_axpy(x, 0.7, y))
    assert np.float64(op_dot([0.0] * d, [-1.0] * d)).view(np.int64) == 0     # +0.0
    for x, n in zip(cancel, (4, 3)):
        assert d < n or dot(x, ones) != dot(x[::-1], ones)
    x, y = ([e * 3 ** 20 for e in row] for row in rng.integers(-2 ** 62, 2 ** 62, size=(2, d)).tolist())
    q = -(3 ** 25)
    out = op_axpy(x, q, y)
    assert out == loop_axpy(x, q, y) and all(type(e) is int for e in out)


@pytest.mark.parametrize("d, n", [(2, 3), (4, 9), (6, 70)])
def test_lll_on_rows_longer_than_the_basis(monkeypatch, d, n):
    """Row length n and basis size d take separate generated ops; a stack
    of such bases gets the scalar loop's bits on both sides of the handoff."""
    rng = np.random.default_rng(n)
    new, ref = run_both(rng.normal(size=(d, n)), 0.99)
    assert ref[0] is None
    assert_same_lll(new, ref)
    w = rng.normal(size=(40, d, n))
    for _ in handoff_sides(monkeypatch):
        assert_stack_matches_scalar_loop(w, 0.99)


def identities(n, d):
    return np.broadcast_to(np.eye(d, dtype=np.int64), (n, d, d)).copy()


#: LLL_HANDOFF figures for both sides of ``lll_core``'s handoff: the
#: stacked loop alone, and the default, which runs a small stack basis by
#: basis in the scalar loop before any stack array is made.
HANDOFFS = {"stack": 0, "default": _kernels.LLL_HANDOFF}


def handoff_sides(monkeypatch):
    """Set each of HANDOFFS in turn, yielding its name."""
    for side, figure in HANDOFFS.items():
        monkeypatch.setattr(_kernels, "LLL_HANDOFF", figure)
        yield side


def scalar_loop(w, delta):
    """(w, v) of the scalar loop, ``_lll_rows``, on a copy of one basis ``w``."""
    w, v = w.copy(), np.eye(w.shape[0], dtype=np.int64)
    _kernels._lll_rows(w, v, delta, 1, 0)
    return w, v


def assert_stack_matches_scalar_loop(w, delta):
    """``lll_core`` on a copy of the stack ``w`` against the scalar loop on each basis."""
    n, d = w.shape[:2]
    ws, vs = w.copy(), identities(n, d)
    _kernels.lll_core(ws, vs, delta)
    for i in range(n):
        assert_same_lll((None, ws[i], vs[i]), (None, *scalar_loop(w[i], delta)))


@st.composite
def lll_stacks(draw):
    """(stack of rows to reduce, delta): 1-20 bases of one dimension from 2 to 8.

    Random bases mix with scrambled Z^n bases, whose half-integer ties
    tell a recomputed mu row from a size-reduced one (see ``lll_inputs``),
    and at dimensions 4 and 8 with K-family bases of heights 0.7 to 1e3.
    Samples take from a few to some hundred iterations.
    """
    d = draw(st.integers(2, 8))
    n = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    delta = draw(st.sampled_from([0.75, 0.99]))
    w = rng.normal(size=(n, d, d))
    for i, kind in enumerate(rng.integers(0, 3, size=n)):
        if kind == 1:
            w[i] = scramble(rng, d, int(rng.integers(1, 4))).T
        elif kind == 2 and d in (4, 8):
            y = float(rng.choice([0.7, 8.0, 1e3]))
            w[i] = k_family_lattice(sample_vcube(d // 2, int(rng.integers(2 ** 31)), 0), y).basis.T
    return w, delta


def test_lll_stack_matches_scalar_kernels(monkeypatch):
    spread = []

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(lll_stacks())
    def check(case):
        w, delta = case
        n, d = w.shape[:2]
        ws, vs = w.copy(), identities(n, d)
        _kernels.lll_core(ws, vs, delta)
        iterations = set()
        for i in range(n):
            full, vfull = w[i].copy(), np.eye(d, dtype=np.int64)
            iterations.add(lll_full_recompute(full, vfull, delta))
            assert_same_lll((None, ws[i], vs[i]), (None, *scalar_loop(w[i], delta)))
            assert_same_lll((None, ws[i], vs[i]), (None, full, vfull))
        spread.append(len(iterations) > 1)

    for side in handoff_sides(monkeypatch):
        spread.clear()
        check()
        assert sum(spread) > 50, side


def test_lll_stack_breakdown_on_underflowing_norm(monkeypatch):
    # the underflowing basis first, last, and alone
    for side in handoff_sides(monkeypatch):
        rng = np.random.default_rng(5)
        for bad in ([[1.0, 0.0], [1.0, 1e-150]],
                    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1e-150]]):
            good = rng.normal(size=(3, len(bad), len(bad)))
            for w in (np.concatenate([[bad], good]), np.concatenate([good, [bad]]), np.array([bad])):
                got = raised(_kernels.lll_core, w, identities(*w.shape[:2]), 0.99)
                assert got == (NumericalBreakdown, "Gram-Schmidt norms underflowed during LLL"), side


def test_lll_stack_iteration_cap_matches_reference(monkeypatch):
    for _ in handoff_sides(monkeypatch):
        check_stack_iteration_caps(monkeypatch)


def test_lll_stack_iteration_cap_across_a_mid_run_handoff(monkeypatch):
    # at d = 6 the figure 1 hands off once at most 2 of the 4 samples run
    monkeypatch.setattr(_kernels, "LLL_HANDOFF", 1)
    handed = []
    original = _kernels._lll_rows

    def recording(w, v, delta, k, it):
        handed.append(it)
        return original(w, v, delta, k, it)

    monkeypatch.setattr(_kernels, "_lll_rows", recording)
    check_stack_iteration_caps(monkeypatch)
    assert max(handed) > 20


def check_stack_iteration_caps(monkeypatch):
    """lll_core on a stack against the reference at every iteration cap until the reference finishes."""
    w = np.random.default_rng(3).normal(size=(4, 6, 6))
    capped = 0
    for cap in range(1, 1000):
        monkeypatch.setattr(_kernels, "LLL_MAX_ITER", cap)
        refs = []
        for wi in w:
            full, vfull = wi.copy(), np.eye(6, dtype=np.int64)
            refs.append((raised(lll_full_recompute, full, vfull, 0.99), full, vfull))
        ws, vs = w.copy(), identities(4, 6)
        got = raised(_kernels.lll_core, ws, vs, 0.99)
        first = next((ref[0] for ref in refs if ref[0] is not None), None)
        assert got == first
        if first is None:
            for i, ref in enumerate(refs):
                assert_same_lll((None, ws[i], vs[i]), ref)
            break
        assert first == (NumericalBreakdown, f"LLL exceeded its iteration cap of {cap}")
        capped += 1
    else:
        pytest.fail("the reference did not finish within 1000 iterations")
    assert capped > 20


@st.composite
def gram_schmidt_stacks(draw):
    """1-12 bases of one dimension from 2 to 16, many entries exact zeros
    of either sign.  Where every product of a dot is -0.0, only the dot's
    leading 0.0 + x0*y0 makes its sum +0.0, as the scalar loop's is."""
    d = draw(st.integers(2, 16))
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = rng.normal(size=(n, d, d))
    kind = rng.integers(0, 4, size=w.shape)
    w[kind == 1] = 0.0
    w[kind == 2] = -0.0
    w[kind == 3] = rng.integers(-2, 3, size=int((kind == 3).sum()))
    # a signed permutation with -0.0 off its support: every product of
    # two distinct rows is -0.0
    perm = rng.permutation(d)
    w[0] = -0.0
    w[0, np.arange(d), perm] = rng.choice([-1.0, 1.0], size=d)
    return w


def test_gram_schmidt_matches_per_sample_reference():
    finished = []

    @settings(max_examples=150, deadline=None)
    @given(gram_schmidt_stacks())
    def check(w):
        n, d = w.shape[:2]
        mu, nrm = np.full((n + 2, d, d), np.nan), np.full((n + 2, d), np.nan)
        rows = np.arange(n) + 1                  # written at rows, nowhere else
        got = raised(_kernels._gram_schmidt, w.copy(), mu, nrm, rows)
        refs = [raised(gram_schmidt_reference, wi.tolist()) for wi in w]
        assert got == next((r for r in refs if r is not None), None)
        if got is not None:
            assert np.isnan(mu).all() and np.isnan(nrm).all()
            return
        for i, wi in enumerate(w):
            ref_mu, ref_nrm = gram_schmidt_reference(wi.tolist())
            assert np.array_equal(mu[i + 1].view(np.int64), np.array(ref_mu).view(np.int64))
            assert np.array_equal(nrm[i + 1].view(np.int64), np.array(ref_nrm).view(np.int64))
        assert np.isnan(mu[[0, -1]]).all() and np.isnan(nrm[[0, -1]]).all()
        finished.append(d)

    check()
    assert len(finished) > 50 and max(finished) == 16


def test_lll_stack_matches_scalar_kernels_at_dim_16(monkeypatch):
    rng = np.random.default_rng(16)
    w = rng.normal(size=(8, 16, 16))
    w[1] = scramble(rng, 16, 2).T
    w[2] = scramble(rng, 16, 3).T
    for i, y in zip(range(3, 8), (0.7, 8.0, 0.7, 8.0, 1e3)):
        w[i] = k_family_lattice(sample_vcube(8, int(rng.integers(2 ** 31)), 0), y).basis.T
    for _ in handoff_sides(monkeypatch):
        assert_stack_matches_scalar_loop(w, 0.99)


def k_family_stack(rng, g, n, ys=(0.7, 8.0, 1e3)):
    """n K-family bases of dimension 2g as rows, at heights drawn from ``ys``."""
    return np.array([k_family_lattice(sample_vcube(g, int(rng.integers(2 ** 31)), 0),
                                      float(rng.choice(ys))).basis.T for _ in range(n)])


#: Most bases a drawn stack holds at each dimension: past the default
#: handoff at d = 4 and 8, a few at d = 16 and 32.
K_STACK_MAX = {4: 40, 8: 48, 16: 4, 32: 2}


@st.composite
def k_family_dim_stacks(draw):
    """(stack, delta): K-family bases at d = 4, 8, 16 or 32, random bases
    mixed in below 32.  At d = 32 the heights stay at most 1.5: the stack
    alone takes about 0.5 s on one such basis, 7 s at y = 8."""
    d = draw(st.sampled_from(sorted(K_STACK_MAX)))
    n = draw(st.integers(1, K_STACK_MAX[d]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = k_family_stack(rng, d // 2, n, (0.7, 1.2, 1.5) if d == 32 else (0.7, 8.0, 1e3))
    if d < 32:
        for i in np.flatnonzero(rng.random(n) < 0.25):
            w[i] = rng.normal(size=(d, d))
    return w, draw(st.sampled_from([0.75, 0.99]))


def test_lll_stack_matches_scalar_kernels_at_k_family_dims(monkeypatch):
    dims = set()

    @settings(max_examples=16, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(k_family_dim_stacks())
    def check(case):
        w, delta = case
        assert_stack_matches_scalar_loop(w, delta)
        dims.add(w.shape[1])

    for side in handoff_sides(monkeypatch):
        dims.clear()
        check()
        assert len(dims) >= 3, side


def test_lll_stack_hands_off_mid_run(monkeypatch):
    rng = np.random.default_rng(25)
    handed = []
    original = _kernels._lll_rows

    def recording(w, v, delta, k, it):
        handed.append((k, it))
        return original(w, v, delta, k, it)

    for g, n in ((2, 60), (4, 80)):
        w = k_family_stack(rng, g, n, (8.0, 1e3))
        monkeypatch.setattr(_kernels, "_lll_rows", recording)
        ws, vs = w.copy(), identities(n, 2 * g)
        _kernels.lll_core(ws, vs, 0.99)
        monkeypatch.setattr(_kernels, "_lll_rows", original)
        assert 0 < len(handed) < n
        assert any(k > 1 and it > 1 for k, it in handed)
        for i in range(n):
            assert_same_lll((None, ws[i], vs[i]), (None, *scalar_loop(w[i], 0.99)))
        handed.clear()


def test_lll_stack_hands_off_only_samples_that_swapped():
    # a sample that only moved up holds a size-reduced mu row that a
    # recompute can round differently at the exact ties of an integer
    # Gram; handing it off too changes w on the stack of seed 1
    basis = bw_lattice(2).basis
    for seed in range(6):
        rng = np.random.default_rng(seed)
        assert_stack_matches_scalar_loop(np.array([(basis @ scramble(rng, 8, 2)).T for _ in range(60)]), 0.99)


def test_lll_stack_refuses_a_stack_it_cannot_reduce_in_place():
    w = np.random.default_rng(2).normal(size=(3, 4, 4))
    with pytest.raises(ValueError, match="C-contiguous"):
        _kernels.lll_core(w.transpose(0, 2, 1), identities(3, 4), 0.99)


def test_lll_stack_of_one_runs_the_scalar_loop_alone(monkeypatch):
    """A stack of one reaches the scalar loop before any stack array is
    made, at every dimension: it never reaches ``_rows`` or ``_gram_schmidt``."""
    def refuse(*args):
        raise AssertionError("a stack of one reached the stacked loop")

    rng = np.random.default_rng(30)
    cases = [rng.normal(size=(1, d, d)) for d in (1, 2, 4, 8, 16, 32)]
    cases += [rng.normal(size=(1, d, m)) for d, m in ((2, 3), (6, 70))]
    cases.append(k_family_stack(rng, 8, 1, (1e3,)))
    for w in cases:
        monkeypatch.setattr(_kernels, "_gram_schmidt", refuse)
        monkeypatch.setattr(_kernels, "_rows", refuse)
        ws, vs = w.copy(), identities(*w.shape[:2])
        _kernels.lll_core(ws, vs, 0.99)
        monkeypatch.undo()
        assert_same_lll((None, ws[0], vs[0]), (None, *scalar_loop(w[0], 0.99)))


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
        z = xor_family_point(rng, 8)
        return z.x if kind == "xor_x" else symmetrize(z.y)
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


def test_jacobi_refuses_a_matrix_that_is_not_bitwise_symmetric():
    # the kernel rotates each mirror pair once, so the pair must hold one value
    s = symmetrize(np.random.default_rng(4).normal(size=(5, 5)))
    one_ulp = s.copy()
    one_ulp[1, 3] = np.nextafter(one_ulp[1, 3], np.inf)
    signed_zero = np.eye(3)
    signed_zero[0, 2] = -0.0
    for a in (one_ulp, signed_zero):
        with pytest.raises(ValueError, match="^Jacobi needs a bitwise symmetric matrix$"):
            _kernels.jacobi_core(a, 1e-12, 100)
