"""Hot numeric kernels: LLL reduction, short-vector enumeration, Jacobi sweeps.

These three loops dominate the runtime of everything interesting in this
package (systole checks, the Monte Carlo mean-value estimator, the
eigensolver oracle).  Jacobi has one kernel.  LLL has two with the same
bits: ``lll_core`` reduces one basis, ``lll_stack`` a stack of bases at
once.  ``lattice`` sends a single lattice (``systole``,
``enumerate_short``) to ``lll_core`` and the Monte Carlo estimator's
stacks to ``lll_stack``, which finishes each sample of its thin tail in
``lll_core``'s loop, and so runs a small enough stack (at d = 32, any
the estimator makes) basis by basis.

The three scalar loops, ``lll_core``, ``jacobi_core`` and
``enumerate_depth_first``, run on Python numbers held in lists, not on
numpy entries: numpy's per-element and per-call overhead outweighs such
small arithmetic.  Python rounds every float operation on its own, so
their bits do not depend on the host.  ``jacobi_core`` and
``enumerate_depth_first`` do the same IEEE operations in the same order
as a numpy kernel would, so the bits are the same; ``jacobi_core``'s
docstring says why.  ``lll_core`` sums its dot products left to right,
where ``np.dot`` leaves the order to the BLAS build, and computes
Gram-Schmidt rows lazily: only from the swap point, and within a row
only the projections onto rows recomputed since, resuming from the
partial row it keeps.  Its docstring gives the rule, why the result is
bit for bit a full recompute's, and the memory the partial rows take.
``lll_stack`` does the same float operations elementwise over the
stack, with the same left-to-right sums, on rows addressed by one flat
index, and recomputes Gram-Schmidt in full after a swap, on a
sample-last copy so that each operation spans the contiguous samples.

Enumeration has two kernels over the same Fincke-Pohst tree.
``enumerate_depth_first`` walks one tree one node at a time.
``enumerate_frontier`` walks an (N, d, d) stack of trees level by level
over one numpy frontier, each node with its tree index, in chunks of at
most FRONTIER_CHUNK_ROWS nodes taken depth first; one tree is the stack
of one.  Each tree is symmetric under z -> -z, and the frontier walks
only the half whose first nonzero coordinate, read from z[d-1] down, is
positive.  It mirrors that half into the full output, reports the full
trees' 2 * half - d nodes each and charges each tree's walk against
(node_budget + d) // 2; its docstring says why each step is exact.  Both
kernels do the same float operations per node in the same order, so
they return the same vectors in the same row order with bit-equal norms
and the same node count.  The rows come out as ``concat(-H[::-1], H)``,
H one vector of each +-v pair, which ``lattice`` relies on.
``enumerate_core``, the entry point, sends a stack to the frontier and
picks for one tree by its size: it runs the depth-first kernel up to
SMALL_TREE_NODES_PER_LEVEL nodes per level of the tree and, when the
tree turns out to be larger, starts over with the frontier on the tree's
stack of one.

Each kernel returns plain results and raises the package's own error
where a failure happens: the LLL kernels and ``jacobi_core`` raise
NumericalBreakdown, the enumeration kernels RadiusTooLarge.  All
matrices are passed row-major with vectors as rows so the inner dot
products run on contiguous memory.
"""

import math

import numpy as np

from .errors import NumericalBreakdown, RadiusTooLarge

#: GS norms at or below this are treated as a breakdown, not a tiny vector.
GS_UNDERFLOW = 1e-280

#: Hard cap on LLL main-loop iterations; hitting it is a breakdown.
LLL_MAX_ITER = 1_000_000

#: Trees up to this many nodes per level (times the dimension) stay with
#: the depth-first kernel.  On one core of a 2-core x86 host, on
#: LLL-reduced random trees, the depth-first kernel costs about 0.8-1.1,
#: 1.2-1.6 and 1.5-2.1 us per node at d = 4, 8 and 16, the frontier on a
#: stack of one a fixed 150-210, 300-420 and 530-920 us per tree plus
#: under 0.1 us per node, so the frontier breaks even at about 190-200,
#: 280-290 and 440-470 nodes: 48-51, 35-36 and 27-29 nodes per level.
#: The fixed cost is d levels of numpy calls, flat per level, while the
#: depth-first cost per node grows with d, so no one figure fits every d.
SMALL_TREE_NODES_PER_LEVEL = 30

#: Most nodes of one level the frontier kernel turns into coordinate rows
#: at once.  Each level on its path holds at most one such chunk, so its
#: memory stays near depth x chunk x dim integers however wide the tree is:
#: the walk's own arrays peak at about 7 MB on bw16-shells' tree and 22 MB
#: on the g=32 Barnes-Wall tree, against 4 and 13 MB at 2048.  Each level
#: step has a fixed numpy cost, so 4096 rather than 2048 halves the g=32
#: tree's steps (10,749 to 5,452) and walks it about a fifth faster;
#: bw16-shells' tree, in 122 steps, runs no faster.
FRONTIER_CHUNK_ROWS = 1 << 12

#: ``lll_stack`` hands each sample that swaps to ``lll_core``'s loop once
#: at most LLL_HANDOFF << (d // 4) samples still run: 16, 32, 128 and
#: 2,048 at d = 4, 8, 16 and 32.  On one core of a 2-core x86 host, over
#: K-family stacks at y = 8, a reduction is within a few percent of its
#: best for figures of 8-48 at d = 4 and 8-128 at d = 8 (N = 1,000), and
#: best at 96-128 at d = 16 (N = 256 and 1,024).  At d = 32 the stack
#: never pays: its full Gram-Schmidt recompute costs about 4 times the
#: scalar loop's lazy rows per iteration with 256 samples running, so
#: every stack the estimator makes (ESTIMATE_CHUNK is 1,024) runs basis
#: by basis.
LLL_HANDOFF = 8


def lll_core(w, v, delta):
    """Lovasz-reduce the row vectors of ``w`` in place.

    ``v`` (int64, preinitialised to the identity) accumulates the row
    operations, so on return ``w == v @ w_input`` up to float products.
    Raises NumericalBreakdown when a Gram-Schmidt norm underflows or the
    loop passes LLL_MAX_ITER iterations; w and v then hold the rows
    reduced so far.

    The loop runs on Python numbers: rows of floats for w, Gram-Schmidt
    rows and mu, rows of ints for v, written back to ``w`` and ``v`` when
    the loop ends or raises.  Each dot product is a left-to-right loop of
    ``s += x * y``, every product and sum rounded on its own, so the bits
    are the same on every host and Python version.  ``np.dot`` would hand
    them to the BLAS build's ``ddot``, whose summation order and use of
    fused multiply-adds depend on the CPU and the vector length; ``sum``
    compensates float sums from Python 3.12 on.

    Gram-Schmidt rows are computed lazily, each by the same arithmetic a
    full recompute after every swap would use, and only where that
    recompute would change them.  Rows [0, fresh) hold what the full
    recompute holds; at the top of the loop rows are computed while
    fresh <= k.  A size-reduction step with q != 0 at row k changes w[k]
    and mu[k], so row k no longer equals its recompute: it sets
    stale = min(stale, k).  A swap at k sets fresh = min(stale, k - 1)
    and resets ``stale``.  The result is bit for bit the full
    recompute's: row i depends only on w[i] and on bstar and nrm of the
    rows below it; size reduction changes w[k] and mu[k] but never bstar
    or nrm; rows above k are untouched until k reaches them.

    Within a row, the projections already made are kept (Schnorr &
    Euchner 1994 recompute from the swap point; this also resumes inside
    the row).  ``part[i][j]`` is w[i] less its first j projections, so
    ``part[i][0]`` is w[i], and mu[i][j] is valid for
    j < len(part[i]) - 1; row i resumes from ``part[i][-1]`` and appends
    each new partial.  Term j reads only w[i], bstar[j] and nrm[j], and
    those change only when w[i] does or row j is recomputed.  So a
    size-reduction step with q != 0 at row k resets ``part[k]`` to
    [w[k]]; a swap at k swaps rows k - 1 and k of w, v, mu and ``part``
    together and, as rows fresh and up will be recomputed, cuts every
    ``part[i]`` with i >= fresh to its first fresh + 1 entries.  Each
    kept term is then the one the recompute would make, bit for bit.
    The partials cost memory: at most d(d + 1)/2 rows of d floats.

    One difference remains: a norm that underflows in a row above k
    raises when k reaches that row, not at the swap before, and w and v
    then hold the further-reduced rows.  A basis that passes
    ``from_basis``'s singularity check practically never gets there.
    """
    _lll_rows(w, v, delta, 1, 0)


def _lll_rows(w, v, delta, k, it):
    """``lll_core``'s loop from row k, ``it`` iterations already spent,
    with no Gram-Schmidt row computed yet."""
    d = w.shape[0]
    W = w.tolist()
    V = v.tolist()
    bstar = [None] * d
    mu = [[0.0] * d for _ in range(d)]
    nrm = [0.0] * d
    part = [[row] for row in W]
    fresh = 0
    stale = d
    try:
        while k < d:
            it += 1
            if it > LLL_MAX_ITER:
                raise NumericalBreakdown(f"LLL exceeded its iteration cap of {LLL_MAX_ITER}")
            while fresh <= k:
                i = fresh
                wi = W[i]
                mui = mu[i]
                pi = part[i]
                b = pi[-1]
                for j in range(len(pi) - 1, i):
                    bj = bstar[j]
                    s = 0.0
                    for x, y in zip(wi, bj):
                        s += x * y
                    m = s / nrm[j]
                    mui[j] = m
                    b = [x - m * y for x, y in zip(b, bj)]
                    pi.append(b)
                mui[i] = 1.0
                s = 0.0
                for x in b:
                    s += x * x
                if s <= GS_UNDERFLOW:
                    raise NumericalBreakdown("Gram-Schmidt norms underflowed during LLL")
                bstar[i] = b
                nrm[i] = s
                fresh += 1
            muk = mu[k]
            for j in range(k - 1, -1, -1):
                q = math.floor(muk[j] + 0.5)
                if q:
                    qf = float(q)
                    W[k] = [x - qf * y for x, y in zip(W[k], W[j])]
                    V[k] = [x - q * y for x, y in zip(V[k], V[j])]
                    muj = mu[j]
                    for t in range(j + 1):
                        muk[t] = muk[t] - qf * muj[t]
                    part[k] = [W[k]]
                    stale = min(stale, k)
            m = muk[k - 1]
            if nrm[k] >= (delta - m * m) * nrm[k - 1]:
                k += 1
            else:
                for rows in (W, V, mu, part):
                    rows[k - 1], rows[k] = rows[k], rows[k - 1]
                fresh = min(stale, k - 1)
                for i in range(fresh, d):
                    del part[i][fresh + 1:]
                stale = d
                k = max(k - 1, 1)
    finally:
        w[:] = W
        v[:] = V


def lll_stack(w, v, delta):
    """``lll_core`` on every matrix of a C-contiguous (N, d, d) stack at once, in place.

    ``v`` (int64, N identities) accumulates each sample's row operations.
    Each sample keeps its own k; every pass of the loop takes one LLL
    iteration of every sample still in the stack, so a sample's iteration
    count is the pass count while it runs.  Size reduction and swaps are
    masked to the samples they apply to.  For the samples that swapped, mu
    and the squared norms (all that size reduction and the Lovasz test
    read) are recomputed, all rows, as the full recompute after every swap
    does.  Every float operation is elementwise: products, then sums
    accumulated left to right along the coordinate axis from 0.0 + x0*y0.
    w, v and mu are held as (N d, d) row arrays, row k of sample s at
    s d + k, so each gather and scatter takes one index array; rows are
    gathered with ``take`` and scattered as one opaque item each
    (``_rows``), where 2-D fancy indexing costs 2.5 to 6 times as much.
    Size reduction at j takes only the samples whose k exceeds j.

    The thin tail finishes in ``lll_core``'s loop: once LLL_HANDOFF
    << (d // 4) samples or fewer still run, each sample that has just
    swapped leaves the stack and runs to the end there, from its own k,
    its iteration count carrying on from the pass count.  A stack that
    small from the start runs basis by basis.  That loop starts with no
    Gram-Schmidt row computed and computes rows 0..k first, which is what
    the recompute after the swap holds, so the handoff keeps the bits.

    So each sample's ``w`` and ``v`` are bit for bit ``lll_core``'s, and
    the errors are its type and message: NumericalBreakdown when a norm
    underflows or a sample passes LLL_MAX_ITER iterations, raised for the
    whole stack with the rows reduced so far left in ``w`` and ``v``.
    Where two samples fail differently, which error surfaces depends on
    the handoff, as a handed-off sample runs to its end before the
    stack's next pass.  ``v`` is int64 in the stack, where ``lll_core``
    runs on Python ints: a stacked entry past int64 wraps, a handed-off
    one raises OverflowError on write-back.
    """
    n, d = w.shape[:2]
    if not (w.flags.c_contiguous and v.flags.c_contiguous):
        raise ValueError("lll_stack reduces C-contiguous stacks in place")
    W, V = w.reshape(n * d, d), v.reshape(n * d, d)
    Wr, Vr = _rows(W), _rows(V)
    mu = np.zeros((n * d, d))
    nrm = np.zeros(n * d)
    k = np.ones(n, dtype=np.intp)
    run = np.arange(n if d > 1 else 0)
    swapped = run
    it = 0
    while run.size:
        if run.size <= LLL_HANDOFF << (d // 4):
            for s in swapped.tolist():
                _lll_rows(w[s], v[s], delta, int(k[s]), it)
            k[swapped] = d
            run = run[k[run] < d]
            if not run.size:
                break
            swapped = swapped[:0]
        it += 1
        if it > LLL_MAX_ITER:
            raise NumericalBreakdown(f"LLL exceeded its iteration cap of {LLL_MAX_ITER}")
        if swapped.size:
            _gram_schmidt(w[swapped], mu.reshape(n, d, d), nrm.reshape(n, d), swapped)
        kr = k[run]
        rk = run * d + kr
        for j in range(int(kr.max()) - 1, -1, -1):
            c = np.flatnonzero(kr > j)
            rows = rk[c]
            q = np.floor(mu[rows, j] + 0.5)
            hit = np.flatnonzero(q)
            if hit.size:
                a, b, qf = rows[hit], run[c[hit]] * d + j, q[hit, None]
                Wr[a] = _rows(W.take(a, 0) - qf * W.take(b, 0))
                Vr[a] = _rows(V.take(a, 0) - qf.astype(np.int64) * V.take(b, 0))
                mu[a, :j + 1] = mu.take(a, 0)[:, :j + 1] - qf * mu.take(b, 0)[:, :j + 1]
        m = mu[rk, kr - 1]
        up = nrm[rk] >= (delta - m * m) * nrm[rk - 1]
        swapped, r = run[~up], rk[~up]
        a, b = np.concatenate((r - 1, r)), np.concatenate((r, r - 1))
        Wr[a] = Wr[b]
        Vr[a] = Vr[b]
        k[run] = np.where(up, kr + 1, np.maximum(kr - 1, 1))
        run = run[k[run] < d]


def _rows(x):
    """A C-contiguous 2-D array as a 1-D view, one opaque item per row."""
    return x.view(np.dtype((np.void, x.shape[1] * x.itemsize)))[:, 0]


def _dots(x, y):
    """Dot products over the first axis, each summed left to right from 0.0 + x0*y0."""
    p = x * y
    s = p[0] + 0.0
    for term in p[1:]:
        s += term
    return s


def _gram_schmidt(w, mu, nrm, rows):
    """Gram-Schmidt of the stack ``w`` into mu and nrm at ``rows``,
    by ``lll_core``'s arithmetic; NumericalBreakdown when a norm underflows.

    It works on a (coordinate, row, sample) copy, each operation over
    contiguous samples.  Once b_j is final, all rows i > j take mu[i, j]
    = (w_i . b_j) / nrm[j] and b_i -= mu[i, j] b_j in one step: per entry,
    lll_core's operations in lll_core's order, so its bits.
    """
    d = w.shape[1]
    wt = np.ascontiguousarray(w.transpose(2, 1, 0))
    b = wt.copy()
    m = np.zeros((d, d, w.shape[0]))
    s = np.empty((d, w.shape[0]))
    for j in range(d):
        bj = b[:, j]
        s[j] = _dots(bj, bj)
        if (s[j] <= GS_UNDERFLOW).any():
            raise NumericalBreakdown("Gram-Schmidt norms underflowed during LLL")
        m[j, j] = 1.0
        m[j + 1:, j] = _dots(wt[:, j + 1:], bj[:, None]) / s[j]
        b[:, j + 1:] -= m[j + 1:, j] * bj[:, None]
    mu[rows] = m.transpose(2, 0, 1)
    nrm[rows] = s.T


def enumerate_core(r, r2cap, node_budget):
    """All integer z != 0 with ||R z||^2 <= r2cap, by the kernel that suits the tree.

    ``r`` is the upper-triangular Cholesky factor of the Gram matrix
    (R^T R = G).  Returns (coords, norms, nodes): coords rows are the z
    vectors, norms their squared lengths, nodes the size of the
    enumeration tree.  Raises RadiusTooLarge when the tree has more than
    ``node_budget`` nodes.  Trees of more than SMALL_TREE_NODES_PER_LEVEL
    nodes per level are enumerated again by the frontier kernel, as a
    stack of one, and the aborted first attempt is not counted.

    An (N, d, d) stack of factors goes to ``enumerate_frontier``, which
    walks all N trees in one frontier.  Its coordinate rows are dropped:
    the call returns (tree, norms, nodes), the stack index of every
    vector, their norms and the node count summed over the stack.
    Either way ``out[0].shape[0]`` is the number of vectors found and
    ``out[2]`` the nodes walked, which is what a traced run reads from
    each call; a stack is one call.  RadiusTooLarge fires when any one
    tree passes ``node_budget``.
    """
    if r.ndim == 3:
        tree, _, norms, nodes = enumerate_frontier(r, r2cap, node_budget)
        return tree, norms, nodes
    small = SMALL_TREE_NODES_PER_LEVEL * r.shape[0]
    try:
        return enumerate_depth_first(r, r2cap, min(node_budget, small))
    except RadiusTooLarge:
        if node_budget <= small:
            raise
    return enumerate_frontier(r[None], r2cap, node_budget)[1:]


def _over_budget(node_budget):
    return RadiusTooLarge(
        f"enumeration exceeded the node budget of {node_budget}; "
        "shrink the radius or raise the budget"
    )


def enumerate_depth_first(r, r2cap, node_budget):
    """``enumerate_core`` one tree node at a time, on Python numbers.

    Children of a node are visited in ascending order, so rows come out in
    lexicographic order of (z[d-1], ..., z[0]).  Python floats round each
    operation as numpy does, and ``math.sqrt`` is correctly rounded like
    ``np.sqrt``, so the frontier kernel's bits come out.
    """
    d = r.shape[0]
    R = r.tolist()
    rows = []
    norms = []
    z = [0] * d
    zmax = [0] * d
    shift = [0.0] * d       # shift[i] = sum_{j>i} R[i,j] z_j
    rho = [0.0] * d         # rho[i] = squared mass contributed by levels > i
    nodes = 0

    i = d                   # above the root, whose squared mass is 0
    total = 0.0
    descend = True
    while True:
        if descend:
            i -= 1
            rho[i] = total
            row = R[i]
            s = 0.0
            for j in range(i + 1, d):
                s += row[j] * z[j]
            shift[i] = s
            rad = math.sqrt(max(r2cap - total, 0.0))
            z[i] = math.ceil((-s - rad) / row[i] - 1e-12)
            zmax[i] = math.floor((-s + rad) / row[i] + 1e-12)
        if z[i] > zmax[i]:
            i += 1
            if i >= d:
                break
            z[i] += 1
            descend = False
            continue
        nodes += 1
        if nodes > node_budget:
            raise _over_budget(node_budget)
        t = R[i][i] * z[i] + shift[i]
        total = rho[i] + t * t
        descend = i > 0
        if not descend:
            if total <= r2cap and any(z):
                rows.append(tuple(z))
                norms.append(total)
            z[0] += 1
    return np.array(rows, dtype=np.int64).reshape(-1, d), np.array(norms, dtype=np.float64), nodes


def enumerate_frontier(r, r2cap, node_budget):
    """``enumerate_core`` level by level over an (N, d, d) stack of factors.

    Returns (tree, coords, norms, nodes): the stack index of every vector
    found, both signs included, its coordinate row and squared length, and
    the full trees' node count summed over the stack.  One tree is the
    stack of one, ``r[None]``, and then coords, norms and nodes equal
    ``enumerate_depth_first``'s row for row and bit for bit.  Tree i's
    rows, ``coords[tree == i]``, are its stack-of-one call's.

    One frontier holds the nodes of every tree, each with its tree index.
    A level step applies the depth-first kernel's arithmetic to whole
    arrays of nodes, each reading its own tree's R[k, i:] and R[k, k],
    keeps each node's children contiguous and ascending, and expands the
    chunks of at most FRONTIER_CHUNK_ROWS children depth first.  So the
    entries come out tree by tree, each tree's in depth-first order.

    Only the half-space H is walked: the vectors whose first nonzero
    coordinate, read from z[d-1] down, is positive (Schnorr & Euchner
    1994).  The tree is symmetric under z -> -z: a node's interval bounds
    negate exactly, and t = R[k,k] z[k] + shift negates exactly, so t * t
    and every norm are bit-equal.  Depth-first order is lexicographic in
    (z[d-1], ..., z[0]), which negation reverses and which puts all of -H
    before H, so the full output is ``concat(-H[::-1], H)``.  A full
    tree is the all-zero path, d nodes, plus mirror pairs of the ``half``
    nodes walked beyond it, so it has 2 * half - d nodes.  Each tree's
    half is charged against (node_budget + d) // 2, the largest half
    whose full tree fits ``node_budget``, before the children that reach
    it are built, so RadiusTooLarge fires for exactly the budgets it
    would on the full tree of any one tree of the stack.
    """
    n, d = r.shape[:2]
    half = np.zeros(n, dtype=np.int64)
    found = _Found(d)
    _expand(r, r2cap, node_budget, d, np.zeros((0, n), dtype=np.int64), np.arange(n),
            np.zeros(n), np.ones(n, dtype=bool), half, found)
    m = found.m
    t, h, hn = found.tree[:m], found.coords[:m], found.norms[:m]
    coords = np.empty((2 * m, d), dtype=np.int64)
    np.negative(h[::-1], out=coords[:m])
    coords[m:] = h
    return (np.concatenate((t[::-1], t)), coords, np.concatenate((hn[::-1], hn)),
            2 * int(half.sum()) - n * d)


class _Found:
    """The frontier's half-space output so far, in buffers that double when
    full.  Collecting small pieces and joining them at the end fragmented
    the heap: bw16-shells then peaked at 90 MB RSS instead of about 77 MB."""

    def __init__(self, d):
        self.tree = np.empty(1024, dtype=np.int64)
        self.coords = np.empty((1024, d), dtype=np.int64)
        self.norms = np.empty(1024, dtype=np.float64)
        self.m = 0

    def add(self, tree, z, zt, norms):
        """Append leaves: tree index, z[0], z[1:] as columns of ``zt``, norm."""
        m = self.m
        end = m + norms.shape[0]
        if end > self.norms.shape[0]:
            cap = max(2 * self.norms.shape[0], end)
            for name in ("tree", "coords", "norms"):
                old = getattr(self, name)
                grown = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
                grown[:m] = old[:m]
                setattr(self, name, grown)
        self.tree[m:end] = tree
        self.coords[m:end, 0] = z
        self.coords[m:end, 1:] = zt.T
        self.norms[m:end] = norms
        self.m = end


def _expand(r, r2cap, node_budget, i, zt, tree, rho, zero, half, found):
    """Enumerate the subtrees of a chunk of parents at level i.

    Column p of ``zt`` holds z[i:] of parent p, ``tree[p]`` its stack
    index and rho[p] its squared length so far; level d is the root.
    Adds each tree's child count to ``half`` and raises RadiusTooLarge
    once one passes (node_budget + d) // 2; adds the leaves inside the
    radius to ``found``.

    ``zero`` marks the all-zero parents, at most one per tree.  An
    all-zero parent gets no negative children, so only the half-space is
    walked.  Zero always lies in its interval, so its first child is all
    zero too; the all-zero leaf is not a vector.  A stack of one reads
    R[k, i:] by slicing rather than by gathering a row per parent: the
    same numbers, where the gathers make bw16-shells' walk about a fifth
    slower.
    """
    n, d = r.shape[:2]
    k = i - 1
    rkk = r[:, k, k][tree]
    rk = r[0, k, i:, None] if n == 1 else r[tree, k, i:].T
    s, lo, hi = _bounds(rk, rkk, r2cap, zt, rho)
    lo[zero] = 0
    cnt = np.maximum(hi - lo + 1, 0)
    np.add.at(half, tree, cnt)
    if half.max() > (node_budget + d) // 2:
        raise _over_budget(node_budget)
    parent = np.arange(cnt.shape[0]).repeat(cnt)     # contiguous, ascending from lo
    z = np.arange(parent.shape[0]) + (lo - (cnt.cumsum() - cnt))[parent]
    total = rkk[parent] * z + s[parent]     # t, then rho + t * t in place
    total *= total
    total += rho[parent]
    zero = zero[parent] & (z == 0)
    if k == 0:
        keep = np.flatnonzero((total <= r2cap) & ~zero)
        p = parent[keep]
        found.add(tree[p], z[keep], zt[:, p], total[keep])
        return
    for a in range(0, z.shape[0], FRONTIER_CHUNK_ROWS):
        b = min(a + FRONTIER_CHUNK_ROWS, z.shape[0])
        p = parent[a:b]
        child = np.empty((d - k, b - a), dtype=np.int64)
        child[0] = z[a:b]
        child[1:] = zt[:, p]
        _expand(r, r2cap, node_budget, k, child, tree[p], total[a:b], zero[a:b], half, found)


def _bounds(rk, rkk, r2cap, zt, rho):
    """(s, lo, hi) one level down from a chunk of parents: the shift s and
    each parent's child interval [lo, hi], by the depth-first arithmetic.

    ``rk`` holds R[k, i:] of the parents as a column (a stack of one) or
    as one column per parent, and ``rkk`` R[k, k] per parent; either way
    each parent meets the same IEEE operations.
    """
    s = np.zeros(zt.shape[1])
    for term in rk * zt:     # j ascending, as depth first
        s += term
    rad = np.sqrt(np.maximum(r2cap - rho, 0.0))
    lo = np.ceil((-s - rad) / rkk - 1e-12).astype(np.int64)
    hi = np.floor((-s + rad) / rkk + 1e-12).astype(np.int64)
    return s, lo, hi


def jacobi_core(a, rel_tol, max_sweeps):
    """Cyclic Jacobi sweeps on symmetric ``a``; returns (sweeps, d, q).

    ``d`` holds the eigenvalues in diagonal order (unsorted) and the
    columns of ``q`` the eigenvectors, so q @ diag(d) @ q.T reconstructs
    ``a``, which is left unchanged.  Converged when the off-diagonal
    Frobenius mass drops below rel_tol times the input Frobenius norm;
    raises NumericalBreakdown when ``max_sweeps`` sweeps do not get there.

    The sweep runs on Python floats in lists of rows.  The bits equal
    those of a kernel that rotates whole numpy columns and rows
    (``c * colp - s * colq``, and so on), because each entry gets the
    same IEEE operations in the same order.  Every product and difference
    is rounded on its own, in CPython as in numpy's elementwise loops,
    with no fused multiply-add.  ``math.sqrt`` and ``np.sqrt`` are both
    the correctly rounded square root.  The columns are rotated before
    the rows, and the rows use the rotated columns.  The input's
    Frobenius norm is still summed by ``np.sum``, whose pairwise order a
    Python loop would not reproduce.

    Each mirror pair is rotated once.  ``a`` must be bitwise symmetric
    (ValueError otherwise; ``sym_eig`` passes 0.5 * (s + s^T), which is).
    For k not p or r, the column pass turns (a[k,p], a[k,r]) and the row
    pass turns (a[p,k], a[r,k]) by the same operations on the same
    operands, so the kernel computes each pair once and stores it in
    both mirror positions.  The 2 x 2 block at (p, r) is computed as the
    two passes compute it, and a[p,r] and a[r,p] are then zeroed, so
    ``a`` stays bitwise symmetric from rotation to rotation.
    """
    if not np.array_equal(a.view(np.int64), a.T.view(np.int64)):
        raise ValueError("Jacobi needs a bitwise symmetric matrix")
    n = a.shape[0]
    fro = np.sqrt(np.sum(a * a))
    thresh = rel_tol * fro
    A = a.tolist()
    Q = np.eye(n).tolist()
    others = [[[k for k in range(n) if k != p and k != r_] for r_ in range(n)] for p in range(n)]
    for sweep in range(max_sweeps):
        off = 0.0
        for i in range(n):
            row = A[i]
            for j in range(i + 1, n):
                off += 2.0 * row[j] * row[j]
        if math.sqrt(off) <= thresh:
            return sweep, np.array([A[i][i] for i in range(n)]), np.array(Q)
        for p in range(n - 1):
            rowp = A[p]
            for r_ in range(p + 1, n):
                apq = rowp[r_]
                if apq == 0.0:
                    continue
                rowr = A[r_]
                tau = (rowr[r_] - rowp[p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in others[p][r_]:
                    row = A[k]
                    x = row[p]
                    y = row[r_]
                    row[p] = rowp[k] = c * x - s * y
                    row[r_] = rowr[k] = s * x + c * y
                app = rowp[p]
                arr = rowr[r_]
                xp = c * app - s * apq
                yp = s * app + c * apq
                xr = c * apq - s * arr
                yr = s * apq + c * arr
                rowp[p] = c * xp - s * xr
                rowr[r_] = s * yp + c * yr
                rowp[r_] = 0.0
                rowr[p] = 0.0
                for row in Q:
                    x = row[p]
                    y = row[r_]
                    row[p] = c * x - s * y
                    row[r_] = s * x + c * y
    raise NumericalBreakdown("Jacobi sweeps did not converge within the sweep cap")
