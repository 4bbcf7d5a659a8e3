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
in straight-line code generated once per dimension, where ``np.dot``
leaves the order to the BLAS build, and computes
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
(node_budget + d) // 2; its docstring says why each step is exact.
Trees with bitwise the same bottom rows R[k:, k:] (every P_Z of the K
family, at k = g) have the same nodes at levels d - 1 to k: the frontier
walks those once and expands level k - 1 as a broadcast (tree x shared
node) product, each pair taking its tree's own operations in their
order, so the bits hold.  Both
kernels do the same float operations per node in the same order, so
they return the same vectors in the same row order with bit-equal norms
and the same node count.  The rows come out as ``concat(-H[::-1], H)``,
H one vector of each +-v pair, which ``lattice`` relies on.
``enumerate_core``, the entry point, sends a stack to the frontier and
picks for one tree by its size: it runs the depth-first kernel up to
SMALL_TREE_NODES_PER_LEVEL nodes per level of the tree and, when the
tree turns out to be larger, starts over with the frontier on the tree's
stack of one.  Any upper-triangular factor with a positive diagonal
defines a tree: ``lattice`` passes the Cholesky factors of reduced
Grams, and for the Monte Carlo counts, where a box bound proves the
trees small, the triangular P_Z bases themselves.  Coordinates are int64,
so a child interval reaching past Z_LIMIT raises RadiusTooLarge, as a
tree past the node budget does, before anything is cast.

Each kernel returns plain results and raises the package's own error
where a failure happens: the LLL kernels and ``jacobi_core`` raise
NumericalBreakdown, the enumeration kernels RadiusTooLarge.  All
matrices are passed row-major with vectors as rows so the inner dot
products run on contiguous memory.
"""

import functools
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

#: Largest |z| an enumeration tree holds.  Its coordinates are int64, which
#: would wrap past 2^63, so a child interval whose end passes this raises
#: RadiusTooLarge before any cast.
Z_LIMIT = 1 << 62

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
    the loop ends or raises.  Dot products and row updates run through
    ``_row_ops(d)``, straight-line code generated once per dimension: a
    dot product is ``0.0 + x[0] * y[0] + x[1] * y[1] + ...``, and ``+``
    associates left to right, so it does a loop of ``s += x * y``'s IEEE
    operations in its order without the loop's per-element interpreter
    work.  Every product and sum is rounded on its own, so the bits are
    the same on every host and Python version.  ``np.dot`` would hand
    them to the BLAS build's ``ddot``, whose summation order and use of
    fused multiply-adds depend on the CPU and the vector length; ``sum``
    compensates float sums from Python 3.12 on.  A ``+`` chain nests one
    level per term (a single one fails to compile near d = 3,000), so
    each generated statement adds at most 64 terms to the running sum.

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
    dot, axpy = _row_ops(w.shape[1])
    int_axpy = _row_ops(d)[1]
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
                    m = dot(wi, bj) / nrm[j]
                    mui[j] = m
                    b = axpy(b, m, bj)
                    pi.append(b)
                mui[i] = 1.0
                s = dot(b, b)
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
                    W[k] = axpy(W[k], qf, W[j])
                    V[k] = int_axpy(V[k], q, V[j])
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


@functools.cache
def _row_ops(d):
    """(dot, axpy) on rows of length d as straight-line code, bit for bit
    the loops ``s = 0.0; s += x * y`` and ``[x - m * y for ...]``; see
    ``lll_core``."""
    terms = [f"x[{i}] * y[{i}]" for i in range(d)]
    sums = "".join(f"\n    s = s + {' + '.join(terms[a:a + 64])}" for a in range(0, d, 64))
    diffs = ", ".join(f"x[{i}] - m * y[{i}]" for i in range(d))
    ns = {}
    exec(f"def dot(x, y):\n    s = 0.0{sums}\n    return s\n"
         f"def axpy(x, m, y):\n    return [{diffs}]\n", ns)
    return ns["dot"], ns["axpy"]


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


def _past_int64():
    return RadiusTooLarge(
        "an enumeration interval reaches past |z| = 2^62, where int64 "
        "coordinates would wrap; shrink the radius"
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
            lo = (-s - rad) / row[i] - 1e-12
            hi = (-s + rad) / row[i] + 1e-12
            if lo < -Z_LIMIT or hi > Z_LIMIT:
                raise _past_int64()
            z[i] = math.ceil(lo)
            zmax[i] = math.floor(hi)
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
    rows, ``coords[tree == i]``, are its stack-of-one call's.  An empty
    stack finds nothing in 0 nodes.

    One frontier holds the nodes of every tree, each with its tree index.
    A level step applies the depth-first kernel's arithmetic to whole
    arrays of nodes, each reading its own tree's R[k, i:] and R[k, k],
    keeps each node's children contiguous and ascending, and expands the
    chunks of at most FRONTIER_CHUNK_ROWS children depth first.  So the
    entries come out tree by tree, each tree's in depth-first order.

    Where every tree has bitwise the same R[k:, k:], levels d - 1 down to
    k read the same numbers in every tree, so every tree has the same
    nodes there, with the same bits.  Those levels are walked once, on the
    first tree's rows (``_shared_top``), and level k - 1 is expanded as
    one product of the trees by the M shared nodes at level k: the shift
    of pair (t, m) is summed from 0.0 over j ascending from R_t[k - 1, j]
    z_m[j], the radius is taken once per shared node, and each pair's
    interval from its shift, that radius and R_t[k - 1, k - 1].  Each
    number meets the operations it meets in its tree's own walk, in the
    same order, so the bits are the same; the pairs run tree-major, each
    tree's in depth-first order, so the output order is too.  A stack
    that shares nothing, as a stack of one, takes the same path with
    M = 1: its product is the root step.  Products run in blocks of at
    most FRONTIER_CHUNK_ROWS << 3 pairs: mc-k's 1,000 trees by 25 shared
    nodes make one block, and a block's (d - k) x pairs shift terms stay
    under 8 MB at d = 32, below the 22 MB the g = 32 tree's walk peaks at.

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
    would on the full tree of any one tree of the stack; the shared
    levels are charged to every tree.  The halves are counted in float64,
    exact below 2^53 nodes, and each level's child counts are charged
    before they are cast to int64, so a radius too large for the budget
    or for int64 raises rather than wraps.  Where trees of one stack fail
    in different ways, which error surfaces follows the walk's order.
    """
    n, d = r.shape[:2]
    half = np.zeros(n)
    found = _Found(d)
    k, zt, rho, zero = _shared_top(r, r2cap, node_budget, half)
    step = max(1, (FRONTIER_CHUNK_ROWS << 3) // zt.shape[1])
    for a in range(0, n, step):
        b = min(a + step, n)
        _expand(r, r2cap, node_budget, k, r[a:b, k - 1, k:].T[:, :, None], r[a:b, k - 1, k - 1, None],
                np.broadcast_to(zt[:, None], (d - k, b - a, zt.shape[1])), np.arange(a, b)[:, None],
                rho, zero, half, found)
    m = found.m
    t, h, hn = found.tree[:m], found.coords[:m], found.norms[:m]
    coords = np.empty((2 * m, d), dtype=np.int64)
    np.negative(h[::-1], out=coords[:m])
    coords[m:] = h
    return (np.concatenate((t[::-1], t)), coords, np.concatenate((hn[::-1], hn)),
            2 * int(half.sum()) - n * d)


def _shared_top(r, r2cap, node_budget, half):
    """(k, zt, rho, zero): the half-space nodes at level k that every tree
    of the stack has, walked once and charged to every tree's ``half``.

    k is the lowest level, at least 1, where every tree has bitwise the
    same R[k:, k:], or d where fewer than two levels are shared or the
    stack holds one tree.  The walk stops higher where a level would hold
    more than FRONTIER_CHUNK_ROWS nodes, so the shared nodes never outgrow
    a chunk; a level it drops is charged to no tree, and the product
    walks it again for each.  Each level is a step of ``_expand``'s
    arithmetic on the first tree's rows; columns of ``zt`` hold z[k:] in
    depth-first order, rho the squared lengths and ``zero`` the all-zero
    node.
    """
    n, d = r.shape[:2]
    bits = r.view(f"i{r.itemsize}")
    same = (bits == bits[:1]).all(axis=0)
    k = d
    while n > 1 and k > 1 and same[k - 1:, k - 1:].all():
        k -= 1
    if d - k < 2:
        k = d
    zt, rho, zero = np.zeros((0, 1), dtype=np.int64), np.zeros(1), np.ones(1, dtype=bool)
    walked = np.zeros(1)
    for i in range(d, k, -1):
        charged = walked.copy()
        at, z, total, below = _children(r2cap, r[0, i - 1, i:, None], r[0, i - 1, i - 1, None], zt, rho,
                                        zero, np.zeros(1, dtype=np.intp), charged, node_budget, d)
        if z.shape[0] > FRONTIER_CHUNK_ROWS:
            k = i
            break
        zt, rho, zero, walked = np.concatenate((z[None], zt[:, at[0]])), total, below, charged
    half += walked
    return k, zt, rho, zero


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


def _expand(r, r2cap, node_budget, i, rk, rkk, zt, tree, rho, zero, half, found):
    """Enumerate the subtrees of a block of parents at level i.

    The parents form an array: 1-D for a chunk of the frontier, (trees,
    shared nodes) for ``enumerate_frontier``'s product.  ``tree``, rho
    (squared length so far) and ``zero`` broadcast to it, and ``zt`` holds
    their z[i:] along its first axis; ``rk`` and ``rkk`` are R[k, i:] and
    R[k, k], k = i - 1, as ``_children`` takes them.  Adds each tree's
    child count to ``half`` and raises RadiusTooLarge once one passes
    (node_budget + d) // 2, or once an interval end passes Z_LIMIT; adds
    the leaves inside the radius to ``found`` and walks the other children
    in chunks of FRONTIER_CHUNK_ROWS.

    ``zero`` marks the all-zero parents, at most one per tree, and the
    all-zero leaf is not a vector.  A stack of one reads R[k, i:] by
    slicing rather than by gathering a row per parent: the same numbers,
    where the gathers make bw16-shells' walk about a fifth slower.
    """
    n, d = r.shape[:2]
    k = i - 1
    at, z, total, zero = _children(r2cap, rk, rkk, zt, rho, zero, tree, half, node_budget, d)
    shape = zt.shape[1:]
    if k == 0:
        keep = np.flatnonzero((total <= r2cap) & ~zero)
        p = tuple(j[keep] for j in at)
        found.add(_gather(tree, shape, p), z[keep], zt[(slice(None), *p)], total[keep])
        return
    for a in range(0, z.shape[0], FRONTIER_CHUNK_ROWS):
        b = min(a + FRONTIER_CHUNK_ROWS, z.shape[0])
        p = tuple(j[a:b] for j in at)
        t = _gather(tree, shape, p)
        child = np.empty((d - k, b - a), dtype=np.int64)
        child[0] = z[a:b]
        child[1:] = zt[(slice(None), *p)]
        rk = r[0, k - 1, k:, None] if n == 1 else r[t, k - 1, k:].T
        _expand(r, r2cap, node_budget, k, rk, r[:, k - 1, k - 1][t], child, t, total[a:b], zero[a:b],
                half, found)


def _children(r2cap, rk, rkk, zt, rho, zero, tree, half, node_budget, d):
    """The children of an array of parents one level down, by the
    depth-first arithmetic: (at, z, total, zero), ``at`` each child's
    parent as an index into the array, z its coordinate, total its squared
    length and ``zero`` whether it is all zero.

    ``zt`` holds the parents' z[i:] along its first axis, so its other axes
    are the parents' shape.  ``rk`` holds R[k, i:] along its first axis;
    ``rkk``, rho, ``zero`` and ``tree`` broadcast to the parents.  The
    shift is summed from 0.0 over j ascending and the radius taken from
    rho as rho comes, so each parent meets the same IEEE operations
    whether its numbers come one per parent, per tree or per shared node.
    Charges the child counts to ``half`` by tree and raises RadiusTooLarge
    before any cast, as ``_expand`` says.  Past the intervals it works
    only on the parents with children: at mc-k's product, 2,985 of 25,000
    pairs.  An all-zero parent gets no negative children, so only the
    half-space is walked; zero always lies in its interval, so its first
    child is all zero too.
    """
    shape = zt.shape[1:]
    s = np.zeros(shape)
    for term in rk * zt:     # j ascending, as depth first
        s += term
    rad = np.sqrt(np.maximum(r2cap - rho, 0.0))
    with np.errstate(over="ignore"):     # an infinite end fails the Z_LIMIT check
        lo = np.ceil((-s - rad) / rkk - 1e-12)
        hi = np.floor((-s + rad) / rkk + 1e-12)
    np.copyto(lo, 0.0, where=zero)
    cnt = np.maximum(hi - lo + 1.0, 0.0).ravel()
    live = np.flatnonzero(cnt != 0.0)     # the parents with children; a NaN count is charged too
    at = np.unravel_index(live, shape) if len(shape) > 1 else (live,)     # 1-D, it would only copy
    half += np.bincount(_gather(tree, shape, at), weights=cnt[live], minlength=half.shape[0])
    if half.max() > (node_budget + d) // 2:
        raise _over_budget(node_budget)
    if lo.min(initial=0.0) < -Z_LIMIT or hi.max(initial=0.0) > Z_LIMIT:
        raise _past_int64()
    cnt = cnt[live].astype(np.int64)
    at = tuple(p.repeat(cnt) for p in at)     # contiguous, ascending from lo
    z = np.arange(at[0].shape[0]) + (lo.ravel()[live].astype(np.int64) - (cnt.cumsum() - cnt)).repeat(cnt)
    total = _gather(rkk, shape, at) * z + s[at]     # t, then rho + t * t in place
    total *= total
    total += _gather(rho, shape, at)
    return at, z, total, _gather(zero, shape, at) & (z == 0)


def _gather(x, shape, at):
    """``x`` broadcast to the parents' ``shape``, at the parents ``at``.
    ``np.broadcast_to`` costs several microseconds a call, so an ``x`` that
    already has the shape skips it."""
    return (x if x.shape == shape else np.broadcast_to(x, shape))[at]


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
