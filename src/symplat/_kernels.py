"""Hot numeric kernels: LLL reduction, short-vector enumeration, Jacobi sweeps.

These three loops dominate the runtime of everything interesting in this
package (systole checks, the Monte Carlo mean-value estimator, the
eigensolver oracle).  LLL and Jacobi each have one kernel.

``lll_core`` computes Gram-Schmidt rows lazily; its docstring gives the
rule and why the result is bit for bit a full recompute's.

``jacobi_core`` runs its scalar loop on Python floats held in lists, not
on numpy entries: a rotation touches only a few rows and columns, and
numpy's per-call overhead outweighs such small arithmetic.  It does the
same IEEE operations in the same order as a kernel rotating whole numpy
columns and rows, so the bits are the same; its docstring says why.

Enumeration has two kernels over the same Fincke-Pohst tree.
``enumerate_depth_first`` walks it one node at a time;
``enumerate_frontier`` expands one tree level at a time over a numpy
frontier, in chunks of at most FRONTIER_CHUNK_ROWS nodes taken depth
first.  Both do the same float operations per node in the same order, so
they return the same vectors in the same row order with bit-equal norms
and the same node count.  ``enumerate_core``, the entry point, picks by
tree size: it runs the depth-first kernel up to SMALL_TREE_NODES nodes
and, when the tree turns out to be larger, starts over with the frontier
kernel.

Each kernel returns plain results and raises the package's own error
where a failure happens: ``lll_core`` and ``jacobi_core`` raise
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

#: Trees up to this many nodes stay with the depth-first kernel.  On one
#: core of a 2-core x86 host it costs about 9 us per node and the frontier
#: kernel about 55 us per tree level, so the frontier breaks even at about
#: 40-60 nodes in dimensions 4 and 8 and at 60-100 in dimension 16.
SMALL_TREE_NODES = 64

#: Most nodes of one level the frontier kernel turns into coordinate rows
#: at once.  Each level on its path holds at most one such chunk, so its
#: memory stays near depth x chunk x dim integers however wide the tree is:
#: about 6 MB on bw16-shells' tree, where 4096 takes 11 MB and runs no
#: faster.
FRONTIER_CHUNK_ROWS = 1 << 11


def lll_core(w, v, delta):
    """Lovasz-reduce the row vectors of ``w`` in place.

    ``v`` (int64, preinitialised to the identity) accumulates the row
    operations, so on return ``w == v @ w_input`` up to float products.
    Raises NumericalBreakdown when a Gram-Schmidt norm underflows or the
    loop passes LLL_MAX_ITER iterations; w and v then hold the rows
    reduced so far.

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

    One difference remains: a norm that underflows in a row above k
    raises when k reaches that row, not at the swap before, and w and v
    then hold the further-reduced rows.  A basis that passes
    ``from_basis``'s determinant check practically never gets there.
    """
    d = w.shape[0]
    bstar = np.zeros((d, d))
    mu = np.zeros((d, d))
    nrm = np.zeros(d)
    fresh = 0
    stale = d
    k = 1
    it = 0
    while k < d:
        it += 1
        if it > LLL_MAX_ITER:
            raise NumericalBreakdown(f"LLL exceeded its iteration cap of {LLL_MAX_ITER}")
        while fresh <= k:
            i = fresh
            bstar[i] = w[i]
            for j in range(i):
                m = np.dot(w[i], bstar[j]) / nrm[j]
                mu[i, j] = m
                bstar[i] = bstar[i] - m * bstar[j]
            mu[i, i] = 1.0
            s = np.dot(bstar[i], bstar[i])
            if s <= GS_UNDERFLOW:
                raise NumericalBreakdown("Gram-Schmidt norms underflowed during LLL")
            nrm[i] = s
            fresh += 1
        for j in range(k - 1, -1, -1):
            q = np.floor(mu[k, j] + 0.5)
            if q != 0.0:
                qi = np.int64(q)
                w[k] = w[k] - q * w[j]
                v[k] = v[k] - qi * v[j]
                mu[k, : j + 1] = mu[k, : j + 1] - q * mu[j, : j + 1]
                stale = min(stale, k)
        if nrm[k] >= (delta - mu[k, k - 1] * mu[k, k - 1]) * nrm[k - 1]:
            k += 1
        else:
            tmp = w[k].copy()
            w[k] = w[k - 1]
            w[k - 1] = tmp
            tmpv = v[k].copy()
            v[k] = v[k - 1]
            v[k - 1] = tmpv
            fresh = min(stale, k - 1)
            stale = d
            k = max(k - 1, 1)


def enumerate_core(r, r2cap, node_budget):
    """All integer z != 0 with ||R z||^2 <= r2cap, by the kernel that suits the tree.

    ``r`` is the upper-triangular Cholesky factor of the Gram matrix
    (R^T R = G).  Returns (coords, norms, nodes): coords rows are the z
    vectors, norms their squared lengths, nodes the size of the
    enumeration tree.  Raises RadiusTooLarge when the tree has more than
    ``node_budget`` nodes.  Trees of more than SMALL_TREE_NODES nodes are
    enumerated again by the frontier kernel, and the aborted first
    attempt is not counted.
    """
    try:
        return enumerate_depth_first(r, r2cap, min(node_budget, SMALL_TREE_NODES))
    except RadiusTooLarge:
        if node_budget <= SMALL_TREE_NODES:
            raise
    return enumerate_frontier(r, r2cap, node_budget)


def _over_budget(node_budget):
    return RadiusTooLarge(
        f"enumeration exceeded the node budget of {node_budget}; "
        "shrink the radius or raise the budget"
    )


def enumerate_depth_first(r, r2cap, node_budget):
    """``enumerate_core`` one tree node at a time; the reference kernel.

    Children of a node are visited in ascending order, so rows come out in
    lexicographic order of (z[d-1], ..., z[0]).
    """
    d = r.shape[0]
    cap = 1024
    coords = np.empty((cap, d), dtype=np.int64)
    norms = np.empty(cap, dtype=np.float64)
    m = 0
    z = np.zeros(d, dtype=np.int64)
    zmax = np.zeros(d, dtype=np.int64)
    shift = np.zeros(d)       # shift[i] = sum_{j>i} R[i,j] z_j
    rho = np.zeros(d)         # rho[i] = squared mass contributed by levels > i
    nodes = 0

    i = d - 1
    rad = np.sqrt(r2cap)
    rii = r[i, i]
    z[i] = np.int64(np.ceil(-rad / rii - 1e-12))
    zmax[i] = np.int64(np.floor(rad / rii + 1e-12))
    while True:
        if z[i] > zmax[i]:
            i += 1
            if i >= d:
                break
            z[i] += 1
            continue
        nodes += 1
        if nodes > node_budget:
            raise _over_budget(node_budget)
        t = r[i, i] * z[i] + shift[i]
        total = rho[i] + t * t
        if i == 0:
            if total <= r2cap:
                nonzero = False
                for j in range(d):
                    if z[j] != 0:
                        nonzero = True
                        break
                if nonzero:
                    if m == cap:
                        coords, norms = _grown(coords, norms, m, m + 1)
                        cap = norms.shape[0]
                    for j in range(d):
                        coords[m, j] = z[j]
                    norms[m] = total
                    m += 1
            z[0] += 1
        else:
            rho[i - 1] = total
            i -= 1
            s = 0.0
            for j in range(i + 1, d):
                s += r[i, j] * z[j]
            shift[i] = s
            rad = np.sqrt(max(r2cap - rho[i], 0.0))
            rii = r[i, i]
            z[i] = np.int64(np.ceil((-s - rad) / rii - 1e-12))
            zmax[i] = np.int64(np.floor((-s + rad) / rii + 1e-12))
    return coords[:m].copy(), norms[:m].copy(), nodes


def enumerate_frontier(r, r2cap, node_budget):
    """``enumerate_core`` one tree level at a time over a numpy frontier.

    Applies the depth-first kernel's arithmetic to whole arrays of nodes,
    keeps each node's children contiguous and ascending, and expands the
    chunks of a level depth first, so the output equals
    ``enumerate_depth_first``'s row for row and bit for bit.  The child
    count of each chunk is charged to the budget before its children are
    built.
    """
    d = r.shape[0]
    found = _Found(d)
    nodes = _expand(r, r2cap, node_budget, d, np.zeros((0, 1), dtype=np.int64), np.zeros(1), found)
    if nodes > node_budget:
        raise _over_budget(node_budget)
    m = found.m
    return found.coords[:m].copy(), found.norms[:m].copy(), nodes


def _grown(coords, norms, m, need):
    """The first m rows of (coords, norms) in new buffers of at least twice
    the size and at least ``need`` rows."""
    cap = max(2 * norms.shape[0], need)
    c2 = np.empty((cap, coords.shape[1]), dtype=np.int64)
    n2 = np.empty(cap, dtype=np.float64)
    c2[:m] = coords[:m]
    n2[:m] = norms[:m]
    return c2, n2


class _Found:
    """The frontier kernel's output so far, in buffers that double when full
    as the depth-first kernel's do.  Collecting small pieces and joining
    them at the end fragmented the heap: bw16-shells then peaked at 90 MB
    RSS instead of about 77 MB."""

    def __init__(self, d):
        self.coords = np.empty((1024, d), dtype=np.int64)
        self.norms = np.empty(1024, dtype=np.float64)
        self.m = 0

    def add(self, coords, norms):
        end = self.m + norms.shape[0]
        if end > self.norms.shape[0]:
            self.coords, self.norms = _grown(self.coords, self.norms, self.m, end)
        self.coords[self.m:end] = coords
        self.norms[self.m:end] = norms
        self.m = end


def _expand(r, r2cap, budget, i, zt, rho, found):
    """Enumerate the subtrees of a chunk of parents at level i.

    Column p of ``zt`` holds z[i:] of parent p and rho[p] its squared
    length so far; level r.shape[0] is the root.  Adds the leaves inside
    the radius to ``found`` and returns the number of nodes below the
    parents, or budget + 1 once that passes ``budget``.
    """
    d = r.shape[0]
    k = i - 1
    n = zt.shape[1]
    s = np.zeros(n)
    for term in r[k, i:, None] * zt:     # j ascending, as depth first
        s += term
    rad = np.sqrt(np.maximum(r2cap - rho, 0.0))
    rkk = r[k, k]
    lo = np.ceil((-s - rad) / rkk - 1e-12).astype(np.int64)
    hi = np.floor((-s + rad) / rkk + 1e-12).astype(np.int64)
    cnt = np.maximum(hi - lo + 1, 0)
    c = int(cnt.sum())
    if c > budget:
        return budget + 1
    parent = np.arange(n).repeat(cnt)
    z = np.arange(c) + (lo - (cnt.cumsum() - cnt))[parent]
    total = rkk * z + s[parent]       # t, then rho + t * t in place
    total *= total
    total += rho[parent]
    if k == 0:
        keep = np.flatnonzero(total <= r2cap)
        rows = np.empty((keep.shape[0], d), dtype=np.int64)
        rows[:, 0] = z[keep]
        rows[:, 1:] = zt[:, parent[keep]].T
        nonzero = rows.any(axis=1)
        found.add(rows[nonzero], total[keep][nonzero])
        return c
    nodes = c
    for a in range(0, c, FRONTIER_CHUNK_ROWS):
        b = min(a + FRONTIER_CHUNK_ROWS, c)
        child = np.empty((d - k, b - a), dtype=np.int64)
        child[0] = z[a:b]
        child[1:] = zt[:, parent[a:b]]
        nodes += _expand(r, r2cap, budget - nodes, k, child, total[a:b], found)
        if nodes > budget:
            return budget + 1
    return nodes


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
    """
    n = a.shape[0]
    fro = np.sqrt(np.sum(a * a))
    thresh = rel_tol * fro
    A = a.tolist()
    Q = np.eye(n).tolist()
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
                for row in A:
                    x = row[p]
                    y = row[r_]
                    row[p] = c * x - s * y
                    row[r_] = s * x + c * y
                for k in range(n):
                    x = rowp[k]
                    y = rowr[k]
                    rowp[k] = c * x - s * y
                    rowr[k] = s * x + c * y
                rowp[r_] = 0.0
                rowr[p] = 0.0
                for row in Q:
                    x = row[p]
                    y = row[r_]
                    row[p] = c * x - s * y
                    row[r_] = s * x + c * y
    raise NumericalBreakdown("Jacobi sweeps did not converge within the sweep cap")
