"""Hot numeric kernels: LLL reduction, short-vector enumeration, Jacobi sweeps.

These three loops dominate the runtime of everything interesting in this
package (systole checks, the Monte Carlo mean-value estimator, the
eigensolver oracle).  Each kernel has one pure-numpy implementation.

Kernels never raise: they return an integer status the callers translate
into the package's exception types.  All matrices are passed row-major
with vectors as rows so the inner dot products run on contiguous memory.
"""

import numpy as np

#: GS norms at or below this are treated as a breakdown, not a tiny vector.
GS_UNDERFLOW = 1e-280

#: Hard cap on LLL main-loop iterations; hitting it is a breakdown signal.
LLL_MAX_ITER = 1_000_000

# status codes shared by the kernels
OK = 0
BREAKDOWN = 1
ITER_CAP = 2
BUDGET_EXCEEDED = 1


def lll_core(w, v, delta):
    """Lovasz-reduce the row vectors of ``w`` in place.

    ``v`` (int64, preinitialised to the identity) accumulates the row
    operations, so on return ``w == v @ w_input`` up to float products.
    Returns OK, BREAKDOWN (Gram-Schmidt norm underflow) or ITER_CAP.
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
        if it > LLL_MAX_ITER:
            return ITER_CAP
        if need_gso:
            for i in range(d):
                bstar[i] = w[i]
                for j in range(i):
                    m = np.dot(w[i], bstar[j]) / nrm[j]
                    mu[i, j] = m
                    bstar[i] = bstar[i] - m * bstar[j]
                mu[i, i] = 1.0
                s = np.dot(bstar[i], bstar[i])
                if s <= GS_UNDERFLOW:
                    return BREAKDOWN
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
    return OK


def enumerate_core(r, r2cap, node_budget):
    """Depth-first enumeration of all integer z != 0 with ||R z||^2 <= r2cap.

    ``r`` is the upper-triangular Cholesky factor of the Gram matrix
    (R^T R = G).  Returns (coords, norms, nodes, status); coords rows are
    the z vectors, norms their squared lengths.  status BUDGET_EXCEEDED
    means the node budget was exhausted and the output is partial.
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
    nodes = np.int64(0)

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
            return coords[:m].copy(), norms[:m].copy(), nodes, BUDGET_EXCEEDED
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
                        cap2 = cap * 2
                        c2 = np.empty((cap2, d), dtype=np.int64)
                        n2 = np.empty(cap2, dtype=np.float64)
                        c2[:cap] = coords
                        n2[:cap] = norms
                        coords = c2
                        norms = n2
                        cap = cap2
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
    return coords[:m].copy(), norms[:m].copy(), nodes, OK


def jacobi_core(a, q, rel_tol, max_sweeps):
    """Cyclic Jacobi sweeps on symmetric ``a`` (overwritten in place).

    ``q`` (preinitialised to the identity) accumulates rotations so that
    q @ diag(a) @ q.T reconstructs the input.  Converged when the
    off-diagonal Frobenius mass drops below rel_tol times the input
    Frobenius norm.  Returns (sweeps_used, status).
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
            return sweep, OK
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
    return max_sweeps, ITER_CAP
