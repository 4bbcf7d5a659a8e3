"""Lattices: Gram caching, LLL preprocessing, exact short-vector enumeration.

A lattice is an invertible real basis matrix whose *columns* generate it,
with the Gram matrix cached at construction.  Short vectors are found by
Fincke-Pohst enumeration over the Cholesky factor of the LLL-reduced Gram
(depth first for small trees, level by level for large ones; see
``_kernels``) and mapped back through the unimodular transform, so the
reported coordinate vectors refer to the original basis.  The kernels
return the vectors as ``concat(-H[::-1], H)``, H one of each +-v pair,
so only H goes through the transform and into the histogram; the other
half is its negated mirror.  H goes through U in float64 (BLAS) while
d max|H| max|U| < 2^53, which makes the product exact in any order, on
any host (``linalg.exact_in_float``); past that bound, in int64.
Enumeration is exhaustive: exceeding the node budget raises
RadiusTooLarge rather than truncating.

Each lattice is reduced at most once at DEFAULT_LLL_DELTA: ``systole``,
``enumerate_short`` and everything built on them read the cached
``Lattice.reduced``, so asking one lattice for its systole and then for
the vectors below a multiple of it runs LLL once.  ``lll_reduce`` itself
always reduces afresh.

One lattice and a stack of them take the same steps.  ``_reduce`` runs
LLL on an (N, d, d) stack and checks the result, ``_upper_factors``
factorises each Gram.  ``lll_reduce`` passes a stack of one and
``short_counts`` the Monte Carlo estimator's stacks, each in one
``_kernels.lll_core`` call, which chooses how to run the stack and gives
each basis the same bits however it runs.  Enumeration has one frontier
walker, over a stack of trees.  A single lattice's tree, enumerated for
its vectors, goes depth first when it is small and otherwise through the
walker as a stack of one; ``short_counts`` passes a whole stack's trees
in one ``_kernels.enumerate_core`` call, which walks them together and
returns each vector's tree index, so the counts are one ``bincount``.

``short_counts`` needs counts, not vectors, so it skips the reduction
where it does not pay.  A stack of upper-triangular bases with positive
diagonals (the K family's P_Z) is first walked as given, each basis its
own Cholesky factor, on a budget of RAW_TREE_NODES_PER_LEVEL nodes per
level of each tree; only when a tree passes that budget does the stack
go through LLL.  Its rank check reuses the one triangularity test:
``check_nonsingular`` first tries its triangular certificate, which
calls no LAPACK, so a stack it proves that also walks as given calls no
LAPACK routine at all.  Each count is then the one ``enumerate_short`` gives
unless a vector lies within a few ulps of the slackened radius;
``short_counts`` gives the evidence.  ``enumerate_short`` and
``systole`` always reduce: their vectors and norms come from the reduced
basis.

Boundary handling: the squared radius is inflated by a relative 1e-9 so
vectors sitting exactly on the radius are included, never dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import NumericalBreakdown, OutOfRange, RadiusTooLarge
from .linalg import as_mat, check_nonsingular, det_int, exact_in_float, is_unimodular

#: Relative slack on the squared enumeration radius.
BOUNDARY_EPS = 1e-9

#: Default cap on enumeration tree nodes; exceeding it is an error.
DEFAULT_NODE_BUDGET = 10 ** 8

DEFAULT_LLL_DELTA = 0.99

#: ``short_counts`` walks a stack of upper-triangular bases as given, with
#: no LLL, on a budget of this many nodes per level (times the dimension)
#: for each tree, and reduces the stack when a tree passes it.  On one
#: core of a 2-core x86 host, over K-family stacks (1,000 bases at d = 4,
#: 256 at d = 8), the reduction path costs 15-20 us per basis at d = 4
#: and 260-470 us at d = 8, nearly all of it LLL, and the walk as given
#: 0.04-0.05 us per node.  They break even at about 400 real nodes per
#: tree at d = 4 and 7,000-8,000 at d = 8, so at 128 a tree that fills
#: its budget, 512 nodes at d = 4, costs about what the reduction does,
#: and mc-k's 64-node trees about a sixth of it.  A walk that passes the
#: budget stops there: over K-family stacks of 128-1,024 bases that then
#: reduce, it cost 0.06-4.1 ms per stack, against 15 ms-1.2 s of LLL.
RAW_TREE_NODES_PER_LEVEL = 128


@dataclass(frozen=True)
class Lattice:
    """Invertible basis (columns are basis vectors) with cached Gram matrix."""

    basis: np.ndarray
    gram: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def reduced(self) -> tuple[Lattice, np.ndarray]:
        """``lll_reduce(self)``, computed on first use.

        U is read-only, since every later reader shares it.
        """
        reduced, u = lll_reduce(self)
        u.setflags(write=False)
        return reduced, u

    @cached_property
    def inverse(self) -> np.ndarray:
        """``np.linalg.inv(basis)``, computed on first use and read-only."""
        inverse = np.linalg.inv(self.basis)
        inverse.setflags(write=False)
        return inverse


@dataclass(frozen=True)
class ShortVectorReport:
    """Exhaustive enumeration result below a squared radius.

    ``vectors`` holds integer coordinate vectors (rows) with respect to
    the lattice basis, closed under negation.  ``histogram`` maps each
    shell of squared lengths, keyed by its smallest member rounded to 12
    significant digits, to its count, in ascending order; see ``_histogram``.
    ``systole2`` is None when no vector lies inside the radius.
    ``nodes`` is the size of the enumeration tree that found them.
    """

    r2: float
    vectors: np.ndarray
    norms: np.ndarray
    histogram: dict
    systole2: float | None
    kissing: int
    nodes: int

    @property
    def count(self) -> int:
        return int(self.vectors.shape[0])


def from_basis(b) -> Lattice:
    """Lattice of the columns of ``b``; Singular unless ``b`` has full numerical rank."""
    b = as_mat(b)
    check_nonsingular(b)
    return _lattice(b, _gram(b))


def _lattice(basis: np.ndarray, gram: np.ndarray) -> Lattice:
    basis.setflags(write=False)
    gram.setflags(write=False)
    return Lattice(basis=basis, gram=gram)


def _gram(b: np.ndarray) -> np.ndarray:
    """B^T B, symmetrised, of a basis or of each basis of a stack."""
    gram = np.swapaxes(b, -1, -2) @ b
    return 0.5 * (gram + np.swapaxes(gram, -1, -2))


def _check_bases(b: np.ndarray, upper: bool = False) -> None:
    """ValueError unless every entry is finite, then ``check_nonsingular``."""
    if not np.isfinite(b).all():
        raise ValueError("matrix entries must be finite")
    check_nonsingular(b, upper=upper)


def lattice_det(lat: Lattice) -> float:
    return abs(float(np.linalg.det(lat.basis)))


def scale_to_unit_det(lat: Lattice) -> Lattice:
    d = lattice_det(lat)
    return from_basis(lat.basis / d ** (1.0 / lat.dim))


def lll_reduce(lat: Lattice) -> tuple[Lattice, np.ndarray]:
    """Lovasz-reduce at DEFAULT_LLL_DELTA; returns (reduced lattice, unimodular U with B' = B U)."""
    reduced, u, gram = _reduce(lat.basis[None])
    return _lattice(reduced[0], gram[0]), u[0]


def _reduce(bases: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LLL at DEFAULT_LLL_DELTA on each basis of an (N, d, d) stack: (reduced bases, U, Grams) with B' = B U.

    One ``_kernels.lll_core`` call reduces the whole stack, one basis as
    the stack of one, each basis to the bits it gets alone.  Raises
    NumericalBreakdown unless every U is unimodular, then as
    ``_check_bases`` does on the reduced bases.
    """
    n, d = bases.shape[:2]
    w = bases.transpose(0, 2, 1).copy()          # the kernel reduces rows in place
    v = np.tile(np.eye(d, dtype=np.int64), (n, 1, 1))
    _kernels.lll_core(w, v, DEFAULT_LLL_DELTA)
    u = v.transpose(0, 2, 1)
    bad = np.flatnonzero(~is_unimodular(u))
    if bad.size:
        raise NumericalBreakdown(f"LLL transform is not unimodular: det {det_int(u[bad[0]])}")
    reduced = w.transpose(0, 2, 1)
    _check_bases(reduced)
    return reduced, u, _gram(reduced)


def _histogram(norms: np.ndarray) -> dict:
    """Squared lengths grouped into shells, ascending: {key: count}.

    A norm joins the current shell while it lies within BOUNDARY_EPS
    max(|v|, 1) of the shell's smallest norm, and the key is that smallest
    norm rounded to 12 significant digits.  Rounding each norm on its own
    would split a shell whose float noise straddles a rounding boundary.
    """
    hist: dict[float, int] = {}
    values, counts = np.unique(norms, return_counts=True)
    start = None
    for v, c in zip(values.tolist(), counts.tolist()):
        if start is not None and v - start <= BOUNDARY_EPS * max(abs(v), 1.0):
            hist[key] += c
        else:
            start = v
            key = float(f"{v:.12g}")
            hist[key] = c
    return hist


def _upper_factors(grams: np.ndarray) -> np.ndarray:
    """The upper Cholesky factor R (R^T R = G) of each Gram of an (N, d, d) stack.

    Raises NumericalBreakdown when a factorisation fails.
    """
    try:
        chol_lower = np.linalg.cholesky(grams)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(f"Cholesky of the reduced Gram failed: {exc}") from exc
    return np.ascontiguousarray(chol_lower.transpose(0, 2, 1))


def _through_u(h: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The int64 rows ``h @ u.T``: in float64 when ``exact_in_float`` proves it exact."""
    hf, ut = h.astype(np.float64), u.T.astype(np.float64)
    return (hf @ ut).astype(np.int64) if exact_in_float(hf, ut) else h @ u.T


def _enumerate_reduced(reduced: Lattice, u: np.ndarray, r2: float,
                       node_budget: int) -> ShortVectorReport:
    """Enumerate the reduced lattice's tree and map the vectors back through U.

    The kernels return the rows as ``concat(-H[::-1], H)`` with mirrored,
    bit-equal norms, H one vector of each +-v pair.  So only the second
    half goes through U and into the histogram: the first half of the
    coordinates is its negated mirror, and every shell count doubles.
    """
    r = _upper_factors(reduced.gram[None])[0]
    cap = float(r2) * (1.0 + BOUNDARY_EPS)
    coords_z, norms, nodes = _kernels.enumerate_core(r, cap, node_budget)
    m = norms.shape[0] // 2
    coords = np.empty_like(coords_z)
    coords[m:] = _through_u(coords_z[m:], u)
    np.negative(coords[m:][::-1], out=coords[:m])
    hist = {key: 2 * c for key, c in _histogram(norms[m:]).items()}
    systole2, kissing = next(iter(hist.items()), (None, 0))
    return ShortVectorReport(
        r2=float(r2),
        vectors=coords,
        norms=norms,
        histogram=hist,
        systole2=systole2,
        kissing=kissing,
        nodes=nodes,
    )


def _check_radius(r2: float) -> None:
    if not 0 < r2 < math.inf:
        raise OutOfRange("squared radius must be positive and finite")


def _check_budget(node_budget: int) -> None:
    if node_budget < 1:
        raise OutOfRange(f"node budget must be at least 1, got {node_budget}")


def enumerate_short(lat: Lattice, r2: float,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> ShortVectorReport:
    """All nonzero coordinate vectors l with l^T G l <= r2 (1 + 1e-9)."""
    _check_budget(node_budget)
    _check_radius(r2)
    reduced, u = lat.reduced
    return _enumerate_reduced(reduced, u, r2, node_budget)


def short_counts(bases: np.ndarray, r2: float) -> np.ndarray:
    """``enumerate_short(from_basis(b), r2).count`` for each basis b of an (N, d, d) stack.

    The stack takes the one-lattice path's checks first; a check raises
    for the stack when any basis fails it.  The stack is tested once for
    being upper triangular, before the checks, and the rank check is
    told the answer: a triangular stack tries ``linalg``'s triangular
    certificate, in numpy's own loops, before any LAPACK call, with the
    same verdicts.  Then it takes one of two paths, the whole stack
    together:

    - **As given**, first, when every basis is upper triangular with a
      positive diagonal: such a basis is the Cholesky factor of its own
      Gram (the K family's P_Z is one), so Fincke-Pohst enumeration walks
      it with no reduction, no BLAS and no LAPACK, on a budget of
      RAW_TREE_NODES_PER_LEVEL nodes per level of each tree.  Where the
      certificate proves the stack, as it does the K family's at g up to
      8 and y up to 100, the whole pass calls no LAPACK routine.
    - **Reduced**, when a basis is not triangular or a tree passes that
      budget: the one-lattice path's LLL, checks and Cholesky.  numpy's
      stacked matmul, SVD and Cholesky call, on each matrix, the BLAS and
      LAPACK routine a stack of one does on the same memory layout, and
      the stacked enumeration does each tree's float operations, so each
      count is the one ``enumerate_short`` gives.

    Both paths count the z with ||B z||^2 <= r2 (1 + BOUNDARY_EPS), a set
    that does not depend on the basis of the lattice; only the norms'
    rounding does, a few ulps against the 1e-9 slack.  So a count could
    differ between the paths only for a vector within a few ulps of the
    slackened radius.  None did in 300,000 samples at (g, y, r2) = (2, 8,
    0.25), 100,000 at (2, 3, 1) and 2,000 in each of 70 cells with g in
    {2, 4}, y from 0.5 to 32 and r2 from 0.01 to 1.5, nor in 84 cells of
    128-1,024 samples with g in {2, 4, 8}, y from 0.1 to 32 and r2 0.25
    and 1 (51 of them as given); the tests pin the paths against each
    other and against exact rational norms.

    Each path walks the whole stack in one ``_kernels.enumerate_core``
    call, which returns the stack index of every vector found; the counts
    are its ``bincount``.  A traced run therefore sees one enumeration
    call per stack walked as given, and two per triangular stack that
    reduces: the walk the budget stopped, then the reduced one.
    """
    _check_radius(r2)
    n, d = bases.shape[:2]
    below = np.tril_indices(d, -1)
    upper = not bases[:, below[0], below[1]].any()
    _check_bases(bases, upper)
    cap = float(r2) * (1.0 + BOUNDARY_EPS)
    if upper and (np.diagonal(bases, axis1=1, axis2=2) > 0).all():
        try:
            tree = _kernels.enumerate_core(bases, cap, RAW_TREE_NODES_PER_LEVEL * d)[0]
            return np.bincount(tree, minlength=n)
        except RadiusTooLarge:
            pass
    tree = _kernels.enumerate_core(_upper_factors(_reduce(bases)[2]), cap, DEFAULT_NODE_BUDGET)[0]
    return np.bincount(tree, minlength=n)


def systole(lat: Lattice, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[float, int]:
    """(squared length of a shortest nonzero vector, count of such vectors).

    The enumeration radius starts at the shortest LLL basis vector, which
    always bounds the systole from above, so the minimal bucket of the
    report is the systole.  Both signs of each vector are counted.
    """
    _check_budget(node_budget)
    reduced, u = lat.reduced
    r2 = float(np.min(np.diag(reduced.gram)))
    report = _enumerate_reduced(reduced, u, r2, node_budget)
    if report.systole2 is None:
        raise NumericalBreakdown("no vector found within the shortest LLL basis length")
    return report.systole2, report.kissing


def report_to_obj(report: ShortVectorReport) -> dict:
    return {
        "r2": report.r2,
        "count": report.count,
        "systole2": report.systole2,
        "kissing": report.kissing,
        "histogram": [[k, report.histogram[k]] for k in sorted(report.histogram)],
        "vectors": [[int(c) for c in vec] for vec in report.vectors],
    }
