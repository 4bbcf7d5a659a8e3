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
factorises each Gram.  ``lll_reduce`` passes a stack of one, which
``_kernels.lll_core`` reduces; ``short_counts`` passes the Monte Carlo
estimator's stacks to ``_kernels.lll_stack``, which reduces them
together and finishes the thin tail of each stack on ``lll_core``'s
loop, at g = 16 the whole stack; each basis gets the same bits either
way.  Enumeration has one frontier walker, over a
stack of trees.  A single lattice's tree, enumerated for its vectors,
goes depth first when it is small and otherwise through the walker as a
stack of one; ``short_counts`` passes a whole stack's trees in one
``_kernels.enumerate_core`` call, which walks them together and returns
each vector's tree index, so the counts are one ``bincount``.

Boundary handling: the squared radius is inflated by a relative 1e-9 so
vectors sitting exactly on the radius are included, never dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import NumericalBreakdown, OutOfRange
from .linalg import as_mat, check_nonsingular, det_int, exact_in_float, is_unimodular

#: Relative slack on the squared enumeration radius.
BOUNDARY_EPS = 1e-9

#: Default cap on enumeration tree nodes; exceeding it is an error.
DEFAULT_NODE_BUDGET = 10 ** 8

DEFAULT_LLL_DELTA = 0.99


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


def _check_bases(b: np.ndarray) -> None:
    """ValueError unless every entry is finite, then ``check_nonsingular``."""
    if not np.isfinite(b).all():
        raise ValueError("matrix entries must be finite")
    check_nonsingular(b)


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

    One basis goes through ``_kernels.lll_core``, a larger stack through
    ``_kernels.lll_stack``, which finishes its thin tail on ``lll_core``'s
    loop; both give each basis the same bits.  Raises
    NumericalBreakdown unless every U is unimodular, then as
    ``_check_bases`` does on the reduced bases.
    """
    n, d = bases.shape[:2]
    w = bases.transpose(0, 2, 1).copy()          # the kernels reduce rows in place
    v = np.tile(np.eye(d, dtype=np.int64), (n, 1, 1))
    if n == 1:
        _kernels.lll_core(w[0], v[0], DEFAULT_LLL_DELTA)
    else:
        _kernels.lll_stack(w, v, DEFAULT_LLL_DELTA)
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

    The stack takes the one-lattice path's steps and checks; a check
    raises for the stack when any basis fails it.  numpy's stacked matmul,
    SVD and Cholesky call, on each matrix, the BLAS and LAPACK routine a
    stack of one does on the same memory layout, and the stacked
    enumeration does each tree's float operations, so each count is the
    one ``enumerate_short`` gives.

    The whole stack is one ``_kernels.enumerate_core`` call, which returns
    the stack index of every vector found; the counts are its
    ``bincount``.  A traced run therefore sees one enumeration call per
    stack, with the stack's vector and node totals.
    """
    _check_radius(r2)
    _check_bases(bases)
    _, _, gram = _reduce(bases)
    cap = float(r2) * (1.0 + BOUNDARY_EPS)
    tree = _kernels.enumerate_core(_upper_factors(gram), cap, DEFAULT_NODE_BUDGET)[0]
    return np.bincount(tree, minlength=bases.shape[0])


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
