"""Lattices: Gram caching, LLL preprocessing, exact short-vector enumeration.

A lattice is an invertible real basis matrix whose *columns* generate it,
with the Gram matrix cached at construction.  Short vectors are found by
Fincke-Pohst enumeration over the Cholesky factor of the LLL-reduced Gram
(depth first for small trees, level by level for large ones; see
``_kernels``) and mapped back through the unimodular transform, so the
reported coordinate vectors refer to the original basis.  Enumeration is
exhaustive: exceeding the node budget raises RadiusTooLarge rather than
truncating.

Each lattice is reduced at most once at DEFAULT_LLL_DELTA: ``systole``,
``enumerate_short`` and everything built on them read the cached
``Lattice.reduced``, so asking one lattice for its systole and then for
the vectors below a multiple of it runs LLL once.  ``lll_reduce`` itself
always reduces afresh.

Boundary handling: the squared radius is inflated by a relative 1e-9 so
vectors sitting exactly on the radius are included, never dropped.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import NumericalBreakdown, OutOfRange
from .linalg import as_mat, check_nonsingular, det_int, is_unimodular

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
        """``lll_reduce(self)`` at DEFAULT_LLL_DELTA, computed on first use.

        U is read-only, since every later reader shares it.
        """
        reduced, u = lll_reduce(self)
        u.setflags(write=False)
        return reduced, u


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
    gram = b.T @ b
    gram = 0.5 * (gram + gram.T)
    b.setflags(write=False)
    gram.setflags(write=False)
    return Lattice(basis=b, gram=gram)


def lattice_det(lat: Lattice) -> float:
    return abs(float(np.linalg.det(lat.basis)))


def scale_to_unit_det(lat: Lattice) -> Lattice:
    d = lattice_det(lat)
    return from_basis(lat.basis / d ** (1.0 / lat.dim))


def lll_reduce(lat: Lattice, delta: float = DEFAULT_LLL_DELTA) -> tuple[Lattice, np.ndarray]:
    """Lovasz-reduce; returns (reduced lattice, unimodular U with B' = B U)."""
    if not 0.25 < delta < 1.0:
        raise OutOfRange("LLL delta must lie in (1/4, 1)")
    w = np.ascontiguousarray(lat.basis.T, dtype=np.float64).copy()
    v = np.eye(lat.dim, dtype=np.int64)
    _kernels.lll_core(w, v, float(delta))
    u = v.T.copy()
    if not is_unimodular(u):
        raise NumericalBreakdown(f"LLL transform is not unimodular: det {det_int(u)}")
    return from_basis(w.T), u


def _histogram(norms: np.ndarray) -> dict:
    """Squared lengths grouped into shells, ascending: {key: count}.

    A norm joins the current shell while it lies within BOUNDARY_EPS
    max(|v|, 1) of the shell's smallest norm, and the key is that smallest
    norm rounded to 12 significant digits.  Rounding each norm on its own
    would split a shell whose float noise straddles a rounding boundary.
    """
    if not norms.size:
        return {}
    hist: dict[float, int] = {}
    counts = Counter(norms.tolist())
    start = None
    for v in sorted(counts):
        if start is not None and v - start <= BOUNDARY_EPS * max(abs(v), 1.0):
            hist[key] += counts[v]
        else:
            start = v
            key = float(f"{v:.12g}")
            hist[key] = counts[v]
    return hist


def _enumerate_reduced(reduced: Lattice, u: np.ndarray, r2: float,
                       node_budget: int) -> ShortVectorReport:
    gram = np.ascontiguousarray(reduced.gram)
    try:
        chol_lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(f"Cholesky of the reduced Gram failed: {exc}") from exc
    r = np.ascontiguousarray(chol_lower.T)
    cap = float(r2) * (1.0 + BOUNDARY_EPS)
    coords_z, norms, nodes = _kernels.enumerate_core(r, cap, node_budget)
    coords = coords_z @ u.T
    hist = _histogram(norms)
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


def enumerate_short(lat: Lattice, r2: float,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> ShortVectorReport:
    """All nonzero coordinate vectors l with l^T G l <= r2 (1 + 1e-9)."""
    if not 0 < r2 < math.inf:
        raise OutOfRange("squared radius must be positive and finite")
    reduced, u = lat.reduced
    return _enumerate_reduced(reduced, u, r2, node_budget)


def short_counts(bases: np.ndarray, r2: float) -> np.ndarray:
    """``enumerate_short(from_basis(b), r2).count`` for each basis b of an (N, d, d) stack.

    Applies ``from_basis``'s and ``lll_reduce``'s checks to the whole
    stack: finite entries, full rank before and after LLL, exact
    unimodularity, and Cholesky failure as NumericalBreakdown; a check
    raises for the stack when any sample fails it.  LLL runs as
    ``_kernels.lll_stack``, bit for bit ``lll_core``.  numpy's stacked
    matmul and Cholesky call, on each matrix, the BLAS and LAPACK routine
    the 2-D call does on the same memory layout, so every Gram matrix and
    Cholesky factor has the one-lattice path's bits, and each tree then
    goes through ``_kernels.enumerate_core`` as that path's does.
    """
    if not 0 < r2 < math.inf:
        raise OutOfRange("squared radius must be positive and finite")
    if not np.isfinite(bases).all():
        raise ValueError("matrix entries must be finite")
    check_nonsingular(bases)
    n, d = bases.shape[:2]
    w = np.ascontiguousarray(bases.transpose(0, 2, 1))
    v = np.zeros((n, d, d), dtype=np.int64)
    v[:, np.arange(d), np.arange(d)] = 1
    _kernels.lll_stack(w, v, DEFAULT_LLL_DELTA)
    u = v.transpose(0, 2, 1)
    bad = np.flatnonzero(~is_unimodular(u))
    if bad.size:
        raise NumericalBreakdown(f"LLL transform is not unimodular: det {det_int(u[bad[0]])}")
    if not np.isfinite(w).all():
        raise ValueError("matrix entries must be finite")
    reduced = w.transpose(0, 2, 1)
    check_nonsingular(reduced)
    gram = reduced.transpose(0, 2, 1) @ reduced
    gram = 0.5 * (gram + gram.transpose(0, 2, 1))
    try:
        chol_lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(f"Cholesky of the reduced Gram failed: {exc}") from exc
    r = np.ascontiguousarray(chol_lower.transpose(0, 2, 1))
    cap = float(r2) * (1.0 + BOUNDARY_EPS)
    return np.array([_kernels.enumerate_core(ri, cap, DEFAULT_NODE_BUDGET)[0].shape[0] for ri in r])


def systole(lat: Lattice, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[float, int]:
    """(squared length of a shortest nonzero vector, count of such vectors).

    The enumeration radius starts at the shortest LLL basis vector, which
    always bounds the systole from above, so the minimal bucket of the
    report is the systole.  Both signs of each vector are counted.
    """
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
