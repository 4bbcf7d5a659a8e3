"""Lattices: Gram caching, LLL preprocessing, exact short-vector enumeration.

A lattice is an invertible real basis matrix whose *columns* generate it,
with the Gram matrix cached at construction.  Short vectors are found by
depth-first enumeration over the Cholesky factor of the LLL-reduced Gram
and mapped back through the unimodular transform, so the reported
coordinate vectors refer to the original basis.  Enumeration is exhaustive:
exceeding the node budget raises RadiusTooLarge rather than truncating.

Boundary handling: the squared radius is inflated by a relative 1e-9 so
vectors sitting exactly on the radius are included, never dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NotInvariant, NumericalBreakdown, OutOfRange, RadiusTooLarge, Singular
from .linalg import DEFAULT_TOL, as_mat, det_int

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


@dataclass(frozen=True)
class ShortVectorReport:
    """Exhaustive enumeration result below a squared radius.

    ``vectors`` holds integer coordinate vectors (rows) with respect to
    the lattice basis, closed under negation.  ``histogram`` maps squared
    length (rounded to 12 significant digits for grouping) to count.
    ``systole2`` is None when no vector lies inside the radius.
    """

    r2: float
    vectors: np.ndarray
    norms: np.ndarray
    histogram: dict
    systole2: float | None
    kissing: int

    @property
    def count(self) -> int:
        return int(self.vectors.shape[0])


def from_basis(b, tol: float = DEFAULT_TOL) -> Lattice:
    b = as_mat(b)
    if abs(float(np.linalg.det(b))) <= tol:
        raise Singular("basis determinant is below the invertibility tolerance")
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
    status = _kernels.lll_core(w, v, float(delta))
    if status != _kernels.OK:
        raise NumericalBreakdown("Gram-Schmidt norms underflowed during LLL")
    u = v.T.copy()
    if abs(det_int(u)) != 1:
        raise NumericalBreakdown("LLL transform is not unimodular")
    return from_basis(w.T), u


def _round_sq_length(x: float) -> float:
    return float(f"{x:.12g}")


def _histogram(norms: np.ndarray) -> dict:
    hist: dict[float, int] = {}
    for v in norms:
        key = _round_sq_length(float(v))
        hist[key] = hist.get(key, 0) + 1
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
    coords_z, norms, _, status = _kernels.enumerate_core(r, cap, np.int64(node_budget))
    if status != _kernels.OK:
        raise RadiusTooLarge(
            f"enumeration exceeded the node budget of {node_budget}; "
            "shrink the radius or raise the budget"
        )
    coords = coords_z @ u.T
    systole2 = None
    kissing = 0
    hist = _histogram(norms)
    if hist:
        systole2 = min(hist)
        kissing = hist[systole2]
    return ShortVectorReport(
        r2=float(r2),
        vectors=coords,
        norms=norms,
        histogram=hist,
        systole2=systole2,
        kissing=kissing,
    )


def enumerate_short(lat: Lattice, r2: float,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> ShortVectorReport:
    """All nonzero coordinate vectors l with l^T G l <= r2 (1 + 1e-9)."""
    if not r2 > 0:
        raise OutOfRange("squared radius must be positive")
    reduced, u = lll_reduce(lat)
    return _enumerate_reduced(reduced, u, r2, node_budget)


def systole(lat: Lattice, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[float, int]:
    """(squared length of a shortest nonzero vector, count of such vectors).

    The enumeration radius starts at the shortest LLL basis vector, which
    always bounds the systole from above, so the minimal bucket of the
    report is the systole.  Both signs of each vector are counted.
    """
    reduced, u = lll_reduce(lat)
    r2 = float(np.min(np.diag(reduced.gram)))
    report = _enumerate_reduced(reduced, u, r2, node_budget)
    if report.systole2 is None:
        raise NumericalBreakdown("no vector found within the shortest LLL basis length")
    return report.systole2, report.kissing


def hermite_invariant(lat: Lattice) -> float:
    """Systole squared normalized by det^(2/dim); scale invariant."""
    s2, _ = systole(lat)
    return s2 / lattice_det(lat) ** (2.0 / lat.dim)


def orbit_histogram(lat: Lattice, group, r2: float,
                    tol: float = DEFAULT_TOL,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> dict:
    """Partition the short vectors into orbits under the group and negation.

    The group acts on coordinate vectors; every element must be integral
    and length-preserving on this lattice (NotInvariant otherwise).
    Returns a map orbit size -> number of orbits of that size.
    """
    report = enumerate_short(lat, r2, node_budget)
    elements = [np.asarray(e, dtype=np.int64) for e in group.elements]
    norm_of = {tuple(int(c) for c in vec): float(n)
               for vec, n in zip(report.vectors, report.norms)}

    for e in elements:
        for vec, n in zip(report.vectors, report.norms):
            img = e @ vec
            w = lat.basis @ img.astype(np.float64)
            n_img = float(w @ w)
            if abs(n_img - n) > tol * max(1.0, abs(n)):
                raise NotInvariant(
                    f"group element changes a squared length by {abs(n_img - n):.3e}"
                )

    seen: set[tuple] = set()
    sizes: dict[int, int] = {}
    for vec in report.vectors:
        key = tuple(int(c) for c in vec)
        if key in seen:
            continue
        orbit = set()
        for e in elements:
            img = e @ vec
            for signed in (img, -img):
                t = tuple(int(c) for c in signed)
                if t not in norm_of:
                    raise NotInvariant("orbit leaves the enumerated radius")
                orbit.add(t)
        seen |= orbit
        sizes[len(orbit)] = sizes.get(len(orbit), 0) + 1
    return sizes


def report_to_obj(report: ShortVectorReport) -> dict:
    return {
        "r2": report.r2,
        "count": report.count,
        "systole2": report.systole2,
        "kissing": report.kissing,
        "histogram": [[k, report.histogram[k]] for k in sorted(report.histogram)],
        "vectors": [[int(c) for c in vec] for vec in report.vectors],
    }
