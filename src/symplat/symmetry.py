"""Deciding and witnessing lattice symmetries.

A lattice with basis matrix A is symmetric under an orthogonal O exactly
when O A = A R for an integral unimodular R, i.e. when A^-1 O A rounds to
an integer matrix.  Extraction is two-staged on purpose: entries must sit
within 1e-6 of integers (near-singular bases can push them toward half
integers), and the rounded R must then pass a strict residual check at
tol * ||A||_inf.  Failing either stage raises, never silently accepts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotASymmetry, NotIntegral, NotUnimodular
from .linalg import DEFAULT_TOL, as_mat, det_int, inverse, is_orthogonal, is_unimodular, round_to_int

#: Stage-one rounding tolerance for entries of A^-1 O A.
ROUNDING_TOL = 1e-6


@dataclass(frozen=True)
class SymmetryWitness:
    """Orthogonal o, integral unimodular r, and the residual ||o a - a r||_inf."""

    o: np.ndarray
    r: np.ndarray
    residual: float


def induced_change_of_basis(a, o, tol: float = DEFAULT_TOL) -> SymmetryWitness:
    """Witness O A = A R, rounding A^-1 O A to extract the integral R.

    Raises NotASymmetry when the rounding fails or the residual exceeds
    tol * ||A||_inf, and NotUnimodular when |det R| != 1 (checked exactly).
    """
    a = as_mat(a)
    o = as_mat(o)
    if a.shape != o.shape:
        raise ValueError("basis and orthogonal candidate must share one dimension")
    if not is_orthogonal(o, max(tol, ROUNDING_TOL)):
        raise NotASymmetry("candidate matrix is not orthogonal")
    raw = inverse(a) @ o @ a
    try:
        r = round_to_int(raw, ROUNDING_TOL)
    except NotIntegral as exc:
        raise NotASymmetry(f"induced change of basis is not integral: {exc}") from exc
    residual = float(np.max(np.abs(o @ a - a @ r.astype(np.float64))))
    scale = float(np.max(np.abs(a)))
    if residual > tol * scale:
        raise NotASymmetry(
            f"residual {residual:.3e} exceeds {tol:.1e} * ||A||_inf = {tol * scale:.3e}"
        )
    if not is_unimodular(r):
        raise NotUnimodular(f"induced matrix has determinant {det_int(r)}")
    return SymmetryWitness(o=o, r=r, residual=residual)


def count_symmetries(a, candidates, tol: float = DEFAULT_TOL) -> tuple[int, list[SymmetryWitness]]:
    """Number of candidate orthogonals that witness a symmetry of basis ``a``.

    Candidates that are not orthogonal or equal +-Id are filtered out
    up front; candidates that fail witness extraction are simply not
    counted.
    """
    a = as_mat(a)
    witnesses = []
    for cand in candidates:
        c = as_mat(cand)
        if c.shape != a.shape or not is_orthogonal(c, max(tol, ROUNDING_TOL)):
            continue
        eye = np.eye(c.shape[0])
        if np.max(np.abs(c - eye)) <= tol or np.max(np.abs(c + eye)) <= tol:
            continue
        try:
            witnesses.append(induced_change_of_basis(a, c, tol))
        except (NotASymmetry, NotUnimodular):
            continue
    return len(witnesses), witnesses


def witness_to_obj(w: SymmetryWitness) -> dict:
    from .linalg import intmat_to_obj, mat_to_obj

    return {
        "o": mat_to_obj(w.o),
        "r": intmat_to_obj(w.r),
        "residual": w.residual,
    }
