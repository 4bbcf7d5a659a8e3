"""Deciding and witnessing lattice symmetries.

A lattice with basis matrix A is symmetric under an orthogonal O exactly
when O A = A R for an integral unimodular R, i.e. when A^-1 O A rounds to
an integer matrix.  Witnesses take a ``Lattice``, whose basis
``from_basis`` has validated and rank-checked once, and whose cached
``Lattice.inverse`` inverts it once, however many candidates are tried
on it.  Extraction is two-staged on purpose: entries must sit within
``linalg.ROUNDING_TOL`` = 1e-6 of integers (near-singular bases can push
them toward half integers), and the rounded R must then pass a strict
residual check at RESIDUAL_REL_TOL * max |A|.  Failing either stage
raises, never silently accepts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotASymmetry, NotIntegral, NotUnimodular
from .lattice import Lattice
from .linalg import as_mat, det_int, is_orthogonal, is_unimodular, round_to_int

#: Stage two: max |O A - A R| <= this times max |A|.  ``count_symmetries``
#: drops candidates this close to +-Id (an orthogonal matrix has unit scale).
RESIDUAL_REL_TOL = 1e-9


@dataclass(frozen=True)
class SymmetryWitness:
    """Orthogonal o, integral unimodular r, and the residual ||o a - a r||_inf."""

    o: np.ndarray
    r: np.ndarray
    residual: float


def induced_change_of_basis(lat: Lattice, o) -> SymmetryWitness:
    """Witness O A = A R for the basis A of ``lat``, rounding A^-1 O A to extract the integral R.

    Raises NotASymmetry when O is not orthogonal, the rounding fails or
    the residual exceeds RESIDUAL_REL_TOL * max |A|, and NotUnimodular
    when |det R| != 1 (checked exactly).
    """
    a = lat.basis
    o = as_mat(o)
    if a.shape != o.shape:
        raise ValueError("basis and orthogonal candidate must share one dimension")
    if not is_orthogonal(o):
        raise NotASymmetry("candidate matrix is not orthogonal")
    raw = lat.inverse @ o @ a
    try:
        r = round_to_int(raw)
    except NotIntegral as exc:
        raise NotASymmetry(f"induced change of basis is not integral: {exc}") from exc
    residual = float(np.max(np.abs(o @ a - a @ r.astype(np.float64))))
    scale = float(np.max(np.abs(a)))
    if residual > RESIDUAL_REL_TOL * scale:
        raise NotASymmetry(
            f"residual {residual:.3e} exceeds {RESIDUAL_REL_TOL:.0e} * max |A| = {RESIDUAL_REL_TOL * scale:.3e}"
        )
    if not is_unimodular(r):
        raise NotUnimodular(f"induced matrix has determinant {det_int(r)}")
    return SymmetryWitness(o=o, r=r, residual=residual)


def count_symmetries(lat: Lattice, candidates) -> tuple[int, list[SymmetryWitness]]:
    """Number of candidate orthogonals that witness a symmetry of ``lat``.

    Candidates of another dimension or equal to +-Id are skipped;
    candidates whose witness fails, non-orthogonal ones included, are
    simply not counted.
    """
    witnesses = []
    for cand in candidates:
        c = as_mat(cand)
        if c.shape != lat.basis.shape:
            continue
        eye = np.eye(c.shape[0])
        if min(np.max(np.abs(c - eye)), np.max(np.abs(c + eye))) <= RESIDUAL_REL_TOL:
            continue
        try:
            witnesses.append(induced_change_of_basis(lat, c))
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
