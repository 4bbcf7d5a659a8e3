"""Barnes-Wall lattices from the complex Kronecker generator.

The generator is the n-fold Kronecker power of [[1, 1], [1, i]] over the
Gaussian integers.  Realification replaces each complex entry a+ib by the
2x2 block [[a, b], [-b, a]] (interleaved layout: complex entry (i, j)
occupies real rows 2i-1, 2i and columns 2j-1, 2j, 1-based), doubling the
dimension to g = 2^(n+1).  After scaling to determinant one the squared
minimal norm is sqrt(g/2), which the enumeration tests verify exactly.

An alternative basis multiplies on the right by J_2 (x) Id; it generates
the same lattice and exhibits reflection symmetries that the pattern
report makes checkable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, from_basis, scale_to_unit_det
from .linalg import as_mat
from .groups import j_matrix
from .patterned import agrees, j_conjugation


@dataclass(frozen=True)
class SymmetryPatternReport:
    """Reflection and conjugation symmetries of one matrix.

    ``j_conjugation`` maps k to whether J^k M J^k = M; it is empty when
    the dimension is not a power of two.
    """

    dim: int
    is_symmetric: bool
    is_persymmetric: bool
    j_conjugation: dict


def bw_complex(n: int) -> np.ndarray:
    """n-fold Kronecker power of [[1, 1], [1, i]] as a complex128 matrix."""
    if n < 1:
        raise ValueError("bw_complex needs n >= 1")
    base = np.array([[1, 1], [1, 1j]])
    out = base
    for _ in range(n - 1):
        out = np.kron(out, base)
    return out


def realify(mc) -> np.ndarray:
    """Replace each complex entry a+ib by the block [[a, b], [-b, a]]."""
    mc = np.asarray(mc, dtype=np.complex128)
    return np.kron(mc.real, np.eye(2)) + np.kron(mc.imag, np.array([[0.0, 1.0], [-1.0, 0.0]]))


def bw_prime(n: int) -> np.ndarray:
    """Alternative basis: each realified 2x2 block right-multiplied by J_2.

    Per block, [[a, b], [-b, a]] J_2 = [[b, a], [a, -b]], which is what
    makes the whole matrix symmetric; in the interleaved layout the block
    operation is the right factor Id (x) J_2.  The factor is a signed
    permutation, so the lattice is unchanged.
    """
    b = realify(bw_complex(n))
    return b @ np.kron(np.eye(2 ** n), j_matrix(2).astype(np.float64))


def bw_lattice(n: int) -> Lattice:
    """Determinant-one Barnes-Wall lattice of dimension 2^(n+1)."""
    return scale_to_unit_det(from_basis(realify(bw_complex(n))))


def symmetry_pattern(m) -> SymmetryPatternReport:
    """Check reflection symmetries and bit-flip conjugations of ``m``.

    Each identity is judged by ``patterned.agrees``.  Persymmetry means
    equality with the reflection along the second main diagonal, i.e.
    M = J M^T J.
    """
    m = as_mat(m)
    dim = m.shape[0]
    j = j_matrix(dim).astype(np.float64)
    sym = agrees(m.T, m)
    persym = agrees(j @ m.T @ j, m)
    conj = j_conjugation(m) if dim & (dim - 1) == 0 else {}
    return SymmetryPatternReport(
        dim=dim, is_symmetric=sym, is_persymmetric=persym, j_conjugation=conj
    )


def pattern_to_obj(report: SymmetryPatternReport) -> dict:
    return {
        "dim": report.dim,
        "is_symmetric": report.is_symmetric,
        "is_persymmetric": report.is_persymmetric,
        "j_conjugation": {str(k): v for k, v in sorted(report.j_conjugation.items())},
    }
