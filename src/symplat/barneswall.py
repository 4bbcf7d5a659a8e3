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

from .errors import NotIntegral
from .lattice import Lattice, from_basis, lattice_det, scale_to_unit_det
from .linalg import ComplexMat, DEFAULT_TOL, as_mat, kron_complex, round_to_int
from .groups import j_matrix, j_generator


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


def bw_complex(n: int) -> ComplexMat:
    """n-fold Kronecker power of [[1, 1], [1, i]] as an explicit (re, im) pair."""
    if n < 1:
        raise ValueError("bw_complex needs n >= 1")
    base = ComplexMat(
        re=np.array([[1.0, 1.0], [1.0, 0.0]]),
        im=np.array([[0.0, 0.0], [0.0, 1.0]]),
    )
    out = base
    for _ in range(n - 1):
        out = kron_complex(out, base)
    return out


def realify(mc: ComplexMat) -> np.ndarray:
    """Replace each complex entry a+ib by the block [[a, b], [-b, a]]."""
    return np.kron(mc.re, np.eye(2)) + np.kron(mc.im, np.array([[0.0, 1.0], [-1.0, 0.0]]))


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


def symmetry_pattern(m, tol: float = DEFAULT_TOL) -> SymmetryPatternReport:
    """Check reflection symmetries and bit-flip conjugations of ``m``.

    Thresholds are tol * ||m||_inf.  Persymmetry means equality with the
    reflection along the second main diagonal, i.e. M = J M^T J.
    """
    m = as_mat(m)
    dim = m.shape[0]
    scale = max(float(np.max(np.abs(m))), 1e-300)
    thr = tol * scale
    j = j_matrix(dim).astype(np.float64)
    sym = float(np.max(np.abs(m - m.T))) <= thr
    persym = float(np.max(np.abs(m - j @ m.T @ j))) <= thr
    conj = {}
    if dim >= 2 and dim & (dim - 1) == 0:
        n = dim.bit_length() - 1
        for k in range(1, n + 1):
            jk = j_generator(n, k).astype(np.float64)
            conj[k] = float(np.max(np.abs(jk @ m @ jk - m))) <= thr
    return SymmetryPatternReport(
        dim=dim, is_symmetric=sym, is_persymmetric=persym, j_conjugation=conj
    )


def is_unimodular_lattice(lat: Lattice, tol: float = DEFAULT_TOL) -> bool:
    """True iff det = 1 within tol and an LLL-reduced Gram matrix is integral."""
    if abs(lattice_det(lat) - 1.0) > tol:
        return False
    reduced, _ = lat.reduced
    try:
        round_to_int(reduced.gram, tol)
    except NotIntegral:
        return False
    return True


def modularity_scan(n: int, tol: float = DEFAULT_TOL) -> dict:
    """Try rescalings by 2^(k/4) and report which give an integral Gram.

    The determinant-one lattices alternate between having integral Gram
    directly and only after rescaling; this reports the observed scales
    without asserting which ones must work.
    """
    lat = bw_lattice(n)
    hits = []
    for k in range(-4, 5):
        scale = 2.0 ** (k / 4.0)
        scaled = from_basis(lat.basis * scale)
        reduced, _ = scaled.reduced
        try:
            round_to_int(reduced.gram, tol)
        except NotIntegral:
            continue
        hits.append({"k_quarter": k, "scale": scale, "det": lattice_det(scaled)})
    return {"n": n, "g": 2 ** (n + 1), "integral_gram_scales": hits}


def pattern_to_obj(report: SymmetryPatternReport) -> dict:
    return {
        "dim": report.dim,
        "is_symmetric": report.is_symmetric,
        "is_persymmetric": report.is_persymmetric,
        "j_conjugation": {str(k): v for k, v in sorted(report.j_conjugation.items())},
    }
