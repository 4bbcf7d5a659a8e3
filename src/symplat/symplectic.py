"""Siegel points, symplectic basis matrices, and the two symmetric families.

A Siegel point Z = X + iY (X symmetric, Y symmetric positive definite)
parameterizes the determinant-one lattice with basis

    P_Z = [[sqrt(Y^-1), sqrt(Y^-1) X], [0, sqrt(Y)]].

Two families of such points produce lattices with prescribed symmetries:

* the K family: X ranges over K-symmetric matrices with entries of the
  canonical wedge in [0, 1] and Y = (1/y^2) Id; its lattices commute with
  the block orthogonal diag(K, K^T), which has no nonzero fixed vector,
  forcing vector counts per length into multiples of four;
* the XOR family in power-of-two dimensions: X and sqrt(Y) are both
  XOR-patterned, making the lattice invariant under all block-diagonal
  bit-flip involutions diag(J^k, J^k).

Sampling is counter based: each key such as (seed, sample index) has its
own Philox stream, so samples are independent of the order they are drawn in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSPD, NotPowerOfTwo, OddDimension, OutOfRange
from .groups import j_generator, k_prime
from .linalg import DEFAULT_TOL, as_mat, sym_eig
from .patterned import (
    KSymParams,
    a2n_eigenvalues,
    a2n_from_row,
    k_symmetric_from_params,
    ksym_region,
    _as_row,
    _log2_exact,
)
from .symmetry import SymmetryWitness, induced_change_of_basis

#: Relative eigenvalue floor for SPD checks on patterned Y.
SPD_REL_FLOOR = 1e-9


@dataclass(frozen=True)
class SiegelPoint:
    """Pair (X, Y) with X symmetric (stored exactly symmetrized) and Y SPD."""

    g: int
    x: np.ndarray
    y: np.ndarray


def siegel_point(x, y, tol: float = DEFAULT_TOL) -> SiegelPoint:
    x = as_mat(x)
    y = as_mat(y)
    if x.shape != y.shape:
        raise ValueError("X and Y must share one dimension")
    asym = float(np.max(np.abs(x - x.T)))
    if asym > tol:
        raise ValueError(f"X asymmetry {asym:.3e} exceeds tolerance")
    _, d = sym_eig(y, tol)
    if d[-1] <= tol:
        raise NotSPD(f"Y eigenvalue {d[-1]:.3e} is not above tolerance {tol:.3e}")
    xs = 0.5 * (x + x.T)
    xs.setflags(write=False)
    y = y.copy()
    y.setflags(write=False)
    return SiegelPoint(g=x.shape[0], x=xs, y=y)


def p_z(z: SiegelPoint, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Determinant-one symplectic basis matrix of the Siegel point.

    One eigendecomposition of Y supplies both sqrt(Y) and sqrt(Y^-1), so
    the two blocks multiply to the identity up to rounding.
    """
    q, d = sym_eig(z.y, tol)
    if d[-1] <= tol:
        raise NotSPD(f"Y eigenvalue {d[-1]:.3e} is not above tolerance {tol:.3e}")
    root = np.sqrt(d)
    sqrt_y = (q * root) @ q.T
    sqrt_y_inv = (q / root) @ q.T
    g = z.g
    out = np.zeros((2 * g, 2 * g))
    out[:g, :g] = sqrt_y_inv
    out[:g, g:] = sqrt_y_inv @ z.x
    out[g:, g:] = sqrt_y
    return out


def standard_form(g: int) -> np.ndarray:
    """The block form [[0, Id], [-Id, 0]] preserved by symplectic matrices."""
    j = np.zeros((2 * g, 2 * g))
    j[:g, g:] = np.eye(g)
    j[g:, :g] = -np.eye(g)
    return j


def is_symplectic(m, tol: float = DEFAULT_TOL) -> bool:
    m = as_mat(m)
    if m.shape[0] % 2 != 0:
        raise OddDimension("symplectic matrices have even dimension")
    j = standard_form(m.shape[0] // 2)
    return float(np.max(np.abs(m.T @ j @ m - j))) <= tol


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based Philox stream keyed by (seed, *key)."""
    ss = np.random.SeedSequence(tuple(int(k) for k in (seed, *key)))
    return np.random.Generator(np.random.Philox(ss))


def sample_vcube(g: int, rng_seed: int, sample_index: int = 0) -> KSymParams:
    """Uniform sample of the K-symmetric parameter cube [0, 1]^(g(g+2)/4).

    Parameters are drawn in canonical wedge order from the counter-based
    stream of (rng_seed, sample_index), so samples with distinct indices
    are independent and order free.
    """
    region = ksym_region(g)
    rng = _stream(rng_seed, sample_index)
    draws = rng.uniform(0.0, 1.0, size=len(region))
    return KSymParams(g=g, values={key: float(v) for key, v in zip(region, draws)})


def k_family_point(p: KSymParams, y: float) -> SiegelPoint:
    """Siegel point with K-symmetric X and Y = (1/y^2) Id."""
    if not y > 0:
        raise OutOfRange("height parameter y must be positive")
    x = k_symmetric_from_params(p)
    yy = np.eye(p.g) / (y * y)
    return siegel_point(x, yy)


def a2n_family_point(x_row, sqrt_y_row) -> SiegelPoint:
    """Siegel point with XOR-patterned X and Y = S^2 for XOR-patterned S.

    The family is parameterized by sqrt(Y) directly; squaring stays inside
    the patterned class, while a square root computed from a generic Y
    could leave it.  SPD is decided on the Walsh eigenvalues of the
    sqrt(Y) row.
    """
    x_row = _as_row(x_row)
    s_row = _as_row(sqrt_y_row)
    if x_row.size != s_row.size:
        raise ValueError("X row and sqrt(Y) row must have the same length")
    eigs = a2n_eigenvalues(s_row)
    emin = float(np.min(eigs))
    emax = float(np.max(eigs))
    if emin <= SPD_REL_FLOOR * max(emax, 0.0):
        raise NotSPD(
            f"sqrt(Y) row has Walsh eigenvalue {emin:.3e}, below the SPD floor"
        )
    x = a2n_from_row(x_row)
    s = a2n_from_row(s_row)
    return siegel_point(x, s @ s)


def verify_a2n_symmetries(z: SiegelPoint, tol: float = DEFAULT_TOL) -> list[SymmetryWitness]:
    """Witness the g-1 block-diagonal bit-flip symmetries of an XOR-family lattice.

    For every non-identity element E of the bit-flip group, diag(E, E)
    commutes with P_Z, so the induced change of basis is diag(E, E)
    itself.  A failure here means the input is not in the family.
    """
    n = _log2_exact(z.g)
    basis = p_z(z, tol)
    from .groups import group_closure

    grp = group_closure([j_generator(n, k) for k in range(1, n + 1)])
    eye = np.eye(z.g, dtype=np.int64)
    witnesses = []
    for e in grp.elements:
        if np.array_equal(e, eye):
            continue
        o = np.zeros((2 * z.g, 2 * z.g))
        o[: z.g, : z.g] = e
        o[z.g:, z.g:] = e
        witnesses.append(induced_change_of_basis(basis, o, tol))
    return witnesses


def verify_kprime(z: SiegelPoint, tol: float = DEFAULT_TOL) -> SymmetryWitness:
    """Witness the diag(K, K^T) symmetry of a K-family lattice.

    The induced R equals diag(K, K^T), which squares to -Id, the source
    of the multiple-of-four vector counts.
    """
    if z.g % 2 != 0:
        raise OddDimension("the K family needs an even dimension")
    basis = p_z(z, tol)
    o = k_prime(z.g).astype(np.float64)
    return induced_change_of_basis(basis, o, tol)


def siegel_to_obj(z: SiegelPoint, params=None, seed: int | None = None) -> dict:
    """JSON form of a Siegel point; family points may attach their
    generating parameters and seed so the file reproduces itself."""
    from .linalg import mat_to_obj

    obj = {"g": z.g, "x": mat_to_obj(z.x), "y": mat_to_obj(z.y)}
    if params is not None:
        from .patterned import ksym_params_to_obj

        obj["params"] = (
            ksym_params_to_obj(params) if isinstance(params, KSymParams) else params
        )
    if seed is not None:
        obj["seed"] = int(seed)
    return obj
