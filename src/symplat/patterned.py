"""Matrix families fixed by conjugation actions, and their spectra.

Three families live here:

* circulants — constant along wrapped diagonals, fixed by conjugation
  with the cyclic shift;
* XOR-patterned matrices in power-of-two dimensions — entry (i, j)
  depends only on ``i XOR j`` (0-based), fixed by conjugation with every
  bit-flip involution, diagonalized by the Walsh matrix;
* K-symmetric matrices in even dimensions — symmetric matrices commuting
  with the sign-alternating anti-diagonal K under conjugation
  (K X K = X), determined by the g(g+2)/4 entries of a canonical wedge.

The XOR fill is the primary construction for the second family; the
block recursion [[A, B], [B, A]] is equivalent and kept as a test
property.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentParams, NotPowerOfTwo, OddDimension
from .groups import cyclic_shift, j_generator, k_matrix
from .linalg import DEFAULT_TOL, as_mat, kron_pow


def _log2_exact(g: int) -> int:
    n = int(g).bit_length() - 1
    if g < 1 or (1 << n) != g:
        raise NotPowerOfTwo(f"dimension {g} is not a power of two")
    return n


def _as_row(row) -> np.ndarray:
    arr = np.asarray(row, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("first row must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("first row entries must be finite")
    return arr


# -- circulants ---------------------------------------------------------------

def circulant_from_row(row) -> np.ndarray:
    """Circulant whose i-th row is the first row shifted right by i-1."""
    c = _as_row(row)
    g = c.size
    idx = (np.arange(g)[None, :] - np.arange(g)[:, None]) % g
    return c[idx]


def is_circulant(a, tol: float = DEFAULT_TOL) -> bool:
    """True iff conjugation by the cyclic shift fixes ``a`` within tol."""
    a = as_mat(a)
    c = cyclic_shift(a.shape[0]).astype(np.float64)
    return float(np.max(np.abs(c.T @ a @ c - a))) <= tol


# -- XOR-patterned matrices ---------------------------------------------------

def a2n_from_row(row) -> np.ndarray:
    """Matrix with entry (i, j) = row[i XOR j] (0-based); dim must be 2^n."""
    c = _as_row(row)
    _log2_exact(c.size)
    g = c.size
    idx = np.arange(g)[:, None] ^ np.arange(g)[None, :]
    return c[idx]


def is_in_a2n(a, tol: float = DEFAULT_TOL) -> bool:
    """True iff all n bit-flip conjugation identities J^k a J^k = a hold within tol."""
    a = as_mat(a)
    n = _log2_exact(a.shape[0])
    for k in range(1, n + 1):
        jk = j_generator(n, k).astype(np.float64)
        if float(np.max(np.abs(jk @ a @ jk - a))) > tol:
            return False
    return True


def walsh_matrix(n: int) -> np.ndarray:
    """n-fold Kronecker power of [[1, 1], [1, -1]]; V V = g Id with g = 2^n."""
    if n < 1:
        raise ValueError("walsh_matrix needs n >= 1")
    return kron_pow(np.array([[1.0, 1.0], [1.0, -1.0]]), n)


def a2n_eigenvalues(row) -> np.ndarray:
    """Eigenvalues of the XOR-patterned matrix: d[i] = row . (Walsh column i)."""
    c = _as_row(row)
    n = _log2_exact(c.size)
    return walsh_matrix(n) @ c


# -- K-symmetric matrices -----------------------------------------------------

@dataclass(frozen=True)
class KSymParams:
    """Free parameters of a K-symmetric matrix, keyed by the canonical wedge.

    Keys are 1-based (i, j) pairs with i <= j <= g+1-i; there are exactly
    g(g+2)/4 of them.
    """

    g: int
    values: dict

    def __post_init__(self):
        region = set(ksym_region(self.g))
        keys = set(self.values)
        if keys != region:
            missing = sorted(region - keys)[:3]
            extra = sorted(keys - region)[:3]
            raise InconsistentParams(
                f"parameter keys do not match the canonical wedge "
                f"(missing {missing}, unexpected {extra})"
            )


def ksym_region(g: int) -> list[tuple[int, int]]:
    """Canonical wedge of free entries, 1-based: i <= j and i <= g+1-j."""
    if g % 2 != 0 or g < 2:
        raise OddDimension("K-symmetric matrices need an even dimension >= 2")
    return [(i, j) for i in range(1, g // 2 + 1) for j in range(i, g + 2 - i)]


def ksym_param_count(g: int) -> int:
    """Number of free parameters: g(g+2)/4."""
    if g % 2 != 0 or g < 2:
        raise OddDimension("K-symmetric matrices need an even dimension >= 2")
    return g * (g + 2) // 4


def k_symmetric_from_params(p: KSymParams) -> np.ndarray:
    """Build the symmetric matrix X with K X K = X from its wedge entries.

    Each wedge value propagates to its orbit under transposition and the
    signed point reflection X[g+1-i, g+1-j] = sigma(i,j) X[i, j], with
    sigma = -1 when i+j is even and +1 when i+j is odd.  The identical
    float is stored (possibly negated) in every orbit slot, so the
    defining identities hold exactly, which the final checks confirm (a
    non-finite value breaks them and raises InconsistentParams).
    """
    g = p.g
    x = np.zeros((g, g))
    for (i, j), v in p.values.items():
        v = float(v)
        s = -1.0 if (i + j) % 2 == 0 else 1.0
        ii, jj = i - 1, j - 1
        ri, rj = g - i, g - j
        x[ii, jj] = v
        x[jj, ii] = v
        x[ri, rj] = s * v
        x[rj, ri] = s * v

    k = k_matrix(g).astype(np.float64)
    if not np.array_equal(k @ x @ k, x):
        raise InconsistentParams("wedge propagation broke K X K = X")
    if not np.array_equal(x, x.T):
        raise InconsistentParams("wedge propagation broke symmetry")
    return x


def ksym_params_to_obj(p: KSymParams) -> dict:
    return {
        "g": p.g,
        "values": [
            {"i": i, "j": j, "value": float(p.values[(i, j)])}
            for (i, j) in ksym_region(p.g)
        ],
    }


def ksym_params_from_obj(obj) -> KSymParams:
    from .errors import SchemaError

    if not isinstance(obj, dict) or "g" not in obj or "values" not in obj:
        raise SchemaError("parameter object needs fields 'g' and 'values'")
    values = {}
    for rec in obj["values"]:
        if not isinstance(rec, dict) or not {"i", "j", "value"} <= set(rec):
            raise SchemaError("each parameter record needs fields i, j, value")
        values[(rec["i"], rec["j"])] = float(rec["value"])
    return KSymParams(g=obj["g"], values=values)
