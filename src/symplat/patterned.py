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
from functools import cache

import numpy as np

from .errors import InconsistentParams, NotPowerOfTwo, OddDimension
from .groups import j_generator, k_matrix
from .linalg import as_mat, kron_pow

#: ``agrees``: the bound of every pattern check, relative to the matrix checked.
PATTERN_REL_TOL = 1e-9


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


def agrees(image, a) -> bool:
    """True iff max |image - a| <= PATTERN_REL_TOL * max |a|.

    The one rule of the pattern checks: ``is_in_a2n``, the Barnes-Wall
    symmetry report and ``family-check --verify``.
    """
    return float(np.max(np.abs(image - a))) <= PATTERN_REL_TOL * float(np.max(np.abs(a)))


# -- circulants ---------------------------------------------------------------

def circulant_from_row(row) -> np.ndarray:
    """Circulant whose i-th row is the first row shifted right by i-1."""
    c = _as_row(row)
    g = c.size
    idx = (np.arange(g)[None, :] - np.arange(g)[:, None]) % g
    return c[idx]


# -- XOR-patterned matrices ---------------------------------------------------

def a2n_from_row(row) -> np.ndarray:
    """Matrix with entry (i, j) = row[i XOR j] (0-based); dim must be 2^n."""
    c = _as_row(row)
    _log2_exact(c.size)
    g = c.size
    idx = np.arange(g)[:, None] ^ np.arange(g)[None, :]
    return c[idx]


def j_conjugation(a: np.ndarray) -> dict[int, bool]:
    """{k: whether J^k a J^k = a, as ``agrees`` judges} for k = 1..n, ``a`` a 2^n x 2^n Mat.

    J^k is ``j_generator(n, k)``; NotPowerOfTwo for any other dimension.
    """
    n = _log2_exact(a.shape[0])
    jks = {k: j_generator(n, k).astype(np.float64) for k in range(1, n + 1)}
    return {k: agrees(jk @ a @ jk, a) for k, jk in jks.items()}


def is_in_a2n(a) -> bool:
    """True iff all n bit-flip conjugation identities J^k a J^k = a hold (``j_conjugation``)."""
    return all(j_conjugation(as_mat(a)).values())


def walsh_matrix(n: int) -> np.ndarray:
    """n-fold Kronecker power of [[1, 1], [1, -1]]; V V = g Id with g = 2^n."""
    return _walsh(n).copy()


@cache
def _walsh(n: int) -> np.ndarray:
    """``walsh_matrix(n)``, built once per n and read-only."""
    if n < 1:
        raise ValueError("walsh_matrix needs n >= 1")
    w = kron_pow(np.array([[1.0, 1.0], [1.0, -1.0]]), n)
    w.setflags(write=False)
    return w


def a2n_eigenvalues(row) -> np.ndarray:
    """Eigenvalues of the XOR-patterned matrix: d[i] = row . (Walsh column i)."""
    c = _as_row(row)
    n = _log2_exact(c.size)
    return _walsh(n) @ c


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


def k_symmetric_from_params(p: KSymParams) -> np.ndarray:
    """Build the symmetric matrix X with K X K = X from its wedge entries
    (``k_symmetric_stack`` of one sample)."""
    wedge = [[p.values[key] for key in ksym_region(p.g)]]
    return k_symmetric_stack(p.g, wedge)[0]


def k_symmetric_stack(g: int, wedge) -> np.ndarray:
    """The (N, g, g) stack of K-symmetric X whose rows of ``wedge`` (N, g(g+2)/4)
    hold the entries of the canonical wedge, in ``ksym_region`` order.

    Each wedge value propagates to its orbit under transposition and the
    signed point reflection X[g+1-i, g+1-j] = sigma(i,j) X[i, j], with
    sigma = -1 when i+j is even and +1 when i+j is odd.  The identical
    float is stored (possibly negated) in every orbit slot, so the
    defining identities hold exactly, which the final checks confirm (a
    non-finite value breaks them and raises InconsistentParams).
    """
    wedge = np.asarray(wedge, dtype=np.float64)
    region = ksym_region(g)
    x = np.zeros((wedge.shape[0], g, g))
    for col, (i, j) in enumerate(region):
        v = wedge[:, col]
        s = -1.0 if (i + j) % 2 == 0 else 1.0
        x[:, i - 1, j - 1] = v
        x[:, j - 1, i - 1] = v
        x[:, g - i, g - j] = s * v
        x[:, g - j, g - i] = s * v

    k = k_matrix(g).astype(np.float64)
    if not np.array_equal(k @ x @ k, x):
        raise InconsistentParams("wedge propagation broke K X K = X")
    if not np.array_equal(x, x.transpose(0, 2, 1)):
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
