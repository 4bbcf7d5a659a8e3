"""Generator matrices and the finite matrix groups they generate.

All generators here are signed permutation matrices with entries in
{-1, 0, 1}, so group elements are stored exactly as int64 matrices and
deduplicated by exact entry comparison.  Public formulas are stated
1-based (matching the usual matrix-theory convention); the code indexes
0-based internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import OddDimension, OrderExceeded, OutOfRange
from .linalg import as_intmat

DEFAULT_MAX_ORDER = 4096


@dataclass(frozen=True)
class MatrixGroup:
    """A finite multiplicative matrix group realized as an element list."""

    dim: int
    elements: list = field(repr=False)
    generator_indices: list

    @property
    def order(self) -> int:
        return len(self.elements)


def cyclic_shift(g: int) -> np.ndarray:
    """Order-g cyclic shift: top-right block Id_{g-1}, bottom-left entry 1."""
    if g < 1:
        raise OutOfRange("dimension must be >= 1")
    c = np.zeros((g, g), dtype=np.int64)
    for i in range(g - 1):
        c[i, i + 1] = 1
    c[g - 1, 0] = 1
    return c


def j_matrix(g: int) -> np.ndarray:
    """Anti-diagonal of ones: J[i, g+1-i] = 1 (1-based); J = J^T = J^-1."""
    if g < 1:
        raise OutOfRange("dimension must be >= 1")
    return np.eye(g, dtype=np.int64)[::-1].copy()


def j_generator(n: int, k: int) -> np.ndarray:
    """J_2^{(x)k} (x) Id_2^{(x)(n-k)}: flips the k leading index bits; dim 2^n."""
    if not 1 <= k <= n:
        raise OutOfRange(f"need 1 <= k <= n, got k={k}, n={n}")
    out = j_matrix(2 ** k)
    if n > k:
        out = np.kron(out, np.eye(2 ** (n - k), dtype=np.int64))
    return out


def k_matrix(g: int) -> np.ndarray:
    """Sign-alternating anti-diagonal: K[i, g+1-i] = +1 for odd i, -1 for even i.

    K is orthogonal with K^2 = -Id, so it acts as a complex structure with
    no nonzero fixed vector.  Defined for even g only.
    """
    if g < 1:
        raise OutOfRange("dimension must be >= 1")
    if g % 2 != 0:
        raise OddDimension("the sign-alternating anti-diagonal needs an even dimension")
    k = np.zeros((g, g), dtype=np.int64)
    for i in range(g):
        k[i, g - 1 - i] = 1 if i % 2 == 0 else -1
    return k


def k_prime(g: int) -> np.ndarray:
    """Block diagonal diag(K, K^T); orthogonal, squares to -Id_{2g}."""
    k = k_matrix(g)
    out = np.zeros((2 * g, 2 * g), dtype=np.int64)
    out[:g, :g] = k
    out[g:, g:] = k.T
    return out


def group_closure(gens) -> MatrixGroup:
    """Multiplicative closure of the generator list.

    Breadth-first products until stable; every generator here has finite
    order, so the closure is the generated group (it contains the
    identity and all inverses).  Aborts with OrderExceeded if the element
    count would pass DEFAULT_MAX_ORDER.
    """
    mats = [as_intmat(m) for m in gens]
    if not mats:
        raise OutOfRange("need at least one generator")
    dim = mats[0].shape[0]
    for m in mats:
        if m.shape[0] != dim:
            raise OutOfRange("generators must share one dimension")

    elements: list[np.ndarray] = []
    seen: dict[bytes, int] = {}

    def add(m: np.ndarray) -> bool:
        key = m.tobytes()
        if key in seen:
            return False
        if len(elements) >= DEFAULT_MAX_ORDER:
            raise OrderExceeded(f"group order exceeds DEFAULT_MAX_ORDER={DEFAULT_MAX_ORDER}")
        seen[key] = len(elements)
        elements.append(m)
        return True

    frontier = []
    for m in mats:
        if add(m):
            frontier.append(m)
    while frontier:
        new = []
        for a in frontier:
            for b in mats:
                p = a @ b
                if add(p):
                    new.append(p)
        frontier = new
    generator_indices = [seen[m.tobytes()] for m in mats]
    return MatrixGroup(dim=dim, elements=elements, generator_indices=generator_indices)


def bit_flips(n: int) -> list[np.ndarray]:
    """The 2^n - 1 non-identity elements of the bit-flip group, in closure order.

    The group is generated by J^k = ``j_generator(n, k)`` for k = 1..n and
    is isomorphic to (Z_2^n, +); its elements are 2^n x 2^n int64 matrices.
    The closure runs once per n: the list is new on every call, and its
    elements are shared and read-only.
    """
    return list(_bit_flips(n))


@cache
def _bit_flips(n: int) -> tuple[np.ndarray, ...]:
    grp = group_closure([j_generator(n, k) for k in range(1, n + 1)])
    eye = np.eye(2 ** n, dtype=np.int64)
    flips = tuple(e for e in grp.elements if not np.array_equal(e, eye))
    for e in flips:
        e.setflags(write=False)
    return flips
