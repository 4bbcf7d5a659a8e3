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

``verify_kprime`` and ``verify_a2n_symmetries`` build the lattice of P_Z
once and hand it to ``symmetry.induced_change_of_basis``, one call per
symmetry witnessed.

Sampling is counter based: each key such as (seed, sample index) has its
own Philox stream, so samples are independent of the order they are drawn in.
``vcube_wedges`` draws a stack of samples without building their
generators: ``_philox_keys`` and ``_philox_uniforms`` are numpy's
SeedSequence and Philox4x64-10 (Salmon, Moraes, Dror & Shaw, SC 2011)
written as uint32/uint64 array arithmetic over the sample indices, and
give the bits numpy's generator gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import NotSPD, NotSymmetric, OddDimension, OutOfRange, Singular
from .groups import bit_flips, k_prime
from .lattice import from_basis
from .linalg import SPD_REL_FLOOR, as_mat, check_spd, check_symmetric, sym_eig
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


@dataclass(frozen=True, eq=False)
class SiegelPoint:
    """Pair (X, Y) with X symmetric (stored exactly symmetrized) and Y SPD.

    Every point, ``dataclasses.replace`` included, is checked here once:
    X and Y must be g x g, X symmetric (ValueError) and Y symmetric
    (NotSymmetric) by ``check_symmetric``'s rule, and Y SPD as
    ``check_spd`` judges.  X, Y and ``eig``, the decomposition (q, d) of Y
    that ``p_z`` builds on, are stored read-only.  Points compare by
    identity, since their fields are arrays.
    """

    g: int
    x: np.ndarray
    y: np.ndarray
    eig: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        x = as_mat(self.x)
        y = as_mat(self.y)
        if x.shape != y.shape or x.shape[0] != self.g:
            raise ValueError(f"X {x.shape} and Y {y.shape} must both be {self.g} x {self.g}")
        try:
            check_symmetric(x)
        except NotSymmetric as exc:
            raise ValueError(f"X {exc}") from exc
        x = 0.5 * (x + x.T)
        eig = sym_eig(y)
        check_spd(eig[1])
        for a in (x, y, *eig):
            a.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "eig", eig)


def siegel_point(x, y) -> SiegelPoint:
    """Siegel point of the matrices ``x`` and ``y``, checked as SiegelPoint is."""
    x = as_mat(x)
    return SiegelPoint(g=x.shape[0], x=x, y=y)


def p_z(z: SiegelPoint) -> np.ndarray:
    """Determinant-one symplectic basis matrix of the Siegel point.

    ``_p_z_blocks`` of X and the point's one eigendecomposition of Y,
    which supplies both sqrt(Y) and sqrt(Y^-1), so the two blocks
    multiply to the identity up to rounding.
    """
    return _p_z_blocks(z.x, *z.eig)


def _p_z_blocks(x: np.ndarray, q: np.ndarray, d: np.ndarray) -> np.ndarray:
    """[[S^-1, S^-1 X], [0, S]] with S = q diag(sqrt d) q^T, for one X or an (N, g, g) stack.

    One X goes through 2-D matmuls only; a stack shares S and multiplies
    S^-1 into every X at once.
    """
    root = np.sqrt(d)
    sqrt_y = (q * root) @ q.T
    sqrt_y_inv = (q / root) @ q.T
    g = q.shape[0]
    out = np.zeros((*x.shape[:-2], 2 * g, 2 * g))
    out[..., :g, :g] = sqrt_y_inv
    out[..., :g, g:] = sqrt_y_inv @ x
    out[..., g:, g:] = sqrt_y
    return out


def standard_form(g: int) -> np.ndarray:
    """The block form [[0, Id], [-Id, 0]] preserved by symplectic matrices."""
    j = np.zeros((2 * g, 2 * g))
    j[:g, g:] = np.eye(g)
    j[g:, :g] = -np.eye(g)
    return j


#: ``is_symplectic``'s bound on max |M^T J M - J|.
SYMPLECTIC_TOL = 1e-9


def is_symplectic(m) -> bool:
    """True iff max |m^T J m - J| <= SYMPLECTIC_TOL, J the standard form."""
    m = as_mat(m)
    if m.shape[0] % 2 != 0:
        raise OddDimension("symplectic matrices have even dimension")
    j = standard_form(m.shape[0] // 2)
    return float(np.max(np.abs(m.T @ j @ m - j))) <= SYMPLECTIC_TOL


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based Philox stream keyed by (seed, *key)."""
    ss = np.random.SeedSequence(tuple(int(k) for k in (seed, *key)))
    return np.random.Generator(np.random.Philox(ss))


#: Fewest samples ``vcube_wedges`` draws as one array computation.  That
#: path costs about 0.55 ms up to 64 samples and 0.9 ms at 1,024, against
#: 20-25 us per ``_stream``: equal near 24 samples (2-core x86-64 VM,
#: numpy 2.4).
STACK_DRAW_MIN = 32

_WORD = 2 ** 32
_M32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))


def _hash_consts(init: int, mult: int):
    """The (xor, multiply) uint32 constants of SeedSequence's successive hashmix steps."""
    while True:
        nxt = init * mult % _WORD
        yield np.uint32(init), np.uint32(nxt)
        init = nxt


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    """SeedSequence's hashmix of each uint32 word, with the next constants of ``consts``."""
    xor, mult = next(consts)
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _philox_keys(seed: int, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Philox key words of ``SeedSequence((seed, i))`` for each uint32 index i.

    numpy's pool mixing of the entropy words (seed, i, 0, 0), then
    ``generate_state(2, np.uint64)``; valid for seed and i below 2^32,
    which SeedSequence takes as one word each.
    """
    consts = _hash_consts(0x43B0D7E5, 0x931E8875)
    zero = np.zeros_like(index)
    pool = [_hashmix(word, consts) for word in (zero + np.uint32(seed), index, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (np.uint32(0xCA01F9DD) * pool[dst]
                         - np.uint32(0x4973F715) * _hashmix(pool[src], consts))
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    consts = _hash_consts(0x8B51F9DD, 0x58F38DED)
    state = [_hashmix(word, consts).astype(np.uint64) for word in pool]
    return state[0] | state[1] << _S32, state[2] | state[3] << _S32


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products m * x, from 32-bit halves."""
    m_lo, m_hi = m & _M32, m >> _S32
    x_lo, x_hi = x & _M32, x >> _S32
    lo_hi = m_lo * x_hi
    cross = (m_lo * x_lo >> _S32) + (lo_hi & _M32) + m_hi * x_lo
    return m_hi * x_hi + (lo_hi >> _S32) + (cross >> _S32), m * x


def _philox_uniforms(k0: np.ndarray, k1: np.ndarray, size: int) -> np.ndarray:
    """The first ``size`` doubles of Philox4x64-10 under each key, as numpy's generator gives them.

    numpy increments the counter before each block of four words, so the
    blocks run on counters 1, 2, ...; a double is (u >> 11) * 2^-53.
    """
    blocks = -(-size // 4)
    zero = np.zeros(blocks, dtype=np.uint64)
    c0, c1, c2, c3 = np.arange(1, blocks + 1, dtype=np.uint64), zero, zero, zero
    k0, k1 = k0[:, None], k1[:, None]
    for rnd in range(10):
        if rnd:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack((c0, c1, c2, c3), axis=-1).reshape(len(k0), 4 * blocks)[:, :size]
    return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def vcube_wedges(g: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """The (hi - lo, g(g+2)/4) uniform draws on [0, 1) of samples lo..hi-1.

    Row i - lo holds the wedge of sample i in canonical wedge order, drawn
    from the counter-based stream of (seed, i), bit for bit what
    ``_stream(seed, i).uniform(0, 1, size)`` gives.  A stack of at least
    STACK_DRAW_MIN samples whose seed and indices fit in 32 bits is drawn
    by ``_philox_keys`` and ``_philox_uniforms``, numpy's SeedSequence and
    Philox4x64-10 as array arithmetic over the samples; a shorter stack,
    or a wider key, which SeedSequence packs into more words, loops over
    ``_stream``.
    """
    size = len(ksym_region(g))
    if hi - lo >= STACK_DRAW_MIN and 0 <= seed < _WORD and 0 <= lo and hi <= _WORD:
        with np.errstate(over="ignore"):
            return _philox_uniforms(*_philox_keys(seed, np.arange(lo, hi, dtype=np.uint32)), size)
    return np.array([_stream(seed, i).uniform(0.0, 1.0, size=size) for i in range(lo, hi)])


def sample_vcube(g: int, rng_seed: int, sample_index: int = 0) -> KSymParams:
    """Uniform sample of the K-symmetric parameter cube [0, 1]^(g(g+2)/4).

    The parameters are the one ``vcube_wedges`` row of sample_index,
    drawn from the stream of (rng_seed, sample_index), so samples with
    distinct indices are independent and order free.
    """
    draws = vcube_wedges(g, rng_seed, sample_index, sample_index + 1)[0]
    return KSymParams(g=g, values={key: float(v) for key, v in zip(ksym_region(g), draws)})


def _inverse_square_height(y: float) -> np.float64:
    """1/y^2, the eigenvalue of the K family's Y = (1/y^2) Id at height y.

    OutOfRange unless 0 < y < inf.  Singular when 1/y^2 rounds to 0 or
    to inf (y above about 1.3e154 or below about 7.5e-155): float64 has
    no SPD Y for that height.  Any other value passes ``check_spd``.
    """
    if not 0 < y < np.inf:
        raise OutOfRange("height parameter y must be positive and finite")
    with np.errstate(over="ignore", divide="ignore"):
        d = np.float64(1.0) / (np.float64(y) * y)
    if not 0 < d < np.inf:
        raise Singular(f"1/y^2 evaluates to {d:g} in float64")
    return d


def k_family_point(p: KSymParams, y: float) -> SiegelPoint:
    """Siegel point with K-symmetric X and Y = (1/y^2) Id."""
    return siegel_point(k_symmetric_from_params(p), np.eye(p.g) * _inverse_square_height(y))


def k_family_bases(x, y: float) -> np.ndarray:
    """P_Z of the K-family point (X, (1/y^2) Id) for one K-symmetric X or an (N, g, g) stack.

    Y = (1/y^2) Id is checked by ``_inverse_square_height``.  Its
    decomposition is the one Jacobi gives, eigenvectors Id and eigenvalue
    1/y^2, which ``_p_z_blocks`` turns into the bases that
    ``p_z(k_family_point(p, y))`` gives.
    """
    g = x.shape[-1]
    return _p_z_blocks(x, np.eye(g), np.full(g, _inverse_square_height(y)))


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


def verify_a2n_symmetries(z: SiegelPoint) -> list[SymmetryWitness]:
    """Witness the g-1 block-diagonal bit-flip symmetries of an XOR-family lattice.

    For every non-identity element E of the bit-flip group, diag(E, E)
    commutes with P_Z, so the induced change of basis is diag(E, E)
    itself.  The lattice of P_Z is built once and witnessed once per
    element.  A failure here means the input is not in the family.
    """
    n = _log2_exact(z.g)
    lat = from_basis(p_z(z))
    return [induced_change_of_basis(lat, o) for o in _block_bit_flips(n)]


@cache
def _block_bit_flips(n: int) -> tuple[np.ndarray, ...]:
    """diag(E, E) in float64 for each element E of ``bit_flips(n)``, read-only."""
    blocks = tuple(np.kron(np.eye(2), e) for e in bit_flips(n))
    for o in blocks:
        o.setflags(write=False)
    return blocks


def verify_kprime(z: SiegelPoint) -> SymmetryWitness:
    """Witness the diag(K, K^T) symmetry of a K-family lattice.

    The induced R equals diag(K, K^T), which squares to -Id, the source
    of the multiple-of-four vector counts.
    """
    if z.g % 2 != 0:
        raise OddDimension("the K family needs an even dimension")
    o = k_prime(z.g).astype(np.float64)
    return induced_change_of_basis(from_basis(p_z(z)), o)
