"""Dense square-matrix kernels shared by every other module.

Conventions
-----------
* ``Mat`` is a square float64 ndarray with finite entries.
* ``IntMat`` is a square int64 ndarray carrying exact integers; exact
  questions (unimodularity, group membership) never go through floats.
* Complex input is refused: ``as_mat`` and ``as_intmat`` raise
  ValueError rather than drop the imaginary part.

The symmetric eigensolver is cyclic Jacobi (robust and plenty fast for
dimensions up to 32).  Determinants of integer matrices use Bareiss
fraction-free elimination over Python ints, skipping the rows a step
leaves unchanged (see ``det_int``).

Unimodularity is decided exactly, usually without a determinant:
``is_unimodular`` rounds the float inverse of A to an integer matrix X
and multiplies back.  When n max|A| max|X| < 2^53 (``exact_in_float``),
every product and partial sum of A @ X is an integer below 2^53, so
float64 computes it exactly in any order, on any BLAS.  A @ X == I then
proves det A det X = 1 over the integers, hence |det A| = 1.  Otherwise
(an inexact or failed inverse, or entries too large for the bound)
Bareiss decides.

Numerical rank is numpy's SVD rule (``check_nonsingular``), but the SVD
runs only where a cheaper certificate proves nothing.  Both certificates
prove sigma_min >= n sqrt(eps) sigma_max, far inside the rule, so the
rule's verdict and message never change.  An upper-triangular stack,
which the caller has tested as such, first tries a comparison-matrix
bound computed in numpy's own loops, with no BLAS or LAPACK
(``_triangular_certificate``); any other stack, or one that bound does
not prove, tries a shifted Cholesky of its Grams.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from . import _kernels
from .errors import NotIntegral, NotSPD, NotSymmetric, Singular

#: ``check_symmetric`` refuses max |s - s^T| above this times max |s|.
SYMMETRY_REL_TOL = 1e-9

#: ``round_to_int`` and ``is_orthogonal``: distance to an integer and to Id.
#: Loose, as A^-1 O A drifts for near-singular A; witnesses then check residuals.
ROUNDING_TOL = 1e-6

#: Relative eigenvalue floor for SPD checks: the smallest eigenvalue must
#: be above this times the largest, so the check does not depend on scale.
SPD_REL_FLOOR = 1e-9

#: Jacobi convergence: off-diagonal Frobenius mass below this times ||s||_F.
JACOBI_REL_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


def as_mat(a) -> np.ndarray:
    """Validate and return ``a`` as a square float64 matrix."""
    arr = np.asarray(a)
    if np.iscomplexobj(arr):
        raise ValueError("expected a real matrix, got complex entries")
    arr = np.array(arr, dtype=np.float64, copy=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def as_intmat(a) -> np.ndarray:
    """Validate and return ``a`` as a square int64 matrix.

    Raises ValueError naming an entry that is not an integer in int64's
    range (a fraction, inf, NaN, 2^63 or more), where numpy would wrap it.
    """
    arr = np.array(a)
    if np.iscomplexobj(arr):
        raise ValueError("expected an integer matrix, got complex entries")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.dtype.kind != "i":
        for (i, j), x in zip(np.ndindex(arr.shape), arr.ravel().tolist()):
            if not (isinstance(x, numbers.Real) and -2 ** 63 <= x < 2 ** 63 and x == int(x)):
                raise ValueError(f"entry ({i},{j}) = {x!r} is not an integer in int64's range")
    return arr.astype(np.int64)


def kron_pow(a, n: int) -> np.ndarray:
    """n-fold Kronecker power a (x) a (x) ... with n >= 1 factors."""
    if n < 1:
        raise ValueError("kron_pow needs n >= 1")
    a = as_mat(a)
    out = a
    for _ in range(n - 1):
        out = np.kron(out, a)
    return out


def sym_eig(s) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (q, d) with orthogonal q and eigenvalues d sorted descending,
    so q @ diag(d) @ q.T reconstructs the input.  Raises NotSymmetric as
    ``check_symmetric`` does, and NumericalBreakdown when the sweeps do
    not converge within JACOBI_MAX_SWEEPS.
    """
    s = as_mat(s)
    check_symmetric(s)
    _, d, q = _kernels.jacobi_core(0.5 * (s + s.T), JACOBI_REL_TOL, JACOBI_MAX_SWEEPS)
    order = np.argsort(-d, kind="stable")
    return q[:, order], d[order]


def check_symmetric(s: np.ndarray) -> None:
    """Raise NotSymmetric when max |s - s^T| exceeds SYMMETRY_REL_TOL * max |s|."""
    asym = float(np.max(np.abs(s - s.T)))
    bound = SYMMETRY_REL_TOL * float(np.max(np.abs(s)))
    if asym > bound:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds {SYMMETRY_REL_TOL:.0e} x max |entry| = {bound:.3e}")


def check_spd(d: np.ndarray) -> None:
    """Raise NotSPD unless the descending eigenvalues ``d`` are positive
    and the smallest is above SPD_REL_FLOOR times the largest."""
    if not d[-1] > SPD_REL_FLOOR * max(d[0], 0.0):
        raise NotSPD(
            f"smallest eigenvalue {d[-1]:.3e} is not above "
            f"{SPD_REL_FLOOR:.0e} x the largest, {d[0]:.3e}"
        )


def det_int(a) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination.

    Step k sets m[i][j] = (m[i][j] p - m[i][k] m[k][j]) // prev (pivot p =
    m[k][k], prev the last one).  A row with m[i][k] == 0 only becomes
    m[i][j] p // prev, which is m[i][j] when p == prev, so it is rescaled or
    skipped: every integer kept is the one the dense loop computes.
    """
    m = as_intmat(a).tolist()
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        p, top = m[k][k], m[k][k + 1:]
        for row in m[k + 1:]:
            c = row[k]
            if c:
                row[k + 1:] = [(x * p - c * y) // prev for x, y in zip(row[k + 1:], top)]
                row[k] = 0
            elif p != prev:
                row[k + 1:] = [x * p // prev for x in row[k + 1:]]
        prev = p
    return sign * m[n - 1][n - 1]


def exact_in_float(a: np.ndarray, b: np.ndarray):
    """True where a @ b is exact in float64: n max|a| max|b| < 2^53, n = a.shape[-1].

    For float stacks of integers, per matrix.  n max|a| is exact below 2^53
    and rounding is monotone, so the float bound passes only when the exact
    one does; NaN and inf fail it.
    """
    big = [np.abs(x).max(axis=(-2, -1), initial=0.0) for x in (a, b)]
    return a.shape[-1] * big[0] * big[1] < 2.0 ** 53


def is_unimodular(a):
    """True iff the integer matrix ``a`` has |det a| = 1 (exact; see the module notes).

    On an (N, n, n) integer stack it returns a bool array of N.  A single
    matrix runs as a stack of one: the certificate on the whole stack,
    then Bareiss on each matrix it does not prove.
    """
    arr = np.asarray(a)
    single = arr.ndim != 3
    if single:
        arr = as_intmat(arr)[None]
    elif arr.shape[1] != arr.shape[2] or not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"expected a stack of square integer matrices, got {arr.dtype} {arr.shape}")
    n = arr.shape[-1]
    af = arr.astype(np.float64)
    try:
        x = np.rint(np.linalg.inv(af))
    except np.linalg.LinAlgError:      # singular in floats only, perhaps
        x = np.zeros_like(af)          # proves nothing: A @ 0 != I
    exact = exact_in_float(af, x)
    x = np.where(exact[:, None, None], x, 0.0)     # keeps NaN and inf out of the product
    ok = exact & (af @ x == np.eye(n)).all(axis=(-2, -1))
    for i in np.flatnonzero(~ok):
        ok[i] = abs(det_int(arr[i])) == 1
    return bool(ok[0]) if single else ok


def check_nonsingular(a: np.ndarray, *, upper: bool = False) -> None:
    """Raise Singular unless the Mat ``a``, or every matrix of a stack, has full numerical rank.

    The rule is numpy's ``matrix_rank``: singular when the smallest
    singular value is at most dim * eps times the largest.  It does not
    depend on scale, as |det| against an absolute floor does: 0.25 I_16
    (det 2.3e-10) passes, and 1e10 times a rank-2 3x3 matrix (det 4.6e15)
    fails.  A stack reports its first singular matrix.  The SVD runs only
    where neither certificate proves full rank, so it alone decides:
    ``_triangular_certificate``, tried first when ``upper`` says that
    every matrix is upper triangular (the caller has tested it), then
    ``_well_conditioned``.
    """
    if upper and _triangular_certificate(a) or _well_conditioned(a):
        return
    sv = np.linalg.svd(a, compute_uv=False)
    low = sv[..., -1]
    floor = a.shape[-1] * np.finfo(np.float64).eps * sv[..., 0]
    bad = low <= floor
    if bad.any():
        i = np.argmax(bad)
        raise Singular(f"smallest singular value {low.flat[i]:.3e} is not above "
                       f"dim * eps * largest = {floor.flat[i]:.3e}")


def _well_conditioned(a: np.ndarray) -> bool:
    """True only if Cholesky of G - tau I (G = A^T A, tau = 4 n^2 eps tr G)
    succeeds on the whole stack, which proves sigma_min >= n sqrt(eps) sigma_max.

    Rounding G (gamma_n ||A||_F^2), the shift, and Cholesky's backward error
    (gamma_{n+1} n ||G||; Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 10) stay below (n + 1)^2 eps ||A||_F^2 / 2, and the
    SVD's error, p(n) eps sigma_max, is far below the margin left.  A tau
    that is not finite and normal (NaN, inf, underflow) or a factor that
    is not finite (OpenBLAS lets NaN through) proves nothing.
    """
    n = a.shape[-1]
    f = np.finfo(np.float64)
    with np.errstate(all="ignore"):
        g = np.swapaxes(a, -1, -2) @ a
        tau = 4 * n * n * f.eps * np.trace(g, axis1=-2, axis2=-1)
        if not ((tau >= f.tiny) & (tau < np.inf)).all():
            return False
        try:
            return bool(np.isfinite(np.linalg.cholesky(g - tau[..., None, None] * np.eye(n))).all())
        except np.linalg.LinAlgError:
            return False


def _triangular_certificate(a: np.ndarray) -> bool:
    """True only if 2 sqrt(n) max(x) ||A||_F <= 1 / (n sqrt(eps)) for every
    upper-triangular n x n matrix A of the stack, x = M(A)^-1 e.

    M(A), A's comparison matrix, has |a_ii| on its diagonal and -|a_ij|
    off it, and |A^-1| <= M(A)^-1 entrywise (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 8.12).  So
    1 / sigma_min = ||A^-1||_2 <= sqrt(n) ||A^-1||_inf <= sqrt(n) max(x),
    and with sigma_max <= ||A||_F the test proves sigma_min >= n sqrt(eps)
    sigma_max, what the Cholesky certificate proves.  x comes by back
    substitution, one numpy step per row over the stack:
    x_i = (1 + sum_{j>i} |a_ij| x_j) / |a_ii|.  Every sum is of
    nonnegative terms, so x and ||A||_F^2 come out within a relative
    n (n + 1) eps of their exact values, and the factor 2 covers that
    many times over.  The strictly lower entries must be zero; only
    ||A||_F^2 reads them.  An empty stack, a ||A||_F^2 that is not finite
    and normal (overflow, underflow), and an x that is not finite (NaN,
    inf, a zero diagonal) prove nothing.
    """
    if not a.size:
        return False
    n = a.shape[-1]
    f = np.finfo(np.float64)
    x = np.empty(a.shape[:-1])
    with np.errstate(all="ignore"):
        for i in range(n - 1, -1, -1):
            row = np.abs(a[..., i, i:])
            s = np.einsum("...j,...j->...", row[..., 1:], x[..., i + 1:])
            s += 1.0
            np.divide(s, row[..., 0], out=x[..., i])
        fro2 = np.einsum("...ij,...ij->...", a, a)
        ok = ((fro2 >= f.tiny) & (fro2 < np.inf)
              & (x.max(axis=-1) * np.sqrt(fro2) <= 1.0 / (2.0 * n * math.sqrt(n * f.eps))))
    return bool(ok.all())


def is_orthogonal(a) -> bool:
    """True iff max |a^T a - Id| <= ROUNDING_TOL."""
    a = as_mat(a)
    return float(np.max(np.abs(a.T @ a - np.eye(a.shape[0])))) <= ROUNDING_TOL


def round_to_int(a) -> np.ndarray:
    """Entrywise nearest-integer matrix; NotIntegral if any entry is off by > ROUNDING_TOL."""
    a = as_mat(a)
    rounded = np.round(a)
    err = np.abs(a - rounded)
    worst = np.unravel_index(np.argmax(err), err.shape)
    if err[worst] > ROUNDING_TOL:
        raise NotIntegral(
            f"entry ({worst[0]},{worst[1]}) = {float(a[worst])!r} is {err[worst]:.3e} from an integer"
        )
    return rounded.astype(np.int64)


# -- JSON object forms -------------------------------------------------------
# Matrices travel as {"dim": d, "rows": [[...], ...]} everywhere in the repo.

def mat_to_obj(a) -> dict:
    a = as_mat(a)
    return {"dim": int(a.shape[0]), "rows": [[float(x) for x in row] for row in a]}


def intmat_to_obj(a) -> dict:
    a = as_intmat(a)
    return {"dim": int(a.shape[0]), "rows": [[int(x) for x in row] for row in a]}


def _rows_from_obj(obj, what: str):
    from .errors import SchemaError

    if not isinstance(obj, dict):
        raise SchemaError(f"{what}: expected an object, got {type(obj).__name__}")
    if "dim" not in obj or "rows" not in obj:
        raise SchemaError(f"{what}: missing required field 'dim' or 'rows'")
    dim = obj["dim"]
    rows = obj["rows"]
    if type(dim) is not int or dim < 1:
        raise SchemaError(f"{what}.dim: expected a positive integer, got {dim!r}")
    if not isinstance(rows, list) or len(rows) != dim:
        raise SchemaError(f"{what}.rows: expected {dim} rows, got {len(rows) if isinstance(rows, list) else rows!r}")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise SchemaError(f"{what}.rows[{i}]: expected {dim} entries")
        for j, x in enumerate(row):
            if not isinstance(x, (int, float)) or isinstance(x, bool):
                raise SchemaError(f"{what}.rows[{i}][{j}]: expected a number, got {x!r}")
    return dim, rows


def mat_from_obj(obj, what: str = "matrix") -> np.ndarray:
    from .errors import SchemaError

    _, rows = _rows_from_obj(obj, what)
    arr = np.array(rows, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{what}: entries must be finite")
    return arr
