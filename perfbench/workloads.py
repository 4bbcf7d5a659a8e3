"""The three benchmark workloads: inputs from a seed, one closed-loop call, result checks.

Each workload builds its inputs from the benchmark seed (the program only
ever receives the generated inputs), then a *solve* is a fixed list of
calls into symplat's public functions.  The runner times every call and
checks every result; a check raises ``CheckFailed``.

symplat is imported from the ``src/`` directory next to this one, never
from an installed copy, so the benchmark always measures the tree it
ships with.  Calls go through module attributes (``lattice.systole``,
not a name bound at import), so the traced mode's wrappers see them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "symplat" / "__init__.py").is_file():
    raise ImportError(f"symplat sources not found under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import symplat  # noqa: E402
from symplat import barneswall, lattice, linalg, meanvalue, patterned, symplectic  # noqa: E402

if Path(symplat.__file__).resolve().parent != SRC / "symplat":
    raise ImportError(f"symplat was imported from {symplat.__file__}, not from {SRC}")

#: Relative tolerance for grouping squared lengths into shells: the
#: package's own boundary slack, so a length the package counts inside a
#: radius is the same length here.
SHELL_RTOL = lattice.BOUNDARY_EPS

# -- mc-k: criterion 3's Monte Carlo estimate ----------------------------------
MC_G, MC_Y, MC_R2 = 2, 8.0, 0.25
MC_SAMPLES = 1000
MC_LIMIT = math.pi ** 2 * MC_R2 ** 2 / 2.0
#: Per-sample standard deviation of the short-vector count at these
#: parameters, pooled over 40,000 samples (seeds 1000-1039; pooled mean
#: 0.2994 +- 0.0083 against the limit 0.3084).  The counts are heavy
#: tailed, so the sample stderr collapses when no rare high-count lattice
#: is drawn: at 1,000 samples seed 3 reads -4.5 of its own stderrs from
#: the limit but -2.5 of this reference's.  The 4-stderr check uses
#: whichever of the two is larger.
MC_COUNT_SD = 1.65

# -- bw16-shells: one deep enumeration tree -------------------------------------
BW_N = 3                           # bw_lattice(3) has dimension g = 16
BW_R2 = 3.0 * math.sqrt(2.0)       # 1.5 times the squared systole sqrt(8)
BW_SHELLS = {math.sqrt(8.0): 4320, 3.0 * math.sqrt(2.0): 61440}

# -- xor-verify: XOR-family points at g = 8 --------------------------------------
XOR_G = 8
#: Points per solve.  Their costs differ, so the seed moves a solve's cost:
#: over seeds 1-10, 64 points spread 6% (IQR/median) with the host's speed
#: factored out; 128 points halve that variance.
XOR_POINTS = 128
XOR_EIG_TOL = 1e-8
#: Witness residuals are bounded by this times max |P_Z entry|, the scale
#: ``induced_change_of_basis`` itself applies.  An absolute 1e-9 fails on
#: seed 12 point 24: residual 1.06e-9 at max |P_Z| = 2.84, where a basis
#: built from numpy's eigh reaches 2.6e-13 (the Jacobi eigenvectors behind
#: P_Z are the less accurate part).
XOR_RESIDUAL_TOL = 1e-9

#: Walsh matrix of dimension XOR_G, for the set-up's SPD shift.
_WALSH = np.array([[(-1.0) ** bin(i & j).count("1") for j in range(XOR_G)] for i in range(XOR_G)])

# stream tags keep the draw kinds of one (seed, index) apart
_TAG_SCRAMBLE = 1
_TAG_XOR = 2


class CheckFailed(Exception):
    """A result of the program failed the benchmark's check."""


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), *key))))


def _group(pairs) -> list[tuple[float, int]]:
    """Merge sorted (length, count) pairs whose lengths agree to SHELL_RTOL."""
    out: list[list] = []
    for length, count in pairs:
        if out and length - out[-1][0] <= SHELL_RTOL * max(abs(length), 1.0):
            out[-1][1] += count
        else:
            out.append([float(length), count])
    return [(v, c) for v, c in out]


def shells(norms) -> list[tuple[float, int]]:
    """Squared lengths grouped into shells: [(smallest length, count)]."""
    return _group((v, 1) for v in np.sort(np.asarray(norms, dtype=np.float64)))


def histogram_shells(hist: dict) -> list[tuple[float, int]]:
    """The program's histogram regrouped into shells."""
    return _group(sorted(hist.items()))


def _same_shells(a, b) -> bool:
    return len(a) == len(b) and all(
        ca == cb and abs(va - vb) <= SHELL_RTOL * max(abs(va), 1.0)
        for (va, ca), (vb, cb) in zip(a, b))


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _row_keys(v: np.ndarray) -> np.ndarray:
    """One opaque sortable key per int64 row, for set operations on rows."""
    v = np.ascontiguousarray(v, dtype=np.int64)
    return v.view(np.dtype((np.void, v.dtype.itemsize * v.shape[1]))).ravel()


# -- mc-k ----------------------------------------------------------------------

@dataclass(frozen=True)
class McInputs:
    seed: int
    samples: int


def mc_build(seed: int, samples: int = MC_SAMPLES) -> McInputs:
    return McInputs(seed=seed, samples=samples)


def mc_call(inp: McInputs):
    return meanvalue.estimate_I(MC_G, MC_Y, MC_R2, samples=inp.samples, seed=inp.seed)


def mc_check(inp: McInputs, est, sample_counts=None) -> dict:
    """Exact K-family divisibility plus the 4-stderr test against the ball-volume limit.

    ``sample_counts`` (traced runs) are the per-sample vector counts seen
    at the enumeration kernel; they must add up to the reported total.
    """
    _check(est.samples == inp.samples and est.seed == inp.seed,
           f"estimate reports samples={est.samples}, seed={est.seed}")
    total_f = est.mean * inp.samples
    total = round(total_f)
    _check(abs(total_f - total) <= 1e-6, f"mean x N = {total_f!r} is not an integer")
    _check(total % 4 == 0, f"total count {total} is not divisible by 4")
    stderr = max(est.stderr, MC_COUNT_SD / math.sqrt(inp.samples))
    _check(abs(est.mean - MC_LIMIT) <= 4.0 * stderr,
           f"mean {est.mean:.4f} is more than 4 x {stderr:.4f} from the limit {MC_LIMIT:.4f}")
    if sample_counts is not None:
        _check(sum(sample_counts) == total,
               f"per-sample counts sum to {sum(sample_counts)}, not {total}")
    return {"items": inp.samples, "total": total}


# -- bw16-shells -----------------------------------------------------------------

def bw_scramble(seed: int, d: int) -> np.ndarray:
    """Unimodular L @ U: unit triangular factors with off-diagonal entries in {-1, 0, 1}.

    Its size is part of the workload definition and is never tuned.
    """
    rng = _stream(seed, 0, _TAG_SCRAMBLE)
    low = np.eye(d, dtype=np.int64) + np.tril(rng.integers(-1, 2, size=(d, d)), -1)
    up = np.eye(d, dtype=np.int64) + np.triu(rng.integers(-1, 2, size=(d, d)), 1)
    return low @ up


def bw_build(seed: int) -> lattice.Lattice:
    """bw_lattice(3) with its basis multiplied by the seed's scramble."""
    bw = barneswall.bw_lattice(BW_N)
    return lattice.from_basis(bw.basis @ bw_scramble(seed, bw.dim))


def bw_call(lat: lattice.Lattice):
    return lattice.enumerate_short(lat, BW_R2)


def bw_check(lat: lattice.Lattice, rep) -> dict:
    """Exact shell counts, distinct vectors closed under negation, norms from the basis."""
    expected = sorted(BW_SHELLS.items())
    got = shells(rep.norms)
    _check(_same_shells(got, expected), f"shells {got} != {expected}")
    hist = histogram_shells(rep.histogram)
    _check(_same_shells(hist, got), f"histogram shells {hist} disagree with the vectors' {got}")
    vecs = np.asarray(rep.vectors, dtype=np.int64)
    _check(vecs.shape == (rep.count, lat.dim) and rep.count == sum(BW_SHELLS.values()),
           f"vector array has shape {vecs.shape}")
    keys = np.sort(_row_keys(vecs))
    _check(bool(np.all(keys[1:] != keys[:-1])), "vectors are not distinct")
    _check(bool(np.array_equal(keys, np.sort(_row_keys(-vecs)))), "vectors are not closed under negation")
    w = lat.basis @ vecs.T.astype(np.float64)
    recomputed = np.einsum("ij,ij->j", w, w)
    err = float(np.max(np.abs(recomputed - rep.norms) / rep.norms))
    _check(err <= SHELL_RTOL, f"norms recomputed from the basis differ by {err:.2e}")
    return {"items": rep.count, "histogram_keys": len(rep.histogram)}


# -- xor-verify ------------------------------------------------------------------

def xor_point(seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """XOR-family parameters of point ``index``; sqrt(Y) shifted to a Walsh minimum of 0.1.

    Adding to the leading row entry shifts every Walsh eigenvalue equally,
    so the shifted row stays in the patterned class.
    """
    rng = _stream(seed, index, _TAG_XOR)
    x_row = rng.uniform(0.0, 1.0, size=XOR_G)
    s_row = rng.uniform(0.0, 1.0, size=XOR_G)
    emin = float(np.min(_WALSH @ s_row))
    if emin < 0.1:
        s_row[0] += 0.1 - emin
    return x_row, s_row


def xor_build(seed: int, points: int = XOR_POINTS) -> list:
    return [xor_point(seed, i) for i in range(points)]


@dataclass(frozen=True)
class XorResult:
    walsh_x: np.ndarray
    walsh_y: np.ndarray
    jacobi_x: np.ndarray
    jacobi_y: np.ndarray
    witnesses: list
    scale: float
    systole2: float
    kissing: int
    report: object


def xor_call(point) -> XorResult:
    """Verify one point as the paper does: spectra, symmetry witnesses, systole, shells."""
    x_row, s_row = point
    z = symplectic.a2n_family_point(x_row, s_row)
    walsh_x = np.sort(patterned.a2n_eigenvalues(x_row))[::-1]
    walsh_y = np.sort(patterned.a2n_eigenvalues(s_row) ** 2)[::-1]
    _, jacobi_x = linalg.sym_eig(z.x)
    _, jacobi_y = linalg.sym_eig(z.y)
    witnesses = symplectic.verify_a2n_symmetries(z)
    basis = symplectic.p_z(z)
    lat = lattice.from_basis(basis)
    s2, kissing = lattice.systole(lat)
    report = lattice.enumerate_short(lat, 2.0 * s2)
    return XorResult(walsh_x, walsh_y, jacobi_x, jacobi_y, witnesses, float(np.max(np.abs(basis))),
                     s2, kissing, report)


def xor_check(res: XorResult) -> dict:
    """Spectra agree, 7 exact unimodular witnesses, even shells, systole is the first shell.

    The kissing number that ``systole`` reports is not compared with the
    first shell's count: the package's 12-digit histogram keys can split
    one length in two (ROADMAP 4a), and the traced ``lattice.split_keys``
    counts that defect instead.
    """
    for name, walsh, jac in (("X", res.walsh_x, res.jacobi_x), ("Y", res.walsh_y, res.jacobi_y)):
        err = float(np.max(np.abs(walsh - jac)))
        _check(err <= XOR_EIG_TOL, f"Walsh and Jacobi eigenvalues of {name} differ by {err:.2e}")
    _check(len(res.witnesses) == XOR_G - 1, f"{len(res.witnesses)} witnesses, expected {XOR_G - 1}")
    for w in res.witnesses:
        d = symplat.det_int(w.r)
        _check(abs(d) == 1, f"witness has determinant {d}")
        _check(w.residual <= XOR_RESIDUAL_TOL * res.scale,
               f"witness residual {w.residual:.2e} above {XOR_RESIDUAL_TOL:.0e} x {res.scale:.3f}")
    groups = shells(res.report.norms)
    _check(bool(groups), "no vector within twice the systole")
    _check(all(c % 2 == 0 for _, c in groups), f"odd shell count in {groups}")
    hist = histogram_shells(res.report.histogram)
    _check(_same_shells(hist, groups), f"histogram shells {hist} disagree with the vectors' {groups}")
    _check(abs(res.systole2 - groups[0][0]) <= SHELL_RTOL * groups[0][0],
           f"systole {res.systole2} != first shell {groups[0][0]}")
    return {"items": 1, "shells": len(groups),
            "shells_divisible_by_2g": sum(c % (2 * XOR_G) == 0 for _, c in groups)}


# -- registry --------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """How to build a workload's inputs, list one solve's calls, run and check a call.

    ``check(arg, result, sample_counts)`` raises CheckFailed or returns a
    dict whose "items" is the number of items the call verified;
    ``sample_counts`` are the traced per-sample vector counts, or None.
    """

    build: Callable[[int], Any]
    calls: Callable[[Any], list]
    call: Callable[[Any], Any]
    check: Callable[[Any, Any, Any], dict]
    item: str


WORKLOADS = {
    "mc-k": Workload(
        build=mc_build, calls=lambda inp: [inp], call=mc_call, check=mc_check,
        item="sample"),
    "bw16-shells": Workload(
        build=bw_build, calls=lambda lat: [lat], call=bw_call,
        check=lambda lat, rep, _counts: bw_check(lat, rep),
        item="verified vector"),
    "xor-verify": Workload(
        build=xor_build, calls=list, call=xor_call,
        check=lambda _point, res, _counts: xor_check(res),
        item="point"),
}
