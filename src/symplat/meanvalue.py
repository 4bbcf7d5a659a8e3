"""Bound formulas and the desk-scale mean-value experiments.

Three closed-form lower-bound values for the symplectic Hermite invariant
in dimension 2g are grouped per g:

    buser_sarnak = (1/pi) (2 g!)^(1/g)
    theorem1     = (1/pi) (4 g!)^(1/g)      (even g; = buser_sarnak * 2^(1/g))
    conjecture   = (1/pi) (2g g!)^(1/g)

The estimator draws K-family lattices with X uniform over the parameter
cube and Y = (1/y^2) Id, counts nonzero vectors of squared length <= r2
by exact enumeration, and averages.  As y grows the mean approaches the
volume pi^g r^(2g) / g! of the radius-r ball in dimension 2g, which is
what the limit sweep makes visible.  The mean is reported together with
its standard error; the decreasing trend in y is reported, not asserted,
because single estimates carry Monte Carlo noise.

Everything is reproducible: sample i of seed s draws from the
counter-based stream keyed (s, i), so a fixed seed gives the same output
bits.  The estimator builds its samples as stacks of bases and counts
them with ``lattice.short_counts``, which takes the checks of the
one-lattice path and its steps or, where a box bound proves the trees
small, walks the triangular P_Z bases as given; each sample's count is
what one ``k_family_lattice`` and ``enumerate_short`` give it, and the
chunk size does not show in the output.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import OddDimension, OutOfRange, Singular
from .lattice import enumerate_short, from_basis, short_counts, systole
from .patterned import (KSymParams, a2n_eigenvalues, k_symmetric_from_params, k_symmetric_stack,
                        ksym_params_to_obj, ksym_region)
from .symplectic import _stream, a2n_family_point, k_family_bases, p_z, sample_vcube, vcube_wedges

_PI = math.pi

# stream tags keep the different draw kinds of one (seed, index) apart
_TAG_Y = 1
_TAG_A2N = 2
_TAG_SEARCH = 3

#: Most samples ``estimate_I`` reduces as one stack.  A full chunk's
#: arrays peak at 2.4 MB at g = 2 and 22 MB at g = 8 (tracemalloc).
ESTIMATE_CHUNK = 1024


@dataclass(frozen=True)
class BoundValues:
    g: int
    buser_sarnak: float
    theorem1: float
    conjecture: float


@dataclass(frozen=True)
class MeanValueEstimate:
    g: int
    y: float
    r2: float
    samples: int
    mean: float
    stderr: float
    seed: int


@dataclass(frozen=True)
class MultiplicityReport:
    family: str
    g: int
    divisor: int
    samples: int
    seed: int
    radius_factor: float
    buckets_total: int
    buckets_divisible: int
    pass_rate: float
    all_divisible: bool
    violations: list


@dataclass(frozen=True)
class SearchResult:
    family: str
    g: int
    params: dict
    y: float | None
    systole2: float
    evaluations: int
    seed: int


def _root_scaled(factor_log: float, g: int) -> float:
    return math.exp((factor_log + math.lgamma(g + 1)) / g) / _PI


def bounds(g: int) -> BoundValues:
    """The three closed-form bound values at half-dimension g (even, >= 2)."""
    if g % 2 != 0:
        raise OddDimension("bounds are stated for even g")
    if g < 2:
        raise OutOfRange("bounds need g >= 2")
    if g <= 20:
        fact = float(math.factorial(g))
        bs = (2.0 * fact) ** (1.0 / g) / _PI
        t1 = (4.0 * fact) ** (1.0 / g) / _PI
        con = (2.0 * g * fact) ** (1.0 / g) / _PI
    else:
        bs = _root_scaled(math.log(2.0), g)
        t1 = _root_scaled(math.log(4.0), g)
        con = _root_scaled(math.log(2.0 * g), g)
    return BoundValues(g=g, buser_sarnak=bs, theorem1=t1, conjecture=con)


def ball_volume_limit(g: int, r: float) -> float:
    """Volume pi^g r^(2g) / g! of the radius-r ball in dimension 2g.

    OutOfRange when the volume, or a step on the way to it, is past
    float64's range.
    """
    if g < 1:
        raise OutOfRange("need g >= 1")
    if not r > 0:
        raise OutOfRange("radius must be positive")
    try:
        if g <= 20:
            volume = _PI ** g * r ** (2 * g) / float(math.factorial(g))
        else:
            volume = math.exp(g * math.log(_PI) + 2 * g * math.log(r) - math.lgamma(g + 1))
    except OverflowError:
        volume = math.inf
    if volume == math.inf:
        raise OutOfRange(f"the ball volume at g = {g}, r = {r:g} is past float64's range")
    return volume


@contextmanager
def _height_reach(y: float):
    """Re-raise Singular from the K-family basis at height y, naming y."""
    try:
        yield
    except Singular as exc:
        raise Singular(f"float64 cannot represent the K-family basis at height y = {y:g}: {exc}") from exc


def k_family_lattice(p: KSymParams, y: float):
    """Determinant-one lattice of the K-family Siegel point (X from p, height y).

    Singular here means the height is past float64's reach: the basis
    condition number grows as y^2, and from about y = 2.5e7 the smallest
    singular value of the det-one basis can fall below the rank floor;
    past about 1.3e154, or below about 7.5e-155, 1/y^2 itself rounds to
    0 or to inf.
    """
    with _height_reach(y):
        return from_basis(k_family_bases(k_symmetric_from_params(p), y))


def sample_k_family(g: int, seed: int, index: int):
    """Sampled K-family lattice: X uniform on the cube, y uniform on [0.5, 2]."""
    params = sample_vcube(g, seed, index)
    y = float(_stream(seed, index, _TAG_Y).uniform(0.5, 2.0))
    return k_family_lattice(params, y)


def _a2n_lattice(x_row, s_row):
    """XOR-family lattice with a copy of the sqrt(Y) row shifted to be safely SPD.

    Adding to the leading row entry shifts every Walsh eigenvalue equally,
    so the shift guarantees a minimum eigenvalue of 0.1 without leaving
    the patterned class.  The caller's row is left as it was.
    """
    s_row = np.array(s_row, dtype=np.float64)
    emin = float(np.min(a2n_eigenvalues(s_row)))
    if emin < 0.1:
        s_row[0] += 0.1 - emin
    return from_basis(p_z(a2n_family_point(x_row, s_row)))


def sample_a2n_family(g: int, seed: int, index: int):
    """Sampled XOR-family lattice, its sqrt(Y) row shifted to be safely SPD."""
    rng = _stream(seed, index, _TAG_A2N)
    x_row = rng.uniform(0.0, 1.0, size=g)
    s_row = rng.uniform(0.0, 1.0, size=g)
    return _a2n_lattice(x_row, s_row)


def estimate_I(g: int, y: float, r2: float, samples: int, seed: int) -> MeanValueEstimate:
    """Monte Carlo mean of the short-vector count over the K-family cube.

    Samples run as stacks of at most ESTIMATE_CHUNK: the wedges by
    ``vcube_wedges``, as ``sample_vcube`` draws them, X by
    ``k_symmetric_stack``, the bases by ``k_family_bases``, the counts by
    ``short_counts``.  Each sample's count is the one
    ``enumerate_short(k_family_lattice(...))`` gives, for any chunk size:
    a chunk whose trees a box bound proves small, as at (g, y, r2) = (2,
    8, 0.25), is counted on the P_Z bases as given, with no LLL, any
    other reduced, and ``short_counts`` says why the paths count alike.
    A check that any sample of a chunk fails raises for the whole
    estimate, Singular with the height named as ``k_family_lattice``
    names it.
    """
    if samples < 1:
        raise OutOfRange("need at least one sample")
    if not 0 < y < math.inf:
        raise OutOfRange("height parameter y must be positive and finite")
    if not 0 < r2 < math.inf:
        raise OutOfRange("squared radius must be positive and finite")

    counts = np.zeros(samples, dtype=np.float64)
    for lo in range(0, samples, ESTIMATE_CHUNK):
        hi = min(lo + ESTIMATE_CHUNK, samples)
        x = k_symmetric_stack(g, vcube_wedges(g, seed, lo, hi))
        with _height_reach(y):
            counts[lo:hi] = short_counts(k_family_bases(x, y), r2)
    mean = float(np.mean(counts))
    stderr = float(np.std(counts, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return MeanValueEstimate(g=g, y=float(y), r2=float(r2), samples=samples,
                             mean=mean, stderr=stderr, seed=seed)


def limit_sweep(g: int, r2: float, y_list, samples: int, seed: int) -> list[MeanValueEstimate]:
    """One estimate per y, for increasing y.

    The same seed (hence the same X samples) is reused across heights, so
    the trend toward the ball-volume limit is not drowned by independent
    noise.  The mean is classically described as decreasing in y, but at
    small y and small radius it can also approach the limit from below;
    the sweep reports the measured trend and asserts nothing about
    monotonicity.
    """
    ys = [float(y) for y in y_list]
    if not ys:
        raise OutOfRange("need at least one height y")
    if any(b <= a for a, b in zip(ys, ys[1:])):
        raise OutOfRange("y values must be strictly increasing")
    return [estimate_I(g, y, r2, samples, seed) for y in ys]


_FAMILY_SAMPLERS = {"k": sample_k_family, "a2n": sample_a2n_family}


def _family_divisor(family: str, g: int) -> int:
    if family == "k":
        return 4
    if family == "a2n":
        return 2 * g
    raise OutOfRange(f"unknown family {family!r}; expected 'k' or 'a2n'")


def multiplicity_check(g: int, family: str, samples: int,
                       radius_factor: float = 2.0, seed: int = 0) -> MultiplicityReport:
    """Divisibility of per-length vector counts on sampled family lattices.

    Enumerates each sampled lattice to radius_factor (at least 1) times
    its squared systole and checks every histogram bucket against the
    family divisor (4 for the K family, 2g for the XOR family).  For the
    K family a violation would be a bug; for the XOR family the pass rate
    is the point of the report.
    """
    divisor = _family_divisor(family, g)
    sampler = _FAMILY_SAMPLERS[family]
    if samples < 1:
        raise OutOfRange("need at least one sample")
    if not 1 <= radius_factor < math.inf:
        raise OutOfRange("radius factor must be finite and at least 1")
    total = 0
    divisible = 0
    violations = []
    for i in range(samples):
        lat = sampler(g, seed, i)
        s2, _ = systole(lat)
        rep = enumerate_short(lat, radius_factor * s2)
        for length in sorted(rep.histogram):
            count = rep.histogram[length]
            total += 1
            if count % divisor == 0:
                divisible += 1
            elif len(violations) < 16:
                violations.append({"sample": i, "sq_length": length, "count": count})
    return MultiplicityReport(
        family=family, g=g, divisor=divisor, samples=samples, seed=seed,
        radius_factor=float(radius_factor), buckets_total=total,
        buckets_divisible=divisible,
        pass_rate=divisible / total if total else 1.0,
        all_divisible=divisible == total,
        violations=violations,
    )


# -- witness search -----------------------------------------------------------

_BLOCK = 500          # evaluations per random restart
_SIGMA0 = 0.05        # initial perturbation scale
_STALL_HALVE = 200    # non-improving steps before halving sigma


def _k_params(g: int, vec) -> KSymParams:
    return KSymParams(g=g, values=dict(zip(ksym_region(g), (float(v) for v in vec))))


def _search_family(g: int, family: str):
    """Part sizes, whether y is searched, and the lattice and params object of a point."""
    if family == "k":
        return ([len(ksym_region(g))], True,
                lambda parts, y: k_family_lattice(_k_params(g, parts[0]), y),
                lambda parts: ksym_params_to_obj(_k_params(g, parts[0])))
    if family == "a2n":
        return ([g, g], False, lambda parts, y: _a2n_lattice(*parts),
                lambda parts: {"x_row": [float(v) for v in parts[0]],
                               "sqrt_y_row": [float(v) for v in parts[1]]})
    raise OutOfRange(f"unknown family {family!r}; expected 'k' or 'a2n'")


def witness_search(g: int, family: str, target_r2: float | None, budget: int,
                   seed: int) -> SearchResult:
    """Best squared systole found by random restarts plus (1+1) hill climbing.

    A point is (parts, y): unit-cube vectors (the K family's parameter
    region; the XOR family's X row, then its sqrt(Y) row) and the K
    family's height y, None for the XOR family.  One loop spends the
    budget of systole evaluations: every _BLOCK evaluations it draws a
    fresh point; in between it takes a clipped Gaussian step from the
    current point, y by a log-normal factor, keeps it only when it
    improves, and halves the step scale after _STALL_HALVE non-improving
    steps.  Best-so-far never decreases in the budget, a fixed seed
    replays the identical trajectory, and a set ``target_r2`` stops the
    search once it is reached.  A target must be positive and finite: a
    NaN is never reached and one at or below 0 is met by any point.
    """
    if budget < 1:
        raise OutOfRange("budget must be at least 1")
    if target_r2 is not None and not 0 < target_r2 < math.inf:
        raise OutOfRange("target squared systole must be positive and finite")
    sizes, has_y, lattice_of, params_of = _search_family(g, family)

    rng = _stream(seed, _TAG_SEARCH)
    best_s2 = -math.inf
    evals = 0
    while evals < budget:
        restart = evals % _BLOCK == 0
        if restart:
            sigma = _SIGMA0
            point = ([rng.uniform(0.0, 1.0, size=n) for n in sizes],
                     float(rng.uniform(0.5, 2.0)) if has_y else None)
        else:
            parts, y = current
            point = ([np.clip(p + rng.normal(0.0, sigma, size=p.size), 0.0, 1.0) for p in parts],
                     y * math.exp(rng.normal(0.0, sigma)) if has_y else None)
        s2 = systole(lattice_of(*point))[0]
        evals += 1
        if restart or s2 > current_s2:
            current, current_s2 = point, s2
            stall = 0
        else:
            stall += 1
            if stall >= _STALL_HALVE:
                sigma *= 0.5
                stall = 0
        if s2 > best_s2:
            best, best_s2 = point, s2
        if target_r2 is not None and best_s2 >= target_r2:
            break

    return SearchResult(family=family, g=g, params=params_of(best[0]), y=best[1],
                        systole2=float(best_s2), evaluations=evals, seed=seed)
