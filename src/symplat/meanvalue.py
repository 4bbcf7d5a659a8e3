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
them with ``lattice.short_counts``, which takes the steps and
checks of the one-lattice path, so each sample's count is bit for bit
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
    """Volume pi^g r^(2g) / g! of the radius-r ball in dimension 2g."""
    if g < 1:
        raise OutOfRange("need g >= 1")
    if not r > 0:
        raise OutOfRange("radius must be positive")
    if g <= 20:
        return _PI ** g * r ** (2 * g) / float(math.factorial(g))
    return math.exp(g * math.log(_PI) + 2 * g * math.log(r) - math.lgamma(g + 1))


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
    singular value of the det-one basis can fall below the rank floor.
    """
    basis = k_family_bases(k_symmetric_from_params(p), y)
    with _height_reach(y):
        return from_basis(basis)


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
    ``enumerate_short(k_family_lattice(...))`` gives, for any chunk size;
    a check that any sample of a chunk fails raises for the whole
    estimate, Singular with the height named as ``k_family_lattice``
    names it.
    """
    if samples < 1:
        raise OutOfRange("need at least one sample")
    if not y > 0:
        raise OutOfRange("height parameter y must be positive")
    if not 0 < r2 < math.inf:
        raise OutOfRange("squared radius must be positive and finite")

    counts = np.zeros(samples, dtype=np.float64)
    for lo in range(0, samples, ESTIMATE_CHUNK):
        hi = min(lo + ESTIMATE_CHUNK, samples)
        bases = k_family_bases(k_symmetric_stack(g, vcube_wedges(g, seed, lo, hi)), y)
        with _height_reach(y):
            counts[lo:hi] = short_counts(bases, r2)
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

    Enumerates each sampled lattice to radius_factor times its squared
    systole and checks every histogram bucket against the family divisor
    (4 for the K family, 2g for the XOR family).  For the K family a
    violation would be a bug; for the XOR family the pass rate is the
    point of the report.
    """
    divisor = _family_divisor(family, g)
    sampler = _FAMILY_SAMPLERS[family]
    if samples < 1:
        raise OutOfRange("need at least one sample")
    if not radius_factor > 0:
        raise OutOfRange("radius factor must be positive")
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


def _k_point_random(g: int, rng) -> tuple[np.ndarray, float]:
    return rng.uniform(0.0, 1.0, size=len(ksym_region(g))), float(rng.uniform(0.5, 2.0))


def _k_point_perturb(point, sigma: float, rng):
    vec, y = point
    vec2 = np.clip(vec + rng.normal(0.0, sigma, size=vec.size), 0.0, 1.0)
    y2 = y * math.exp(rng.normal(0.0, sigma))
    return vec2, y2


def _k_params(g: int, vec) -> KSymParams:
    return KSymParams(g=g, values=dict(zip(ksym_region(g), (float(v) for v in vec))))


def _k_point_eval(g: int, point) -> float:
    vec, y = point
    return systole(k_family_lattice(_k_params(g, vec), y))[0]


def _a2n_point_random(g: int, rng):
    return rng.uniform(0.0, 1.0, size=g), rng.uniform(0.0, 1.0, size=g)


def _a2n_point_perturb(point, sigma: float, rng):
    x_row, s_row = point
    return (
        np.clip(x_row + rng.normal(0.0, sigma, size=x_row.size), 0.0, 1.0),
        np.clip(s_row + rng.normal(0.0, sigma, size=s_row.size), 0.0, 1.0),
    )


def _a2n_point_eval(g: int, point) -> float:
    return systole(_a2n_lattice(*point))[0]


def witness_search(g: int, family: str, target_r2: float | None, budget: int,
                   seed: int) -> SearchResult:
    """Best squared systole found by random restarts plus (1+1) hill climbing.

    The budget counts systole evaluations; every _BLOCK evaluations start
    a fresh random point, in between keep a Gaussian-perturbed candidate
    only when it improves, halving the step scale after _STALL_HALVE
    non-improving steps.  Best-so-far never decreases in the budget, and
    a fixed seed replays the identical trajectory.  When ``target_r2`` is
    set the search stops early once it is reached.
    """
    if budget < 1:
        raise OutOfRange("budget must be at least 1")
    if family == "k":
        rand, perturb, evaluate = _k_point_random, _k_point_perturb, _k_point_eval
    elif family == "a2n":
        rand, perturb, evaluate = _a2n_point_random, _a2n_point_perturb, _a2n_point_eval
    else:
        raise OutOfRange(f"unknown family {family!r}; expected 'k' or 'a2n'")

    rng = _stream(seed, _TAG_SEARCH)
    best_point = None
    best_s2 = -math.inf
    evals = 0
    while evals < budget:
        current = rand(g, rng)
        current_s2 = evaluate(g, current)
        evals += 1
        sigma = _SIGMA0
        stall = 0
        if current_s2 > best_s2:
            best_point, best_s2 = current, current_s2
        while evals < budget and evals % _BLOCK != 0:
            if target_r2 is not None and best_s2 >= target_r2:
                break
            cand = perturb(current, sigma, rng)
            cand_s2 = evaluate(g, cand)
            evals += 1
            if cand_s2 > current_s2:
                current, current_s2 = cand, cand_s2
                stall = 0
                if current_s2 > best_s2:
                    best_point, best_s2 = current, current_s2
            else:
                stall += 1
                if stall >= _STALL_HALVE:
                    sigma *= 0.5
                    stall = 0
        if target_r2 is not None and best_s2 >= target_r2:
            break

    if family == "k":
        vec, y = best_point
        return SearchResult(family=family, g=g, params=ksym_params_to_obj(_k_params(g, vec)),
                            y=float(y), systole2=float(best_s2), evaluations=evals, seed=seed)
    x_row, s_row = best_point
    params = {"x_row": [float(v) for v in x_row],
              "sqrt_y_row": [float(v) for v in s_row]}
    return SearchResult(family=family, g=g, params=params, y=None,
                        systole2=float(best_s2), evaluations=evals, seed=seed)
