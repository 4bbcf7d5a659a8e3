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
counter-based stream keyed (s, i), and the estimator visits samples in
order, so a fixed seed gives the same output bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OddDimension, OutOfRange
from .lattice import DEFAULT_NODE_BUDGET, enumerate_short, from_basis, systole
from .patterned import KSymParams, a2n_eigenvalues, ksym_region
from .symplectic import _stream, a2n_family_point, k_family_point, p_z, sample_vcube

_PI = math.pi

# stream tags keep the different draw kinds of one (seed, index) apart
_TAG_Y = 1
_TAG_A2N = 2
_TAG_SEARCH = 3


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


def _count_short(lat, r2: float, node_budget: int) -> int:
    return enumerate_short(lat, r2, node_budget).count


def k_family_lattice(p: KSymParams, y: float):
    """Determinant-one lattice of the K-family Siegel point (X from p, height y)."""
    return from_basis(p_z(k_family_point(p, y)))


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


def estimate_I(g: int, y: float, r2: float, samples: int, seed: int, *,
               node_budget: int = DEFAULT_NODE_BUDGET) -> MeanValueEstimate:
    """Monte Carlo mean of the short-vector count over the K-family cube."""
    if samples < 1:
        raise OutOfRange("need at least one sample")
    if not y > 0:
        raise OutOfRange("height parameter y must be positive")
    if not r2 > 0:
        raise OutOfRange("squared radius must be positive")

    counts = np.zeros(samples, dtype=np.float64)
    for i in range(samples):
        params = sample_vcube(g, seed, i)
        counts[i] = _count_short(k_family_lattice(params, y), r2, node_budget)
    mean = float(np.mean(counts))
    stderr = float(np.std(counts, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return MeanValueEstimate(g=g, y=float(y), r2=float(r2), samples=samples,
                             mean=mean, stderr=stderr, seed=seed)


def limit_sweep(g: int, r2: float, y_list, samples: int, seed: int, *,
                node_budget: int = DEFAULT_NODE_BUDGET) -> list[MeanValueEstimate]:
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
    return [estimate_I(g, y, r2, samples, seed, node_budget=node_budget) for y in ys]


_FAMILY_SAMPLERS = {"k": sample_k_family, "a2n": sample_a2n_family}


def _family_divisor(family: str, g: int) -> int:
    if family == "k":
        return 4
    if family == "a2n":
        return 2 * g
    raise OutOfRange(f"unknown family {family!r}; expected 'k' or 'a2n'")


def multiplicity_check(g: int, family: str, samples: int,
                       radius_factor: float = 2.0, seed: int = 0,
                       node_budget: int = DEFAULT_NODE_BUDGET) -> MultiplicityReport:
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
        s2, _ = systole(lat, node_budget)
        rep = enumerate_short(lat, radius_factor * s2, node_budget)
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


def _k_point_eval(g: int, point, node_budget: int) -> float:
    vec, y = point
    params = KSymParams(g=g, values=dict(zip(ksym_region(g), (float(v) for v in vec))))
    return systole(k_family_lattice(params, y), node_budget)[0]


def _a2n_point_random(g: int, rng):
    return rng.uniform(0.0, 1.0, size=g), rng.uniform(0.0, 1.0, size=g)


def _a2n_point_perturb(point, sigma: float, rng):
    x_row, s_row = point
    return (
        np.clip(x_row + rng.normal(0.0, sigma, size=x_row.size), 0.0, 1.0),
        np.clip(s_row + rng.normal(0.0, sigma, size=s_row.size), 0.0, 1.0),
    )


def _a2n_point_eval(g: int, point, node_budget: int) -> float:
    return systole(_a2n_lattice(*point), node_budget)[0]


def witness_search(g: int, family: str, target_r2: float | None, budget: int,
                   seed: int,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> SearchResult:
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
        current_s2 = evaluate(g, current, node_budget)
        evals += 1
        sigma = _SIGMA0
        stall = 0
        if current_s2 > best_s2:
            best_point, best_s2 = current, current_s2
        while evals < budget and evals % _BLOCK != 0:
            if target_r2 is not None and best_s2 >= target_r2:
                break
            cand = perturb(current, sigma, rng)
            cand_s2 = evaluate(g, cand, node_budget)
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
        params = {
            "g": g,
            "values": [
                {"i": i, "j": j, "value": float(v)}
                for (i, j), v in zip(ksym_region(g), vec)
            ],
        }
        return SearchResult(family=family, g=g, params=params, y=float(y),
                            systole2=float(best_s2), evaluations=evals, seed=seed)
    x_row, s_row = best_point
    params = {"x_row": [float(v) for v in x_row],
              "sqrt_y_row": [float(v) for v in s_row]}
    return SearchResult(family=family, g=g, params=params, y=None,
                        systole2=float(best_s2), evaluations=evals, seed=seed)
