"""Command-line front end; every run emits a self-describing JSON payload.

The payload embeds the fully resolved configuration next to the result,
so an artifact alone identifies the run that produced it.  Identical
(command, flags, seed) produce byte-identical output under
``--stable-output``, which drops the wall-clock metadata block.

Exit codes: 0 success, 2 validation error (bad input files, values out
of range), 3 numerical failure (Singular, RadiusTooLarge, NotSPD, ...),
both with a structured error record on stdout.  A flag the command does
not take exits 2 with argparse's usage message: each command registers
only the options it reads.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .barneswall import bw_lattice, bw_prime, pattern_to_obj, symmetry_pattern
from .errors import (
    NUMERICAL_ERRORS,
    VALIDATION_ERRORS,
    NotInvariant,
    NotPowerOfTwo,
    OutOfRange,
    ParseError,
    SchemaError,
)
from .groups import bit_flips, cyclic_shift, k_matrix
from .lattice import DEFAULT_NODE_BUDGET, enumerate_short, from_basis, lattice_det, report_to_obj, systole
from .linalg import mat_from_obj, mat_to_obj, sym_eig
from .meanvalue import (
    ball_volume_limit,
    bounds,
    estimate_I,
    limit_sweep,
    multiplicity_check,
    witness_search,
)
from .patterned import agrees, is_in_a2n
from .symmetry import count_symmetries, witness_to_obj
from .symplectic import SiegelPoint, is_symplectic, p_z, siegel_point, verify_kprime, verify_a2n_symmetries


def load_basis(path: str) -> np.ndarray:
    """Read a matrix file ({"dim": d, "rows": [[...], ...]})."""
    return mat_from_obj(_load_json(path), what=path)


def load_siegel(path: str) -> SiegelPoint:
    """Read a Siegel point file ({"g": g, "x": Mat, "y": Mat})."""
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    for field in ("g", "x", "y"):
        if field not in obj:
            raise SchemaError(f"{path}: missing required field {field!r}")
    x = mat_from_obj(obj["x"], what=f"{path}:x")
    y = mat_from_obj(obj["y"], what=f"{path}:y")
    if type(obj["g"]) is not int or obj["g"] != x.shape[0]:
        raise SchemaError(f"{path}:g must equal the matrix dimension {x.shape[0]}")
    return siegel_point(x, y)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="symplat",
        description="Symmetric/symplectic lattice constructions, exact short-vector "
                    "enumeration, and mean-value experiments.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, seeded=False):
        sp.add_argument("--stable-output", action="store_true",
                        help="omit the timestamp metadata block")
        if seeded:
            sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("bounds", help="closed-form lower-bound values")
    sp.add_argument("--g", type=int, required=True)
    add_common(sp)

    sp = sub.add_parser("systole", help="shortest-vector length and count")
    sp.add_argument("--basis-file", required=True)
    sp.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    add_common(sp)

    sp = sub.add_parser("enumerate", help="all vectors below a squared radius")
    sp.add_argument("--basis-file", required=True)
    sp.add_argument("--r2", type=float, required=True)
    sp.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    add_common(sp)

    sp = sub.add_parser("eig", help="Jacobi eigendecomposition of a symmetric matrix")
    sp.add_argument("--basis-file", required=True)
    add_common(sp)

    sp = sub.add_parser("symmetries", help="count witnessed symmetries of a basis")
    sp.add_argument("--basis-file", required=True)
    sp.add_argument("--candidates", choices=("cyclic", "jgroup"), required=True)
    add_common(sp)

    sp = sub.add_parser("family-check", help="verify the symmetries of a family point")
    sp.add_argument("--family", choices=("k", "a2n"), required=True)
    sp.add_argument("--siegel-file", required=True)
    sp.add_argument("--verify", action="store_true",
                    help="re-run all applicable invariant checks, failing loudly")
    add_common(sp)

    sp = sub.add_parser("bw", help="Barnes-Wall lattice report")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--long", action="store_true",
                    help="allow the expensive n >= 4 cases")
    sp.add_argument("--verify", action="store_true")
    sp.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    add_common(sp)

    sp = sub.add_parser("meanvalue", help="Monte Carlo short-vector mean")
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--y", type=float, required=True)
    sp.add_argument("--r2", type=float, required=True)
    sp.add_argument("--samples", type=int, required=True)
    add_common(sp, seeded=True)

    sp = sub.add_parser("sweep", help="mean estimates along increasing y")
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--r2", type=float, required=True)
    sp.add_argument("--ys", required=True, help="comma-separated increasing y values")
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--output", choices=("json", "csv"), default="json")
    add_common(sp, seeded=True)

    sp = sub.add_parser("multiplicity", help="per-length divisibility report")
    sp.add_argument("--family", choices=("k", "a2n"), required=True)
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--radius-factor", type=float, default=2.0)
    add_common(sp, seeded=True)

    sp = sub.add_parser("search", help="hill-climb for large-systole family points")
    sp.add_argument("--family", choices=("k", "a2n"), required=True)
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--budget", type=int, required=True)
    sp.add_argument("--target-r2", type=float, default=None)
    add_common(sp, seeded=True)

    return p


def _config_of(args: argparse.Namespace) -> dict:
    return {k.replace("_", "-"): v for k, v in vars(args).items() if k != "command"}


def _cmd_bounds(args):
    return asdict(bounds(args.g))


def _cmd_systole(args):
    lat = from_basis(load_basis(args.basis_file))
    s2, count = systole(lat, args.node_budget)
    return {"systole2": s2, "count": count}


def _cmd_enumerate(args):
    lat = from_basis(load_basis(args.basis_file))
    return report_to_obj(enumerate_short(lat, args.r2, args.node_budget))


def _cmd_eig(args):
    q, d = sym_eig(load_basis(args.basis_file))
    return {"eigenvalues": [float(v) for v in d], "q": mat_to_obj(q)}


def _cmd_symmetries(args):
    basis = load_basis(args.basis_file)
    dim = basis.shape[0]
    if args.candidates == "cyclic":
        c = cyclic_shift(dim).astype(np.float64)
        cands = []
        power = np.eye(dim)
        for _ in range(dim - 1):
            power = power @ c
            cands.append(power)
    else:
        if dim & (dim - 1) != 0 or dim < 2:
            raise NotPowerOfTwo("jgroup candidates need a power-of-two dimension")
        cands = bit_flips(dim.bit_length() - 1)
    count, witnesses = count_symmetries(from_basis(basis), cands)
    return {"count": count, "witnesses": [witness_to_obj(w) for w in witnesses]}


#: ``family-check --verify`` refuses |det P_Z - 1| above this.
DET_TOL = 1e-9


def _cmd_family_check(args):
    z = load_siegel(args.siegel_file)
    if args.family == "k":
        witnesses = [verify_kprime(z)]
    else:
        witnesses = verify_a2n_symmetries(z)
    result = {
        "family": args.family,
        "g": z.g,
        "count": len(witnesses),
        "witnesses": [witness_to_obj(w) for w in witnesses],
    }
    if args.verify:
        basis = p_z(z)
        checks = {
            "symplectic": is_symplectic(basis),
            "det": float(np.linalg.det(basis)),
        }
        if args.family == "k":
            k = k_matrix(z.g).astype(np.float64)
            checks["x_fixed_by_k"] = agrees(k @ z.x @ k, z.x)
            checks["y_scalar"] = agrees(float(z.y[0, 0]) * np.eye(z.g), z.y)
        else:
            checks["x_patterned"] = is_in_a2n(z.x)
            checks["y_patterned"] = is_in_a2n(z.y)
        failed = [k for k, v in checks.items()
                  if v is False or (k == "det" and abs(v - 1.0) > DET_TOL)]
        if failed:
            raise NotInvariant(f"verification failed: {failed}")
        result["checks"] = checks
    return result


def _cmd_bw(args):
    if args.n < 1:
        raise OutOfRange("need n >= 1")
    if args.n >= 4 and not args.long:
        raise OutOfRange("n >= 4 is expensive; pass --long to run it")
    lat = bw_lattice(args.n)
    g = lat.dim
    s2, count = systole(lat, args.node_budget)
    pattern = symmetry_pattern(bw_prime(args.n))
    result = {
        "n": args.n,
        "g": g,
        "det": lattice_det(lat),
        "systole2": s2,
        "kissing": count,
        "pattern": pattern_to_obj(pattern),
        "basis": mat_to_obj(lat.basis),
    }
    if args.verify:
        expected = (g / 2.0) ** 0.5
        col_norms = np.sum(np.asarray(lat.basis) ** 2, axis=0)
        ok = abs(s2 - expected) <= 1e-6 * expected
        cols_minimal = bool(np.max(np.abs(col_norms - s2)) <= 1e-9 * s2)
        if not (ok and cols_minimal):
            raise NotInvariant(
                f"minimal-norm verification failed: systole2={s2}, expected={expected}"
            )
        result["checks"] = {"systole2_matches_sqrt_g_half": ok,
                            "basis_columns_minimal": cols_minimal}
    return result


def _cmd_meanvalue(args):
    est = estimate_I(args.g, args.y, args.r2, args.samples, args.seed)
    return {**asdict(est), "analytic_limit": ball_volume_limit(args.g, args.r2 ** 0.5)}


def _parse_ys(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise SchemaError(f"--ys: expected comma-separated numbers, got {text!r}") from exc


def _cmd_sweep(args):
    ys = _parse_ys(args.ys)
    ests = limit_sweep(args.g, args.r2, ys, args.samples, args.seed)
    limit = ball_volume_limit(args.g, args.r2 ** 0.5)
    return {
        "g": args.g, "r2": args.r2, "samples": args.samples, "seed": args.seed,
        "analytic_limit": limit,
        "estimates": [
            {"y": e.y, "mean": e.mean, "stderr": e.stderr} for e in ests
        ],
    }


def _sweep_csv(result: dict) -> str:
    lines = ["y,mean,stderr,analytic_limit"]
    for e in result["estimates"]:
        lines.append(f"{e['y']!r},{e['mean']!r},{e['stderr']!r},{result['analytic_limit']!r}")
    return "\n".join(lines) + "\n"


def _cmd_multiplicity(args):
    return asdict(multiplicity_check(args.g, args.family, args.samples,
                                     args.radius_factor, args.seed))


def _cmd_search(args):
    return asdict(witness_search(args.g, args.family, args.target_r2, args.budget, args.seed))


_DISPATCH = {
    "bounds": _cmd_bounds,
    "systole": _cmd_systole,
    "enumerate": _cmd_enumerate,
    "eig": _cmd_eig,
    "symmetries": _cmd_symmetries,
    "family-check": _cmd_family_check,
    "bw": _cmd_bw,
    "meanvalue": _cmd_meanvalue,
    "sweep": _cmd_sweep,
    "multiplicity": _cmd_multiplicity,
    "search": _cmd_search,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        result = _DISPATCH[args.command](args)
    except VALIDATION_ERRORS as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 2
    except ValueError as exc:
        print(json.dumps({"error": {"type": "ValueError", "message": str(exc)}}))
        return 2
    except NUMERICAL_ERRORS as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 3

    if args.command == "sweep" and args.output == "csv":
        sys.stdout.write(_sweep_csv(result))
        return 0

    payload = {
        "command": args.command,
        "config": _config_of(args),
        "result": result,
    }
    if not args.stable_output:
        payload["meta"] = {"timestamp": time.time(), "version": __version__}
    print(json.dumps(payload, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
