"""Golden ``--stable-output`` files: the command list and its regeneration.

Each command runs through ``symplat.cli.main`` with this directory as the
working directory, so the input paths in the records are relative.  Its
golden file ``out/<name>.txt`` holds the line ``exit <code>`` and then the
exact stdout.  ``tests/test_golden.py`` reruns every command and compares
bytes.

Run ``PYTHONPATH=src python tests/golden/regenerate.py`` from the repository
root after a change that is meant to alter output, and name each changed
file in CHANGES.md.  Input files under ``inputs/`` are written only when
missing, so a regeneration rewrites outputs alone; delete an input to
rebuild it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

_CIRC = ["--basis-file", "inputs/circulant5.json"]
_XOR = ["--basis-file", "inputs/xor8.json"]
_BW16 = ["--basis-file", "inputs/bw16.json"]
_SING = ["--basis-file", "inputs/singular2.json"]

#: (name, argv without --stable-output).  The first eleven are README's CLI lines.
COMMANDS = [
    ("bounds-g2", ["bounds", "--g", "2"]),
    ("systole-id4", ["systole", "--basis-file", "inputs/id4.json"]),
    ("enumerate-r2-2", ["enumerate", "--basis-file", "inputs/basis.json", "--r2", "2.0"]),
    ("eig-sym", ["eig", "--basis-file", "inputs/sym.json"]),
    ("symmetries-circulant-cyclic", ["symmetries", *_CIRC, "--candidates", "cyclic"]),
    ("family-check-a2n-verify", ["family-check", "--family", "a2n",
                                 "--siegel-file", "inputs/a2n_point.json", "--verify"]),
    ("bw-n2", ["bw", "--n", "2"]),
    ("meanvalue-g2-y8", ["meanvalue", "--g", "2", "--y", "8", "--r2", "0.25",
                         "--samples", "10000", "--seed", "1"]),
    ("sweep-csv", ["sweep", "--g", "2", "--r2", "0.25", "--ys", "2,4,8,16",
                   "--samples", "2000", "--seed", "1", "--output", "csv"]),
    ("multiplicity-k-g2", ["multiplicity", "--family", "k", "--g", "2",
                           "--samples", "100", "--seed", "1"]),
    ("search-k-g2", ["search", "--family", "k", "--g", "2", "--budget", "2000", "--seed", "1"]),

    ("enumerate-r2-4.25", ["enumerate", "--basis-file", "inputs/basis.json", "--r2", "4.25"]),
    ("systole-bw16-scrambled", ["systole", "--basis-file", "inputs/bw16_scrambled.json"]),
    ("bw-n1", ["bw", "--n", "1"]),
    ("bw-n1-verify", ["bw", "--n", "1", "--verify"]),
    ("bw-n2-verify", ["bw", "--n", "2", "--verify"]),
    ("bw-n3", ["bw", "--n", "3"]),
    ("bw-n3-verify", ["bw", "--n", "3", "--verify"]),
    ("symmetries-1x1-cyclic", ["symmetries", "--basis-file", "inputs/one1.json",
                               "--candidates", "cyclic"]),
    ("symmetries-xor-cyclic", ["symmetries", *_XOR, "--candidates", "cyclic"]),
    ("symmetries-bw16-cyclic", ["symmetries", *_BW16, "--candidates", "cyclic"]),
    ("symmetries-singular-cyclic", ["symmetries", *_SING, "--candidates", "cyclic"]),
    ("symmetries-circulant-jgroup", ["symmetries", *_CIRC, "--candidates", "jgroup"]),
    ("symmetries-xor-jgroup", ["symmetries", *_XOR, "--candidates", "jgroup"]),
    ("symmetries-bw16-jgroup", ["symmetries", *_BW16, "--candidates", "jgroup"]),
    ("symmetries-singular-jgroup", ["symmetries", *_SING, "--candidates", "jgroup"]),
    ("family-check-k", ["family-check", "--family", "k", "--siegel-file", "inputs/k_point.json"]),
    ("family-check-k-verify", ["family-check", "--family", "k",
                               "--siegel-file", "inputs/k_point.json", "--verify"]),
    ("family-check-a2n", ["family-check", "--family", "a2n",
                          "--siegel-file", "inputs/a2n_point.json"]),
    ("multiplicity-a2n-g4", ["multiplicity", "--family", "a2n", "--g", "4",
                             "--samples", "20", "--seed", "1"]),
    ("search-a2n-g4", ["search", "--family", "a2n", "--g", "4", "--budget", "100", "--seed", "1"]),
    ("meanvalue-g4-y8", ["meanvalue", "--g", "4", "--y", "8", "--r2", "1.0",
                         "--samples", "300", "--seed", "2"]),
    ("sweep-json", ["sweep", "--g", "2", "--r2", "0.5", "--ys", "1,3",
                    "--samples", "200", "--seed", "4"]),

    ("error-meanvalue-y-1e200", ["meanvalue", "--g", "2", "--y", "1e200", "--r2", "0.25",
                                 "--samples", "3"]),
    ("error-meanvalue-y-inf", ["meanvalue", "--g", "2", "--y", "inf", "--r2", "0.25",
                               "--samples", "10"]),
    ("error-meanvalue-y-1e-200", ["meanvalue", "--g", "2", "--y", "1e-200", "--r2", "0.25",
                                  "--samples", "10"]),
    ("error-meanvalue-y-1e8", ["meanvalue", "--g", "2", "--y", "1e8", "--r2", "0.25",
                               "--samples", "10", "--seed", "1"]),
    ("error-meanvalue-r2-inf", ["meanvalue", "--g", "2", "--y", "8", "--r2", "inf",
                                "--samples", "3"]),
    ("error-search-target-nan", ["search", "--family", "k", "--g", "2", "--budget", "20",
                                 "--target-r2", "nan"]),
    ("error-sweep-ys-empty", ["sweep", "--g", "2", "--r2", "0.25", "--ys", ",",
                              "--samples", "10"]),
    ("error-bounds-odd-g", ["bounds", "--g", "3"]),
    ("error-eig-nonsymmetric", ["eig", "--basis-file", "inputs/nonsymmetric.json"]),
    ("error-family-check-k-nonfamily", ["family-check", "--family", "k",
                                        "--siegel-file", "inputs/generic_point.json"]),
    ("error-family-check-a2n-nonfamily", ["family-check", "--family", "a2n",
                                          "--siegel-file", "inputs/generic_point.json"]),
]


def run(argv) -> str:
    """``exit <code>`` and the stdout of ``symplat <argv> --stable-output``, run in this directory."""
    from symplat.cli import main

    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(out):
            code = main([*argv, "--stable-output"])
    finally:
        os.chdir(cwd)
    return f"exit {code}\n{out.getvalue()}"


def _siegel_obj(z) -> dict:
    from symplat.linalg import mat_to_obj

    return {"g": z.g, "x": mat_to_obj(z.x), "y": mat_to_obj(z.y)}


def _inputs() -> dict:
    """File name -> JSON object of every input the commands read."""
    from symplat import a2n_family_point, a2n_from_row, bw_lattice, circulant_from_row
    from symplat import k_family_point, sample_vcube, siegel_point
    from symplat.linalg import mat_to_obj

    bw = bw_lattice(3).basis
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((1, 0, 1))))
    low = np.eye(16, dtype=np.int64) + np.tril(rng.integers(-1, 2, size=(16, 16)), -1)
    up = np.eye(16, dtype=np.int64) + np.triu(rng.integers(-1, 2, size=(16, 16)), 1)
    generic = siegel_point([[0.3, 0.7], [0.7, 0.1]], [[2.0, 0.5], [0.5, 1.0]])
    return {
        "id4.json": mat_to_obj(np.eye(4)),
        "basis.json": mat_to_obj([[1.0, 0.3, -0.2, 0.1], [0.2, 1.1, 0.4, -0.3],
                                  [-0.1, 0.0, 0.9, 0.25], [0.3, -0.2, 0.1, 1.05]]),
        "sym.json": mat_to_obj([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]]),
        "nonsymmetric.json": mat_to_obj([[1.0, 2.0], [0.0, 1.0]]),
        "circulant5.json": mat_to_obj(circulant_from_row([3.0, 1.0, 0.5, 0.25, 0.125])),
        "xor8.json": mat_to_obj(a2n_from_row([4.0, 1.0, 0.5, 0.25, 0.2, 0.1, 0.05, 0.3])),
        "bw16.json": mat_to_obj(bw),
        "bw16_scrambled.json": mat_to_obj(bw @ (low @ up)),
        "singular2.json": mat_to_obj([[1.0, 2.0], [2.0, 4.0]]),
        "one1.json": mat_to_obj([[2.0]]),
        "k_point.json": _siegel_obj(k_family_point(sample_vcube(2, 5, 0), 1.2)),
        "a2n_point.json": _siegel_obj(a2n_family_point([0.3, 0.1, 0.7, 0.2],
                                                       [2.0, 0.3, 0.2, 0.1])),
        "generic_point.json": _siegel_obj(generic),
    }


def main() -> None:
    inputs = HERE / "inputs"
    inputs.mkdir(exist_ok=True)
    for name, obj in _inputs().items():
        path = inputs / name
        if not path.exists():
            path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    for stale in set(out.glob("*.txt")) - {out / f"{name}.txt" for name, _ in COMMANDS}:
        stale.unlink()
    for name, argv in COMMANDS:
        (out / f"{name}.txt").write_text(run(argv), encoding="utf-8")


if __name__ == "__main__":
    main()
