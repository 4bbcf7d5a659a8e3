"""Traced mode: spans around the module attributes each layer is called through.

The wrappers are installed from here, over attributes of symplat's modules,
so no source under ``src/`` changes; ``Tracer.installed()`` puts every
original back on exit.  Each attribute is wrapped where its caller looks
it up: ``k_family_lattice`` calls ``meanvalue.p_z`` and
``symplectic.k_symmetric_from_params``, not the definitions in
``symplectic`` and ``patterned``.

A span is [name, start, end, parent span index, item id].  Spans stay in
memory until the run ends.  A layer's self time is the duration of its
spans minus the part covered by their direct children.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from workloads import histogram_shells
from symplat import _kernels, barneswall, groups, lattice, linalg, meanvalue, patterned, symmetry, symplectic

#: Span name -> the per-layer time metric its self time is added to.
LAYER_OF = {
    "_kernels.enumerate_core": "_kernels.enum_s",
    "_kernels.lll_core": "_kernels.lll_s",
    "_kernels.jacobi_core": "_kernels.jacobi_s",
    "lattice.enumerate_short": "lattice.self_s",
    "lattice.systole": "lattice.self_s",
    "lattice.lll_reduce": "lattice.self_s",
    "lattice.from_basis": "lattice.self_s",
    "linalg.sym_eig": "linalg.sym_eig_s",
    "linalg.det_int": "linalg.det_int_s",
    "symplectic.sample_vcube": "symplectic.sample_s",
    "symplectic.k_family_lattice": "symplectic.pz_s",
    "symplectic.p_z": "symplectic.pz_s",
    "symplectic.a2n_family_point": "symplectic.verify_s",
    "symplectic.verify_a2n_symmetries": "symplectic.verify_s",
    "patterned.k_symmetric_from_params": "patterned.self_s",
    "patterned.a2n_eigenvalues": "patterned.self_s",
    "groups.group_closure": "groups.closure_s",
    "symmetry.induced_change_of_basis": "symmetry.witness_s",
    "meanvalue.estimate_I": "meanvalue.self_s",
    "barneswall.bw_lattice": "barneswall.build_s",
    "bench.call": "bench.self_s",
}
TIME_METRICS = sorted(set(LAYER_OF.values()))

#: Item id of spans recorded while the inputs are built.
SETUP_ITEM = -1


class Tracer:
    """Span recorder and counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = 0
        self.counts: Counter = Counter()
        self.sample_counts: dict[int, int] = defaultdict(int)

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.item]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str, item: int):
        self.item = item
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, fn, name, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(out)
            return out
        return traced

    # -- counters, read from the wrapped calls' arguments and results ----------

    def _on_sample(self, args, kwargs):
        self.item = int(kwargs.get("sample_index", args[2] if len(args) > 2 else 0))

    def _on_enum(self, out):
        vectors = int(out[0].shape[0])
        self.counts["_kernels.enum_nodes"] += int(out[2])
        self.counts["lattice.vectors"] += vectors
        self.sample_counts[self.item] += vectors

    def _on_report(self, rep):
        self.counts["lattice.split_keys"] += len(rep.histogram) - len(histogram_shells(rep.histogram))

    def _count(self, key, amount=None):
        def after(out):
            self.counts[key] += 1 if amount is None else amount(out)
        return after

    def _targets(self):
        """(module, attribute, span name, before, after) for every wrapped attribute."""
        count = self._count
        return [
            (_kernels, "enumerate_core", "_kernels.enumerate_core", None, self._on_enum),
            (_kernels, "lll_core", "_kernels.lll_core", None, None),
            (_kernels, "jacobi_core", "_kernels.jacobi_core", None,
             count("_kernels.jacobi_sweeps", lambda out: int(out[0]))),
            (lattice, "lll_reduce", "lattice.lll_reduce", None, count("lattice.lll_calls")),
            (lattice, "enumerate_short", "lattice.enumerate_short", None, self._on_report),
            (lattice, "systole", "lattice.systole", None, None),
            (lattice, "from_basis", "lattice.from_basis", None, None),
            (lattice, "det_int", "linalg.det_int", None, count("linalg.det_int_calls")),
            (symmetry, "det_int", "linalg.det_int", None, count("linalg.det_int_calls")),
            (linalg, "sym_eig", "linalg.sym_eig", None, count("linalg.sym_eig_calls")),
            (symplectic, "sym_eig", "linalg.sym_eig", None, count("linalg.sym_eig_calls")),
            (meanvalue, "estimate_I", "meanvalue.estimate_I", None,
             count("meanvalue.samples", lambda out: out.samples)),
            (meanvalue, "sample_vcube", "symplectic.sample_vcube", self._on_sample, None),
            (meanvalue, "k_family_lattice", "symplectic.k_family_lattice", None, None),
            (meanvalue, "p_z", "symplectic.p_z", None, None),
            (meanvalue, "enumerate_short", "lattice.enumerate_short", None, self._on_report),
            (meanvalue, "from_basis", "lattice.from_basis", None, None),
            (symplectic, "p_z", "symplectic.p_z", None, None),
            (symplectic, "a2n_family_point", "symplectic.a2n_family_point", None, None),
            (symplectic, "verify_a2n_symmetries", "symplectic.verify_a2n_symmetries", None, None),
            (symplectic, "k_symmetric_from_params", "patterned.k_symmetric_from_params", None, None),
            (symplectic, "a2n_eigenvalues", "patterned.a2n_eigenvalues", None, None),
            (patterned, "a2n_eigenvalues", "patterned.a2n_eigenvalues", None, None),
            (symplectic, "induced_change_of_basis", "symmetry.induced_change_of_basis",
             lambda a, k: self.counts.update(["symmetry.witness_attempts"]),
             count("symmetry.witness_accepted")),
            (groups, "group_closure", "groups.group_closure", None,
             count("groups.elements", lambda out: out.order)),
            (barneswall, "bw_lattice", "barneswall.bw_lattice", None, None),
        ]

    @contextmanager
    def installed(self):
        """Install every wrapper; the originals are restored on exit."""
        saved = []
        try:
            for module, attr, name, before, after in self._targets():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, before, after))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- results ---------------------------------------------------------------

    def self_times(self, setup: bool = False) -> dict[str, float]:
        """Per-layer self time over the spans of the solves (or of the set-up)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for (name, t0, t1, _, item), covered in zip(self.spans, child):
            if (item == SETUP_ITEM) == setup:
                out[LAYER_OF[name]] += t1 - t0 - covered
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, item in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, item]) + "\n")

