"""symplat benchmark: one workload in a closed loop, every result checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc-k --seed 1 --seconds 20 --trace 0

``--workload`` is one of mc-k, bw16-shells, xor-verify (see README.md in
this directory).  One process on one thread: a single caller waits for
each call's result and checks it before the next call.  A *solve* is the
workload's fixed list of calls; solves repeat on the same inputs until
``--seconds`` are spent.  Timings are built from each call's median over
its repeats, which drops the transient slow-downs of a shared host, and
every call's wall time is first scaled to a nominal host speed by a
reference kernel timed before, during and after it (see hostspeed.py).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half with the layer wrappers installed, and reports the
per-layer metrics (self times and counts per solve).  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; ``attempted`` and ``failed`` count checked calls.  The
exit code is 0 when every call passed its check, 1 when one failed, and
2 when the benchmark cannot run at all (no symplat sources, ``python -O``).
"""

import os

# Pinned before numpy is imported, here and in the set-up probes it spawns.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

#: Fresh processes timed for setup_s, spread over the run; the median is reported.
SETUP_PROBES = 9
#: Fewest solves behind a median, whatever --seconds says.
MIN_SOLVES = 2
#: A traced run's layer self times must add up to its solve time within this share.
SELF_SUM_TOL = 0.05

END_TO_END = [
    ("setup_s", "s"), ("solve_s", "s"), ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"), ("item_tail_ms", "ms"), ("peak_rss_mb", "MB"),
]

#: (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = [
    ("_kernels.enum_s", "s", "lower"),
    ("_kernels.enum_nodes", "count", "lower"),
    ("_kernels.ns_per_node", "ns", "lower"),
    ("lattice.vectors", "count", "higher"),
    ("lattice.vectors_per_node", "ratio", "higher"),
    ("_kernels.lll_s", "s", "lower"),
    ("lattice.lll_calls", "count", "lower"),
    ("lattice.lll_ms_per_call", "ms", "lower"),
    ("lattice.self_s", "s", "lower"),
    ("lattice.split_keys", "count", "lower"),
    ("_kernels.jacobi_s", "s", "lower"),
    ("_kernels.jacobi_sweeps", "count", "lower"),
    ("_kernels.us_per_sweep", "us", "lower"),
    ("linalg.sym_eig_s", "s", "lower"),
    ("linalg.sym_eig_calls", "count", "lower"),
    ("linalg.det_int_s", "s", "lower"),
    ("linalg.det_int_calls", "count", "lower"),
    ("symplectic.sample_s", "s", "lower"),
    ("symplectic.pz_s", "s", "lower"),
    ("symplectic.verify_s", "s", "lower"),
    ("patterned.self_s", "s", "lower"),
    ("groups.closure_s", "s", "lower"),
    ("groups.elements", "count", "lower"),
    ("symmetry.witness_s", "s", "lower"),
    ("symmetry.accepted_frac", "ratio", "higher"),
    ("meanvalue.self_s", "s", "lower"),
    ("meanvalue.samples", "count", "higher"),
    ("barneswall.build_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.solve_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


@dataclass
class Solve:
    """One pass over a workload's calls.

    ``latencies`` are wall seconds per call; ``scaled`` are the same calls
    in seconds at the nominal host speed; ``wall`` is the calls' wall time,
    reference samples taken during them included.
    """

    wall: float = 0.0
    latencies: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    info: dict = field(default_factory=dict)


def run_calls(wl, calls, tracer=None, setup=None) -> Solve:
    """Closed loop over ``calls``: each is run, checked and timed before the next starts.

    The host-speed reference is timed between calls, outside their times
    (the one after a call is also the one before the next), and sampled
    during each call, with the sampling taken out of the call's time.
    ``setup`` (SetupProbes) may run a set-up probe between two calls.
    """
    out = Solve(attempted=len(calls))
    sampler = hostspeed.Sampler()
    ref = hostspeed.reference_time()
    for i, arg in enumerate(calls):
        c0 = perf_counter()
        try:
            with sampler.running(), tracer.span("bench.call", i) if tracer else nullcontext():
                counts = None
                if tracer:
                    tracer.sample_counts.clear()
                result = wl.call(arg)
                if tracer:
                    counts = list(tracer.sample_counts.values())
                info = wl.check(arg, result, counts)
        except Exception:
            out.failed += 1
            traceback.print_exc(file=sys.stderr)
        else:
            out.items += info["items"]
            out.info = info
        gross = perf_counter() - c0
        ref_after = hostspeed.reference_time()
        latency = gross - sampler.spent
        out.latencies.append(latency)
        out.scaled.append(latency * hostspeed.scale([ref, *sampler.samples, ref_after]))
        out.wall += gross
        if setup is not None and setup.run_if_due():
            ref_after = hostspeed.reference_time()
        ref = ref_after
    return out


def measure(wl, inputs, seconds: float, min_solves: int, tracer=None, setup=None) -> list[Solve]:
    """Repeat whole solves until the next one would end after ``seconds``."""
    calls = wl.calls(inputs)
    solves = []
    start = perf_counter()
    while True:
        solves.append(run_calls(wl, calls, tracer, setup))
        spent = perf_counter() - start
        if len(solves) >= min_solves and spent * (len(solves) + 1) / len(solves) > seconds:
            return solves


def typical(solves: list[Solve], kind: str = "scaled") -> list[float]:
    """Each call's median latency over the solves, which all run the same calls.

    ``kind`` is "scaled" (seconds at the nominal host speed) or "latencies" (wall).
    """
    return [statistics.median(times) for times in zip(*(getattr(s, kind) for s in solves))]


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile with 10 values beyond it.

    Below 20 values no percentile above the median has 10 beyond it, and
    the maximum is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


class SetupProbes:
    """SETUP_PROBES fresh-process set-up timings, spread evenly over a measurement.

    Probes taken back to back all land in one phase of the host's speed, so
    their median moved with the phase; spread over the run, they sample its
    phases as the calls do.  Set-up is not scaled by the host-speed
    reference: it is mostly imports, which the reference does not track.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
        self.interval = seconds / SETUP_PROBES
        self.start = perf_counter()
        self.times: list[float] = []

    def probe(self) -> None:
        proc = subprocess.run(self.argv, capture_output=True, text=True, timeout=120, check=True)
        self.times.append(float(proc.stdout.split()[-1]))

    def run_if_due(self) -> bool:
        """Take the next probe if its slot has come; True if one was taken."""
        due = perf_counter() - self.start >= len(self.times) * self.interval
        if due and len(self.times) < SETUP_PROBES:
            self.probe()
            return True
        return False

    def median(self) -> float:
        """Median set-up seconds, after taking any probes the run ended too soon for."""
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.times)


def src_lines() -> int:
    """Non-blank lines under src/, the size the ROADMAP tracks (recorded, not gated)."""
    return sum(1 for path in sorted((HERE.parent / "src").rglob("*.py"))
               for line in path.read_text().splitlines() if line.strip())


def environment(workload: str, seed: int) -> dict:
    import numpy
    import symplat

    return {
        "workload": workload, "seed": seed,
        "backend": {"jit_enabled": bool(symplat.JIT_ENABLED),
                    "numba_available": bool(symplat.NUMBA_AVAILABLE)},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "src_lines": src_lines(),
    }


def end_to_end(setup_s: float, solves: list[Solve]) -> dict:
    per_call = typical(solves)
    solve_s = sum(per_call)
    return {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "items_per_s": min(s.items for s in solves) / solve_s,
        "item_p50_ms": 1e3 * statistics.median(per_call),
        "item_tail_ms": 1e3 * tail(per_call)[1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


#: Counters reported per solve, as counted by the tracer's wrappers.
COUNTS = ["_kernels.enum_nodes", "lattice.vectors", "lattice.lll_calls", "lattice.split_keys",
          "_kernels.jacobi_sweeps", "linalg.sym_eig_calls", "linalg.det_int_calls",
          "groups.elements", "meanvalue.samples"]


def per_layer(tracer, traced: list[Solve], untraced: list[Solve]) -> dict:
    n = len(traced)
    out = {k: v / n for k, v in tracer.self_times().items()}
    out.update({k: tracer.counts[k] / n for k in COUNTS})

    def ratio(num, den):
        return num / den if den else 0.0

    traced_s = sum(typical(traced))
    out.update({
        "_kernels.ns_per_node": 1e9 * ratio(out["_kernels.enum_s"], out["_kernels.enum_nodes"]),
        "lattice.vectors_per_node": ratio(out["lattice.vectors"], out["_kernels.enum_nodes"]),
        "lattice.lll_ms_per_call": 1e3 * ratio(out["_kernels.lll_s"], out["lattice.lll_calls"]),
        "_kernels.us_per_sweep": 1e6 * ratio(out["_kernels.jacobi_s"], out["_kernels.jacobi_sweeps"]),
        "symmetry.accepted_frac": ratio(tracer.counts["symmetry.witness_accepted"],
                                        tracer.counts["symmetry.witness_attempts"]),
        "barneswall.build_s": tracer.self_times(setup=True)["barneswall.build_s"],
        "trace.solve_s": traced_s,
        "trace.overhead_frac": traced_s / sum(typical(untraced)) - 1.0,
    })
    return {name: out[name] for name, _, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["mc-k", "bw16-shells", "xor-verify"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        print("refusing to run under python -O: symplat checks invariants with assert, "
              "so -O would time a different program", file=sys.stderr)
        return 2
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import symplat: {exc}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed)
    env = environment(args.workload, args.seed)
    warm = run_calls(wl, wl.calls(inputs)[:1])
    attempted, failed = warm.attempted, warm.failed
    problems = []

    if args.trace:
        from tracing import SETUP_ITEM, Tracer

        untraced = measure(wl, inputs, args.seconds / 2, MIN_SOLVES)
        tracer = Tracer()
        with tracer.installed():
            tracer.item = SETUP_ITEM
            wl.build(args.seed)
            traced = measure(wl, inputs, args.seconds / 2, 1, tracer)
        solves = untraced + traced
        metrics = per_layer(tracer, traced, untraced)
        units = {name: unit for name, unit, _ in PER_LAYER}
        self_sum = sum(tracer.self_times().values())
        wall_sum = sum(s.wall for s in traced)
        if abs(self_sum / wall_sum - 1.0) > SELF_SUM_TOL:
            problems.append(f"layer self times add up to {self_sum:.4f} s, solves took {wall_sum:.4f} s")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        env["spans"] = str(spans_path.relative_to(HERE.parent))
    else:
        setup = SetupProbes(args.workload, args.seed, args.seconds)
        solves = measure(wl, inputs, args.seconds, MIN_SOLVES, setup=setup)
        metrics = end_to_end(setup.median(), solves)
        units = dict(END_TO_END)

    attempted += sum(s.attempted for s in solves)
    failed += sum(s.failed for s in solves)
    env.update(calls_per_solve=len(wl.calls(inputs)), item=wl.item,
               items_per_solve=solves[0].items, tail_pct=tail(typical(solves))[0],
               solves=len(solves), solve_walls=[s.wall for s in solves],
               wall_solve_s=sum(typical(solves, "latencies")),
               last_check=solves[-1].info)
    print("env " + json.dumps(env))
    for name, value in metrics.items():
        print(f"{name:28s} {value:16.6f} {units[name]}")
    print(f"{'failed_frac':28s} {failed / attempted:16.6f} ({failed} of {attempted} calls)")
    for problem in problems:
        print(f"trace check failed: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
