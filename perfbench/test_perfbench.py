"""Tests for the benchmark's own checks, tracer and command line.

Run from the repository root:

    python3 -m pytest perfbench -q

Each checker must accept a real result of the program and reject a
corrupted one; a smoke run of every workload at a tiny size must pass.
"""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hostspeed
import run
import workloads as wk
from tracing import Tracer

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def bw():
    inp = wk.bw_build(7)
    return inp, wk.bw_call(inp)


@pytest.fixture(scope="module")
def mc():
    inp = wk.mc_build(3, samples=200)
    return inp, wk.mc_call(inp)


@pytest.fixture(scope="module")
def xor():
    return [wk.xor_call(p) for p in wk.xor_build(5, points=2)]


# -- bw16-shells -----------------------------------------------------------------

def test_bw_check_accepts_real_result(bw):
    assert wk.bw_check(*bw)["items"] == 65760


def test_bw_check_rejects_dropped_vector(bw):
    inp, rep = bw
    keep = np.arange(rep.count) != 5
    with pytest.raises(wk.CheckFailed, match="shells"):
        wk.bw_check(inp, dataclasses.replace(rep, vectors=rep.vectors[keep], norms=rep.norms[keep]))


def test_bw_check_rejects_duplicate_vector(bw):
    inp, rep = bw
    vectors = rep.vectors.copy()
    j = int(np.flatnonzero(np.abs(rep.norms - rep.norms[0]) < 1e-9)[1])
    vectors[j] = vectors[0]
    with pytest.raises(wk.CheckFailed, match="distinct"):
        wk.bw_check(inp, dataclasses.replace(rep, vectors=vectors))


def test_bw_check_rejects_norms_that_do_not_match_the_vectors(bw):
    inp, rep = bw
    j = int(np.flatnonzero(np.abs(rep.norms - rep.norms[0]) > 1e-3)[0])
    vectors = rep.vectors.copy()
    vectors[[0, j]] = vectors[[j, 0]]
    with pytest.raises(wk.CheckFailed, match="recomputed"):
        wk.bw_check(inp, dataclasses.replace(rep, vectors=vectors))


def test_bw_scramble_is_unimodular_and_seeded():
    u = wk.bw_scramble(3, 16)
    assert abs(wk.symplat.det_int(u)) == 1
    assert np.array_equal(u, wk.bw_scramble(3, 16))
    assert not np.array_equal(u, wk.bw_scramble(4, 16))


# -- mc-k ----------------------------------------------------------------------

def test_mc_check_accepts_real_result(mc):
    inp, est = mc
    assert wk.mc_check(inp, est)["items"] == 200


def test_mc_check_rejects_total_not_divisible_by_4(mc):
    inp, est = mc
    bad = dataclasses.replace(est, mean=est.mean + 1.0 / inp.samples)
    with pytest.raises(wk.CheckFailed, match="divisible by 4"):
        wk.mc_check(inp, bad)


def test_mc_check_rejects_mean_far_from_limit(mc):
    inp, est = mc
    bad = dataclasses.replace(est, mean=est.mean + 400.0 / inp.samples)
    with pytest.raises(wk.CheckFailed, match="from the limit"):
        wk.mc_check(inp, bad)


def test_mc_check_rejects_traced_counts_that_disagree(mc):
    inp, est = mc
    total = round(est.mean * inp.samples)
    with pytest.raises(wk.CheckFailed, match="per-sample counts"):
        wk.mc_check(inp, est, [total - 4])


# -- xor-verify ------------------------------------------------------------------

def test_xor_check_accepts_real_results(xor):
    for res in xor:
        assert wk.xor_check(res)["items"] == 1


def test_xor_check_rejects_witness_with_determinant_2(xor):
    res = xor[0]
    w = res.witnesses[0]
    r = w.r.copy()
    r[0] *= 2
    bad = dataclasses.replace(res, witnesses=[dataclasses.replace(w, r=r)] + res.witnesses[1:])
    with pytest.raises(wk.CheckFailed, match="determinant"):
        wk.xor_check(bad)


def test_xor_check_rejects_witness_residual_above_scaled_tolerance(xor):
    res = xor[0]
    w = dataclasses.replace(res.witnesses[0], residual=2e-9 * res.scale)
    with pytest.raises(wk.CheckFailed, match="residual"):
        wk.xor_check(dataclasses.replace(res, witnesses=[w] + res.witnesses[1:]))


def test_xor_check_rejects_missing_witness(xor):
    with pytest.raises(wk.CheckFailed, match="witnesses"):
        wk.xor_check(dataclasses.replace(xor[0], witnesses=xor[0].witnesses[1:]))


def test_xor_check_rejects_spectrum_mismatch(xor):
    res = xor[0]
    with pytest.raises(wk.CheckFailed, match="Walsh and Jacobi"):
        wk.xor_check(dataclasses.replace(res, jacobi_y=res.jacobi_y + 1e-6))


def test_xor_check_rejects_systole_off_first_shell(xor):
    res = xor[0]
    with pytest.raises(wk.CheckFailed, match="systole"):
        wk.xor_check(dataclasses.replace(res, systole2=res.systole2 * (1 + 1e-6)))


# -- shell grouping ----------------------------------------------------------------

def test_shells_group_lengths_within_boundary_slack():
    s = 2.0 * np.sqrt(2.0)
    assert wk.shells([s, s * (1 + 1e-11), 3.0, 3.0]) == [(s, 2), (3.0, 2)]
    assert wk.histogram_shells({s: 3, s * (1 + 1e-11): 1, 3.0: 2}) == [(s, 4), (3.0, 2)]


# -- runner and tracer ---------------------------------------------------------------

def test_smoke_every_workload_at_tiny_size(bw):
    tiny = {
        "mc-k": wk.mc_build(11, samples=20),
        "bw16-shells": bw[0],
        "xor-verify": wk.xor_build(11, points=2),
    }
    for name, inputs in tiny.items():
        wl = wk.WORKLOADS[name]
        solve = run.run_calls(wl, wl.calls(inputs))
        assert solve.failed == 0, name
        assert solve.items > 0 and len(solve.latencies) == solve.attempted
        assert len(solve.scaled) == solve.attempted and all(t > 0 for t in solve.scaled)


def test_traced_solves_report_every_layer_and_restore_originals():
    originals = (wk.lattice.enumerate_short, wk.meanvalue.p_z, wk.symplat._kernels.lll_core)
    tracer = Tracer()
    traced = []
    with tracer.installed():
        assert wk.lattice.enumerate_short is not originals[0]
        for name, inputs in (("mc-k", wk.mc_build(2, samples=30)),
                             ("xor-verify", wk.xor_build(2, points=1))):
            wl = wk.WORKLOADS[name]
            traced.append(run.run_calls(wl, wl.calls(inputs), tracer))
    assert (wk.lattice.enumerate_short, wk.meanvalue.p_z, wk.symplat._kernels.lll_core) == originals
    assert all(s.failed == 0 for s in traced)
    assert tracer.counts["meanvalue.samples"] == 30
    assert tracer.counts["symmetry.witness_accepted"] == wk.XOR_G - 1
    self_sum = sum(tracer.self_times().values())
    wall = sum(s.wall for s in traced)
    assert abs(self_sum / wall - 1.0) < run.SELF_SUM_TOL
    metrics = run.per_layer(tracer, traced, traced)
    assert list(metrics) == [name for name, _, _ in run.PER_LAYER]
    assert metrics["_kernels.lll_s"] > 0 and metrics["_kernels.enum_nodes"] > 0


def test_tail_has_ten_values_beyond_it():
    assert run.tail(list(range(1, 65))) == (84.375, 54)
    assert run.tail(list(range(1, 21))) == (50.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_typical_takes_each_calls_median_repeat():
    solves = [run.Solve(scaled=[3.0, 1.0], latencies=[1.0, 1.0]),
              run.Solve(scaled=[2.0, 4.0], latencies=[2.0, 2.0]),
              run.Solve(scaled=[9.0, 2.0], latencies=[3.0, 3.0])]
    assert run.typical(solves) == [3.0, 2.0]
    assert run.typical(solves, "latencies") == [2.0, 2.0]


def test_host_speed_scale_is_nominal_over_mean_reference():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale([ref, ref]) == 1.0
    assert hostspeed.scale([2 * ref, 2 * ref, 2 * ref]) == 0.5
    assert hostspeed.scale([ref, 3 * ref]) == 0.5
    assert 0 < hostspeed.reference_time() < 1.0


def test_sampler_times_the_reference_during_a_call_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler()
    with sampler.running():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3.5 * hostspeed.SAMPLE_INTERVAL_S:
            pass
    assert len(sampler.samples) == 3
    assert 0 < sampler.spent < 3.5 * hostspeed.SAMPLE_INTERVAL_S
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_setup_probes_run_when_due_and_fill_up_at_the_end():
    probes = run.SetupProbes("mc-k", 1, seconds=3600.0)
    assert probes.run_if_due() and not probes.run_if_due()
    assert len(probes.times) == 1
    setup_s = probes.median()
    assert len(probes.times) == run.SETUP_PROBES and not probes.run_if_due()
    assert 0 < setup_s < 60


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wk.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER


# -- command line -----------------------------------------------------------------

def test_refuses_python_O():
    proc = subprocess.run([sys.executable, "-O", str(HERE / "run.py"), "--workload", "mc-k"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "-O" in proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc-k", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and "correct" not in proc.stdout
