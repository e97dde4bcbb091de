"""Tests of the benchmark itself: seeded inputs, gates that can fail, tracing.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import client
import workloads
from tracer import Tracer, aggregate, install

BENCH = client.BENCH


def run_cycle(workload, seed=3, tracer=None):
    records = []
    client.InProcess(workloads, workload, seed).run_cycle(0, tracer, records)
    return records


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_input_digest(workload):
    assert workloads.input_digest(workload, 7) == workloads.input_digest(workload, 7)
    assert workloads.input_digest(workload, 7) != workloads.input_digest(workload, 8)


def test_flipped_epsilon_is_counted_as_failed(monkeypatch):
    real = workloads.orbits.classify

    def flipped(A, *args, **kwargs):
        ot = real(A, *args, **kwargs)
        if ot.epsilon is None:
            return ot
        return workloads.orbits.OrbitType("2b" if ot.tag == "2a" else "2a", -ot.epsilon,
                                   ot.invariant_data)

    monkeypatch.setattr(workloads.orbits, "classify", flipped)
    records = run_cycle("algebra_sweep")
    summary = client.summarize(records)
    # rank1, rank1-negated and jordan2 with both signs, at four sizes
    assert summary["failed"] == 16
    kinds = {f["params"]["profile"] for f in summary["failures"]}
    assert kinds <= {"rank1", "rank1-negated", "jordan2"}


def test_control_scaled_into_the_pass_band_is_counted_as_failed(monkeypatch):
    real = workloads.cone.curvature_template_at

    def no_control(frame, half_rho=True):
        return real(frame, half_rho=True)   # the wrong-coefficient control now matches

    monkeypatch.setattr(workloads.cone, "curvature_template_at", no_control)
    records = run_cycle("fd_small")
    summary = client.summarize(records)
    props = [r for r in records if r.kind == "prop"]
    assert props and all(not r.ok for r in props)
    assert summary["failed"] == len(props)
    assert summary["control_margin"] < 0


def test_cli_nonzero_exit_fails():
    params = workloads.cycle_items("cli_cold", 1, 0)[3].params
    channels = workloads.judge_cli(params, None, 2, "", {})
    assert [ch.ok for ch in channels] == [False]


def test_zero_channel_is_listed_and_gets_no_margin():
    def rec(i, obs):
        return client.Record(i, "k", {}, 1.0, 1.0,
                             [workloads.residual("always_zero", 0.0, 1e-3),
                              workloads.residual("live", obs, 1e-3)], None)

    summary = client.summarize([rec(0, 1e-6), rec(1, 1e-5)])
    assert summary["zero_channels"] == {"always_zero": [2, 2]}
    assert summary["residual_margin_channel"] == "live"
    # the margin is taken at the channel's median observation
    assert summary["residual_margin"] == pytest.approx(-np.log10(5.5e-6 / 1e-3))


@pytest.mark.parametrize("workload,idle", [("algebra_sweep", "fdgeom"),
                                           ("fd_small", "orbits"),
                                           ("fd_large", "orbits")])
def test_traced_calls_confirm_the_workload_contrast(workload, idle):
    tracer = Tracer()
    restore = install(tracer)
    try:
        records = run_cycle(workload, tracer=tracer)
    finally:
        restore()
    assert all(r.ok for r in records)
    metrics, entries = aggregate([tracer.dump()], len(records), 1.0, {})
    assert metrics[f"{idle}.calls"] == 0
    busy = "orbits" if idle == "fdgeom" else "fdgeom"
    assert metrics[f"{busy}.calls"] > 0
    if workload == "fd_large":
        assert entries[0][0] == "fdgeom.riemann"


def test_install_restores_every_binding():
    def bindings():
        return (workloads.cone.riemann, workloads.orbits.classify,
                workloads.fdgeom.ChartMetric.at)

    before = bindings()
    restore = install(Tracer())
    assert workloads.cone.riemann is not before[0]
    restore()
    assert bindings() == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "_work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "fd_small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_checks_are_deterministic_for_a_seed():
    a = [[ch.as_list() for ch in r.channels] for r in run_cycle("fd_small", seed=5)]
    b = [[ch.as_list() for ch in r.channels] for r in run_cycle("fd_small", seed=5)]
    assert a == b and all(a)
