"""Tests of the benchmark harness itself: python3 -m pytest perfbench"""
import json
import os
import signal
import sys
import time
from pathlib import Path

import pytest

import run
import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_of_nested_spans():
    clock = FakeClock()
    rec = spans.SpanRecorder(clock=clock)

    def leaf():
        clock.advance(2.0)
        return [0.0] * 3

    def slow_hook(rec_, args, out):  # hook time belongs to no span
        clock.advance(10.0)

    leaf_t = rec.wrap("system.hnodes", leaf, hook=slow_hook)

    def outer():
        clock.advance(1.0)
        leaf_t()
        clock.advance(0.5)
        leaf_t()
        clock.advance(0.25)

    rec.begin_pass(0)
    rec.wrap("cli.main", outer)()
    assert [s[0] for s in rec.spans] == ["cli.main", "system.hnodes", "system.hnodes"]
    assert [s[3] for s in rec.spans] == [-1, 0, 0]
    assert rec.self_times() == [1.75, 2.0, 2.0]
    (summary,) = rec.pass_summaries([0])
    assert summary["cli.main.calls"] == 1 and summary["cli.main.self_s"] == 1.75
    assert summary["system.hnodes.calls"] == 2 and summary["system.hnodes.self_s"] == 4.0


def test_recursive_layer_counts_each_level_once():
    clock = FakeClock()
    rec = spans.SpanRecorder(clock=clock)

    def f(depth):
        clock.advance(1.0)
        if depth:
            f_t(depth - 1)

    f_t = rec.wrap("system.hnodes", f)
    f_t(2)
    (summary,) = rec.pass_summaries([0])
    assert summary["system.hnodes.calls"] == 3
    assert summary["system.hnodes.self_s"] == 3.0


def test_install_wraps_every_namespace_and_uninstall_restores():
    sys.path.insert(0, str(ROOT / "src"))
    import nhqcbench.bench
    import nhqcbench.cli
    import nhqcbench.dynamics
    import nhqcbench.holonomy
    import nhqcbench.system

    original = nhqcbench.system.segment_hamiltonian_nodes
    rec = spans.SpanRecorder()
    try:
        assert rec.install() == []
        for mod in (nhqcbench.system, nhqcbench.dynamics):
            assert mod.segment_hamiltonian_nodes is not original
            assert mod.segment_hamiltonian_nodes.__wrapped__ is original
        wrapped_unitary = nhqcbench.dynamics.propagate_unitary
        for mod in (nhqcbench, nhqcbench.bench, nhqcbench.holonomy, nhqcbench.cli):
            assert mod.propagate_unitary is wrapped_unitary
    finally:
        rec.uninstall()
    assert nhqcbench.dynamics.segment_hamiltonian_nodes is original
    assert not hasattr(nhqcbench.cli.propagate_unitary, "__wrapped__")


def test_pin_environment_overrides_the_caller(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "64")
    monkeypatch.setenv("NHQC_SAMPLES", "300")
    env = run.pin_environment()
    nproc = str(len(os.sched_getaffinity(0)))
    for var in run.BLAS_VARS:
        assert os.environ[var] == nproc and env[var] == nproc
    assert "NHQC_SAMPLES" not in os.environ
    assert env["removed"] == {"NHQC_SAMPLES": "300"}


def test_speed_sampler_nets_out_its_own_kernel_runs():
    sampler = speed.SpeedSampler()
    previous = signal.getsignal(signal.SIGALRM)
    with sampler:
        out, raw, net, factor = sampler.timed(lambda: time.sleep(0.3) or "done")
    assert out == "done"
    assert signal.getsignal(signal.SIGALRM) == previous
    assert len(sampler.samples) >= 4  # alarms kept firing through the sleep
    assert net == pytest.approx(raw - sampler.spent, abs=0.02)
    assert 0.0 < net < raw
    assert factor == pytest.approx(speed.REF_S * len(sampler.samples) / sum(sampler.samples))


@pytest.fixture(scope="module")
def goldens():
    return workloads.load_goldens(ROOT)


def _sweep_output(goldens, delta):
    rows = [(x, f) for (tag, x), f in goldens["sweep"].items() if tag == "ps"][5:9]
    lines = ["# nhqcbench v1", "scheme,value,fidelity,pulse_area_pi,duration,peak_excited_population"]
    lines += [f"ps,{x!r},{f + delta!r},2.16,1.0,0.5" for x, f in rows]
    path = ".perfbench/out/sweep_ps.csv"
    return workloads.OpOutput(0, f"rows=4\nsweep_file={path}\n",
                              {path: ("\n".join(lines) + "\n").encode()})


def test_sweep_at_golden_passes(goldens):
    op = workloads.Op("sweep:ps", "sweep")
    assert workloads.check(op, _sweep_output(goldens, 0.0), goldens) == []


def test_perturbed_sweep_fidelity_fails(goldens):
    op = workloads.Op("sweep:ps", "sweep")
    assert len(workloads.check(op, _sweep_output(goldens, 2e-8), goldens)) == 4


def test_perturbed_golden_point_fails(goldens):
    op = workloads.Op("golden_point:sl", "golden_point")
    ref = goldens["point"]["fidelity"]
    assert workloads.check(op, workloads.OpOutput(0, f"fidelity={ref!r}\n"), goldens) == []
    out = workloads.OpOutput(0, f"fidelity={ref + 2e-8!r}\n")
    assert workloads.check(op, out, goldens)


@pytest.mark.parametrize("ideal,fidelity,cyclic,fails", [
    (True, 1.0 - 1e-12, 1e-12, False),
    (True, 1.0 - 2e-8, 1e-12, True),
    (True, 1.0, 2e-8, True),
    (False, 0.99, 0.1, False),
    (False, 1 + 2e-9, 0.0, True),
])
def test_gate_bounds(goldens, ideal, fidelity, cyclic, fails):
    path = ".perfbench/out/report.json"
    report = json.dumps({"fidelity": fidelity, "cyclic_residual": cyclic}).encode()
    out = workloads.OpOutput(0, f"report_file={path}\n", {path: report})
    op = workloads.Op("simulate:sl:x", "gate", ideal=ideal)
    assert bool(workloads.check(op, out, goldens)) is fails


def test_check_bounds_and_exit_code(goldens):
    op = workloads.Op("check:sl", "check")
    good = "rk4_vs_oracle=3.0e-09\nholonomy_reconstruction_defect=1.0e-07\n"
    assert workloads.check(op, workloads.OpOutput(0, good), goldens) == []
    assert workloads.check(op, workloads.OpOutput(3, good), goldens) == ["exit code 3"]
    bad = "rk4_vs_oracle=2.0e-07\n"
    assert len(workloads.check(op, workloads.OpOutput(0, bad), goldens)) == 2


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_values_not_amount_of_work(name):
    a, b = workloads.make_ops(name, 1), workloads.make_ops(name, 2)
    assert a == workloads.make_ops(name, 1)
    assert sorted(op.name for op in a) == sorted(op.name for op in b)
