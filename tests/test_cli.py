import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhqcbench.bench import GATE_ANGLES, benchmark_catalog
from nhqcbench.cli import TIME_UNIT_NS, _csv_line, _fmt, _header_lines, _write_csv, main
from nhqcbench.dynamics import propagate_unitary
from nhqcbench.numkit import CHUNK_ELEMENTS
from nhqcbench.schemes import build_schedule
from nhqcbench.system import ErrorModel

GOLDEN_DIR = Path(__file__).parent.parent / "goldens" / "v1"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestTable1:
    def test_rows(self, capsys):
        code, out = run(["table1"], capsys)
        assert code == 0
        assert "SL-NHQC, area_pi=1.000, published=1.00" in out
        assert "CDD-NHQC, area_pi=1.323, published=1.32" in out
        assert "excluded from matching" in out  # the TO conventions note

    def test_file_output(self, tmp_path, capsys):
        out_file = tmp_path / "t1.csv"
        code, _ = run(["table1", "--out", str(out_file)], capsys)
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("# nhqcbench")
        assert "sl,SL-NHQC,1" in text


class TestSimulate:
    def test_ideal_sl(self, tmp_path, capsys):
        code, out = run(
            ["simulate", "--scheme", "sl", "--gate", "S",
             "--out-dir", str(tmp_path), "--samples", "800"],
            capsys,
        )
        assert code == 0
        assert "fidelity=1.000000" in out
        report = json.loads((tmp_path / "report_sl_S.json").read_text())
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-6)
        traj = (tmp_path / "trajectory_sl_S.csv").read_text()
        assert traj.startswith("# nhqcbench")
        assert "time,excited_population" in traj

    def test_custom_gate(self, tmp_path, capsys):
        code, out = run(
            ["simulate", "--scheme", "s", "--gate", "custom:0.9,0.4,1.0",
             "--out-dir", str(tmp_path), "--samples", "800"],
            capsys,
        )
        assert code == 0
        assert "fidelity=1.000000" in out

    def test_open_system_metric(self, tmp_path, capsys):
        code, out = run(
            ["simulate", "--scheme", "sl", "--gate", "S", "--gamma-minus",
             "0.0003", "--gamma-z", "0.0003", "--out-dir", str(tmp_path),
             "--samples", "800"],
            capsys,
        )
        assert code == 0
        assert "fidelity_metric=six_axial_state_average" in out

    def test_physical_units(self, tmp_path, capsys):
        code, out = run(
            ["simulate", "--scheme", "sl", "--gate", "S", "--units", "physical",
             "--out-dir", str(tmp_path), "--samples", "400"],
            capsys,
        )
        assert code == 0
        assert "ns" in out  # durations rendered in nanoseconds

    def test_physical_units_scale_report_duration(self, tmp_path, capsys):
        code, out = run(
            ["simulate", "--scheme", "sl", "--gate", "S", "--units", "physical",
             "--out-dir", str(tmp_path), "--samples", "400"],
            capsys,
        )
        assert code == 0
        assert "duration=50 ns" in out
        report = json.loads((tmp_path / "report_sl_S.json").read_text())
        assert report["unit_mode"] == "physical"
        assert report["duration"] == pytest.approx(np.pi * TIME_UNIT_NS, rel=1e-12)

    @pytest.mark.parametrize("flags, steps", [
        pytest.param(["--scheme", "sta"], 2001, id="sta-default"),
        pytest.param(["--scheme", "sl", "--samples", "1000"], 1000, id="sl-1000"),
        # 321 requested: each half of SL rounds to 160 steps
        pytest.param(["--scheme", "sl", "--samples", "321"], 320, id="sl-321"),
    ])
    def test_samples_header_counts_steps_taken(self, tmp_path, capsys, flags, steps):
        code, _ = run(["simulate", *flags, "--gate", "S", "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        path = next(tmp_path.glob("trajectory_*.csv"))
        header = [l for l in path.read_text().splitlines() if l.startswith("# samples=")]
        assert header == [f"# samples={steps}"]
        assert len(csv_rows(path)) - 1 == steps

    @pytest.mark.parametrize("units, scale", [("dimensionless", 1.0),
                                              ("physical", TIME_UNIT_NS)])
    def test_trajectory_rows_are_the_per_value_format(self, tmp_path, capsys, units, scale):
        # each trajectory row takes one format call; the bytes must be those
        # of _fmt on every cell of [t * scale, p]
        code, _ = run(["simulate", "--scheme", "sl", "--gate", "S", "--epsilon", "0.03",
                       "--units", units, "--out-dir", str(tmp_path), "--samples", "400"],
                      capsys)
        assert code == 0
        spec = replace(benchmark_catalog()["sl"], angles=GATE_ANGLES["S"])
        traj = propagate_unitary(build_schedule(spec), ErrorModel(epsilon=0.03), 400)
        rows = [[t * scale, p]
                for t, p in zip(traj.times.tolist(), traj.excited_population.tolist())]
        text = (tmp_path / "trajectory_sl_S.csv").read_text()
        assert text.split("time,excited_population\n", 1)[1] == "".join(
            ",".join(_fmt(v) for v in row) + "\n" for row in rows)

    @pytest.mark.parametrize("units, scale", [("dimensionless", 1.0),
                                              ("physical", TIME_UNIT_NS)])
    def test_trajectory_rows_are_csv_lines(self, tmp_path, capsys, monkeypatch, units, scale):
        # all rows take one format call on one template; the bytes must be
        # those of _csv_line on every row [t * scale, p], hostile floats too
        from nhqcbench import cli

        special = [0.0, -0.0, 1e-05, 1e16, 0.1 + 0.2, float("nan"), float("inf"), 2 / 3,
                   -1e-300, 123456789.123456789]
        times = np.resize(special, 401) * np.linspace(1.0, 2.0, 401)
        pop = np.resize(special[::-1], 401)
        real = cli.simulate_report

        def report(*args):
            rep, traj = real(*args)
            assert len(traj.times) == 401
            return rep, SimpleNamespace(times=times, excited_population=pop, kind=traj.kind)
        monkeypatch.setattr(cli, "simulate_report", report)
        code, _ = run(["simulate", "--scheme", "sl", "--gate", "S", "--units", units,
                       "--out-dir", str(tmp_path), "--samples", "400"], capsys)
        assert code == 0
        rows = zip((times * scale).tolist(), pop.tolist())
        text = (tmp_path / "trajectory_sl_S.csv").read_text()
        assert text.split("time,excited_population\n", 1)[1] == "".join(
            _csv_line(list(row)) + "\n" for row in rows)

    def test_unknown_gate(self, capsys):
        code, _ = run(["simulate", "--scheme", "sl", "--gate", "Q"], capsys)
        assert code == 2

    def test_unknown_scheme(self, capsys):
        code, _ = run(["simulate", "--scheme", "zz", "--gate", "S"], capsys)
        assert code == 2

    def test_consecutive_calls_do_not_leak_options(self, tmp_path, capsys):
        # main reuses one parser; an option of one call must not reach the next
        argv = ["simulate", "--scheme", "sl", "--gate", "S", "--samples", "200",
                "--out-dir", str(tmp_path)]
        report = tmp_path / "report_sl_S.json"
        epsilons = []
        for extra in (["--epsilon", "0.03"], []):
            code, _ = run(argv + extra, capsys)
            assert code == 0
            epsilons.append(json.loads(report.read_text())["error_model"]["epsilon"])
        assert epsilons == [0.03, 0.0]

    @pytest.mark.parametrize("scheme, gate, warns", [
        ("sta", "H", True),  # sta realizes diag(1, -i)
        ("dfs3", "T", True),  # dfs3 realizes a pi rotation about -x
        ("sl", "H", False),
        ("ss", "S", False),  # gamma_ss = -pi/6 gives the quarter turn
    ])
    def test_warns_when_scheme_ignores_gate(self, tmp_path, capsys, scheme, gate, warns):
        code = main(["simulate", "--scheme", scheme, "--gate", gate, "--samples", "200",
                     "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 0
        if warns:
            assert err.count("\n") == 1
            assert err.startswith(f"warning: scheme {scheme} does not realize the "
                                  f"requested gate {gate}")
            assert "scheme's own target" in err
        else:
            assert err == ""

    @pytest.mark.parametrize("scheme, warns", [("dfs3", True), ("sl", False)])
    def test_eta_without_excited_level_warns_and_changes_nothing(
            self, tmp_path, capsys, scheme, warns):
        # dfs3 has no excited level to detune: its run is the eta = 0 run
        out, err, csv, report = {}, {}, {}, {}
        for eta in ("0", "0.1"):
            out_dir = tmp_path / eta
            code = main(["simulate", "--scheme", scheme, "--gate", "NOT", "--eta", eta,
                         "--samples", "200", "--out-dir", str(out_dir)])
            captured = capsys.readouterr()
            assert code == 0
            out[eta], err[eta] = captured.out.replace(str(out_dir), ""), captured.err
            csv[eta] = next(out_dir.glob("trajectory_*.csv")).read_bytes()
            report[eta] = json.loads(next(out_dir.glob("report_*.json")).read_text())
        assert report["0.1"].pop("error_model")["eta"] == 0.1
        assert report["0"].pop("error_model")["eta"] == 0.0
        assert err["0"] == ""
        if warns:
            assert err["0.1"] == "warning: scheme dfs3 has no excited level; eta has no effect on it\n"
            assert (out["0.1"], csv["0.1"], report["0.1"]) == (out["0"], csv["0"], report["0"])
        else:
            assert err["0.1"] == ""
            assert csv["0.1"] != csv["0"]

def test_csv_rows_are_the_per_value_format(tmp_path):
    # rows are formatted by _csv_line; the bytes must be those of
    # formatting every cell with _fmt
    floats = [0.0, -0.0, 1e-05, 1e16, 0.1 + 0.2, float("nan"), float("inf"), 2 / 3]
    rows = [[f"s{i}", i, i % 2 == 0, np.float64(x) * 3, x, x if i % 2 else i]
            for i, x in enumerate(floats)]
    path = tmp_path / "t.csv"
    _write_csv(path, {"k": 1.5, "n": 7}, ["a", "b", "c", "d", "e", "f"], map(_csv_line, rows))
    lines = _header_lines(k=1.5, n=7) + ["a,b,c,d,e,f"]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert "\ns1,1,False,-0,-0,-0\n" in path.read_text()  # -0.0 keeps its sign


class TestSweep:
    def test_row_count_and_rerun_identical(self, tmp_path, capsys):
        args = ["sweep", "--axis", "epsilon", "--range=-0.05:0.05:3",
                "--schemes", "sl", "--samples", "400",
                "--out", str(tmp_path / "a.csv")]
        code, out = run(args, capsys)
        assert code == 0
        assert "rows=3" in out
        args[-1] = str(tmp_path / "b.csv")
        code, _ = run(args, capsys)
        assert code == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_matches_golden_subset(self, tmp_path, capsys):
        # shared grid points of the committed 41-point oracle sweep
        out_file = tmp_path / "sub.csv"
        code, _ = run(
            ["sweep", "--axis", "epsilon", "--range=-0.1:0.1:5",
             "--schemes", "sl,ps,dc", "--gamma-minus", "0.0003",
             "--gamma-z", "0.0003", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        golden = {}
        for line in (GOLDEN_DIR / "sweep_epsilon_sl_ps_dc.csv").read_text().splitlines():
            if line.startswith("#") or line.startswith("scheme"):
                continue
            tag, value, fid, *_ = line.split(",")
            golden[(tag, round(float(value), 6))] = float(fid)
        checked = 0
        for line in out_file.read_text().splitlines():
            if line.startswith("#") or line.startswith("scheme"):
                continue
            tag, value, fid, *_ = line.split(",")
            key = (tag, round(float(value), 6))
            assert key in golden
            assert abs(float(fid) - golden[key]) < 1e-8
            checked += 1
        assert checked == 15

    def test_physical_units_scale_duration(self, tmp_path, capsys):
        rows = {}
        for units in ("dimensionless", "physical"):
            out_file = tmp_path / f"{units}.csv"
            code, _ = run(["sweep", "--axis", "epsilon", "--range=-0.05:0.05:2",
                           "--schemes", "sl", "--samples", "400", "--units", units,
                           "--out", str(out_file)], capsys)
            assert code == 0
            rows[units] = csv_rows(out_file)
        for dim, phys in zip(rows["dimensionless"], rows["physical"]):
            assert float(dim["duration"]) == pytest.approx(np.pi)
            assert float(phys["duration"]) == pytest.approx(np.pi * TIME_UNIT_NS)  # 50 ns
            assert phys["fidelity"] == dim["fidelity"]

    def test_samples_header_counts_steps_taken(self, tmp_path, capsys):
        # 1000 requested: SL takes 2 x 500 steps, STA 3 x 333
        out_file = tmp_path / "s.csv"
        code, _ = run(["sweep", "--axis", "epsilon", "--range=0:0.01:1", "--schemes", "sl,sta",
                       "--samples", "1000", "--out", str(out_file)], capsys)
        assert code == 0
        assert "# samples=sl:1000,sta:999\n" in out_file.read_text()

    def test_eta_axis_on_dfs3_warns_and_changes_nothing(self, tmp_path, capsys):
        out = tmp_path / "eta.csv"
        code = main(["sweep", "--axis", "eta", "--range=0:0.1:3", "--schemes", "dfs3",
                     "--samples", "400", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == "warning: scheme dfs3 has no excited level; eta has no effect on it\n"
        rows = csv_rows(out)
        assert [r.pop("value") for r in rows] == ["0", "0.05", "0.1"]
        assert rows[1:] == rows[:1] * 2

    def test_bad_range(self, capsys):
        code, _ = run(["sweep", "--axis", "epsilon", "--range", "oops",
                       "--schemes", "sl"], capsys)
        assert code == 2

    @pytest.mark.parametrize("text", ["0:inf:3", "-1e308:1e308:3", "nan:1:3"])
    def test_non_finite_range(self, capsys, text):
        # a non-finite endpoint or span never reaches np.linspace
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", "--axis", "epsilon", f"--range={text}", "--schemes", "sl"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ") and repr(text) in err

    def test_bad_axis(self, capsys):
        code = main(["sweep", "--axis", "volume", "--range", "0:1:2", "--schemes", "sl"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "'volume'" in err and err.endswith("valid: epsilon, eta, decoherence\n")

    def test_decoherence_axis_rejects_fixed_rates(self, tmp_path, capsys):
        # the axis sets both rates from its grid: a header naming other
        # fixed rates would misstate the rows
        out_file = tmp_path / "d.csv"
        code = main(["sweep", "--axis", "decoherence", "--range=0:6e-4:3", "--schemes", "sl",
                     "--gamma-minus", "5e-4", "--gamma-z", "2e-4", "--out", str(out_file)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "decoherence axis" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("schemes", [" , ", ",", ""])
    def test_empty_scheme_list(self, tmp_path, capsys, schemes):
        out_file = tmp_path / "s.csv"
        code = main(["sweep", "--axis", "epsilon", "--range=0:0.01:1", "--schemes", schemes,
                     "--out", str(out_file)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "--schemes" in err
        assert not out_file.exists()


class TestFig13:
    def test_panel_a_small(self, tmp_path, capsys):
        code, out = run(
            ["fig13", "a", "--points", "2", "--samples", "2000",
             "--out", str(tmp_path / "a.csv")],
            capsys,
        )
        assert code == 0
        text = (tmp_path / "a.csv").read_text()
        assert "# metric=six_axial_state_average" in text
        assert "# panel=a" in text
        assert "rows=14" in out  # 7 schemes x 2 points
        assert csv_rows(tmp_path / "a.csv")[0]["value"] == "0"  # decoherence-free start

    @pytest.mark.parametrize("points", ["-2", "0"])
    def test_points_below_one(self, tmp_path, capsys, points):
        code = main(["fig13", "a", "--points", points, "--out", str(tmp_path / "a.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ") and "--points" in err
        assert not (tmp_path / "a.csv").exists()

    def test_coarse_sampling_aborts_rather_than_clips(self, tmp_path, capsys):
        # positivity drift from a deliberately starved integrator must abort
        code, _ = run(
            ["fig13", "a", "--points", "2", "--samples", "400",
             "--out", str(tmp_path / "a.csv")],
            capsys,
        )
        assert code == 3


class TestCheck:
    def test_sl(self, capsys):
        code, out = run(["check", "--scheme", "sl", "--samples", "1000"], capsys)
        assert code == 0
        assert "cyclic_residual=" in out
        assert "rk4_vs_oracle=" in out
        assert "holonomy_reconstruction_defect=" in out

    def test_prints_the_steps_each_route_took(self, capsys, monkeypatch):
        # the allocations the RK4 run, the oracle and the reconstruction make
        # are recorded by their step totals, and check prints exactly those
        from nhqcbench import dynamics, holonomy

        made = {}

        def spy(module):
            allocate = module.allocate_steps

            def recorded(schedule, total_steps, **kwargs):
                made[module.__name__, total_steps] = allocate(schedule, total_steps, **kwargs)
                return made[module.__name__, total_steps]
            monkeypatch.setattr(module, "allocate_steps", recorded)

        spy(dynamics)
        spy(holonomy)
        code, out = run(["check", "--scheme", "dc", "--samples", "1000"], capsys)
        assert code == 0
        values = dict(line.split("=", 1) for line in out.splitlines())
        for key, route in (("rk4_steps", ("nhqcbench.dynamics", 1000)),
                           ("oracle_slices", ("nhqcbench.dynamics", dynamics.ORACLE_SLICES)),
                           ("reconstruction_steps", ("nhqcbench.holonomy", 2048))):
            assert values[key] == ",".join(map(str, made[route])), key
            assert len(made[route]) == 6  # one count per segment of dc
        # dc's second and fifth segments last twice as long as the others
        assert values["rk4_steps"] == "125,250,125,125,250,125"
        assert values["oracle_slices"] == "1250,2500,1250,1250,2500,1250"
        assert values["reconstruction_steps"] == "256,512,256,256,512,256"


@pytest.mark.parametrize("argv", [
    pytest.param([command, *base, flag, value], id=f"{command}{flag}")
    for command, base in (("table1", []), ("goldens", []), ("check", ["--scheme", "sl"]))
    for flag, value in (("--samples", "400"), ("--units", "physical"), ("--out-dir", "x"))
    if (command, flag) not in {("check", "--samples"), ("check", "--out-dir")}
])
def test_options_a_subcommand_never_reads_are_rejected(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # a relative --out-dir would land here
    code = main(argv)
    assert code == 2
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_table1_config_with_units_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"units": "physical"}))
    code = main(["table1", "--config", str(cfg)])
    assert code == 2
    assert "'units' is not an option of table1" in capsys.readouterr().err


def test_check_accepts_out_dir_and_writes_nothing(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out = run(["check", "--scheme", "sl", "--samples", "1000", "--out-dir", str(out_dir)],
                    capsys)
    assert code == 0 and "rk4_vs_oracle=" in out
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["check", "--scheme", "dfs3"], id="check"),
    pytest.param(["simulate", "--scheme", "dfs3", "--gate", "H"], id="simulate"),
])
def test_dfs3_working_set(tmp_path, capsys, ideal_runs, argv):
    # what a dfs3 run must hold is its (2001, 8, 8) trajectory; beyond it the
    # checks walk node blocks of at most CHUNK_ELEMENTS complex entries, so
    # three such arrays bound the rest (the frame rows of the reconstruction,
    # 2 x 8 x 4097 entries, fit in the same bound, as the trajectory is freed)
    argv = [*argv, "--out-dir", str(tmp_path)]
    assert main(argv) == 0  # warm: imports and caches are not the run's working set
    bound = ideal_runs["dfs3"].operators.nbytes + 3 * CHUNK_ELEMENTS * 16
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < bound, f"traced peak {peak / 1e6:.2f} MB >= {bound / 1e6:.2f} MB"


SWEEP_ARGV = ["sweep", "--axis", "epsilon", "--range=-0.1:0.1:3", "--schemes", "sl"]


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 0.05, "samples": 500,
                                   "out_dir": str(tmp_path)}))
        code, out = run(
            ["simulate", "--scheme", "sl", "--gate", "S", "--config", str(cfg)],
            capsys,
        )
        assert code == 0
        report = json.loads((tmp_path / "report_sl_S.json").read_text())
        assert report["error_model"]["epsilon"] == 0.05

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 0.05, "out_dir": str(tmp_path)}))
        code, _ = run(
            ["simulate", "--scheme", "sl", "--gate", "S", "--config", str(cfg),
             "--epsilon", "0.01", "--samples", "400"],
            capsys,
        )
        assert code == 0
        report = json.loads((tmp_path / "report_sl_S.json").read_text())
        assert report["error_model"]["epsilon"] == 0.01

    @pytest.mark.parametrize("payload", [
        pytest.param({"samples": "abc"}, id="string-for-int"),
        pytest.param({"samples": True}, id="bool-for-int"),
        pytest.param({"samples": 400.0}, id="float-for-int"),
        pytest.param({"epsilon": "0.1"}, id="string-for-float"),
        pytest.param({"epsilon": 10**400}, id="int-beyond-float"),
        pytest.param({"units": "furlongs"}, id="not-a-choice"),
        pytest.param({"sampels": 10}, id="unknown-key"),
        pytest.param({"points": 3}, id="key-of-another-subcommand"),
        pytest.param([1, 2], id="not-an-object"),
    ])
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, payload):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        code, _ = run(
            ["simulate", "--scheme", "sl", "--gate", "S", "--samples", "200",
             "--out-dir", str(tmp_path), "--config", str(cfg)],
            capsys,
        )
        assert code == 2
        assert not list(tmp_path.glob("report_*"))

    @pytest.mark.parametrize("argv, key", [
        pytest.param(["simulate", "--scheme", "sl", "--gate", "S"], "scheme", id="simulate-scheme"),
        pytest.param(["simulate", "--scheme", "sl", "--gate", "S"], "gate", id="simulate-gate"),
        pytest.param(SWEEP_ARGV, "axis", id="sweep-axis"),
        pytest.param(SWEEP_ARGV, "range", id="sweep-range"),
        pytest.param(SWEEP_ARGV, "schemes", id="sweep-schemes"),
        pytest.param(["check", "--scheme", "sl"], "scheme", id="check-scheme"),
    ])
    def test_config_key_of_a_required_flag_is_usage_error(self, tmp_path, capsys, argv, key):
        # the flag is on the command line, which argparse demands, so the
        # key could only be ignored; a config naming another scheme or gate
        # must not run the command's silently
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: {"scheme": "ps", "gate": "T"}.get(key, "sl")}))
        code = main(argv + ["--samples", "64", "--out-dir", str(tmp_path), "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: config key {key!r} names the required flag --{key}")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_integer_for_a_float_option_is_taken_as_float(self, tmp_path, capsys):
        # 10**30 does not fit int64: numpy could not test it for finiteness
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 10**30}))
        code = main(["simulate", "--scheme", "sl", "--gate", "S", "--samples", "64",
                     "--out-dir", str(tmp_path), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1 and err.startswith("numerical failure: ")

    def test_deeply_nested_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 100_000)
        code, _ = run(["table1", "--config", str(cfg)], capsys)
        assert code == 2

    def test_missing_config(self, capsys):
        code, _ = run(
            ["simulate", "--scheme", "sl", "--gate", "S", "--config", "/nope.json"],
            capsys,
        )
        assert code == 2


def csv_rows(path):
    lines = [l for l in Path(path).read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


_json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
_config_keys = st.sampled_from(["samples", "epsilon", "eta", "gamma_minus", "gamma_z", "units",
                                "out_dir", "gate", "points", "config", "help"]) | st.text(max_size=8)


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cfg.json"


@given(payload=st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_config_keys, inner, max_size=4),
    max_leaves=8,
))
@settings(max_examples=60, deadline=None)
def test_config_payloads_never_crash(config_file, payload):
    # the unknown scheme fails fast once the config is merged, so every
    # payload costs one parse; a traceback would escape main() here
    config_file.write_text(json.dumps(payload))
    code = main(["simulate", "--scheme", "zz", "--gate", "S", "--config", str(config_file)])
    assert code in (0, 2, 3)


@pytest.mark.parametrize("flags", [
    pytest.param(["--samples", "0"], id="samples-0"),
    pytest.param(["--samples", "-5"], id="samples-negative"),
    pytest.param(["--epsilon", "nan"], id="epsilon-nan"),
    pytest.param(["--gamma-z", "inf"], id="gamma-z-inf"),
])
def test_bad_numeric_input_is_usage_error(tmp_path, capsys, flags):
    code, _ = run(
        ["simulate", "--scheme", "sl", "--gate", "S", "--out-dir", str(tmp_path), *flags],
        capsys,
    )
    assert code == 2


@pytest.mark.parametrize("argv, code, message", [
    pytest.param(["sweep", "--axis", "epsilon", "--range=0:0.1:1000000000000",
                  "--schemes", "sl"], 2, "error: --range asks for", id="sweep"),
    pytest.param(["fig13", "b", "--points", "1000000000000"], 2, "error: --points asks for",
                 id="fig13"),
    pytest.param(["simulate", "--scheme", "sl", "--gate", "S",
                  "--samples", "1000000000000"], 2, "error: --samples asks for", id="simulate"),
])
def test_unallocatable_request_is_reported(tmp_path, capsys, argv, code, message):
    # a grid above MAX_GRID_POINTS and a step count above MAX_SAMPLES are
    # usage errors, found before any allocation
    assert main([*argv, "--out-dir", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--axis", "epsilon", "--range=0:0.1:100000000", "--schemes", "sl"],
    ["sweep", "--axis", "epsilon", "--range=0:0.1:10001", "--schemes", "sl"],
    ["fig13", "b", "--points", "100000000"],
], ids=["sweep-1e8", "sweep-cap-plus-one", "fig13-1e8"])
def test_grid_above_the_cap_starts_no_sweep(tmp_path, capsys, monkeypatch, argv):
    from nhqcbench import cli

    def no_sweep(*args):
        raise AssertionError("sweep started")
    monkeypatch.setattr(cli, "sweep", no_sweep)
    assert cli.MAX_GRID_POINTS == 10_000  # the cap the README states
    assert main([*argv, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "at most 10000" in err


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--scheme", "sl", "--gate", "S"],
    ["sweep", "--axis", "epsilon", "--range=0:0.1:2", "--schemes", "sl"],
    ["fig13", "b", "--points", "2"],
    ["check", "--scheme", "sl"],
], ids=["simulate", "sweep", "fig13", "check"])
def test_samples_above_the_cap_build_no_schedule(tmp_path, capsys, monkeypatch, argv, via):
    from nhqcbench import bench, cli

    def no_schedule(*args):
        raise AssertionError("schedule built")
    for module in (cli, bench):
        monkeypatch.setattr(module, "build_schedule", no_schedule)
    assert cli.MAX_SAMPLES == 100_000  # the cap the README states
    samples = cli.MAX_SAMPLES + 1
    if via == "flag":
        argv = [*argv, "--samples", str(samples)]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({"samples": samples}))
        argv = [*argv, "--config", str(tmp_path / "cfg.json")]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --samples asks for {samples} steps; at most 100000\n"


@pytest.mark.parametrize("argv", [
    pytest.param(["simulate", "--scheme", "sl", "--gate", "S", "--samples", "400",
                  "--out-dir", "{file}/x"], id="simulate-out-dir-under-file"),
    pytest.param(["table1", "--out", "{file}/t.csv"], id="table1-out-under-file"),
    pytest.param(["check", "--scheme", "sl", "--config", "{dir}"], id="check-config-is-dir"),
])
def test_unusable_path_is_usage_error(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    code = main([a.format(file=tmp_path / "file", dir=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_goldens_unusable_dir_fails_before_oracle_work(tmp_path, capsys, monkeypatch):
    from nhqcbench import cli

    def no_oracle(*args, **kwargs):
        raise AssertionError("oracle ran before the output directory was checked")

    monkeypatch.setattr(cli, "_oracle_fidelity", no_oracle)
    (tmp_path / "file").write_text("")
    code = main(["goldens", "--regenerate", "--dir", str(tmp_path / "file" / "g")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")


def run_python(args):
    """A fresh interpreter that imports the package from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parent.parent / "src"), env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def test_numerical_failure_is_one_stderr_line(tmp_path):
    # a diverging run overflows inside the RK4 step build; only the one-line
    # report of the non-finite state may reach stderr
    proc = run_python(["-m", "nhqcbench", "simulate", "--scheme", "sl", "--gate", "S",
                       "--epsilon", "1e300", "--out-dir", str(tmp_path)])
    assert proc.returncode == 3
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("numerical failure: rk4_chunks: non-finite state")


def test_to_at_gamma_pi_runs_clean(tmp_path):
    # the TO frame's dynamical share is 0/0 at gamma = pi (NOT, H) unless
    # taken as its limit; no warning may reach stderr
    proc = run_python(["-m", "nhqcbench", "simulate", "--scheme", "to", "--gate", "NOT",
                       "--samples", "200", "--out-dir", str(tmp_path)])
    assert proc.returncode == 0
    assert proc.stderr == ""


@pytest.mark.parametrize("gamma", ["1e-17", "2e-16"])
def test_to_loop_time_rounding_to_zero_is_usage_error(tmp_path, gamma):
    # pi^2 - (pi - gamma)^2 rounds to 0: one error line, before any division
    proc = run_python(["-m", "nhqcbench", "simulate", "--scheme", "to",
                       "--gate", f"custom:{gamma},0,0", "--out-dir", str(tmp_path)])
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: gamma=") and "loop time rounds to 0" in proc.stderr
    assert "Warning" not in proc.stderr and not list(tmp_path.iterdir())


def test_import_loads_no_scipy():
    # scipy is a test dependency only; the package must run without it
    proc = run_python(["-c", "import sys, nhqcbench, nhqcbench.cli; "
                       "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Every valid run stays cheap: the base flags cap --samples, --points and the
# range count, and a drawn flag can only replace them with a hostile token.
# check takes 40 steps, which fails its unitarity test before the oracle runs.
_ARGV_BASE = {
    "simulate": ["--scheme", "sl", "--gate", "S", "--samples", "400"],
    "sweep": ["--axis", "epsilon", "--range=0:0.01:1", "--schemes", "sl", "--samples", "400"],
    "table1": [],
    "fig13": ["a", "--points", "1", "--samples", "400"],
    "check": ["--scheme", "sl", "--samples", "40"],
    "goldens": [],  # never --regenerate
}
_ARGV_FLAGS = ["--samples", "--units", "--out-dir", "--config", "--scheme", "--gate", "--epsilon",
               "--eta", "--gamma-minus", "--gamma-z", "--axis", "--range", "--schemes", "--out",
               "--points", "--dir", "--bogus", "-x"]
_ARGV_TOKENS = ["", "nan", "inf", "-inf", "-1", "0", "1e12", "1000000000000", "/dev/null/x", ".",
                "sl", "S", "a", "physical", "0:1:1000000000000", "nan:inf:2", "-inf:inf:2"]


@given(
    command=st.sampled_from(sorted(_ARGV_BASE)),
    pairs=st.lists(st.tuples(st.sampled_from(_ARGV_FLAGS), st.sampled_from(_ARGV_TOKENS)),
                   max_size=3),
    stray=st.lists(st.sampled_from(_ARGV_TOKENS + _ARGV_FLAGS), max_size=1),
)
@settings(max_examples=200, deadline=None)
def test_argv_never_crashes(tmp_path_factory, command, pairs, stray):
    # relative paths ("", ".") land in a scratch working directory
    argv = [command, *_ARGV_BASE[command], *(t for pair in pairs for t in pair), *stray]
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("argv"))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3), argv
    assert "Traceback" not in err.getvalue()


# The config files take only the flags each subcommand requires on the
# command line (explicit flags win), so every size comes from the config:
# samples is always drawn and either at most 64 or above the cap, points
# is at most 2 or above its cap, and goldens never regenerates.
_CONFIG_ARGV = {
    "simulate": ["--scheme", "sl", "--gate", "S"],
    "sweep": ["--axis", "epsilon", "--range=0:0.01:1", "--schemes", "sl"],
    "table1": [],
    "fig13": ["a"],
    "check": ["--scheme", "sl"],
    "goldens": [],
}
_CONFIG_NUMBERS = [-1, -0.5, math.nan, math.inf, -math.inf, 1e308, 10**30]
_CONFIG_WRONG = [None, True, "x", [], {}, {"samples": 1}, math.nan, 1e308]


def _config_values(key: str, action):
    """The values of the option `action`'s own JSON type drawn for it, as
    often hostile as not: for each option a few that it takes, none of
    which starts large work, and for the numeric ones hostile numbers."""
    from nhqcbench.cli import MAX_SAMPLES

    if key == "samples":
        return st.sampled_from([1, 8, 64]) | st.sampled_from([-1, 0, MAX_SAMPLES + 1, 10**30])
    if key == "points":
        return st.sampled_from([1, 2]) | st.sampled_from([-1, 0, 10**30])
    if action.nargs == 0:  # goldens --regenerate: never true
        return st.just(False)
    if action.choices:
        return st.sampled_from(action.choices)
    if action.type is float:
        return st.sampled_from([0.0, 1e-4, 0.01]) | st.sampled_from(_CONFIG_NUMBERS)
    return st.sampled_from(["", ".", "sl", "out", "/dev/null/x"])


def _config_payloads(command: str):
    """JSON objects drawn from the parser actions of `command`: samples
    whenever the subcommand takes it, any other option optionally, and at
    most one key that is unknown to the subcommand or holds a value of
    another JSON type (or a non-finite one)."""
    from nhqcbench.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command").choices[command]
    actions = {a.dest: a for a in sub._actions
               if a.option_strings and a.dest not in ("help", "config")}
    pools = {key: _config_values(key, a) for key, a in actions.items()}
    required = {"samples": pools.pop("samples")} if "samples" in pools else {}
    wrong = st.none() | st.tuples(st.sampled_from([*actions, "config", "help", "bogus"]),
                                  st.sampled_from(_CONFIG_WRONG))
    return st.tuples(st.fixed_dictionaries(required, optional=pools), wrong).map(
        lambda drawn: drawn[0] if drawn[1] is None else {**drawn[0], drawn[1][0]: drawn[1][1]})


@given(case=st.sampled_from(sorted(_CONFIG_ARGV)).flatmap(
    lambda command: st.tuples(st.just(command), _config_payloads(command))))
@settings(max_examples=150, deadline=None)
def test_config_files_never_crash(tmp_path_factory, case):
    command, payload = case
    scratch = tmp_path_factory.mktemp("config")
    (scratch / "cfg.json").write_text(json.dumps(payload))
    argv = [command, *_CONFIG_ARGV[command], "--config", str(scratch / "cfg.json")]
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(scratch)  # relative output paths land here
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    finally:
        os.chdir(cwd)
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3), (argv, payload)
    numpy_warnings = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not numpy_warnings  # the failure is its one line
    assert sum(line.startswith(("error:", "numerical failure:")) for line in lines) <= 1, lines
    assert "Traceback" not in err.getvalue()
