import json
from pathlib import Path

import numpy as np
import pytest

from nhqcbench.cli import main

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

    def test_unknown_gate(self, capsys):
        code, _ = run(["simulate", "--scheme", "sl", "--gate", "Q"], capsys)
        assert code == 2

    def test_unknown_scheme(self, capsys):
        code, _ = run(["simulate", "--scheme", "zz", "--gate", "S"], capsys)
        assert code == 2


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

    def test_bad_range(self, capsys):
        code, _ = run(["sweep", "--axis", "epsilon", "--range", "oops",
                       "--schemes", "sl"], capsys)
        assert code == 2

    def test_bad_axis(self, capsys):
        code, _ = run(["sweep", "--axis", "volume", "--range", "0:1:2",
                       "--schemes", "sl"], capsys)
        assert code == 2


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

    def test_missing_config(self, capsys):
        code, _ = run(
            ["simulate", "--scheme", "sl", "--gate", "S", "--config", "/nope.json"],
            capsys,
        )
        assert code == 2


def test_env_samples_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NHQC_SAMPLES", "321")
    code, _ = run(
        ["simulate", "--scheme", "sl", "--gate", "S", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    traj = (tmp_path / "trajectory_sl_S.csv").read_text()
    assert "# samples=321" in traj


@pytest.mark.parametrize("flags, env_samples", [
    pytest.param(["--samples", "0"], None, id="samples-0"),
    pytest.param(["--samples", "-5"], None, id="samples-negative"),
    pytest.param([], "0", id="env-samples-0"),
    pytest.param(["--epsilon", "nan"], None, id="epsilon-nan"),
    pytest.param(["--gamma-z", "inf"], None, id="gamma-z-inf"),
])
def test_bad_numeric_input_is_usage_error(tmp_path, capsys, monkeypatch, flags, env_samples):
    if env_samples is not None:
        monkeypatch.setenv("NHQC_SAMPLES", env_samples)
    code, _ = run(
        ["simulate", "--scheme", "sl", "--gate", "S", "--out-dir", str(tmp_path), *flags],
        capsys,
    )
    assert code == 2
