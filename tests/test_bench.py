import json
from pathlib import Path

import numpy as np
import pytest

from nhqcbench.bench import (
    GateReport,
    fit_leading_order,
    lindblad_gate_fidelity,
    overlap_gate_fidelity,
    pulse_area,
    simulate_report,
    six_state_fidelity,
    sweep,
    table1_rows,
    unitary_gate_fidelity,
)
from nhqcbench.dynamics import oracle_propagate_lindblad, six_axial_densities
from nhqcbench.system import ErrorModel, LevelSystem

PI = np.pi
GOLDEN_POINT = Path(__file__).parent.parent / "goldens" / "v1" / "sl_fig13_point.json"
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def embed(U2, system):
    d = system.dim
    out = np.eye(d, dtype=complex)
    i0, i1 = system.computational_indices
    for a, ia in enumerate((i0, i1)):
        for b, ib in enumerate((i0, i1)):
            out[ia, ib] = U2[a, b]
    return out


class TestUnitaryFidelity:
    def test_perfect_gate(self):
        system = LevelSystem.lambda3()
        T = np.diag([1.0, 1j])
        assert unitary_gate_fidelity(embed(T, system), T, system) == pytest.approx(1.0)

    def test_orthogonal_gate(self):
        # actual realizes sigma_x against an identity target: (2+0)/6
        system = LevelSystem.lambda3()
        assert unitary_gate_fidelity(embed(SX, system), np.eye(2), system) == (
            pytest.approx(1 / 3)
        )

    def test_full_leakage(self):
        # both computational states leave the block entirely
        system = LevelSystem.tripod4()
        U = np.zeros((4, 4), dtype=complex)
        U[2, 0] = U[3, 1] = 1.0  # |0> -> |2>, |1> -> |e>
        U[0, 2] = U[1, 3] = 1.0
        assert unitary_gate_fidelity(U, np.eye(2), system) == pytest.approx(0.0)

    def test_global_phase_insensitive_overlap(self):
        system = LevelSystem.lambda3()
        T = np.diag([1.0, 1j])
        actual = embed(np.exp(1j * 0.7) * T, system)
        assert overlap_gate_fidelity(actual, T, system) == pytest.approx(1.0)


class TestLindbladFidelity:
    def test_ideal_catalog_reaches_unity(self, schedules):
        for tag in ("sl", "to", "cdd"):
            f = lindblad_gate_fidelity(schedules[tag], ErrorModel(), samples=1200)
            assert f == pytest.approx(1.0, abs=1e-7), tag

    def test_decoherence_lowers_fidelity(self, schedules):
        err = ErrorModel(gamma_minus=3e-4, gamma_z=3e-4)
        f = lindblad_gate_fidelity(schedules["sl"], err, samples=1200)
        assert 0.99 < f < 1.0

    def test_frozen_golden_point(self, schedules):
        # oracle-produced value at the published decoherence rates
        golden = json.loads(GOLDEN_POINT.read_text())
        err = ErrorModel(gamma_minus=golden["gamma_minus"], gamma_z=golden["gamma_z"])
        f = lindblad_gate_fidelity(schedules["sl"], err)
        assert f == pytest.approx(golden["fidelity"], abs=1e-8)

    def test_oracle_reproduces_golden_point(self, schedules):
        # the golden generator's route: shared six-state fidelity over the oracle
        golden = json.loads(GOLDEN_POINT.read_text())
        sched = schedules[golden["scheme"]]
        err = ErrorModel(gamma_minus=golden["gamma_minus"], gamma_z=golden["gamma_z"])
        rho = oracle_propagate_lindblad(sched, err, six_axial_densities(sched.system),
                                        slices=golden["oracle_slices"])
        f = six_state_fidelity(sched, rho)
        assert f == pytest.approx(golden["fidelity"], abs=1e-8)


class TestPulseArea:
    @pytest.mark.parametrize("tag,val", [("sl", 1.00), ("dc", 2.00)])
    def test_published_values(self, schedules, tag, val):
        assert pulse_area(schedules[tag]) == pytest.approx(val, abs=0.02)

    def test_cdd_published(self, schedules):
        assert pulse_area(schedules["cdd"]) == pytest.approx(1.32, abs=0.02)

    def test_table_rows_complete(self):
        rows = table1_rows()
        assert [r["tag"] for r in rows] == ["sl", "ps", "c", "dc", "to", "s", "cdd"]
        for r in rows:
            if r["tag"] == "to":
                assert "area_conventions_pi" in r
            else:
                assert abs(r["area_pi"] - r["published"]) < 0.05


class TestSweep:
    def test_single_zero_point(self, catalog):
        res = sweep({"sl": catalog["sl"]}, "epsilon", np.array([0.0]),
                    ErrorModel(), samples=800)
        assert res.fidelity["sl"][0] == pytest.approx(1.0, abs=1e-7)

    def test_deterministic(self, catalog):
        kw = dict(axis="epsilon", grid=np.array([-0.05, 0.05]),
                  fixed=ErrorModel(gamma_minus=3e-4, gamma_z=3e-4), samples=500)
        a = sweep({"sl": catalog["sl"]}, **kw)
        b = sweep({"sl": catalog["sl"]}, **kw)
        assert np.array_equal(a.fidelity["sl"], b.fidelity["sl"])

    @pytest.mark.parametrize("axis, grid, fixed", [
        ("epsilon", [-0.1, -0.03, 0.02, 0.07], ErrorModel(gamma_minus=3e-4, gamma_z=3e-4)),
        ("eta", [-0.05, 0.0, 0.02, 0.09], ErrorModel(epsilon=0.01, gamma_minus=1e-4)),
        ("decoherence", [0.0, 1e-4, 3e-4, 6e-4], ErrorModel()),
    ])
    def test_point_is_pure(self, catalog, axis, grid, fixed):
        # each point reads the same, bit for bit, alone or inside the grid
        specs = {"ps": catalog["ps"], "cdd": catalog["cdd"]}
        whole = sweep(specs, axis, np.array(grid), fixed, samples=2000)
        alone = sweep(specs, axis, np.array(grid[2:3]), fixed, samples=2000)
        for tag in specs:
            assert whole.fidelity[tag][2] == alone.fidelity[tag][0]
            assert (whole.peak_excited_population[tag][2]
                    == alone.peak_excited_population[tag][0])
            assert whole.steps[tag] == alone.steps[tag]

    def test_rejects_bad_grid(self, catalog):
        with pytest.raises(ValueError):
            sweep({"sl": catalog["sl"]}, "epsilon", np.array([]), ErrorModel())
        with pytest.raises(ValueError):
            sweep({"sl": catalog["sl"]}, "epsilon", np.array([0.1, 0.0]), ErrorModel())
        with pytest.raises(ValueError):
            sweep({"sl": catalog["sl"]}, "frequency", np.array([0.0, 0.1]), ErrorModel())
        # one axis vocabulary with the CLI: the old library name is unknown
        with pytest.raises(ValueError, match="valid: epsilon, eta, decoherence$"):
            sweep({"sl": catalog["sl"]}, "gamma_decoherence", np.array([0.0]), ErrorModel())

    @pytest.mark.parametrize("fixed", [ErrorModel(gamma_minus=5e-4), ErrorModel(gamma_z=2e-4)])
    def test_decoherence_axis_rejects_fixed_rates(self, catalog, fixed):
        # the axis sets both rates from its grid: fixed ones would be ignored
        with pytest.raises(ValueError, match="decoherence axis sets both rates"):
            sweep({"sl": catalog["sl"]}, "decoherence", np.array([0.0, 1e-4]), fixed)

    def test_decoherence_axis_overrides_fixed(self, catalog):
        res = sweep({"sl": catalog["sl"]}, "decoherence",
                    np.array([1e-12, 3e-4]),
                    ErrorModel(epsilon=0.5), samples=500)
        # epsilon from `fixed` must NOT apply on the decoherence axis
        assert res.fidelity["sl"][0] == pytest.approx(1.0, abs=1e-6)


class TestFits:
    def test_sl_second_order_coefficient(self, catalog):
        c2, _ = fit_leading_order(catalog["sl"], samples=600)
        assert c2 == pytest.approx(0.5 * (PI / 2) ** 2, rel=0.10)

    def test_dc_fourth_order(self, catalog):
        c2, c4 = fit_leading_order(catalog["dc"], samples=600)
        assert abs(c2) < 0.05
        assert c4 == pytest.approx(0.5 * (PI / 2) ** 4, rel=0.15)

    def test_zero_drive_schedule_flat(self):
        from test_dynamics import zero_schedule

        c2, c4 = fit_leading_order(zero_schedule(), samples=200)
        assert abs(c2) < 1e-12 and abs(c4) < 1e-10

    def test_rejects_small_grid(self, catalog):
        with pytest.raises(ValueError, match="grid"):
            fit_leading_order(catalog["sl"], np.array([0.01, 0.02]))

    @pytest.mark.parametrize("grid", [[-0.01, 0.0, 0.01], [0.0, 0.0, 0.0]])
    def test_rejects_rank_deficient_grid(self, catalog, grid):
        # one nonzero |epsilon| leaves e^2 and e^4 proportional
        with pytest.raises(ValueError, match="two distinct nonzero"):
            fit_leading_order(catalog["sl"], np.array(grid))

    def test_rejects_large_epsilon(self, catalog):
        with pytest.raises(ValueError, match="0.05"):
            fit_leading_order(catalog["sl"], np.array([-0.2, 0.0, 0.2]))


class TestPeakExcitedPopulation:
    def test_sl_reaches_full_transfer(self, ideal_runs):
        assert ideal_runs["sl"].excited_population.max() == pytest.approx(1.0, abs=1e-6)

    def test_cdd_below_single_loop(self, ideal_runs):
        # composite decoupling at equal total angle stays lower
        assert (ideal_runs["cdd"].excited_population.max()
                < ideal_runs["s"].excited_population.max() - 0.2)

    def test_dark_input_stays_dark(self, schedules):
        from nhqcbench.dynamics import propagate_unitary

        traj = propagate_unitary(schedules["sl"], samples=500)
        dark = np.array([1, 0, 0], dtype=complex)
        pe = np.abs(traj.operators[:, 2, :] @ dark) ** 2
        assert pe.max() < 1e-10


class TestGateReport:
    def test_rejects_superunity_fidelity(self):
        with pytest.raises(ValueError):
            GateReport("x", 1.1, 1.0, 0.0, 0.0, 0.0, 1.0, "m", np.eye(2))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            GateReport("x", np.nan, 1.0, 0.0, 0.0, 0.0, 1.0, "m", np.eye(2))

    def test_simulate_report_fields(self, catalog):
        rep, traj = simulate_report(catalog["sl"], ErrorModel(), samples=600)
        assert rep.scheme_label == "SL-NHQC"
        assert rep.metric == "two_design_average"
        assert rep.fidelity == pytest.approx(1.0, abs=1e-7)
        assert rep.pulse_area_pi == pytest.approx(1.0, abs=1e-6)
        assert traj.kind == "unitary"

    def test_simulate_report_open(self, catalog):
        rep, traj = simulate_report(
            catalog["sl"], ErrorModel(gamma_minus=3e-4, gamma_z=3e-4), samples=800)
        assert rep.metric == "six_axial_state_average"
        assert traj.kind == "lindblad"
        assert rep.fidelity < 1.0
