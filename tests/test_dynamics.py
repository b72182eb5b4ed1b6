import numpy as np
import pytest

from conftest import phase_distance
from nhqcbench.dynamics import (
    allocate_steps,
    jump_operators,
    lindblad_superoperator,
    oracle_propagate_lindblad,
    oracle_propagate_unitary,
    propagate_lindblad,
    propagate_unitary,
    six_axial_states,
)
from nhqcbench.schemes import build_schedule, dfs3_schedule
from nhqcbench.system import (
    DriveSegment,
    ErrorModel,
    GateAngles,
    LevelSystem,
    PulseSchedule,
    SchemeSpec,
    segment_hamiltonian_nodes,
)

PI = np.pi


def zero_schedule(duration=1.0):
    seg = DriveSegment(
        duration=duration,
        envelope=lambda t: np.zeros(np.shape(t)),
        phase=lambda t: np.zeros(np.shape(t)),
        detuning=lambda t: np.zeros(np.shape(t)),
        bright_axis=(0.0, 0.0),
    )
    return PulseSchedule(
        system=LevelSystem.lambda3(),
        segments=(seg,),
        target=np.eye(2, dtype=complex),
        scheme_label="null",
    )


def basis_rho(dim, k):
    rho = np.zeros((dim, dim), dtype=complex)
    rho[k, k] = 1.0
    return rho


class TestPropagateUnitary:
    def test_zero_drive_is_identity(self):
        traj = propagate_unitary(zero_schedule(), samples=100)
        assert np.abs(traj.operators - np.eye(3)).max() < 1e-14

    def test_sl_s_gate_vs_oracle(self, schedules, ideal_runs, oracle_gates):
        sched = schedules["sl"]
        U = ideal_runs["sl"].final[:2, :2]
        expected = np.diag([np.exp(-1j * PI / 4), np.exp(1j * PI / 4)])
        assert phase_distance(U, expected) < 1e-6
        assert np.abs(ideal_runs["sl"].final - oracle_gates["sl"]).max() < 1e-7

    def test_dark_state_never_excited(self, schedules, ideal_runs):
        traj = ideal_runs["sl"]
        dark = np.array([1, 0, 0], dtype=complex)  # theta=0 dark = |0>
        pe = np.abs(traj.operators[:, 2, :] @ dark) ** 2
        assert pe.max() < 1e-10

    def test_unitarity_at_every_sample(self, ideal_runs):
        for traj in ideal_runs.values():
            ops = traj.operators
            d = ops.shape[-1]
            defect = np.abs(ops @ ops.conj().transpose(0, 2, 1) - np.eye(d)).max()
            assert defect < 1e-8

    def test_rejects_open_system(self, schedules):
        with pytest.raises(ValueError, match="gamma"):
            propagate_unitary(schedules["sl"], ErrorModel(gamma_minus=1e-4))

    def test_step_doubling_stability(self, schedules):
        from nhqcbench.bench import unitary_gate_fidelity

        sched = schedules["sl"]
        f1 = unitary_gate_fidelity(
            propagate_unitary(sched, samples=2000).final, sched.target, sched.system)
        f2 = unitary_gate_fidelity(
            propagate_unitary(sched, samples=4000).final, sched.target, sched.system)
        assert abs(f1 - f2) < 1e-8


class TestJumpOperators:
    def test_lambda3_forms(self):
        sm, sz = jump_operators(LevelSystem.lambda3())
        expected_sm = np.zeros((3, 3))
        expected_sm[0, 2] = expected_sm[1, 2] = 1.0
        assert np.allclose(sm, expected_sm)
        assert np.allclose(np.diag(sz), [-1, -1, 1])

    def test_three_qubit_rejected(self):
        with pytest.raises(ValueError, match="excited"):
            jump_operators(LevelSystem.three_qubit8())


class TestPropagateLindblad:
    def test_closed_limit_matches_unitary(self, schedules, ideal_runs):
        sched = schedules["sl"]
        rho0 = basis_rho(3, 1)
        traj = propagate_lindblad(sched, ErrorModel(), rho0, samples=2000)
        U = ideal_runs["sl"].final
        expected = U @ rho0 @ U.conj().T
        assert np.abs(traj.final - expected).max() < 1e-7

    def test_pure_dephasing_leaves_populations(self):
        sched = zero_schedule(duration=3.0)
        rho0 = basis_rho(3, 0)
        traj = propagate_lindblad(sched, ErrorModel(gamma_z=0.05), rho0, samples=600)
        assert np.abs(traj.operators - rho0).max() < 1e-12

    def test_decay_rate_analytic(self):
        # d/dt rho_ee = -2 Gamma rho_ee under the combined lowering channel
        G = 0.08
        sched = zero_schedule(duration=4.0)
        rho0 = basis_rho(3, 2)
        traj = propagate_lindblad(sched, ErrorModel(gamma_minus=G), rho0, samples=800)
        pe = traj.operators[:, 2, 2].real
        expected = np.exp(-2 * G * traj.times)
        assert np.abs(pe - expected).max() < 1e-9

    def test_linearity(self, schedules):
        sched = schedules["sl"]
        err = ErrorModel(gamma_minus=3e-4, gamma_z=3e-4)
        rho_a = basis_rho(3, 0)
        rho_b = basis_rho(3, 1)
        mix = 0.5 * (rho_a + rho_b)
        fa = propagate_lindblad(sched, err, rho_a, samples=500).final
        fb = propagate_lindblad(sched, err, rho_b, samples=500).final
        fm = propagate_lindblad(sched, err, mix, samples=500).final
        assert np.abs(fm - 0.5 * (fa + fb)).max() < 1e-9

    def test_batch_matches_loop(self, schedules):
        sched = schedules["sl"]
        err = ErrorModel(gamma_minus=3e-4, gamma_z=3e-4)
        states = six_axial_states(sched.system)
        rho0 = np.einsum("ki,kj->kij", states, states.conj())
        batch = propagate_lindblad(sched, err, rho0, samples=400).final
        for k in range(6):
            single = propagate_lindblad(sched, err, rho0[k], samples=400).final
            assert np.abs(batch[k] - single).max() < 1e-12

    def test_invariants_at_every_sample(self, schedules):
        sched = schedules["cdd"]
        err = ErrorModel(epsilon=0.05, eta=0.05, gamma_minus=3e-4, gamma_z=3e-4)
        rho0 = basis_rho(3, 1)
        traj = propagate_lindblad(sched, err, rho0, samples=1500)
        tr = np.trace(traj.operators, axis1=-2, axis2=-1)
        assert np.abs(tr - 1).max() < 1e-8
        herm = np.abs(traj.operators - traj.operators.conj().swapaxes(-1, -2)).max()
        assert herm < 1e-10
        assert np.linalg.eigvalsh(traj.operators).min() > -1e-9

    def test_rejects_bad_rho0(self, schedules):
        sched = schedules["sl"]
        with pytest.raises(RuntimeError, match="trace"):
            propagate_lindblad(sched, ErrorModel(), 2 * basis_rho(3, 0), samples=50)
        bad = np.diag([1.5, -0.5, 0.0]).astype(complex)
        with pytest.raises(RuntimeError, match="negative"):
            propagate_lindblad(sched, ErrorModel(), bad, samples=50)

    def test_three_qubit_rejects_decoherence(self):
        sched = dfs3_schedule(0.0)
        with pytest.raises(ValueError, match="excited"):
            propagate_lindblad(sched, ErrorModel(gamma_minus=1e-4),
                               basis_rho(8, 2), samples=50)


class TestOracles:
    def test_unitary_oracle_exact_for_constant_drive(self, schedules):
        # piecewise-constant segments make the sliced product exact
        sched = schedules["sl"]
        from nhqcbench.numkit import expm_hermitian
        from nhqcbench.system import hamiltonian_at

        H1 = hamiltonian_at(sched, 0.1, ErrorModel())
        H2 = hamiltonian_at(sched, sched.total_duration - 0.1, ErrorModel())
        half = sched.total_duration / 2
        expected = expm_hermitian(H2, half) @ expm_hermitian(H1, half)
        U = oracle_propagate_unitary(sched, slices=64)
        assert np.abs(U - expected).max() < 1e-12

    def test_lindblad_oracle_matches_analytic_decay(self):
        G = 0.05
        sched = zero_schedule(duration=2.0)
        rho0 = basis_rho(3, 2)
        out = oracle_propagate_lindblad(sched, ErrorModel(gamma_minus=G), rho0,
                                        slices=64)
        assert out[2, 2].real == pytest.approx(np.exp(-4 * G), abs=1e-12)

    def test_lindblad_oracle_vs_rk4(self, schedules):
        sched = schedules["sl"]
        err = ErrorModel(epsilon=0.05, gamma_minus=3e-4, gamma_z=3e-4)
        rho0 = basis_rho(3, 1)
        a = propagate_lindblad(sched, err, rho0, samples=3000).final
        b = oracle_propagate_lindblad(sched, err, rho0, slices=1500)
        assert np.abs(a - b).max() < 1e-9

    def test_cf4_fourth_order(self, schedules):
        sched = schedules["ps"]  # smoothly time-dependent envelope
        err = ErrorModel(gamma_minus=3e-4, gamma_z=3e-4)
        rho0 = basis_rho(3, 1)
        ref = oracle_propagate_lindblad(sched, err, rho0, slices=1024)
        d1 = np.abs(oracle_propagate_lindblad(sched, err, rho0, slices=64) - ref).max()
        d2 = np.abs(oracle_propagate_lindblad(sched, err, rho0, slices=128) - ref).max()
        assert d1 / d2 > 10  # fourth order: ~16x per halving

    def test_superoperator_action(self):
        system = LevelSystem.lambda3()
        err = ErrorModel(gamma_minus=0.1, gamma_z=0.2)
        rng = np.random.default_rng(5)
        M = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
        Hs = M + M.conj().transpose(0, 2, 1)
        rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = rho @ rho.conj().T
        rho /= np.trace(rho)
        Ls = lindblad_superoperator(system, err, Hs)
        assert Ls.shape == (4, 9, 9)
        for H, L_stacked in zip(Hs, Ls):
            direct = lindblad_rhs(system, err, H, rho)
            for L in (lindblad_superoperator(system, err, H), L_stacked):
                via_super = (L @ rho.reshape(-1)).reshape(3, 3)
                assert np.abs(direct - via_super).max() < 1e-12


def lindblad_rhs(system, err, H, rho):
    """-i[H,rho] + sum_j G_j (A_j rho A_j^+ - {A_j^+ A_j, rho}/2), written out."""
    out = -1j * (H @ rho - rho @ H)
    if err.open_system:
        sm, sz = jump_operators(system)
        for G, A in ((err.gamma_minus, sm), (err.gamma_z, sz)):
            AdA = A.conj().T @ A
            out = out + G * (A @ rho @ A.conj().T - 0.5 * (AdA @ rho + rho @ AdA))
    return out


def reference_rk4(schedule, err, y0, samples, rhs):
    """Four-stage RK4 on y' = rhs(H, y), stepped state by state per segment
    on the same half-step lattice and step allocation as the engine."""
    y = y0
    states = [y]
    for si, (seg, n) in enumerate(zip(schedule.segments, allocate_steps(schedule, samples))):
        h = seg.duration / n
        H = segment_hamiltonian_nodes(
            schedule, si, np.linspace(0.0, seg.duration, 2 * n + 1), err)
        for k in range(n):
            k1 = rhs(H[2 * k], y)
            k2 = rhs(H[2 * k + 1], y + (h / 2) * k1)
            k3 = rhs(H[2 * k + 1], y + (h / 2) * k2)
            k4 = rhs(H[2 * k + 2], y + h * k3)
            y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            states.append(y)
    return np.stack(states)


@pytest.mark.parametrize("tag", ["sl", "ps"])
def test_engine_matches_stagewise_rk4(schedules, tag):
    sched = schedules[tag]
    closed = ErrorModel(epsilon=0.04, eta=-0.03)
    U = reference_rk4(sched, closed, np.eye(3, dtype=complex), 600,
                      lambda H, y: -1j * H @ y)
    assert np.abs(propagate_unitary(sched, closed, samples=600).operators - U).max() < 1e-12

    err = ErrorModel(epsilon=0.04, eta=-0.03, gamma_minus=2e-3, gamma_z=1e-3)
    states = six_axial_states(sched.system)
    rho0 = np.einsum("ki,kj->kij", states, states.conj())
    rhos = reference_rk4(sched, err, rho0, 600,
                         lambda H, rho: np.stack([lindblad_rhs(sched.system, err, H, r)
                                                  for r in rho]))
    assert np.abs(propagate_lindblad(sched, err, rho0, samples=600).operators - rhos).max() < 1e-12


class TestTrajectoryCapture:
    def test_excited_population_bright_input(self, ideal_runs):
        # the bright state fully transfers mid-loop
        assert ideal_runs["sl"].excited_population.max() == pytest.approx(1.0, abs=1e-6)

    def test_monitor_level_for_three_qubit(self, ideal_runs):
        # ancilla |100> fills completely halfway through the loop
        assert ideal_runs["dfs3"].excited_population.max() == pytest.approx(1.0, abs=1e-6)

    def test_times_cover_schedule(self, schedules, ideal_runs):
        for tag, traj in ideal_runs.items():
            assert traj.times[0] == 0.0
            assert traj.times[-1] == pytest.approx(schedules[tag].total_duration)


@pytest.mark.parametrize("samples", [0, -5])
def test_step_count_below_one_rejected(schedules, samples):
    sched = schedules["sl"]
    with pytest.raises(ValueError, match="step count"):
        propagate_unitary(sched, samples=samples)
    with pytest.raises(ValueError, match="step count"):
        propagate_lindblad(sched, ErrorModel(), basis_rho(3, 0), samples=samples)


def test_nhqc_samples_env_override(monkeypatch):
    from nhqcbench.dynamics import default_samples

    monkeypatch.setenv("NHQC_SAMPLES", "123")
    assert default_samples("unitary") == 123
    assert default_samples("lindblad") == 123
    monkeypatch.delenv("NHQC_SAMPLES")
    assert default_samples("unitary") == 2000
