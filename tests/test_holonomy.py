import numpy as np
import pytest

from conftest import gauge_transformed, phase_distance
from nhqcbench.dynamics import propagate_unitary
from nhqcbench.holonomy import (
    AuxiliaryFrame,
    ConnectionPair,
    condition_residuals,
    frame_connection,
    holonomy_reconstruct,
    reconstruct_computational_gate,
    sample_frame,
)
from nhqcbench.numkit import TimeGrid
from nhqcbench.schemes import build_schedule
from nhqcbench.system import ErrorModel, GateAngles, SchemeSpec

PI = np.pi
ALL_TAGS = ["sl", "ss", "ps", "c", "dc", "to", "s", "cdd", "sta", "dfs3"]


def grid_for(schedule, steps=4096):
    return TimeGrid(0.0, schedule.total_duration, steps)


class TestFrames:
    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_frame_orthonormal_and_cyclic(self, schedules, tag):
        frame = sample_frame(schedules[tag], grid_for(schedules[tag], 512))
        frame.validate()

    @pytest.mark.parametrize("tag", ["sl", "ps", "c", "dc", "cdd", "sta"])
    def test_segment_frames_join_at_boundaries(self, schedules, tag):
        segments = schedules[tag].segments
        assert len(segments) > 1
        for seg, nxt in zip(segments[:-1], segments[1:]):
            end = seg.frame(np.array([seg.duration]))[0]
            start = nxt.frame(np.zeros(1))[0]
            assert np.abs(end - start).max() < 1e-12

    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_array_frame_matches_one_time_at_a_time(self, schedules, tag):
        sched = schedules[tag]
        times = np.linspace(0.0, sched.total_duration, 257)
        single = np.stack([sched.frame(np.array([t]))[0] for t in times])
        assert np.array_equal(sched.frame(times), single)

    def test_missing_frame_rejected(self):
        from test_dynamics import zero_schedule

        with pytest.raises(ValueError, match="frame"):
            sample_frame(zero_schedule(), TimeGrid(0.0, 1.0, 8))


class TestFrameConnection:
    def test_static_frame_zero_hamiltonian(self):
        from test_dynamics import zero_schedule

        sched = zero_schedule()
        grid = TimeGrid(0.0, 1.0, 64)
        vecs = np.tile(np.eye(3, dtype=complex)[None], (65, 1, 1))
        frame = AuxiliaryFrame(times=grid.times, vectors=vecs)
        pair = frame_connection(frame, sched)
        assert np.abs(pair.A).max() < 1e-12
        assert np.abs(pair.K).max() < 1e-12

    def test_connection_hermitian(self, schedules):
        sched = schedules["s"]
        pair = frame_connection(sample_frame(sched, grid_for(sched, 1024)), sched)
        assert np.abs(pair.A - pair.A.conj().transpose(0, 2, 1)).max() < 1e-14
        assert pair.presym_defect < 1e-4

    def test_s_scheme_dynamical_part_vanishes(self, schedules):
        # parallel transport built into the inverse-engineered loop
        sched = schedules["s"]
        pair = frame_connection(sample_frame(sched, grid_for(sched, 2048)), sched)
        assert np.abs(pair.K).max() < 1e-6

    def test_to_dynamical_geometric_proportionality(self, schedules):
        sched = schedules["to"]
        grid = grid_for(sched, 4096)
        pair = frame_connection(sample_frame(sched, grid), sched)
        h = grid.h
        intK = np.cumsum(0.5 * (pair.K[1:, 1, 1] + pair.K[:-1, 1, 1]).real) * h
        intA = np.cumsum(0.5 * (pair.A[1:, 1, 1] + pair.A[:-1, 1, 1]).real) * h
        n0 = len(intK) // 10
        ratio = -intK[n0:] / intA[n0:]  # dynamical phase = -int K
        expected = sched.notes["dyn_geo_ratio"]
        assert np.abs(ratio - expected).max() < 1e-3
        assert np.abs(pair.K[:, 1, 1]).max() > 0.1  # genuinely nonzero

    def test_rejects_drifting_frame(self, schedules):
        sched = schedules["sl"]
        grid = TimeGrid(0.0, sched.total_duration, 64)
        frame = sample_frame(sched, grid)
        bad = frame.vectors.copy()
        bad[10, 1] *= 1.001  # break normalization
        with pytest.raises(ValueError, match="drift|orthonormality"):
            frame_connection(AuxiliaryFrame(times=frame.times, vectors=bad), sched)


class TestReconstruct:
    def test_zero_connection_identity(self):
        times = np.linspace(0, 1, 65)
        Z = np.zeros((65, 2, 2))
        pair = ConnectionPair(times=times, A=Z, K=Z, presym_defect=0.0)
        assert np.abs(holonomy_reconstruct(pair) - np.eye(2)).max() < 1e-14

    def test_constant_abelian_connection(self):
        # A constant, K = 0: holonomy exp(i A tau) exactly
        times = np.linspace(0, 2.0, 257)
        A0 = np.array([[0.3, 0.1], [0.1, -0.2]], dtype=complex)
        A = np.tile(A0[None], (257, 1, 1))
        pair = ConnectionPair(times=times, A=A, K=0 * A, presym_defect=0.0)
        w, V = np.linalg.eigh(A0)
        expected = (V * np.exp(1j * w * 2.0)) @ V.conj().T
        assert np.abs(holonomy_reconstruct(pair) - expected).max() < 1e-12

    @pytest.mark.parametrize("tag", ["sl", "ps", "c", "dc", "to", "s", "cdd", "ss",
                                     "sta", "dfs3"])
    def test_reconstruction_matches_propagation(self, schedules, ideal_runs, tag):
        sched = schedules[tag]
        U_rec = reconstruct_computational_gate(sched, grid_for(sched))
        comp = list(sched.system.computational_indices)
        U_prop = ideal_runs[tag].final[np.ix_(comp, comp)]
        assert phase_distance(U_rec, U_prop) < 1e-5

    def test_sl_reconstructs_quarter_turn(self, schedules):
        sched = schedules["sl"]
        U_rec = reconstruct_computational_gate(sched, grid_for(sched))
        expected = np.diag([np.exp(-1j * PI / 4), np.exp(1j * PI / 4)])
        assert phase_distance(U_rec, expected) < 1e-5

    def test_finite_difference_second_order(self, schedules):
        sched = schedules["s"]
        comp = list(sched.system.computational_indices)
        U_ref = propagate_unitary(sched, samples=3000).final[np.ix_(comp, comp)]

        def defect(steps):
            U = reconstruct_computational_gate(sched, grid_for(sched, steps))
            ov = np.trace(U_ref.conj().T @ U) / 2
            return np.abs(U - (ov / abs(ov)).conj() * U_ref).max()

        assert defect(512) / defect(1024) >= 3.0

    def test_gauge_covariance(self, schedules, ideal_runs):
        sched = schedules["sl"]
        grid = grid_for(sched)
        tau = sched.total_duration
        X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

        def Vfun(t):
            lam = 0.7 * np.sin(PI * t / tau) ** 2
            return np.cos(lam) * np.eye(2) - 1j * np.sin(lam) * X

        frame = sample_frame(sched, grid)
        twisted = gauge_transformed(frame, Vfun)
        pair = frame_connection(twisted, sched)
        C = holonomy_reconstruct(pair)
        V0 = twisted.vectors[0, :2]
        comp = list(sched.system.computational_indices)
        B = V0[:, comp]
        U_rec = B.T @ C @ B.conj()
        U_prop = ideal_runs["sl"].final[np.ix_(comp, comp)]
        assert phase_distance(U_rec, U_prop) < 1e-5


class TestConditionResiduals:
    def test_sl_ideal(self, schedules):
        sched = schedules["sl"]
        cyc, par = condition_residuals(sched, propagate_unitary(sched, samples=1500))
        assert cyc < 1e-7
        assert par < 1e-6

    def test_sl_rabi_error_breaks_cyclicity(self, schedules):
        sched = schedules["sl"]
        err = ErrorModel(epsilon=0.1)
        cyc0, _ = condition_residuals(sched, propagate_unitary(sched, samples=1000))
        cyc1, _ = condition_residuals(sched, propagate_unitary(sched, err, samples=1000), err)
        assert cyc1 > 100 * max(cyc0, 1e-12)
        assert cyc1 > 1e-3  # O(epsilon) scale

    def test_zero_drive(self):
        from test_dynamics import zero_schedule

        sched = zero_schedule()
        cyc, par = condition_residuals(sched, propagate_unitary(sched, samples=100))
        assert cyc == pytest.approx(0.0, abs=1e-14)
        assert par == pytest.approx(0.0, abs=1e-14)

    def test_ps_dynamical_rate_matches_design(self, schedules):
        # the shaped loop violates pointwise parallel transport by exactly
        # (df/dt) sin^2(chi) / 2 along the driven trajectory
        sched = schedules["ps"]
        _, par = condition_residuals(sched, propagate_unitary(sched, samples=1500))
        vs = sched.notes["varsigma"]
        Ts = sched.segments[0].duration
        s = np.linspace(0, Ts, 3001)
        chi = PI * np.sin(PI * s / (2 * Ts)) ** 2
        chid = PI * np.sin(PI * s / Ts) * (PI / (2 * Ts))
        rate = 2 * vs * chid * np.sin(chi) ** 4
        assert par == pytest.approx(rate.max(), rel=1e-3)

    @pytest.mark.parametrize("tag", ["sl", "c", "s", "cdd"])
    def test_pointwise_parallel_transport(self, schedules, tag):
        sched = schedules[tag]
        cyc, par = condition_residuals(sched, propagate_unitary(sched, samples=2000))
        assert cyc < 1e-7, tag
        assert par < 1e-6, tag

    @pytest.mark.parametrize("tag", ["dc", "ps"])
    def test_net_dynamical_phase_cancels(self, schedules, ideal_runs, tag):
        # corrective/shaped loops carry O(omega_bar) instantaneous dynamical
        # rates that cancel over the cycle; cyclicity is unaffected
        from nhqcbench.system import hamiltonian_nodes

        sched = schedules[tag]
        cyc, par = condition_residuals(sched, propagate_unitary(sched, samples=2000))
        assert cyc < 1e-7
        assert par > 0.1  # genuinely nonzero pointwise
        traj = ideal_runs[tag]
        b = sched.system.embed_qubit([0, -1])  # theta=0 bright
        psi = traj.operators @ b
        H = hamiltonian_nodes(sched, traj.times, ErrorModel())
        rate = np.einsum("ni,nij,nj->n", psi.conj(), H, psi).real
        assert abs(np.trapezoid(rate, traj.times)) < 1e-9
