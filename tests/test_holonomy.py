import numpy as np
import pytest

from conftest import align_phase, gauge_twisted, phase_distance
from nhqcbench.dynamics import (
    allocate_steps,
    oracle_propagate_unitary,
    propagate_lindblad,
    propagate_unitary,
    segment_state_times,
    six_axial_densities,
)
from nhqcbench.holonomy import (
    _ONE_SIDED,
    condition_residuals,
    frame_connection,
    holonomy_reconstruct,
    reconstruct_computational_gate,
)
from nhqcbench.numkit import (
    expm_embedded,
    from_real_embedding,
    hermiticity_defect,
    ordered_product,
    real_embedding,
)
from nhqcbench.schemes import SchemeSpec, build_schedule
from nhqcbench.system import (
    ErrorModel,
    GateAngles,
    LevelSystem,
    PulseSchedule,
    Segment,
    segment_hamiltonian_nodes,
)

PI = np.pi
ALL_TAGS = ["sl", "ss", "ps", "c", "dc", "to", "s", "cdd", "sta", "dfs3"]


def segment_lattice(schedule, k, samples):
    """The spacing of `samples` intervals on segment k, and the frame and
    the ideal H at their ends."""
    seg = schedule.segments[k]
    t = np.linspace(0.0, seg.duration, samples + 1)
    return seg.duration / samples, seg.frame(t), segment_hamiltonian_nodes(
        schedule, k, t, ErrorModel())


def connections(schedule, steps):
    """(A, K) of every segment on the lattice of `steps` Magnus steps that
    reconstruct_computational_gate samples."""
    for k, n in enumerate(allocate_steps(schedule, steps)):
        h, V, H = segment_lattice(schedule, k, 2 * n)
        yield frame_connection(V, H, h)


def stacked_connection(V, H, h):
    """frame_connection by stacked complex @ on node-first arrays, with the
    same five-point differences."""
    nu = V[:, :-1]
    L = nu.shape[1]
    dnu = np.empty_like(nu)
    dnu[2:-2] = nu[:-4] - 8 * nu[1:-3] + 8 * nu[3:-1] - nu[4:]
    dnu[:2] = np.tensordot(_ONE_SIDED, nu[:5], axes=1)
    dnu[-2:] = -np.tensordot(_ONE_SIDED[::-1, ::-1], nu[-5:], axes=1)
    kets = np.concatenate([dnu / (12 * h), nu @ H.swapaxes(-1, -2)], axis=1)
    G = nu.conj() @ kets.swapaxes(-1, -2)
    A, K = 1j * G[..., :L], G[..., L:]
    return 0.5 * (A + A.conj().swapaxes(-1, -2)), 0.5 * (K + K.conj().swapaxes(-1, -2))


def stacked_reconstruct(A, K, h):
    """holonomy_reconstruct with the Magnus commutator by stacked complex @."""
    X = 1j * (A - K)
    X0, Xm, X1 = X[0:-1:2], X[1::2], X[2::2]
    Omega = h / 3 * (X0 + 4 * Xm + X1) + h * h / 3 * (X1 @ X0 - X0 @ X1)
    return from_real_embedding(ordered_product(expm_embedded(real_embedding(Omega), 1.0)))


class TestFrames:
    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_frame_orthonormal_and_cyclic(self, schedules, tag):
        segments = schedules[tag].segments
        for seg in segments:
            V = seg.frame(np.linspace(0.0, seg.duration, 513))
            gram = np.einsum("nkc,nlc->nkl", V.conj(), V)
            assert np.abs(gram - np.eye(V.shape[1])).max() <= 1e-10
        # computational rows close exactly; the auxiliary row only up to phase
        start = segments[0].frame(np.zeros(1))[0]
        end = segments[-1].frame(np.array([segments[-1].duration]))[0]
        assert np.abs(end[:-1] - start[:-1]).max() <= 1e-8

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
        for seg in schedules[tag].segments:
            times = np.linspace(0.0, seg.duration, 257)
            single = np.stack([seg.frame(np.array([t]))[0] for t in times])
            assert np.array_equal(seg.frame(times), single)

    def test_missing_frame_rejected(self):
        from test_dynamics import zero_schedule

        with pytest.raises(ValueError, match="frame"):
            reconstruct_computational_gate(zero_schedule(), 8)


class TestFrameConnection:
    def test_static_frame_zero_hamiltonian(self):
        from test_dynamics import zero_schedule

        H = segment_hamiltonian_nodes(zero_schedule(), 0, np.linspace(0.0, 1.0, 65), ErrorModel())
        V = np.tile(np.eye(3, dtype=complex)[None], (65, 1, 1))
        A, K = frame_connection(V, H, 1 / 64)
        assert np.abs(A).max() < 1e-12
        assert np.abs(K).max() < 1e-12

    def test_connection_hermitian(self, schedules):
        for A, _ in connections(schedules["s"], 512):
            assert np.abs(A - A.conj().transpose(0, 2, 1)).max() < 1e-14

    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_connection_and_dynamical_matrix_exactly_hermitian(self, schedules, tag):
        # the symmetrization makes every Magnus exponent exactly
        # anti-Hermitian, which is all expm_embedded asks of them
        for A, K in connections(schedules[tag], 2048):
            assert hermiticity_defect(A).max() == 0.0
            assert hermiticity_defect(K).max() == 0.0

    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_connection_and_transport_match_stacked_matmul(self, schedules, tag):
        # the node-last contractions give the stacked complex @ formulation
        # up to roundoff, on the lattice reconstruct_computational_gate uses
        sched = schedules[tag]
        for k, n in enumerate(allocate_steps(sched, 2048)):
            h, V, H = segment_lattice(sched, k, 2 * n)
            A, K = frame_connection(V, H, h)
            for got, ref in zip((A, K), stacked_connection(V, H, h)):
                assert got.shape == ref.shape
                assert np.abs(got - ref).max() <= 1e-15 * max(1.0, np.abs(ref).max())
            ref = stacked_reconstruct(A, K, h)
            assert np.abs(holonomy_reconstruct(A, K, h) - ref).max() <= 1e-15

    @pytest.mark.parametrize("frames, nodes, message", [
        *(pytest.param(n, n, f"{n} frame samples; five-point differences need at least 5",
                       id=str(n)) for n in (0, 4)),
        pytest.param(9, 8, "8 H nodes for 9 frame samples", id="9-8"),
    ])
    def test_rejects_too_few_samples(self, schedules, frames, nodes, message):
        # too few frame samples for the differences, or too few H nodes for them
        h, V, H = segment_lattice(schedules["sl"], 0, 8)
        with pytest.raises(ValueError, match=f"^{message}$"):
            frame_connection(V[:frames], H[:nodes], h)

    def test_s_scheme_dynamical_part_vanishes(self, schedules):
        # parallel transport built into the inverse-engineered loop
        for _, K in connections(schedules["s"], 1024):
            assert np.abs(K).max() < 1e-6

    def test_to_dynamical_geometric_proportionality(self, schedules):
        sched = schedules["to"]
        assert len(sched.segments) == 1
        h, V, H = segment_lattice(sched, 0, 4096)
        A, K = frame_connection(V, H, h)
        intK = np.cumsum(0.5 * (K[1:, 1, 1] + K[:-1, 1, 1]).real) * h
        intA = np.cumsum(0.5 * (A[1:, 1, 1] + A[:-1, 1, 1]).real) * h
        n0 = len(intK) // 10
        ratio = -intK[n0:] / intA[n0:]  # dynamical phase = -int K
        expected = sched.notes["dyn_geo_ratio"]
        assert np.abs(ratio - expected).max() < 1e-3
        assert np.abs(K[:, 1, 1]).max() > 0.1  # genuinely nonzero

    def test_rejects_drifting_frame(self, schedules):
        h, bad, H = segment_lattice(schedules["sl"], 0, 64)
        bad[10, 1] *= 1.001  # break normalization
        with pytest.raises(ValueError, match="drift|orthonormality"):
            frame_connection(bad, H, h)

    def test_rejects_nan_frame(self, schedules):
        # NaN compares False against any bound, so it must not pass as small drift
        h, bad, H = segment_lattice(schedules["sl"], 0, 64)
        bad[10, 1, 0] = np.nan
        with pytest.raises(ValueError, match="orthonormality drift nan"):
            frame_connection(bad, H, h)


class TestReconstruct:
    def test_zero_connection_identity(self):
        Z = np.zeros((65, 2, 2))
        assert np.abs(holonomy_reconstruct(Z, Z, 1 / 64) - np.eye(2)).max() < 1e-14

    def test_constant_abelian_connection(self):
        # A constant, K = 0: holonomy exp(i A tau) exactly
        A0 = np.array([[0.3, 0.1], [0.1, -0.2]], dtype=complex)
        A = np.tile(A0[None], (257, 1, 1))
        w, V = np.linalg.eigh(A0)
        expected = (V * np.exp(1j * w * 2.0)) @ V.conj().T
        assert np.abs(holonomy_reconstruct(A, 0 * A, 2.0 / 256) - expected).max() < 1e-12

    @pytest.mark.parametrize("samples, k_samples, message", [
        *(pytest.param(n, n, rf"{n} samples of A; the Magnus steps need 2n\+1, n >= 1",
                       id=str(n)) for n in (0, 1, 2, 64)),
        pytest.param(65, 63, "63 samples of K for 65 samples of A", id="65-63"),
    ])
    def test_rejects_sample_count_of_no_magnus_lattice(self, samples, k_samples, message):
        # 2n+1 samples, n >= 1: an even count or a single sample has no
        # lattice; K must be sampled on the lattice of A
        Z = np.zeros((samples, 2, 2), dtype=complex)
        with pytest.raises(ValueError, match=f"^{message}$"):
            holonomy_reconstruct(Z, Z[:k_samples], 0.1)

    @pytest.mark.parametrize("tag", ["sl", "ps", "c", "dc", "to", "s", "cdd", "ss",
                                     "sta", "dfs3"])
    def test_reconstruction_matches_propagation(self, schedules, ideal_runs, oracle_gates, tag):
        sched = schedules[tag]
        U_rec = reconstruct_computational_gate(sched)
        comp = list(sched.system.computational_indices)
        U_prop = ideal_runs[tag].final[np.ix_(comp, comp)]
        assert phase_distance(U_rec, U_prop) < 1e-9
        U_orc = oracle_gates[tag][np.ix_(comp, comp)]
        assert np.abs(align_phase(U_rec, U_orc) - U_orc).max() < 1e-10

    def test_to_at_gamma_pi(self):
        # gamma = pi stops the TO drive phase, so the frame's dynamical share
        # is taken as its limit; the reconstruction must stay finite and right
        sched = build_schedule(SchemeSpec("TO", GateAngles(PI, PI / 2, 0.0)))
        U_rec = reconstruct_computational_gate(sched)
        comp = list(sched.system.computational_indices)
        U_prop = propagate_unitary(sched).final[np.ix_(comp, comp)]
        ov = np.trace(U_rec.conj().T @ U_prop) / 2
        assert np.abs(U_prop - ov / abs(ov) * U_rec).max() < 1e-9
        U_orc = oracle_propagate_unitary(sched)[np.ix_(comp, comp)]
        assert np.abs(align_phase(U_rec, U_orc) - U_orc).max() < 1e-10

    def test_sl_reconstructs_quarter_turn(self, schedules):
        sched = schedules["sl"]
        U_rec = reconstruct_computational_gate(sched)
        expected = np.diag([np.exp(-1j * PI / 4), np.exp(1j * PI / 4)])
        assert phase_distance(U_rec, expected) < 1e-9
        # phase_distance is quadratic in the error; the entries are linear
        assert np.abs(align_phase(U_rec, expected) - expected).max() < 1e-10

    def test_finite_difference_fourth_order(self, schedules, oracle_gates):
        sched = schedules["s"]
        comp = list(sched.system.computational_indices)
        U_ref = oracle_gates["s"][np.ix_(comp, comp)]

        def defect(steps):
            U = reconstruct_computational_gate(sched, steps)
            ov = np.trace(U_ref.conj().T @ U) / 2
            return np.abs(U - (ov / abs(ov)).conj() * U_ref).max()

        assert defect(512) / defect(1024) >= 12.0

    def test_rejects_too_few_steps(self, schedules):
        with pytest.raises(ValueError, match="steps"):
            reconstruct_computational_gate(schedules["sl"], steps=1)

    def test_gauge_covariance(self, schedules, ideal_runs, oracle_gates):
        sched = schedules["sl"]
        tau = sched.total_duration
        X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

        def Vfun(t):
            lam = 0.7 * np.sin(PI * t / tau) ** 2
            return np.cos(lam) * np.eye(2) - 1j * np.sin(lam) * X

        U_rec = reconstruct_computational_gate(gauge_twisted(sched, Vfun))
        comp = list(sched.system.computational_indices)
        U_prop = ideal_runs["sl"].final[np.ix_(comp, comp)]
        assert phase_distance(U_rec, U_prop) < 1e-10
        U_orc = oracle_gates["sl"][np.ix_(comp, comp)]
        assert np.abs(align_phase(U_rec, U_orc) - U_orc).max() < 1e-10


class TestConditionResiduals:
    def test_sl_ideal(self, schedules):
        sched = schedules["sl"]
        cyc, par = condition_residuals(propagate_unitary(sched, samples=1500))
        assert cyc < 1e-7
        assert par < 1e-6

    def test_sl_rabi_error_breaks_cyclicity(self, schedules):
        sched = schedules["sl"]
        err = ErrorModel(epsilon=0.1)
        cyc0, _ = condition_residuals(propagate_unitary(sched, samples=1000))
        cyc1, _ = condition_residuals(propagate_unitary(sched, err, samples=1000))
        assert cyc1 > 100 * max(cyc0, 1e-12)
        assert cyc1 > 1e-3  # O(epsilon) scale

    def test_zero_drive(self):
        from test_dynamics import zero_schedule

        sched = zero_schedule()
        cyc, par = condition_residuals(propagate_unitary(sched, samples=100))
        assert cyc == pytest.approx(0.0, abs=1e-14)
        assert par == pytest.approx(0.0, abs=1e-14)

    def test_ps_dynamical_rate_matches_design(self, schedules):
        # the shaped loop violates pointwise parallel transport by exactly
        # (df/dt) sin^2(chi) / 2 along the driven trajectory
        sched = schedules["ps"]
        _, par = condition_residuals(propagate_unitary(sched, samples=1500))
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
        cyc, par = condition_residuals(propagate_unitary(sched, samples=2000))
        assert cyc < 1e-7, tag
        assert par < 1e-6, tag

    @pytest.mark.parametrize("tag", ["dc", "ps"])
    def test_net_dynamical_phase_cancels(self, schedules, ideal_runs, tag):
        # corrective/shaped loops carry O(omega_bar) instantaneous dynamical
        # rates that cancel over the cycle; cyclicity is unaffected
        sched = schedules[tag]
        cyc, par = condition_residuals(propagate_unitary(sched, samples=2000))
        assert cyc < 1e-7
        assert par > 0.1  # genuinely nonzero pointwise
        traj = ideal_runs[tag]
        b = sched.system.embed_qubit([0, -1])  # theta=0 bright
        psi = traj.operators @ b
        H = np.concatenate([segment_hamiltonian_nodes(sched, k, t, ErrorModel())
                            for k, t in segment_state_times(traj)])
        rate = np.einsum("ni,nij,nj->n", psi.conj(), H, psi).real
        assert abs(np.trapezoid(rate, traj.times)) < 1e-9

    @pytest.mark.parametrize("err", [ErrorModel(), ErrorModel(epsilon=0.03, eta=-0.02)])
    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_contractions_match_stacked_matmul(self, schedules, tag, err):
        # the parallel residual is taken segment by segment by node-last
        # products; the stacked complex @ gives the same value up to roundoff
        sched = schedules[tag]
        traj = propagate_unitary(sched, err)
        cyc, par = condition_residuals(traj)
        phis = traj.operators[:, :, list(sched.system.computational_indices)]
        H = np.concatenate([segment_hamiltonian_nodes(sched, k, t, err)
                            for k, t in segment_state_times(traj)])
        ref = np.abs(phis.conj().swapaxes(-1, -2) @ (H @ phis)).max()
        assert abs(par - ref) <= 1e-15

    def test_boundary_state_pairs_with_following_segment(self):
        # the weight on |0><0| jumps from 1 to 2 at the boundary and then
        # decays: only the boundary state, paired with the following
        # segment's H at its start, reaches the parallel residual 2
        system = LevelSystem.lambda3()
        P0 = np.diag([1.0, 0.0, 0.0]).astype(complex)

        def seg(weight):
            return Segment(1.0, P0[None], lambda t: weight(t)[:, None], envelope=np.ones_like)

        sched = PulseSchedule(system=system,
                              segments=(seg(np.ones_like), seg(lambda t: 2.0 * (1.0 - t))),
                              target=np.eye(2, dtype=complex), scheme_label="jump")
        traj = propagate_unitary(sched, samples=200)
        assert traj.steps == (100, 100)
        _, par = condition_residuals(traj)
        assert par == pytest.approx(2.0, abs=1e-10)  # 1.98 on the previous segment

    def test_reads_the_errors_of_its_run(self, schedules):
        # sl's run at epsilon = 0.03, eta = -0.02 is read under H at those
        # errors, which the run records, not at the ideal H
        sched = schedules["sl"]
        err = ErrorModel(epsilon=0.03, eta=-0.02)
        traj = propagate_unitary(sched, err)
        _, par = condition_residuals(traj)
        phis = traj.operators[:, :, list(sched.system.computational_indices)]

        def stacked(e):
            H = np.concatenate([segment_hamiltonian_nodes(sched, k, t, e)
                                for k, t in segment_state_times(traj)])
            return np.abs(phis.conj().swapaxes(-1, -2) @ (H @ phis)).max()

        assert abs(par - stacked(err)) <= 1e-15
        assert abs(par - stacked(ErrorModel())) > 1e-3

    def test_reads_the_schedule_of_its_run(self):
        # sl built for gate T: the run carries that schedule, whose loop it
        # closes and transports parallel
        sched = build_schedule(SchemeSpec("SL", GateAngles(PI / 4, 0.0, 0.0)))
        cyc, par = condition_residuals(propagate_unitary(sched))
        assert cyc < 1e-9
        assert par < 1e-9

    def test_rejects_open_system_trajectory(self, schedules):
        sched = schedules["sl"]
        err = ErrorModel(gamma_minus=1e-3)
        traj = propagate_lindblad(sched, err, six_axial_densities(sched.system), samples=200)
        with pytest.raises(ValueError, match="takes a unitary trajectory, not 'lindblad'"):
            condition_residuals(traj)
