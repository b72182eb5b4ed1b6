import importlib.util
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import expm_phi, phase_distance, rk4_linear
from nhqcbench import dynamics, numkit
from nhqcbench.dynamics import (
    ORACLE_SLICES,
    UNITARY_SAMPLES,
    _validate_density,
    allocate_steps,
    jump_operators,
    lindblad_superoperator,
    oracle_propagate_lindblad,
    oracle_propagate_unitary,
    propagate_lindblad,
    propagate_lindblad_grid,
    propagate_unitary,
    segment_state_times,
    six_axial_densities,
    six_axial_states,
)
from nhqcbench.numkit import real_embedding
from nhqcbench.schemes import dfs3_schedule
from nhqcbench.system import (
    Constant,
    ErrorModel,
    LevelSystem,
    PulseSchedule,
    Segment,
    bright_ray_segment,
    detuning_error,
    segment_hamiltonian_nodes,
)

PI = np.pi


def zero_schedule(duration=1.0):
    seg = bright_ray_segment(
        LevelSystem.lambda3(),
        duration=duration,
        drive=lambda t: (np.zeros(np.shape(t)),) * 3,
        bright_axis=(0.0, 0.0),
        detuned=True,
    )
    return PulseSchedule(
        system=LevelSystem.lambda3(),
        segments=(seg,),
        target=np.eye(2, dtype=complex),
        scheme_label="null",
    )


def cf4_exponents(sched, dtype=complex):
    """Per segment of the ideal unitary oracle, its slice length h and the
    CF4 exponents a H1 + b H2, b H1 + a H2 of every slice, interleaved in
    time order, (2n, d, d), formed in `dtype` from the H nodes at the two
    Gauss nodes of each slice."""
    a, b = (np.array(c, dtype=dtype).real for c in (dynamics._CF4_A, dynamics._CF4_B))
    d = sched.system.dim
    alloc = allocate_steps(sched, ORACLE_SLICES, floor=16)
    for si, (seg, n) in enumerate(zip(sched.segments, alloc)):
        h = seg.duration / n
        t0 = np.arange(n) * h
        H1, H2 = (segment_hamiltonian_nodes(sched, si, t0 + c * h, ErrorModel()).astype(dtype)
                  for c in (dynamics._CF4_C1, dynamics._CF4_C2))
        yield h, np.stack([a * H1 + b * H2, b * H1 + a * H2], axis=1).reshape(-1, d, d)


def poisoned_schedule(k, bad):
    """A unit-duration Lambda schedule whose Hamiltonian carries 2 bad at
    |0><1| + |1><0| at both Gauss nodes (0.289 h from the midpoint) of
    slice k of 1000, and nowhere else; each CF4 exponent of that slice,
    weighted a + b = 1/2, carries bad."""
    h = 1.0 / 1000
    ops = np.zeros((2, 3, 3), dtype=complex)
    ops[0, 1, 2] = ops[0, 2, 1] = ops[1, 0, 1] = ops[1, 1, 0] = 1.0

    def coefficients(t):
        c = np.zeros((t.size, 2))
        c[:, 0] = 1.0
        c[np.abs(t - (k + 0.5) * h) < 0.3 * h, 1] = 2 * bad
        return c

    seg = Segment(1.0, ops, coefficients, envelope=lambda t: np.ones_like(t))
    return PulseSchedule(system=LevelSystem.lambda3(), segments=(seg,),
                         target=np.eye(2, dtype=complex), scheme_label="bad")


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

    @pytest.mark.parametrize("err", [ErrorModel(), ErrorModel(epsilon=0.03), ErrorModel(eta=-0.04)],
                             ids=["ideal", "epsilon", "eta"])
    def test_real_embedding_chain_matches_complex_rk4(self, schedules, err):
        # the chain of phi(U) reads back the RK4 of the complex generators
        # -iH on the same half-step lattices
        for tag, sched in schedules.items():
            segments = []
            for si, (seg, n) in enumerate(zip(sched.segments,
                                              allocate_steps(sched, UNITARY_SAMPLES))):
                lattice = np.linspace(0.0, seg.duration, 2 * n + 1)
                segments.append((seg.duration / n,
                                 -1j * segment_hamiltonian_nodes(sched, si, lattice, err)))
            ref = rk4_linear(np.eye(sched.system.dim), segments)
            assert np.abs(propagate_unitary(sched, err).operators - ref).max() <= 1e-13, tag

    @pytest.mark.parametrize("err", [ErrorModel(), ErrorModel(epsilon=0.03, eta=-0.02)])
    def test_drift_matches_stacked_matmul(self, schedules, err):
        # the drift is unitarity_defect's einsum; the stacked complex @ it
        # replaced gives the same value up to roundoff
        for tag, sched in schedules.items():
            ops = propagate_unitary(sched, err).operators
            ref = np.abs(ops @ ops.conj().transpose(0, 2, 1) - np.eye(sched.system.dim)).max()
            assert abs(numkit.unitarity_defect(ops) - ref) <= 1e-15, tag

    def test_coarse_run_fails_the_drift_check(self, schedules):
        with pytest.raises(RuntimeError, match="unitarity drift .* exceeds"):
            propagate_unitary(schedules["sl"], samples=1)


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

    def test_rejects_non_hermitian_rho0(self, schedules):
        bad = basis_rho(3, 0)
        bad[0, 1] = 1e-6
        with pytest.raises(RuntimeError, match=r"Hermiticity defect 1\.000e-06 in rho0"):
            propagate_lindblad(schedules["sl"], ErrorModel(), bad, samples=50)

    def test_three_qubit_rejects_decoherence(self):
        sched = dfs3_schedule(0.0)
        with pytest.raises(ValueError, match="excited"):
            propagate_lindblad(sched, ErrorModel(gamma_minus=1e-4),
                               basis_rho(8, 2), samples=50)


def off_diagonal_pair(value):
    """|0><0| of a qutrit with `value` in its entries (0, 1) and (1, 0)."""
    rho = basis_rho(3, 0)
    rho[0, 1] = rho[1, 0] = value
    return rho


BAD_RHO0 = [
    pytest.param(np.eye(9, dtype=complex) / 9, ValueError,
                 r"rho0 shape \(9, 9\) does not match dim 3$", id="9x9"),
    pytest.param(2 * basis_rho(3, 0), RuntimeError, r"trace deviates by 1\.000e\+00 in rho0$",
                 id="trace-2"),
    pytest.param(np.diag([1.5, -0.5, 0.0]), RuntimeError,
                 r"negative eigenvalue -5\.000e-01 in rho0$", id="negative"),
    pytest.param(basis_rho(3, 0) + 0.5 * np.eye(3, k=1), RuntimeError,
                 r"Hermiticity defect 5\.000e-01 in rho0$", id="non-hermitian"),
    pytest.param(np.zeros((0, 3, 3)), ValueError, r"rho0 shape \(0, 3, 3\) holds no density$",
                 id="empty"),
    # the trace reads only the diagonal and a NaN passes the Hermiticity
    # test, so a non-finite entry off it is first seen by the pivots
    pytest.param(off_diagonal_pair(np.nan), RuntimeError, r"non-finite entry in rho0$", id="nan"),
    pytest.param(off_diagonal_pair(np.inf), RuntimeError, r"non-finite entry in rho0$", id="inf"),
]


class TestRho0Intake:
    """Every Lindblad entry point takes rho0 through one intake."""

    @pytest.mark.parametrize("rho0, exc, message", BAD_RHO0)
    def test_every_route_rejects_alike(self, schedules, rho0, exc, message):
        sched, err = schedules["sl"], ErrorModel(gamma_minus=1e-4)
        routes = {
            "rk4": lambda: propagate_lindblad(sched, err, rho0, samples=50),
            "grid": lambda: propagate_lindblad_grid(sched, [err], rho0, samples=50),
            "oracle": lambda: oracle_propagate_lindblad(sched, err, rho0, slices=32),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and none of them warns
            for run in routes.values():
                with pytest.raises(exc, match=message):
                    run()

    def test_grid_checks_rho0_once(self, schedules, monkeypatch):
        # rho0 is checked once per call, and each chunk rk4_chunks yields to
        # a Lindblad pass once, as it is yielded; a unitary pass checks no
        # density.  Nine points of d = 8 run in two blocks of eight
        assert dynamics.CHUNK_ELEMENTS // 8 ** 4 == 8
        sched = schedules["dfs3"]
        errs = [ErrorModel(epsilon=x) for x in np.linspace(-0.02, 0.02, 9)]
        rho0 = six_axial_densities(sched.system)
        events, yielded = [], []
        original_check, original_chunks = dynamics._validate_density, dynamics.rk4_chunks

        def check(states, where, *args):
            if where == "during evolution":
                assert states is yielded[-1]
            events.append(where)
            return original_check(states, where, *args)

        def chunks(*args):
            for states in original_chunks(*args):
                yielded.append(states)
                events.append("chunk")
                yield states
        monkeypatch.setattr(dynamics, "_validate_density", check)
        monkeypatch.setattr(dynamics, "rk4_chunks", chunks)
        runs = {
            "grid": lambda: propagate_lindblad_grid(sched, errs, rho0, samples=400),
            "lindblad": lambda: propagate_lindblad(sched, errs[0], rho0, samples=400),
            "unitary": lambda: propagate_unitary(sched, errs[0], samples=400),
        }
        for name, run in runs.items():
            events.clear()
            yielded.clear()
            run()
            n = len(yielded)
            assert n > 1, name
            if name == "unitary":
                assert events == ["chunk"] * n
            else:
                assert events == ["in rho0"] + ["chunk", "during evolution"] * n, name


GRID_AXES = {
    "epsilon": [ErrorModel(epsilon=x, gamma_minus=3e-4, gamma_z=3e-4)
                for x in (-0.1, -0.02, 0.05)],
    "eta": [ErrorModel(eta=x, gamma_minus=2e-4, gamma_z=1e-4) for x in (-0.08, 0.0, 0.03)],
    "decoherence": [ErrorModel(gamma_minus=x, gamma_z=x) for x in (0.0, 3e-4, 6e-4)],
}


def assert_grid_matches_points(schedule, errs, samples):
    rho0 = six_axial_densities(schedule.system)
    final, peak, steps = propagate_lindblad_grid(schedule, errs, rho0, samples)
    assert final.shape == (len(errs), 6) + rho0.shape[1:]
    for g, err in enumerate(errs):
        traj = propagate_lindblad(schedule, err, rho0, samples)
        assert np.array_equal(final[g], traj.final)
        assert peak[g] == traj.excited_population.max()
        assert steps == len(traj.times) - 1


class TestLindbladGrid:
    @pytest.mark.parametrize("axis", sorted(GRID_AXES))
    @pytest.mark.parametrize("tag", ["sl", "cdd", "to"])
    def test_grid_matches_pointwise(self, schedules, tag, axis):
        assert_grid_matches_points(schedules[tag], GRID_AXES[axis], 1000)

    def test_dfs3_closed_epsilon_grid(self, schedules):
        # the one scheme with m = 64: a 3-point d = 8 grid against single points
        errs = [ErrorModel(epsilon=x) for x in (-0.05, 0.0, 0.1)]
        assert_grid_matches_points(schedules["dfs3"], errs, 400)

    def test_dfs3_eight_point_grid(self, schedules):
        # an 8-point d = 8 grid against single points
        errs = [ErrorModel(epsilon=x) for x in np.linspace(-0.1, 0.1, 8)]
        assert_grid_matches_points(schedules["dfs3"], errs, 400)

    def test_blocks_of_the_grid_leave_values_unchanged(self, schedules, monkeypatch):
        sched = schedules["ps"]
        errs = GRID_AXES["epsilon"] + GRID_AXES["eta"]
        rho0 = six_axial_densities(sched.system)
        whole = propagate_lindblad_grid(sched, errs, rho0, 200)
        monkeypatch.setattr(dynamics, "CHUNK_ELEMENTS", 2 * 9 ** 2)  # blocks of two points
        blocked = propagate_lindblad_grid(sched, errs, rho0, 200)
        assert np.array_equal(whole[0], blocked[0]) and np.array_equal(whole[1], blocked[1])

    def test_one_dissipator_fold_per_rate_pair(self, schedules, monkeypatch):
        # six points with two (gamma_minus, gamma_z) pairs: the pass folds
        # the eta terms, each pair's dissipator and each segment's ops once
        sched = schedules["sl"]
        folds = []
        original = dynamics._fold

        def spy(L):
            folds.append(L.shape)
            return original(L)
        monkeypatch.setattr(dynamics, "_fold", spy)
        errs = GRID_AXES["epsilon"] + GRID_AXES["eta"]
        propagate_lindblad_grid(sched, errs, six_axial_densities(sched.system), samples=1000)
        assert len(folds) == 1 + 2 + len(sched.segments)

    @pytest.mark.parametrize("rho0", [basis_rho(3, 0)[None], np.zeros((1, 3, 3))])
    def test_rejects_empty_grid_first(self, schedules, rho0):
        with pytest.raises(ValueError, match="^empty error grid$"):
            propagate_lindblad_grid(schedules["sl"], [], rho0, samples=50)

    @pytest.mark.parametrize("errs", [
        [ErrorModel(epsilon=0.0, gamma_minus=1e-4)],
        GRID_AXES["decoherence"],  # its first point is closed
    ])
    def test_three_qubit_rejects_decoherence(self, errs):
        sched = dfs3_schedule(0.0)
        with pytest.raises(ValueError, match="no excited level"):
            propagate_lindblad_grid(sched, errs, basis_rho(8, 2)[None], samples=50)


def rotated_density(eigenvalues, seed=0, d=3):
    """A random rotation of diag(eigenvalues), padded with zeros to d levels."""
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Q, _ = np.linalg.qr(M)
    w = np.zeros(d)
    w[:len(eigenvalues)] = eigenvalues
    return (Q * w) @ Q.conj().T


class TestValidateDensity:
    def test_negative_eigenvalue_named(self):
        stack = np.stack([rotated_density([0.5, 0.5, 0.0], 1),
                          rotated_density([1 + 2e-9, -2e-9, 0.0], 2)])
        with pytest.raises(RuntimeError, match=r"negative eigenvalue -2\.000e-09 at t"):
            _validate_density(chunk_coordinates(stack), "at t")

    def test_small_negative_eigenvalue_within_tolerance(self):
        _validate_density(chunk_coordinates(rotated_density([1 + 5e-10, -5e-10, 0.0], 3)[None]),
                          "at t")

    def test_rank_deficient_state_passes(self, monkeypatch):
        # a pure state sits on the boundary the tolerance keeps inside: the
        # pivots must pass it, with no chunk falling back to eigvalsh
        calls = count_eigvalsh(monkeypatch)
        _validate_density(chunk_coordinates(six_axial_densities(LevelSystem.lambda3())), "at t")
        assert len(calls) == 0

    def test_rejections_on_the_engine_layout(self):
        # the check reads such a chunk in place and still names both faults
        rho = np.broadcast_to(basis_rho(3, 0), (4, 3, 5, 3, 3)).copy()
        rho[1, 2, 0, 2, 2] = 1e-6
        states = engine_layout(chunk_coordinates(rho))
        assert np.shares_memory(np.moveaxis(states, -2, 0).reshape(3, 3, -1), states)
        with pytest.raises(RuntimeError, match=r"trace deviates by 1\.000e-06 at t"):
            _validate_density(states, "at t")
        rho[1, 2, 0] = rotated_density([1 + 2e-9, -2e-9, 0.0], 2)
        with pytest.raises(RuntimeError, match=r"negative eigenvalue -2\.000e-09 at t"):
            _validate_density(engine_layout(chunk_coordinates(rho)), "at t")

    def test_evolved_near_pure_states_pass(self, schedules, monkeypatch):
        # the near-pure states of an open run sit about 1e-9 from the
        # boundary: the pivots must pass them all without eigvalsh
        calls = count_eigvalsh(monkeypatch)
        sched = schedules["sl"]
        errs = [ErrorModel(epsilon=x, gamma_minus=3e-4, gamma_z=3e-4) for x in (-0.02, 0.02)]
        propagate_lindblad_grid(sched, errs, six_axial_densities(sched.system))
        assert len(calls) == 0


class TestChunkLayout:
    """Every chunk of a pass is a view of rk4_chunks' one coordinate-major
    buffer, so the density check and the grid's peak read it in place."""

    @pytest.mark.parametrize("points", [1, 3])
    @pytest.mark.parametrize("tag", ["sl", "ps"])  # square and varying segments
    def test_lindblad_chunks_are_read_in_place(self, schedules, tag, points):
        sched = schedules[tag]
        d = sched.system.dim
        cols = dynamics._rho0_columns(sched.system, six_axial_densities(sched.system))
        errs = GRID_AXES["epsilon"][:points]
        _, _, chunks = dynamics._rk4_pass(sched, errs, cols, "lindblad", 1000)
        # the q of _validate_density splits these d*d coordinates into (d, d)
        self.check_chunks(chunks, d * d)

    def test_unitary_chunks_are_coordinate_major(self, schedules):
        sched = schedules["ps"]
        m = 2 * sched.system.dim
        _, _, chunks = dynamics._rk4_pass(sched, [ErrorModel()], np.eye(m), "unitary", 1000)
        self.check_chunks(chunks, m)

    @staticmethod
    def check_chunks(chunks, m):
        """Each chunk, as it is yielded, reads as its C-ordered copy, and
        its m coordinates are a view of it; the last one still holds its
        values once the iterator is exhausted."""
        seen = []
        for chunk in chunks:
            copy = np.ascontiguousarray(chunk)
            assert np.array_equal(chunk, copy)
            assert np.shares_memory(np.moveaxis(chunk, -2, 0).reshape(m, -1), chunk)
            seen.append((chunk, copy))
        assert len(seen) > 1
        last, copy = seen[-1]
        assert np.array_equal(last, copy)


def engine_layout(states):
    """Coordinates Q (..., d*d, k) in the layout of a chunk of rk4_chunks:
    a view of a coordinate-major (d*d, ..., k) array."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(states, -2, 0)), 0, -2)


def count_eigvalsh(monkeypatch):
    """A list that gains one entry per call of np.linalg.eigvalsh."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
    return calls


def chunk_coordinates(rho):
    """Densities (..., k, d, d) as the coordinates Q that rk4_chunks yields
    for them, (..., d*d, k): (c, G, d*d, k) for a chunk, (d*d, k) for a
    batch."""
    d = rho.shape[-1]
    return (rho.real + rho.imag).reshape(rho.shape[:-2] + (d * d,)).swapaxes(-1, -2)


def random_densities(d, n, shift, seed):
    """n random states of rank 1 to d - 1, shifted by shift*I and renormalised:
    their smallest eigenvalues sit at about shift."""
    rng = np.random.default_rng(seed)
    rho = []
    for i in range(n):
        shape = (d, 1 + i % (d - 1))
        V = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        rho.append(V @ V.conj().T / np.linalg.norm(V) ** 2 + shift * np.eye(d))
    rho = np.stack(rho)
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


class TestValidateCoordinates:
    """The check on the coordinates rk4_chunks yields, and on those of rho0."""

    def test_negative_eigenvalue_named_on_both_routes(self, schedules):
        self.check_negative_eigenvalue_named(schedules["sl"], 3)

    @pytest.mark.parametrize("tag, d", [("sta", 4), ("dfs3", 8)])
    def test_negative_eigenvalue_named_at_larger_d(self, schedules, tag, d):
        self.check_negative_eigenvalue_named(schedules[tag], d)

    @staticmethod
    def check_negative_eigenvalue_named(sched, d):
        """A state with eigenvalue -2e-9 is named in rho0 and in a chunk."""
        rho = np.stack([rotated_density([0.5, 0.5], 1, d),
                        rotated_density([1 + 2e-9, -2e-9], 2, d)])
        with pytest.raises(RuntimeError, match=r"negative eigenvalue -2\.000e-09 in rho0"):
            propagate_lindblad(sched, ErrorModel(), rho, samples=50)
        chunk = np.broadcast_to(rho[0], (4, 3, 5, d, d)).copy()
        chunk[2, 1, 3] = rho[1]
        with pytest.raises(RuntimeError, match=r"negative eigenvalue -2\.000e-09 at t"):
            _validate_density(chunk_coordinates(chunk), "at t")

    def test_trace_deviation_rejected(self):
        chunk = np.broadcast_to(basis_rho(3, 0), (4, 3, 5, 3, 3)).copy()
        chunk[1, 2, 0, 2, 2] = 1e-6
        with pytest.raises(RuntimeError, match=r"trace deviates by 1\.000e-06 at t"):
            _validate_density(chunk_coordinates(chunk), "at t")

    def test_nan_rho0_rejected(self, schedules):
        with pytest.raises(RuntimeError, match="trace deviates by nan in rho0"):
            propagate_lindblad(schedules["sl"], ErrorModel(), np.full((3, 3), np.nan), samples=50)

    @pytest.mark.parametrize("d", [3, 4, 8])
    @pytest.mark.parametrize("shift", [2e-9, -2e-9])
    def test_verdicts_agree_with_eigvalsh(self, d, shift, monkeypatch):
        # +-2e-9 is far outside the roundoff of the elimination at the 1e-9
        # margin, so its pivots must decide every state as eigvalsh does,
        # without falling back to eigvalsh for the states that pass
        rho = random_densities(d, 60, shift, seed=d)
        passes = np.linalg.eigvalsh(rho).min(axis=1) >= dynamics.POSITIVITY_TOL
        assert passes.all() if shift > 0 else not passes.any()
        calls = count_eigvalsh(monkeypatch)
        for i, r in enumerate(rho):
            states = chunk_coordinates(r[None] if i % 2 else r[None, None, None])
            if passes[i]:
                _validate_density(states, "at t")
            else:
                with pytest.raises(RuntimeError, match="negative eigenvalue"):
                    _validate_density(states, "at t")
        assert len(calls) == np.count_nonzero(~passes)
        if shift > 0:
            _validate_density(chunk_coordinates(rho.reshape(6, 2, 5, d, d)), "at t")
            assert len(calls) == 0


def dump_outputs():
    """scripts/dump_outputs.py, loaded as a module."""
    path = Path(__file__).parent.parent / "scripts" / "dump_outputs.py"
    spec = importlib.util.spec_from_file_location("dump_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REFERENCE = Path(__file__).parent / "data" / "reference.json"


class TestOracles:
    def test_outputs_match_the_reference_file(self, oracle_gates, ideal_runs):
        # tests/data/reference.json, written by dump_outputs.py --reference:
        # no numerical change may move an output of a scheme, a summary of
        # its trajectories or a sweep point by more than the script's BOUND
        script = dump_outputs()
        ref = script.read_reference(REFERENCE)
        out = script.reference(oracle_gates=oracle_gates, ideal_runs=ideal_runs)
        assert sorted(out) == sorted(ref)
        moved = []
        for key, value in out.items():
            assert value.shape == ref[key].shape, key
            deviation = np.abs(value - ref[key]).max()
            if not deviation <= script.BOUND:  # NaN fails too
                moved.append(f"{key}: {deviation:.1e} exceeds {script.BOUND:.0e}")
        if moved:
            pytest.fail("\n".join(moved))

    def test_reference_file_is_in_canonical_form(self):
        # write_reference's format, applied to what read_reference reads
        # back, gives the committed file byte for byte: the round trip is
        # exact and the file keeps one key per line
        script = dump_outputs()
        text = REFERENCE.read_text()
        assert script.format_reference(script.read_reference(REFERENCE)) == text

    def test_summary_sum_bounds_and_catches_moves(self):
        # two segments of 21 rows, sampled at rows 0, 10, 20 of each: a move
        # of 2 BOUND on every other row moves the mean by 2 BOUND 36/42 >
        # BOUND, and no move of at most BOUND per entry moves it by more
        script = dump_outputs()
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(42, 2, 2)) + 1j * rng.normal(size=(42, 2, 2))

        def summarise(a):
            return script.summary("x", [a[:21], a[21:]])

        base = summarise(rows)
        skipped = np.ones(42, dtype=bool)
        skipped[[0, 10, 20, 21, 31, 41]] = False
        moved = summarise(rows + 2 * script.BOUND * skipped[:, None, None])
        assert np.array_equal(moved["x/rows"], base["x/rows"])
        assert np.abs(moved["x/sum"] - base["x/sum"]).max() > script.BOUND
        for _ in range(20):
            small = summarise(rows + script.BOUND * rng.uniform(-1, 1, rows.shape))
            assert np.abs(small["x/sum"] - base["x/sum"]).max() <= script.BOUND

    def test_unitary_oracle_exact_for_constant_drive(self, schedules):
        # piecewise-constant segments make the sliced product exact
        sched = schedules["sl"]
        from nhqcbench.numkit import from_real_embedding

        H1 = segment_hamiltonian_nodes(sched, 0, [0.1], ErrorModel())[0]
        H2 = segment_hamiltonian_nodes(sched, 1, [sched.segments[1].duration - 0.1], ErrorModel())[0]
        half = sched.total_duration / 2
        expected = (from_real_embedding(expm_phi(H2, half))
                    @ from_real_embedding(expm_phi(H1, half)))
        U = oracle_propagate_unitary(sched, slices=64)
        assert np.abs(U - expected).max() < 1e-12

    @pytest.mark.parametrize("tag", ["c", "sta"])
    def test_unitary_oracle_matches_sequential_slice_loop(self, schedules, oracle_gates, tag):
        # the CF4 slice product multiplied out one factor at a time
        from nhqcbench.numkit import from_real_embedding

        sched = schedules[tag]
        U = np.eye(sched.system.dim, dtype=complex)
        for h, X in cf4_exponents(sched):
            for V in from_real_embedding(expm_phi(X, h)):
                U = V @ U
        assert np.abs(oracle_gates[tag] - U).max() <= 1e-12

    def test_unitary_oracle_matches_longdouble_product(self, schedules, oracle_gates):
        # the same CF4 slices, their exponents formed in clongdouble and each
        # exponential a degree-9 Taylor polynomial (truncation ~1e-40 at
        # ||X|| h ~ 1e-4), multiplied out one at a time
        sched = schedules["sl"]
        eye = np.eye(sched.system.dim, dtype=np.clongdouble)
        U = eye.copy()
        for h, Xs in cf4_exponents(sched, dtype=np.clongdouble):
            X = np.clongdouble(-1j) * np.longdouble(h) * Xs
            E = eye + X / 9
            for k in range(8, 0, -1):
                E = eye + (X @ E) / k
            for V in E:
                U = V @ U
        assert np.abs(oracle_gates["sl"] - U).max() <= 1e-11

    @pytest.mark.parametrize("bad, message", [
        (np.nan, r"expm_taylor: .* in matrix 777 is not finite"),
    ])
    def test_unitary_oracle_rejection_names_the_slice(self, bad, message):
        # the rejection must name the slice by its place in time; H cannot
        # be non-Hermitian, since Segment checks its ops
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                oracle_propagate_unitary(poisoned_schedule(777, bad), slices=1000)

    def test_unitary_oracle_rejection_past_the_first_chunk(self):
        # 1000 slices of d = 3 are two chunks of up to 910: slice 977 is
        # slice 67 of the second
        with pytest.raises(ValueError, match=r"in matrix 977 is not finite"):
            oracle_propagate_unitary(poisoned_schedule(977, np.nan), slices=1000)

    def test_unitary_oracle_memory_does_not_scale_with_slices(self, schedules):
        # a segment's slices are built chunk by chunk; one whole-segment
        # stack of the 2e4 dfs3 exponentials would be about 40 MiB
        tracemalloc.start()
        try:
            oracle_propagate_unitary(schedules["dfs3"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("tag", ["ps", "cdd", "s", "sta"])
    def test_rk4_vs_oracle_measures_rk4(self, schedules, ideal_runs, oracle_gates, tag):
        # on smooth drives the oracle is the more accurate route, so their
        # difference is RK4's own error, read off against 4x the steps
        rk4 = ideal_runs[tag].final
        fine = propagate_unitary(schedules[tag], samples=4 * UNITARY_SAMPLES).final
        own = np.abs(rk4 - fine).max()
        assert abs(np.abs(rk4 - oracle_gates[tag]).max() - own) <= 0.1 * own

    def test_unitary_oracle_converged(self, schedules, oracle_gates):
        # twice the slices move no scheme beyond the product's roundoff
        err = ErrorModel(epsilon=0.03, eta=-0.02)
        fine = 2 * ORACLE_SLICES
        for tag, sched in schedules.items():
            assert np.abs(oracle_propagate_unitary(sched, slices=fine)
                          - oracle_gates[tag]).max() <= 5e-12, tag
            assert np.abs(oracle_propagate_unitary(sched, err, slices=fine)
                          - oracle_propagate_unitary(sched, err)).max() <= 5e-12, tag

    def test_lindblad_oracle_matches_analytic_decay(self):
        G = 0.05
        sched = zero_schedule(duration=2.0)
        rho0 = basis_rho(3, 2)
        out = oracle_propagate_lindblad(sched, ErrorModel(gamma_minus=G), rho0,
                                        slices=64)
        assert out[2, 2].real == pytest.approx(np.exp(-4 * G), abs=1e-12)

    def test_lindblad_oracle_batch_matches_single(self, schedules):
        sched = schedules["dc"]
        err = ErrorModel(epsilon=0.02, gamma_minus=3e-4, gamma_z=3e-4)
        rho0 = six_axial_densities(sched.system)
        batch = oracle_propagate_lindblad(sched, err, rho0, slices=64)
        for r, out in zip(rho0, batch):
            assert np.array_equal(oracle_propagate_lindblad(sched, err, r, slices=64), out)

    @pytest.mark.parametrize("tag", ["sl", "cdd"])
    def test_lindblad_oracle_matches_scipy_slice_loop(self, schedules, tag):
        # the CF4 product one slice at a time, each exponent by scipy's expm;
        # 1000 slices span several chunks of the batched route
        import scipy.linalg

        sched = schedules[tag]
        err = ErrorModel(epsilon=0.05, gamma_minus=3e-4, gamma_z=3e-4)
        rho0 = six_axial_densities(sched.system)
        P = np.eye(9, dtype=complex)
        for si, (seg, n) in enumerate(zip(sched.segments, allocate_steps(sched, 1000, floor=16))):
            h = seg.duration / n
            t0 = np.arange(n) * h
            L1, L2 = (lindblad_superoperator(sched.system, err,
                                             segment_hamiltonian_nodes(sched, si, t0 + c * h, err))
                      for c in (dynamics._CF4_C1, dynamics._CF4_C2))
            a, b = dynamics._CF4_A, dynamics._CF4_B
            for k in range(n):
                E1 = scipy.linalg.expm(h * (a * L1[k] + b * L2[k]))
                E2 = scipy.linalg.expm(h * (b * L1[k] + a * L2[k]))
                P = E2 @ E1 @ P
        ref = (P @ rho0.reshape(-1, 9, 1)).reshape(rho0.shape)
        out = oracle_propagate_lindblad(sched, err, rho0, slices=1000)
        assert np.abs(out - ref).max() <= 1e-12

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


def random_hermitian(rng, shape, d):
    M = rng.normal(size=shape + (d, d)) + 1j * rng.normal(size=shape + (d, d))
    return M + M.conj().swapaxes(-1, -2)


class TestRealCoordinates:
    @pytest.mark.parametrize("system, err", [
        (LevelSystem.lambda3(), ErrorModel(gamma_minus=0.1, gamma_z=0.2)),
        (LevelSystem.three_qubit8(), ErrorModel()),
    ], ids=["lambda3-open", "three-qubit-closed"])
    def test_folded_generator_acts_on_coordinates(self, system, err):
        # dQ/dt = fold(L) vec Q is Re + Im of L vec rho, for any Hermitian rho
        d = system.dim
        rng = np.random.default_rng(21)
        L = lindblad_superoperator(system, err, random_hermitian(rng, (4,), d))
        F = dynamics._fold(L)
        assert F.dtype == np.float64 and F.shape == (4, d * d, d * d)
        rho = random_hermitian(rng, (4,), d)
        drho = L @ rho.reshape(4, d * d, 1)
        dq = F @ dynamics._coordinates(rho).reshape(4, d * d, 1)
        assert np.abs(dq - (drho.real + drho.imag)).max() <= 1e-13

    @pytest.mark.parametrize("system", [LevelSystem.lambda3(), LevelSystem.three_qubit8()],
                             ids=["lambda3", "three-qubit"])
    def test_axial_densities_round_trip_exactly(self, system):
        rho = six_axial_densities(system)
        q = dynamics._coordinates(rho)
        assert q.dtype == np.float64
        assert np.array_equal(dynamics._density(q.reshape(6, -1)), rho)

    def test_read_back_is_hermitian_bit_for_bit(self):
        rng = np.random.default_rng(22)
        q = rng.normal(size=(5, 2, 9))
        rho = dynamics._density(q)
        assert rho.shape == (5, 2, 3, 3)
        assert np.array_equal(rho, rho.conj().swapaxes(-1, -2))
        # the trace is that of Q, and both ways round trip to rounding
        Q = q.reshape(5, 2, 3, 3)
        assert np.array_equal(np.trace(rho, axis1=-2, axis2=-1), np.trace(Q, axis1=-2, axis2=-1))
        assert np.abs(dynamics._coordinates(rho) - Q).max() <= 2 ** -52 * np.abs(Q).max()
        back = dynamics._density(dynamics._coordinates(rho).reshape(5, 2, 9))
        assert np.abs(back - rho).max() <= 2 ** -52 * np.abs(rho).max()

    def test_oracle_rejects_non_hermitian_rho0(self, schedules):
        bad = basis_rho(3, 0)
        bad[0, 1] = 0.5
        with pytest.raises(RuntimeError, match=r"Hermiticity defect 5\.000e-01 in rho0"):
            oracle_propagate_lindblad(schedules["sl"], ErrorModel(gamma_minus=1e-4), bad,
                                      slices=32)


class TestLiftMap:
    """The lift of H = sum_k c_k H_k is sum_k c_k times the lifts of the
    ops, to roundoff: RK4 and both oracles lift each op once."""

    SYSTEMS = [LevelSystem.lambda3(), LevelSystem.tripod4(), LevelSystem.three_qubit8()]

    @staticmethod
    def assert_lift_is_linear(system, c, ops, H):
        for kind in ("unitary", "lindblad"):
            lifted = dynamics._lift(system, kind, ops).reshape(len(ops), -1)
            # a lifted entry is a sum of at most two coordinates of H, each a
            # sum of K products: a few roundings of the largest term per node
            bound = 4 * len(ops) * 2.0 ** -53 * (np.abs(c) @ np.abs(lifted).max(axis=1))
            diff = np.abs(c @ lifted - dynamics._lift(system, kind, H).reshape(len(H), -1))
            diff = diff.max(axis=1)
            assert (diff <= bound).all(), kind

    @pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: str(s.dim))
    def test_random_hermitian(self, system):
        rng = np.random.default_rng(system.dim)
        d = system.dim
        A = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
        ops = A + A.conj().swapaxes(-1, -2)
        c = rng.normal(size=(20, 3))
        self.assert_lift_is_linear(system, c, ops, np.einsum("nk,kij->nij", c, ops))

    def test_catalog_drives_and_excited_projector(self, schedules):
        # ss and s carry the excited projector |e><e| among their ops
        for tag, sched in schedules.items():
            for si, seg in enumerate(sched.segments):
                t = np.linspace(0.0, seg.duration, 33)
                self.assert_lift_is_linear(sched.system, seg.coefficients(t), seg.ops,
                                           segment_hamiltonian_nodes(sched, si, t, ErrorModel()))


class TestGridGenerator:
    """The generators built from a segment's coefficients equal those
    lifted from the full error-injected H."""

    ERR = ErrorModel(epsilon=0.07, eta=-0.03, gamma_minus=2e-4, gamma_z=1e-4)

    @staticmethod
    def runs(sched, kind, err, const):
        for si, seg in enumerate(sched.segments):
            t = np.linspace(0.0, seg.duration, 101)
            A = seg.nodes(t, dynamics._lift(sched.system, kind, seg.ops), seg.weights(err)[None],
                          const[None])
            yield seg, A[:, 0], segment_hamiltonian_nodes(sched, si, t, err)

    @pytest.mark.parametrize("tag", ["ss", "s"])  # constant and time-dependent detuning
    def test_unitary_generator_is_minus_i_h(self, schedules, tag):
        sched = schedules[tag]
        err = ErrorModel(epsilon=self.ERR.epsilon, eta=self.ERR.eta)
        for seg, A, H in self.runs(sched, "unitary", err,
                                   real_embedding(-1j * detuning_error(sched, err))):
            assert seg.unscaled is not None
            assert np.array_equal(A, real_embedding(-1j * H))

    @pytest.mark.parametrize("tag", ["ss", "s"])
    def test_lindblad_generator_lifts_full_h(self, schedules, tag):
        sched, err = schedules[tag], self.ERR
        system = sched.system

        def lift(H, e=ErrorModel()):
            return dynamics._fold(lindblad_superoperator(system, e, H))
        for _, A, H in self.runs(sched, "lindblad", err, lift(detuning_error(sched, err), err)):
            assert np.abs(A - lift(H, err)).max() <= 1e-15


CONSTANT_DRIVES = ("sl", "ss", "c", "dc", "dfs3")  # square pulses on every segment
VARYING_DRIVES = ("ps", "s", "cdd", "sta", "to")


def stack_sizes(monkeypatch, module, name, sizes):
    """Append to `sizes` the length of the stack every call of module.name
    takes as its first argument."""
    original = getattr(module, name)

    def spy(A, *args):
        sizes.append(len(A))
        return original(A, *args)
    monkeypatch.setattr(module, name, spy)


def counted(sched, sizes):
    """sched with coefficients that append to `sizes` the number of times
    of every evaluation; Constant coefficients stay Constant."""

    class Counted(Constant):
        def __call__(self, t):
            sizes.append(len(t))
            return super().__call__(t)

    def count(f):
        if isinstance(f, Constant):
            return Counted(f.value)
        return lambda t: (sizes.append(len(t)), f(t))[1]
    return replace(sched, segments=tuple(replace(seg, coefficients=count(seg.coefficients))
                                         for seg in sched.segments))


def full_path(sched):
    """sched with every Constant coefficients materialized by a closure, so
    that no segment is a square pulse and neither route takes the constant
    path."""
    segments = tuple(replace(seg, coefficients=lambda t, f=seg.coefficients: np.array(f(t)))
                     for seg in sched.segments)
    assert not any(seg.square for seg in segments)
    return replace(sched, segments=segments)


class TestSegmentNodes:
    """Segment.nodes is the one assembly of a segment's generators and H
    nodes: a square segment is one node, and a grid is its points."""

    ERR = ErrorModel(epsilon=0.07, eta=-0.03)

    def test_square_h_nodes_are_one_node_broadcast(self, schedules):
        square = 0
        for tag, sched in schedules.items():
            full = full_path(sched)
            for k, seg in enumerate(sched.segments):
                if not seg.square:
                    continue
                square += 1
                t = np.linspace(0.0, seg.duration, 101)
                H = segment_hamiltonian_nodes(sched, k, t, self.ERR)
                assert H.shape == (len(t),) + seg.ops.shape[1:] and H.strides[0] == 0, tag
                assert np.array_equal(H, segment_hamiltonian_nodes(full, k, t, self.ERR)), tag
        assert square >= len(CONSTANT_DRIVES)

    @pytest.mark.parametrize("kind", ["unitary", "lindblad"])
    def test_grid_is_its_points(self, schedules, kind):
        for tag, sched in schedules.items():
            system = sched.system
            rates = (2e-4, 1e-4) if system.excited_index is not None else (0.0, 0.0)
            errs = [ErrorModel(epsilon=x, eta=0.5 * x, gamma_minus=rates[0] * i,
                               gamma_z=rates[1]) for i, x in enumerate((-0.1, 0.0, 0.03, 0.2))]
            const = dynamics._fixed(sched, kind, errs)
            for seg in sched.segments:
                t = np.linspace(0.0, seg.duration, 33)
                lifted = dynamics._lift(system, kind, seg.ops)
                w = np.stack([seg.weights(e) for e in errs])
                grid = seg.nodes(t, lifted, w, const)
                assert grid.shape == (len(t), len(errs)) + const.shape[1:]
                for g in range(len(errs)):
                    point = seg.nodes(t, lifted, w[g:g + 1], const[g:g + 1])[:, 0]
                    assert np.array_equal(grid[:, g], point), (tag, g)


def constant_runs(sched, errs):
    """Every engine a schedule runs through, small: propagate_unitary,
    propagate_lindblad_grid and both oracles, each under errs as
    catalog_errors orders them."""
    system = sched.system
    rho0 = six_axial_densities(system)
    return {
        "unitary": lambda: propagate_unitary(sched, errs[0]).operators,
        "lindblad_grid": lambda: propagate_lindblad_grid(sched, errs, rho0, samples=2000)[:2],
        "oracle_unitary": lambda: oracle_propagate_unitary(sched, errs[0], slices=1000),
        "oracle_lindblad": lambda: oracle_propagate_lindblad(sched, errs[-1], rho0, slices=200),
    }


def catalog_errors(sched):
    """Two closed error models, then an open one where the scheme has an
    excited level: the grid takes all, the unitary runs the first and the
    Lindblad oracle the last."""
    closed = [ErrorModel(epsilon=0.03, eta=-0.02), ErrorModel(epsilon=-0.05)]
    if sched.system.excited_index is None:
        return closed
    return closed + [ErrorModel(epsilon=0.05, gamma_minus=3e-4, gamma_z=3e-4)]


class TestConstantDrives:
    """Square pulses are Constant by construction: each of their RK4
    segments lifts one node and builds one step matrix, and each oracle
    segment takes one exponential and one chunk product per chunk length,
    with the bits of the full path."""

    @pytest.mark.parametrize("tag", CONSTANT_DRIVES + VARYING_DRIVES)
    def test_catalog_takes_the_constant_path_on_square_pulses(self, schedules, monkeypatch, tag):
        # a square pulse that stops being Constant fails here, and so does
        # a varying drive evaluated on more than one run at a time or probed
        square = tag in CONSTANT_DRIVES
        assert [seg.square for seg in schedules[tag].segments] == [square] * len(
            schedules[tag].segments)
        drives, steps, exps = [], [], []
        sched = counted(schedules[tag], drives)
        stack_sizes(monkeypatch, numkit, "_step_matrices", steps)
        stack_sizes(monkeypatch, dynamics, "expm_embedded", exps)
        stack_sizes(monkeypatch, dynamics, "expm_taylor", exps)
        one = len(sched.segments)
        for name, run in constant_runs(sched, catalog_errors(sched)).items():
            for seen in (drives, steps, exps):
                seen.clear()
            run()
            if name.startswith("oracle"):
                assert (max(exps) == 1) == square, name
            elif square:  # one node and one step matrix per segment
                assert drives == [1] * one and steps == [3] * one, name
            else:  # each chunk evaluates the drive on its own run, and nothing else does
                assert drives == steps and max(steps) > 3, name

    @pytest.mark.parametrize("tag", ["sl", "ss", "dc", "dfs3"])
    def test_constant_path_keeps_the_bits(self, schedules, tag):
        # the same runs with every Constant materialized: RK4 builds a step
        # matrix per step, and both oracles exponentiate and multiply the
        # materialized stack
        sched = schedules[tag]
        errs = catalog_errors(sched)
        fast = {name: run() for name, run in constant_runs(sched, errs).items()}
        for name, run in constant_runs(full_path(sched), errs).items():
            assert all(np.array_equal(a, b) for a, b in zip(fast[name], run())), name

    @pytest.mark.parametrize("tag", ["sl", "dfs3", "ps"])
    def test_oracle_requests_one_time_per_square_chunk_length(self, schedules, tag):
        # a chunk asks for the coefficients at both Gauss nodes of its slices
        # in one call, and a square segment for those of the first slice of
        # its first chunk of each length alone (at 1000 unitary slices,
        # dfs3's one segment is seven chunks of 128 and one of 104); both
        # oracles keep the bits of the whole-chunk coefficients of the
        # materialized schedule
        sched = schedules[tag]
        square = tag in CONSTANT_DRIVES
        errs = catalog_errors(sched)
        d = sched.system.dim
        ref = constant_runs(full_path(sched) if square else sched, errs)
        expected = {name: ref[name]() for name in ("oracle_unitary", "oracle_lindblad")}
        sizes = []
        runs = constant_runs(counted(sched, sizes), errs)
        for name, slices, m in (("oracle_unitary", 1000, 2 * d), ("oracle_lindblad", 200, d * d)):
            sizes.clear()
            out = runs[name]()
            chunk = dynamics.CHUNK_ELEMENTS // m ** 2
            want = []
            for n in allocate_steps(sched, slices, floor=16):
                lengths = [min(chunk, n - c0) for c0 in range(0, n, chunk)]
                want += [2] * len(set(lengths)) if square else [2 * c for c in lengths]
            assert sizes == want, name
            assert np.array_equal(out, expected[name]), name

    # (unitary, Lindblad) oracle slices that give every square segment of a
    # scheme two full chunks or more and a shorter last one
    REUSE_SLICES = {"sl": (4000, 2000), "ss": (2000, 1000), "c": (8000, 4000),
                    "dc": (16000, 8000), "dfs3": (1000, 204)}

    @pytest.mark.parametrize("tag", CONSTANT_DRIVES)
    def test_square_chunk_products_are_reused_with_the_same_bits(self, schedules, monkeypatch,
                                                                 tag):
        # one ordered_product per chunk length of a square segment serves
        # every chunk of that length; the materialized schedule takes one
        # per chunk, with the same bits.  sl's two segments have the same
        # slice counts but not the same drives
        sched = schedules[tag]
        errs = catalog_errors(sched)
        rho0 = six_axial_densities(sched.system)
        d = sched.system.dim
        runs = (
            (lambda s, n: oracle_propagate_unitary(s, errs[0], slices=n), 2 * d),
            (lambda s, n: oracle_propagate_lindblad(s, errs[-1], rho0, slices=n), d * d),
        )
        products = []
        stack_sizes(monkeypatch, dynamics, "ordered_product", products)
        for (run, m), slices in zip(runs, self.REUSE_SLICES[tag]):
            chunk = dynamics.CHUNK_ELEMENTS // m ** 2
            want = []
            for n in allocate_steps(sched, slices, floor=16):
                assert n >= 2 * chunk and n % chunk, (m, n)
                want += [2 * chunk, 2 * (n % chunk)]
            products.clear()
            out = run(sched, slices)
            assert products == want, m
            assert np.array_equal(out, run(full_path(sched), slices)), m

    def test_dfs3_oracle_takes_two_chunk_products(self, schedules, monkeypatch):
        # 10**4 slices of one square segment: 78 chunks of 128 and one of 16
        products = []
        stack_sizes(monkeypatch, dynamics, "ordered_product", products)
        oracle_propagate_unitary(schedules["dfs3"])
        assert products == [256, 32]

    def test_constant_closure_takes_the_general_path_with_the_same_bits(self, monkeypatch):
        # a closure that returns a constant without broadcasting it is not a
        # square pulse: neither route probes a value, and the bits stay the
        # same
        system = LevelSystem.lambda3()

        def schedule(drive):
            seg = bright_ray_segment(system, 2.0, drive=drive, bright_axis=(0.4, 0.1),
                                     detuned=True)
            return PulseSchedule(system=system, segments=(seg,),
                                 target=np.eye(2, dtype=complex), scheme_label="square")
        square = schedule(Constant(np.array([0.8, 0.3, -0.2])))
        closure = schedule(lambda t: tuple(np.full(np.shape(t), v) for v in (0.8, 0.3, -0.2)))
        assert square.segments[0].square and not closure.segments[0].square
        err = ErrorModel(epsilon=0.02, gamma_minus=3e-4, gamma_z=3e-4)
        rho0 = six_axial_densities(system)
        steps, exps = [], []
        stack_sizes(monkeypatch, numkit, "_step_matrices", steps)
        stack_sizes(monkeypatch, dynamics, "expm_embedded", exps)
        stack_sizes(monkeypatch, dynamics, "expm_taylor", exps)
        runs, sizes = {}, {}
        for name, sched in (("square", square), ("closure", closure)):
            steps.clear()
            exps.clear()
            runs[name] = (propagate_unitary(sched, samples=300).operators,
                          propagate_lindblad(sched, err, rho0, samples=300).operators,
                          oracle_propagate_unitary(sched, slices=200),
                          oracle_propagate_lindblad(sched, err, rho0, slices=200))
            sizes[name] = (set(steps), set(exps))
        # one oracle chunk of 200 slices, two exponents each, per route
        assert sizes == {"square": ({3}, {1}), "closure": ({601}, {400})}
        assert all(np.array_equal(a, b) for a, b in zip(runs["square"], runs["closure"]))

    def test_constant_drive_under_varying_detuning_takes_full_path(self):
        system = LevelSystem.lambda3()
        seg = bright_ray_segment(system, 2.0, bright_axis=(0.4, 0.1), detuned=True,
                                 drive=lambda t: (np.ones(np.shape(t)), np.zeros(np.shape(t)),
                                                  0.3 * t))
        sched = PulseSchedule(system=system, segments=(seg,),
                              target=np.eye(2, dtype=complex), scheme_label="ramp")
        assert not seg.square
        drives = []
        fast = propagate_unitary(counted(sched, drives), samples=300).operators
        assert drives == [601]
        assert np.array_equal(fast, propagate_unitary(full_path(sched),
                                                      samples=300).operators)

    def test_constant_nan_drive_aborts_both_routes(self):
        seg = Segment(1.0, np.eye(3)[None], lambda t: np.full((t.size, 1), np.nan),
                      envelope=lambda t: np.ones_like(t))
        sched = PulseSchedule(system=LevelSystem.lambda3(), segments=(seg,),
                              target=np.eye(2, dtype=complex), scheme_label="nan")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="segment 0 step 0$"):
                propagate_unitary(sched, samples=50)
            with pytest.raises(RuntimeError, match="segment 0 step 0$"):
                propagate_lindblad(sched, ErrorModel(), basis_rho(3, 0), samples=50)
            with pytest.raises(ValueError, match=r"in matrix 0 is not finite"):
                oracle_propagate_unitary(sched, slices=100)
            with pytest.raises(ValueError, match=r"in matrix 0 is not finite"):
                oracle_propagate_lindblad(sched, ErrorModel(), basis_rho(3, 0), slices=100)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_square_nan_drive_aborts_at_step_0(self, bad):
        # the one node is built outside the engine; its non-finite entries
        # are still left to the engine's check, without warnings.  Each
        # oracle chunk exponentiates the first exponent alone, which is
        # rejected as slice 0
        seg = Segment(1.0, np.eye(3)[None], Constant(np.full(1, bad)), envelope=Constant(1.0))
        sched = PulseSchedule(system=LevelSystem.lambda3(), segments=(seg,),
                              target=np.eye(2, dtype=complex), scheme_label="nan")
        assert seg.square
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="segment 0 step 0$"):
                propagate_unitary(sched, samples=50)
            with pytest.raises(RuntimeError, match="segment 0 step 0$"):
                propagate_lindblad(sched, ErrorModel(), basis_rho(3, 0), samples=50)
            with pytest.raises(ValueError, match=r"in matrix 0 is not finite"):
                oracle_propagate_unitary(sched, slices=100)
            with pytest.raises(ValueError, match=r"in matrix 0 is not finite"):
                oracle_propagate_lindblad(sched, ErrorModel(), basis_rho(3, 0), slices=100)


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

    def test_runs_record_schedule_and_errors(self, schedules):
        # both routes record what they ran, and the state times recovered
        # from the record are the run's own
        sched = schedules["sl"]
        closed = ErrorModel(epsilon=0.03, eta=-0.02)
        opened = ErrorModel(epsilon=0.03, gamma_minus=1e-3, gamma_z=5e-4)
        unitary = propagate_unitary(sched, closed, samples=200)
        lindblad = propagate_lindblad(sched, opened, basis_rho(3, 0), samples=300)
        starts = np.cumsum([0.0] + [seg.duration for seg in sched.segments])
        for traj, err in ((unitary, closed), (lindblad, opened)):
            assert traj.schedule is sched
            assert traj.err == err
            times = np.concatenate([starts[k] + t for k, t in segment_state_times(traj)])
            assert np.abs(times - traj.times).max() <= 1e-12


@pytest.mark.parametrize("samples", [0, -5])
def test_step_count_below_one_rejected(schedules, samples):
    sched = schedules["sl"]
    with pytest.raises(ValueError, match="step count"):
        propagate_unitary(sched, samples=samples)
    with pytest.raises(ValueError, match="step count"):
        propagate_lindblad(sched, ErrorModel(), basis_rho(3, 0), samples=samples)

