import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhqcbench.dynamics import UNITARY_SAMPLES, allocate_steps
from nhqcbench.schemes import SchemeSpec, dfs3_schedule
from nhqcbench.system import (
    Constant,
    ErrorModel,
    GateAngles,
    LevelSystem,
    PulseSchedule,
    Segment,
    bright_dark_basis,
    bright_ray_segment,
    segment_hamiltonian_nodes,
)

PI = np.pi


class TestLevelSystem:
    def test_lambda3(self):
        s = LevelSystem.lambda3()
        assert (s.dim, s.computational_indices, s.excited_index) == (3, (0, 1), 2)

    def test_tripod4(self):
        s = LevelSystem.tripod4()
        assert (s.dim, s.excited_index) == (4, 3)

    def test_three_qubit8(self):
        s = LevelSystem.three_qubit8()
        assert s.dim == 8
        assert s.computational_indices == (2, 1)  # |010>, |001>
        assert s.excited_index is None

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            LevelSystem("Lambda3", 4, (0, 1), 2)

    def test_embed_qubit(self):
        s = LevelSystem.lambda3()
        v = s.embed_qubit([0.6, 0.8j])
        assert np.allclose(v, [0.6, 0.8j, 0.0])


class TestGateAngles:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GateAngles(0.0)
        with pytest.raises(ValueError):
            GateAngles(2 * PI)
        with pytest.raises(ValueError):
            GateAngles(PI / 2, theta=-0.1)
        with pytest.raises(ValueError):
            GateAngles(PI / 2, phi=2 * PI)


class TestBrightDark:
    def test_pole_case(self):
        b, d = bright_dark_basis(GateAngles(PI / 2, theta=0.0, phi=0.0))
        assert np.allclose(b, [0, -1])
        assert np.allclose(d, [1, 0])

    def test_equator_case(self):
        b, _ = bright_dark_basis(GateAngles(PI / 2, theta=PI / 2, phi=0.0))
        assert np.allclose(b, [1 / np.sqrt(2), -1 / np.sqrt(2)])

    @given(theta=st.floats(0, PI), phi=st.floats(0, 2 * PI, exclude_max=True))
    @settings(max_examples=60, deadline=None)
    def test_orthogonality(self, theta, phi):
        b, d = bright_dark_basis(GateAngles(PI / 2, theta=theta, phi=phi))
        assert abs(np.vdot(b, d)) < 1e-14
        assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-14)


def zero_envelope_schedule():
    system = LevelSystem.lambda3()
    seg = bright_ray_segment(
        system,
        duration=1.0,
        drive=lambda t: (np.zeros(np.shape(t)),) * 3,
        bright_axis=(0.0, 0.0),
        detuned=True,
    )
    return PulseSchedule(
        system=system,
        segments=(seg,),
        target=np.eye(2, dtype=complex),
        scheme_label="null",
    )


def hamiltonian_at(schedule, t, err):
    """H at one local time of the first segment."""
    return segment_hamiltonian_nodes(schedule, 0, np.array([t]), err)[0]


def segment_hamiltonians(schedule, points, err):
    """H on `points` local times spanning each segment, segment by segment."""
    return np.concatenate([
        segment_hamiltonian_nodes(schedule, k, np.linspace(0.0, seg.duration, points), err)
        for k, seg in enumerate(schedule.segments)])


class TestHamiltonianAt:
    def test_sl_first_half_resonant_bright_drive(self, schedules):
        # first interval: omega_bar (|b><e| + |e><b|) with zero drive phase
        sched = schedules["sl"]
        H = hamiltonian_at(sched, 0.3, ErrorModel())
        b = np.array([0, -1, 0], dtype=complex)  # theta=0 bright state
        e = np.array([0, 0, 1.0])
        expected = np.outer(b, e.conj()) + np.outer(e, b.conj())
        assert np.abs(H - expected).max() < 1e-12

    def test_zero_envelope_gives_zero_matrix(self):
        sched = zero_envelope_schedule()
        H = hamiltonian_at(sched, 0.5, ErrorModel())
        assert np.abs(H).max() == 0.0

    def test_eta_adds_excited_projector(self, schedules):
        sched = schedules["sl"]
        H0 = hamiltonian_at(sched, 0.3, ErrorModel())
        H1 = hamiltonian_at(sched, 0.3, ErrorModel(eta=0.1))
        diff = np.zeros((3, 3), dtype=complex)
        diff[2, 2] = 0.1
        assert np.abs((H1 - H0) - diff).max() < 1e-14

    def test_error_injection_linear(self, schedules):
        sched = schedules["ps"]
        t = 0.8 * sched.segments[0].duration
        H00 = hamiltonian_at(sched, t, ErrorModel())
        Heps = hamiltonian_at(sched, t, ErrorModel(epsilon=0.07, eta=0.03))
        drive = H00.copy()
        drive[2, 2] = 0.0  # PS has no detuning; drive part is the off-diagonal
        expected = 0.07 * drive
        expected[2, 2] += 0.03
        assert np.abs((Heps - H00) - expected).max() < 1e-12

    def test_epsilon_never_scales_detuning(self, schedules):
        sched = schedules["ss"]  # constant detuning 2 sin(gamma_ss)
        H0 = hamiltonian_at(sched, 0.5, ErrorModel())
        H1 = hamiltonian_at(sched, 0.5, ErrorModel(epsilon=0.25))
        assert H1[2, 2] == pytest.approx(H0[2, 2])
        assert abs(H1[1, 2]) == pytest.approx(1.25 * abs(H0[1, 2]))

    def test_hermitian_everywhere(self, schedules):
        for sched in schedules.values():
            H = segment_hamiltonians(sched, 37, ErrorModel(epsilon=0.1, eta=0.1))
            assert np.abs(H - H.conj().transpose(0, 2, 1)).max() < 1e-12

    @pytest.mark.parametrize("tag", ["sl", "ps", "c", "dc"])
    def test_dark_state_decoupled(self, schedules, tag):
        sched = schedules[tag]
        _, d2 = bright_dark_basis(GateAngles(PI / 2, 0.0, 0.0))
        dark = sched.system.embed_qubit(d2)
        H = segment_hamiltonians(sched, 101, ErrorModel())
        assert np.abs(H @ dark).max() < 1e-12


class TestErrorModel:
    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            ErrorModel(gamma_minus=-1e-4)

    def test_open_system_flag(self):
        assert not ErrorModel(epsilon=0.3).open_system
        assert ErrorModel(gamma_z=1e-4).open_system


class TestSchemeSpec:
    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            SchemeSpec("XYZ")

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            SchemeSpec("C", loops=0)
        with pytest.raises(ValueError):
            SchemeSpec("PS", varsigma=-1.0)


def zero_coefficients(t):
    return np.zeros((t.size, 1))


class TestSegment:
    def test_fields_after_drive_are_keyword_only(self):
        ops = np.zeros((1, 3, 3))
        with pytest.raises(TypeError):
            Segment(1.0, ops, zero_coefficients, np.ones_like)
        assert Segment(1.0, ops, zero_coefficients, envelope=np.ones_like).unscaled is None

    @pytest.mark.parametrize("bad", [1e-9, np.nan])
    def test_rejects_non_hermitian_op(self, bad):
        ops = np.zeros((2, 3, 3), dtype=complex)
        ops[1, 0, 1] = bad
        with pytest.raises(ValueError, match="segment op 1 not Hermitian"):
            Segment(1.0, ops, zero_coefficients, envelope=np.ones_like)

    @pytest.mark.parametrize("ops", [np.zeros((3, 3)), np.zeros((1, 3, 2))])
    def test_rejects_ops_that_are_no_stack_of_square_matrices(self, ops):
        with pytest.raises(ValueError, match="must be a .K, d, d. stack"):
            Segment(1.0, ops, zero_coefficients, envelope=np.ones_like)

    def test_rejects_unscaled_column_outside_the_ops(self):
        with pytest.raises(ValueError, match="unscaled column 1 outside the 1 ops"):
            Segment(1.0, np.zeros((1, 3, 3)), zero_coefficients, envelope=np.ones_like,
                    unscaled=1)

    def test_ops_are_read_only(self):
        seg = Segment(1.0, np.zeros((1, 3, 3)), zero_coefficients, envelope=np.ones_like)
        with pytest.raises(ValueError, match="read-only"):
            seg.ops[0, 0, 0] = 1.0


def test_catalog_segments_are_data(schedules):
    # Hermitian ops, and real, finite (n, K) coefficients on the RK4 lattice
    for tag, sched in schedules.items():
        for seg, n in zip(sched.segments, allocate_steps(sched, UNITARY_SAMPLES)):
            assert np.array_equal(seg.ops, seg.ops.conj().swapaxes(-1, -2)), tag
            c = seg.coefficients(np.linspace(0.0, seg.duration, 2 * n + 1))
            assert c.shape == (2 * n + 1, len(seg.ops)) and c.dtype == float, tag
            assert np.isfinite(c).all(), tag


class TestPulseSchedule:
    def test_rejects_ops_of_another_dimension(self):
        system = LevelSystem.three_qubit8()

        def seg(d):
            return Segment(1.0, np.zeros((1, d, d)), zero_coefficients, envelope=np.ones_like)
        with pytest.raises(ValueError, match="segment 1 has ops of dimension 3.*ThreeQubit8"):
            PulseSchedule(system=system, segments=(seg(8), seg(3)),
                          target=np.eye(2, dtype=complex), scheme_label="bad")

    def test_rejects_non_unitary_target(self):
        system = LevelSystem.lambda3()
        seg = zero_envelope_schedule().segments[0]
        with pytest.raises(ValueError, match="unitary"):
            PulseSchedule(system=system, segments=(seg,),
                          target=np.array([[1, 0], [0, 0.5]], dtype=complex),
                          scheme_label="bad")

    def test_total_duration(self, schedules):
        assert schedules["sl"].total_duration == pytest.approx(PI)


def nan_target_schedule():
    seg = zero_envelope_schedule().segments[0]
    return PulseSchedule(system=LevelSystem.lambda3(), segments=(seg,),
                         target=np.full((2, 2), np.nan, dtype=complex), scheme_label="nan")


@pytest.mark.parametrize("make, message", [
    (lambda: SchemeSpec("PS", varsigma=np.nan), "varsigma=nan must be finite"),
    (lambda: SchemeSpec("PS", varsigma=np.inf), "varsigma=inf must be finite"),
    (lambda: SchemeSpec("SS", gamma_ss=np.nan), "gamma_ss=nan must be finite"),
    (lambda: SchemeSpec("C", loops=2.5), "loops=2.5 must be an integer"),
    (lambda: dfs3_schedule(np.nan), "segment op 0 not Hermitian"),
    (lambda: Segment(np.nan, np.zeros((1, 3, 3)), Constant(np.zeros(1)), envelope=Constant(0.0)),
     "duration must be positive"),
    (nan_target_schedule, "target gate not unitary"),
])
def test_non_finite_input_is_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()
