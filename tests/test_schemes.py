import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import phase_distance
from nhqcbench.dynamics import propagate_unitary, segment_state_times
from nhqcbench.schemes import (
    SchemeSpec,
    brachistochrone_tau,
    build_schedule,
    circle_path_params,
    circle_segment_area,
    dfs3_schedule,
    ps_design,
    dfs3_unit_hamiltonian,
    rotation_gate,
    sta_schedule,
    StaPath,
)
from nhqcbench.bench import GATE_ANGLES, pulse_area
from nhqcbench.system import (
    Constant,
    ErrorModel,
    GateAngles,
    segment_hamiltonian_nodes,
)

PI = np.pi


def comp_block(U, system):
    i0, i1 = system.computational_indices
    return U[np.ix_((i0, i1), (i0, i1))]


class TestBrachistochrone:
    def test_full_rotation(self):
        assert brachistochrone_tau(PI, 1.0) == pytest.approx(2 * PI)

    def test_quarter_rotation(self):
        assert brachistochrone_tau(PI / 2, 1.0) == pytest.approx(np.sqrt(3) * PI)

    def test_small_angle_limit(self):
        assert brachistochrone_tau(1e-9, 1.0) < 1e-3

    def test_rejects_bad_omega(self):
        with pytest.raises(ValueError):
            brachistochrone_tau(PI / 2, 0.0)

    @given(g1=st.floats(0.05, PI - 0.05), g2=st.floats(0.05, PI - 0.05))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_distance_from_pi(self, g1, g2):
        # closer to a pi rotation means a longer minimal time
        t1, t2 = brachistochrone_tau(g1, 1.0), brachistochrone_tau(g2, 1.0)
        if abs(PI - g1) < abs(PI - g2):
            assert t1 >= t2


class TestCirclePath:
    def test_ell_values(self):
        assert circle_path_params(PI / 2, 0.0, 1.0).ell == pytest.approx(np.sqrt(3))
        # sqrt(2 pi g - g^2)/(pi - g) at g = pi/4 is sqrt(7)/3
        assert circle_path_params(PI / 4, 0.0, 1.0).ell == pytest.approx(
            np.sqrt(7) / 3, abs=1e-12
        )

    def test_small_angle_degenerates(self):
        # ell ~ sqrt(2 gamma / pi): the path shrinks onto the pole
        p = circle_path_params(1e-6, 0.0, 1.0)
        assert p.ell < 1e-3
        ts = np.linspace(0, 1.0, 50)
        assert np.abs(p.angles(ts)[2]).max() < 2e-3

    def test_rejects_gamma_at_pi(self):
        with pytest.raises(ValueError, match="gamma"):
            circle_path_params(PI, 0.0, 1.0)

    def test_path_closes(self):
        p = circle_path_params(PI / 2, 0.3, 2.0)
        assert abs(p.angles(0.0)[2]) < 1e-10
        assert abs(p.angles(2.0)[2]) < 1e-10

    @pytest.mark.parametrize("gamma", [PI / 4, PI / 2, 2.0])
    def test_quadrature_recovers_geometric_phase(self, gamma):
        # oracle: gamma = (1/2) integral beta_dot (1 - cos alpha) dt
        tau = 1.7
        p = circle_path_params(gamma, 0.0, tau)
        t = np.linspace(0.0, tau, 40_001)
        _, beta_dot, alpha, _ = p.angles(t)
        integrand = 0.5 * beta_dot * (1 - np.cos(alpha))
        assert abs(np.trapezoid(integrand, t) - gamma) < 1e-4

    def test_area_closed_form_matches_quadrature(self):
        gamma, tau = PI / 2, 1.3
        p = circle_path_params(gamma, 0.0, tau)
        t = np.linspace(0.0, tau, 40_001)
        _, beta_dot, alpha, alpha_dot = p.angles(t)
        env = 0.5 * np.sqrt((beta_dot * np.sin(alpha)) ** 2 + alpha_dot ** 2)
        assert abs(np.trapezoid(env, t) - circle_segment_area(gamma)) < 1e-6


class TestPulseAreas:
    """Published pulse-area table (multiples of pi)."""

    @pytest.mark.parametrize(
        "tag,expected,tol",
        [
            ("sl", 1.00, 0.02),
            ("ps", 2.16, 0.05),
            ("c", 2.00, 0.02),
            ("dc", 2.00, 0.02),
            ("s", 0.87, 0.02),
            ("cdd", 1.32, 0.02),
        ],
    )
    def test_table_areas(self, schedules, tag, expected, tol):
        assert abs(pulse_area(schedules[tag]) - expected) < tol

    def test_to_area_conventions_reported(self, schedules):
        conv = schedules["to"].notes["area_conventions_pi"]
        assert conv["coupling"] == pytest.approx(np.sqrt(3) / 2, abs=1e-6)
        assert conv["amplitude_envelope"] == pytest.approx(np.sqrt(3), abs=1e-6)
        assert conv["published"] == 0.43


class TestLoopGates:
    def test_sl_matches_closed_form_entrywise(self, ideal_runs, schedules):
        # two-interval composition reproduces the rotation matrix
        U = comp_block(ideal_runs["sl"].final, schedules["sl"].system)
        target = rotation_gate(PI / 2, 0.0, 0.0)
        ov = np.trace(target.conj().T @ U) / 2
        assert np.abs(U - (ov / abs(ov)) * target).max() < 1e-8

    @pytest.mark.parametrize("gamma,theta,phi", [
        (PI / 2, 0.0, 0.0),
        (PI / 4, 0.0, 0.0),
        (PI, PI / 2, 0.0),
        (PI, PI / 4, 0.0),
        (1.1, 2.0, 4.5),
    ])
    def test_sl_arbitrary_axis(self, gamma, theta, phi):
        spec = SchemeSpec("SL", GateAngles(gamma, theta, phi))
        sched = build_schedule(spec)
        U = comp_block(propagate_unitary(sched, samples=600).final, sched.system)
        assert phase_distance(U, rotation_gate(gamma, theta, phi)) < 1e-9

    def test_sl_small_angle_is_identity(self):
        spec = SchemeSpec("SL", GateAngles(1e-9, 0.0, 0.0))
        sched = build_schedule(spec)
        U = comp_block(propagate_unitary(sched, samples=400).final, sched.system)
        assert phase_distance(U, np.eye(2)) < 1e-9

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_composite_power_property(self, N):
        gamma = PI / 2
        spec_n = SchemeSpec("C", GateAngles(gamma), loops=N)
        elem = SchemeSpec("SL", GateAngles(gamma / N))
        U_c = build_and_gate(spec_n)
        U_e = build_and_gate(elem)
        assert phase_distance(U_c, np.linalg.matrix_power(U_e, N)) < 1e-8

    def test_dc_gate_matches_sl(self):
        U_dc = build_and_gate(SchemeSpec("DC", GateAngles(PI / 2)))
        assert phase_distance(U_dc, rotation_gate(PI / 2)) < 1e-9


def build_and_gate(spec):
    sched = build_schedule(spec)
    return comp_block(propagate_unitary(sched, samples=800).final, sched.system)


class TestSingleShot:
    def test_rotation_angle_formula(self):
        # rotation angle pi sin(gamma_ss) + pi about the requested axis
        for gss in (-PI / 6, -PI / 3, 0.3):
            spec = SchemeSpec("SS", GateAngles(PI / 2, 0.0, 0.0), gamma_ss=gss)
            sched = build_schedule(spec)
            U = comp_block(propagate_unitary(sched, samples=800).final, sched.system)
            expected = rotation_gate(PI * np.sin(gss) + PI, 0.0, 0.0)
            assert phase_distance(U, expected) < 1e-9

    def test_block_structure(self, schedules, ideal_runs):
        # the driven pair (here |0> and |e>) picks up e^{-i phi}; the parked
        # superposition (|1> at theta=0) is untouched
        U = ideal_runs["ss"].final
        gss = -PI / 6
        phi = PI * np.sin(gss) + PI
        parked = np.array([0, 1, 0], dtype=complex)
        assert np.abs(U @ parked - parked).max() < 1e-8
        for idx in (0, 2):
            basis = np.zeros(3, dtype=complex)
            basis[idx] = 1.0
            assert abs(np.vdot(basis, U @ basis) - np.exp(-1j * phi)) < 1e-8

    def test_rejects_zero_drive(self):
        with pytest.raises(ValueError, match="gamma_ss"):
            build_schedule(SchemeSpec("SS", gamma_ss=PI / 2))


class TestPsDesign:
    def test_zero_varsigma_reduces_to_plain_loop(self):
        design = ps_design(0.0, 2.0, GateAngles(PI / 2))
        s = np.linspace(0, 1.0, 101)
        chi, chi_dot = design.chi(0, s)
        assert np.abs(design.f(chi)).max() == 0.0
        # azimuth constant, envelope |chi_dot| / 2
        assert np.abs(design.varphi(0, chi) + PI / 2).max() < 1e-12
        assert np.abs(design.drive(0, s)[0] - np.abs(chi_dot) / 2).max() < 1e-12

    def test_azimuth_solves_ivp(self):
        # oracle: d(varphi)/dt = -df/dt cos(chi), checked by finite differences
        design = ps_design(1.0, 2.0, GateAngles(PI / 2))
        s = np.linspace(1e-4, 1.0 - 1e-4, 2001)
        h = s[1] - s[0]
        for seg in range(2):
            chi, _ = design.chi(seg, s)
            vp = design.varphi(seg, chi)
            f = design.f(chi)
            lhs = np.gradient(vp, h)
            rhs = -np.gradient(f, h) * np.cos(chi)
            assert np.abs(lhs - rhs)[5:-5].max() < 1e-3

    def test_boundary_azimuths(self):
        # published boundary data: varphi(0) = -pi/2, second segment starts
        # offset by the rotation angle
        g = PI / 2
        design = ps_design(1.0, 2.0, GateAngles(g))
        assert design.varphi(0, design.chi(0, 0.0)[0]) == pytest.approx(-PI / 2)
        assert design.varphi(1, design.chi(1, 0.0)[0]) == pytest.approx(-PI / 2 - g)

    def test_chi_reaches_pole_at_segment_end(self):
        design = ps_design(1.0, 2.0, GateAngles(PI / 2))
        assert design.chi(0, 0.0)[0] == pytest.approx(0.0)
        assert design.chi(0, 1.0)[0] == pytest.approx(PI)
        assert design.chi(1, 1.0)[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("varsigma", [0.0, 1.0, 2.5])
    def test_area_depends_on_varsigma_alone(self, varsigma):
        # the duration is the coupling area of the unit segments, taken by
        # quadrature at the gate's own angles, to the last few ulps
        for angles in (GateAngles(0.3, 1.1, 0.7), GateAngles(PI / 2), GateAngles(3.0, 2.0, 5.0)):
            ref = ps_design(varsigma, 2.0, angles)
            s = np.linspace(0.0, ref.segment_duration, 20001)
            area = sum(float(np.trapezoid(ref.drive(seg, s)[0], s)) for seg in (0, 1))
            sched = build_schedule(SchemeSpec("PS", angles, varsigma=varsigma))
            assert sched.total_duration == pytest.approx(area, rel=1e-14, abs=0)

    def test_gate_correct_for_nonzero_varsigma(self):
        for vs in (0.5, 1.0):
            spec = SchemeSpec("PS", GateAngles(PI / 2), varsigma=vs)
            U = build_and_gate(spec)
            assert phase_distance(U, rotation_gate(PI / 2)) < 1e-8


class TestInverseEngineering:
    # S drives one circle loop through the pole at tau = circle_segment_area
    def test_s_gate(self):
        sched = build_schedule(SchemeSpec("S", GateAngles(PI / 2, 0.0, 0.0)))
        assert sched.total_duration == pytest.approx(np.sqrt(3) * PI / 2, rel=1e-15)
        U = comp_block(propagate_unitary(sched, samples=1200).final, sched.system)
        expected = np.diag([np.exp(-1j * PI / 4), np.exp(1j * PI / 4)])
        assert phase_distance(U, expected) < 1e-6

    def test_t_gate(self):
        g = PI / 4
        sched = build_schedule(SchemeSpec("S", GateAngles(g, 0.0, 0.0)))
        U = comp_block(propagate_unitary(sched, samples=1200).final, sched.system)
        expected = np.diag([np.exp(-1j * PI / 8), np.exp(1j * PI / 8)])
        assert phase_distance(U, expected) < 1e-6

    def test_gate_off_pole_axis(self):
        g = 2.0
        sched = build_schedule(SchemeSpec("S", GateAngles(g, 1.1, 0.7)))
        U = comp_block(propagate_unitary(sched, samples=1500).final, sched.system)
        assert phase_distance(U, rotation_gate(g, 1.1, 0.7)) < 1e-6

    def test_s_scheme_rejects_gamma_pi(self):
        with pytest.raises(ValueError, match="pi"):
            build_schedule(SchemeSpec("S", GateAngles(PI)))
        with pytest.raises(ValueError, match="pi"):
            build_schedule(SchemeSpec("CDD", GateAngles(PI), loops=1))

    # (one, many): S is CDD and SL is C with one loop; the S cases keep the
    # ids angles0..3
    @pytest.mark.parametrize("one, many, angles", [
        pytest.param(one, many, angles, id=f"{prefix}angles{i}")
        for prefix, one, many in (("", "S", "CDD"), ("sl-c-", "SL", "C"))
        for i, angles in enumerate([GATE_ANGLES["S"], GATE_ANGLES["T"], GATE_ANGLES["sqrtH"],
                                    GateAngles(2.0, 1.1, 0.7)])
    ])
    def test_s_is_cdd_with_one_loop(self, one, many, angles):
        s = build_schedule(SchemeSpec(one, angles))
        cdd = build_schedule(SchemeSpec(many, angles, loops=1))
        err = ErrorModel(epsilon=0.03, eta=-0.02)
        assert len(s.segments) == len(cdd.segments)
        for k, (seg, other) in enumerate(zip(s.segments, cdd.segments)):
            t = np.linspace(0.0, seg.duration, 65)
            assert np.array_equal(segment_hamiltonian_nodes(s, k, t, err),
                                  segment_hamiltonian_nodes(cdd, k, t, err))
            assert np.array_equal(seg.frame(t), other.frame(t))
        assert np.array_equal(s.target, cdd.target)
        assert s.total_duration == cdd.total_duration
        assert (s.scheme_label, cdd.scheme_label) == (f"{one}-NHQC", f"{many}-NHQC")


class TestSta:
    def test_final_operator_diagonal_phase(self, schedules, ideal_runs):
        sched = schedules["sta"]
        U = ideal_runs["sta"].final
        qubit = comp_block(U, sched.system)
        assert abs(qubit[0, 1]) < 1e-6 and abs(qubit[1, 0]) < 1e-6
        assert abs(qubit[0, 0] - 1.0) < 1e-6

    def test_measured_phase_matches_connection_quadrature(self, schedules, ideal_runs):
        sched = schedules["sta"]
        U = ideal_runs["sta"].final
        gamma1 = sched.notes["gamma1"]
        assert abs(U[1, 1] - np.exp(1j * gamma1)) < 1e-6
        # the quadrature lands on -phi1 for the slice path
        assert gamma1 == pytest.approx(-sched.notes["phi1"], abs=1e-6)

    def test_dark_channel_overlap_fast_drive(self):
        sched = sta_schedule(PI / 2, tau=PI)  # tau * omega_bar = pi
        traj = propagate_unitary(sched, samples=1500)
        k1 = np.zeros(4, dtype=complex)
        k1[1] = 1.0
        dark = np.concatenate([sched.segments[k].frame(t)[:, 1]
                               for k, t in segment_state_times(traj)])
        overlaps = np.abs(np.einsum("nc,nc->n", dark.conj(), traj.operators @ k1))
        assert min(overlaps) > 0.999

    def test_vectorized_drive_matches_per_sample(self, schedules):
        sched = schedules["sta"]
        path = StaPath(sched.segments[0].duration, sched.notes["phi1"])
        k1, k2, e = np.eye(4, dtype=complex)[1:]

        def drive_at(step, s):
            # the transitionless tripod Hamiltonian, one scalar time at a time
            t_, td_, p_, pd_ = (float(x) for x in path.angles(step, s))
            B = -np.sin(t_ / 2) * np.exp(-1j * p_) * k1 + np.cos(t_ / 2) * k2
            D = np.cos(t_ / 2) * np.exp(-1j * p_) * k1 + np.sin(t_ / 2) * k2
            H0 = np.outer(e, B.conj())
            H0 = H0 + H0.conj().T
            Hcd = 1j * (td_ / 2 + 1j * (pd_ / 2) * np.sin(t_)) * np.outer(B, D.conj())
            Hcd = Hcd + Hcd.conj().T
            Hcd += (pd_ / 2) * np.sin(t_ / 2) ** 2 * (np.outer(B, B.conj()) - np.outer(e, e.conj()))
            return H0 + Hcd

        for step, seg in enumerate(sched.segments):
            s = np.linspace(0.0, seg.duration, 257)
            expected = np.stack([drive_at(step, t) for t in s])
            H = segment_hamiltonian_nodes(sched, step, s, ErrorModel())
            assert np.abs(H - expected).max() <= 1e-15
            assert seg.unscaled is None

    def test_zero_span_gives_identity(self):
        sched = sta_schedule(0.0, tau=PI)
        U = comp_block(propagate_unitary(sched, samples=600).final, sched.system)
        assert phase_distance(U, np.eye(2)) < 1e-9


class TestDfs3:
    def test_logical_gate_and_leakage(self, schedules, oracle_gates):
        sched = schedules["dfs3"]
        U = oracle_gates["dfs3"]
        M = comp_block(U, sched.system)
        # unitarity of the logical block == no leakage
        assert np.abs(M.conj().T @ M - np.eye(2)).max() < 1e-8
        assert phase_distance(M, sched.target) < 1e-8

    def test_logical_gate_closed_form(self):
        # pi rotation about -(cos phi, sin phi, 0)
        for phi in (0.0, PI / 2, 1.2):
            sched = dfs3_schedule(phi)
            U = comp_block(propagate_unitary(sched, samples=800).final, sched.system)
            sx = np.array([[0, 1], [1, 0]], dtype=complex)
            sy = np.array([[0, -1j], [1j, 0]])
            expected = -1j * (-(np.cos(phi) * sx + np.sin(phi) * sy))
            assert phase_distance(U, expected) < 1e-8

    def test_dfs_span_preserved(self, ideal_runs):
        # single-excitation sector never mixes with the rest
        traj = ideal_runs["dfs3"]
        dfs = [4, 2, 1]
        rest = [i for i in range(8) if i not in dfs]
        leak = max(np.abs(traj.operators[:, rest, :][:, :, dfs]).max(),
                   np.abs(traj.operators[:, dfs, :][:, :, rest]).max())
        assert leak < 1e-10

    @pytest.mark.parametrize("shape", ["const"])  # the one shape: a square pulse
    def test_vectorized_drive_matches_per_sample(self, shape):
        sched = dfs3_schedule(0.7)
        seg = sched.segments[0]
        assert seg.square and isinstance(seg.envelope, Constant)
        s = np.linspace(0.0, seg.duration, 257)
        H_unit = dfs3_unit_hamiltonian(0.7)
        expected = np.stack([float(seg.envelope(t)) * H_unit for t in s])
        H = segment_hamiltonian_nodes(sched, 0, s, ErrorModel())
        assert np.abs(H - expected).max() <= 1e-15
        assert seg.unscaled is None


class TestIdealGateCatalog:
    def test_every_scheme_hits_target(self, schedules, ideal_runs):
        for tag, sched in schedules.items():
            U = comp_block(ideal_runs[tag].final, sched.system)
            assert phase_distance(U, sched.target) < 1e-6, tag

    def test_rk4_agrees_with_oracle(self, schedules, ideal_runs, oracle_gates):
        for tag in schedules:
            defect = np.abs(ideal_runs[tag].final - oracle_gates[tag]).max()
            assert defect < 1e-7, f"{tag}: {defect:.2e}"


class TestToUnconventional:
    def test_minimal_time_used(self, schedules):
        # coupling omega_bar, amplitude 2*omega_bar -> tau = sqrt(3) pi / 2
        assert schedules["to"].total_duration == pytest.approx(np.sqrt(3) * PI / 2)

    def test_ratio_note(self, schedules):
        assert schedules["to"].notes["dyn_geo_ratio"] == pytest.approx(3.0, abs=1e-12)

    def test_dynamical_phase_from_propagation(self, schedules, ideal_runs):
        # quadrature of <psi|H|psi> along the driven trajectory matches the
        # closed-form dynamical phase recorded by the builder
        sched = schedules["to"]
        traj = ideal_runs["to"]
        w = sched.segments[0].frame(np.zeros(1))[0, 1]
        psi = traj.operators @ w
        H = np.concatenate([segment_hamiltonian_nodes(sched, k, t, ErrorModel())
                            for k, t in segment_state_times(traj)])
        rate = np.einsum("ni,nij,nj->n", psi.conj(), H, psi).real
        dyn = -np.trapezoid(rate, traj.times)
        assert dyn == pytest.approx(sched.notes["dynamical_phase"], abs=1e-6)


class TestDrives:
    """A bright-ray segment's coefficients and envelope evaluate its drive
    once per call, and its envelope is the drive's first column."""

    @staticmethod
    def built_segments(monkeypatch, catalog):
        """(segment, drive, calls) of every bright_ray_segment the catalog
        builds, each drive that is not Constant counting its calls."""
        from nhqcbench import schemes

        built = []
        original = schemes.bright_ray_segment

        def spy(*args, drive, **kwargs):
            calls = []
            if not isinstance(drive, Constant):
                drive = functools.partial(lambda f, t: (calls.append(len(t)), f(t))[1], drive)
            seg = original(*args, drive=drive, **kwargs)
            built.append((seg, drive, calls))
            return seg
        monkeypatch.setattr(schemes, "bright_ray_segment", spy)
        for spec in catalog.values():
            build_schedule(spec)
        return built

    def test_each_call_evaluates_the_drive_once(self, monkeypatch, catalog):
        built = self.built_segments(monkeypatch, catalog)
        assert {len(calls) for _, _, calls in built} == {0}
        varying = 0
        for seg, drive, calls in built:
            square = isinstance(drive, Constant)
            assert seg.square == square
            varying += not square
            t = np.linspace(0.0, seg.duration, 17)
            for f in (seg.coefficients, seg.envelope):
                calls.clear()
                f(t)
                assert calls == ([] if square else [17])
        assert varying == 6  # ps (two halves), to, s, cdd (two loops)

    def test_envelope_is_the_drive_envelope_column(self, monkeypatch, catalog):
        for seg, drive, _ in self.built_segments(monkeypatch, catalog):
            t = np.linspace(0.0, seg.duration, 33)
            if isinstance(drive, Constant):
                assert isinstance(seg.envelope, Constant)
                want = np.broadcast_to(drive.value[0], t.shape)
            else:
                want = drive(t)[0]
            got = np.asarray(seg.envelope(t), dtype=float)
            assert got.shape == t.shape and got.tobytes() == np.asarray(want, float).tobytes()

    def test_sta_coefficients_evaluate_each_path_term_once(self, monkeypatch):
        from nhqcbench import schemes

        calls = []
        original = schemes.StaPath.angles

        def counted(path, step, s):
            calls.append(step)
            return original(path, step, s)
        monkeypatch.setattr(schemes.StaPath, "angles", counted)
        sched = sta_schedule(PI / 2, PI)
        for step, seg in enumerate(sched.segments):
            calls.clear()
            seg.coefficients(np.linspace(0.0, seg.duration, 9))
            assert calls == [step]
