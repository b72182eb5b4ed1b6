import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import phase_distance
from nhqcbench.dynamics import oracle_propagate_unitary, propagate_unitary
from nhqcbench.numkit import TimeGrid
from nhqcbench.schemes import (
    PathParams,
    brachistochrone_tau,
    build_schedule,
    circle_path_params,
    circle_segment_area,
    dfs3_schedule,
    inverse_engineer_hamiltonian,
    ps_design,
    rotation_gate,
    sta_schedule,
)
from nhqcbench.bench import pulse_area
from nhqcbench.system import ErrorModel, GateAngles, SchemeSpec

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
        assert np.abs(p.alpha(ts)).max() < 2e-3

    def test_rejects_gamma_at_pi(self):
        with pytest.raises(ValueError, match="gamma"):
            circle_path_params(PI, 0.0, 1.0)

    def test_path_closes(self):
        p = circle_path_params(PI / 2, 0.3, 2.0)
        assert abs(p.alpha(0.0)) < 1e-10
        assert abs(p.alpha(2.0)) < 1e-10

    @pytest.mark.parametrize("gamma", [PI / 4, PI / 2, 2.0])
    def test_quadrature_recovers_geometric_phase(self, gamma):
        # oracle: gamma = (1/2) integral beta_dot (1 - cos alpha) dt
        tau = 1.7
        p = circle_path_params(gamma, 0.0, tau)
        grid = TimeGrid(0.0, tau, 40_000)
        integrand = 0.5 * p.beta_dot(grid.times) * (1 - np.cos(p.alpha(grid.times)))
        assert abs(np.trapezoid(integrand, grid.times) - gamma) < 1e-4

    def test_area_closed_form_matches_quadrature(self):
        gamma, tau = PI / 2, 1.3
        p = circle_path_params(gamma, 0.0, tau)
        grid = TimeGrid(0.0, tau, 40_000)
        env = 0.5 * np.sqrt(
            (p.beta_dot(grid.times) * np.sin(p.alpha(grid.times))) ** 2
            + p.alpha_dot(grid.times) ** 2
        )
        assert abs(np.trapezoid(env, grid.times) - circle_segment_area(gamma)) < 1e-6


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
        assert np.abs(design.f[0](s)).max() == 0.0
        # azimuth constant, envelope |chi_dot| / 2
        assert np.abs(design.varphi[0](s) + PI / 2).max() < 1e-12
        assert np.abs(design.envelope[0](s) - np.abs(design.chi_dot[0](s)) / 2).max() < 1e-12

    def test_azimuth_solves_ivp(self):
        # oracle: d(varphi)/dt = -df/dt cos(chi), checked by finite differences
        design = ps_design(1.0, 2.0, GateAngles(PI / 2))
        s = np.linspace(1e-4, 1.0 - 1e-4, 2001)
        h = s[1] - s[0]
        for seg in range(2):
            vp = design.varphi[seg](s)
            f = design.f[seg](s)
            chi = design.chi[seg](s)
            lhs = np.gradient(vp, h)
            rhs = -np.gradient(f, h) * np.cos(chi)
            assert np.abs(lhs - rhs)[5:-5].max() < 1e-3

    def test_boundary_azimuths(self):
        # published boundary data: varphi(0) = -pi/2, second segment starts
        # offset by the rotation angle
        g = PI / 2
        design = ps_design(1.0, 2.0, GateAngles(g))
        assert design.varphi[0](0.0) == pytest.approx(-PI / 2)
        assert design.varphi[1](0.0) == pytest.approx(-PI / 2 - g)

    def test_chi_reaches_pole_at_segment_end(self):
        design = ps_design(1.0, 2.0, GateAngles(PI / 2))
        assert design.chi[0](0.0) == pytest.approx(0.0)
        assert design.chi[0](1.0) == pytest.approx(PI)
        assert design.chi[1](1.0) == pytest.approx(0.0, abs=1e-12)

    def test_gate_correct_for_nonzero_varsigma(self):
        for vs in (0.5, 1.0):
            spec = SchemeSpec("PS", GateAngles(PI / 2), varsigma=vs)
            U = build_and_gate(spec)
            assert phase_distance(U, rotation_gate(PI / 2)) < 1e-8

    def test_full_sine_profile_available(self):
        spec = SchemeSpec("PS", GateAngles(PI / 2), varsigma=1.0,
                          chi_profile="full_sine")
        sched = build_schedule(spec)
        assert sched.notes["chi_profile"] == "full_sine"

    def test_rejects_unknown_profile(self):
        with pytest.raises(ValueError, match="chi_profile"):
            ps_design(1.0, 2.0, GateAngles(PI / 2), chi_profile="wiggly")


class TestInverseEngineering:
    def test_s_gate(self):
        path = circle_path_params(PI / 2, 0.0, np.sqrt(3) * PI / 2)
        sched = inverse_engineer_hamiltonian(path, GateAngles(PI / 2, 0.0, 0.0))
        U = comp_block(propagate_unitary(sched, samples=1200).final, sched.system)
        expected = np.diag([np.exp(-1j * PI / 4), np.exp(1j * PI / 4)])
        assert phase_distance(U, expected) < 1e-6

    def test_t_gate(self):
        g = PI / 4
        path = circle_path_params(g, 0.0, circle_segment_area(g))
        sched = inverse_engineer_hamiltonian(path, GateAngles(g, 0.0, 0.0))
        U = comp_block(propagate_unitary(sched, samples=1200).final, sched.system)
        expected = np.diag([np.exp(-1j * PI / 8), np.exp(1j * PI / 8)])
        assert phase_distance(U, expected) < 1e-6

    def test_flat_path_gives_identity(self):
        zero = lambda t: np.zeros(np.shape(t))
        path = PathParams(tau=1.0, beta0=0.0, ell=0.0, geometric_phase=1e-12,
                          alpha=zero, beta=zero, alpha_dot=zero, beta_dot=zero,
                          chi=zero, zeta_dot=zero)
        sched = inverse_engineer_hamiltonian(path, GateAngles(PI / 2))
        s = np.linspace(0, 1.0, 11)
        assert np.abs(sched.segments[0].envelope(s)).max() == 0.0
        U = comp_block(propagate_unitary(sched, samples=200).final, sched.system)
        assert phase_distance(U, np.eye(2)) < 1e-12

    def test_gate_off_pole_axis(self):
        g = 2.0
        path = circle_path_params(g, 0.0, circle_segment_area(g))
        ang = GateAngles(g, 1.1, 0.7)
        sched = inverse_engineer_hamiltonian(path, ang)
        U = comp_block(propagate_unitary(sched, samples=1500).final, sched.system)
        assert phase_distance(U, rotation_gate(g, 1.1, 0.7)) < 1e-6

    def test_s_scheme_rejects_gamma_pi(self):
        with pytest.raises(ValueError, match="pi"):
            build_schedule(SchemeSpec("S", GateAngles(PI)))
        with pytest.raises(ValueError, match="pi"):
            build_schedule(SchemeSpec("CDD", GateAngles(PI), loops=1))


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
        overlaps = []
        for t, U in zip(traj.times, traj.operators):
            frame = sched.frame(float(t))
            overlaps.append(abs(np.vdot(frame[1], U @ k1)))
        assert min(overlaps) > 0.999

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

    def test_zero_pulse_identity(self):
        sched = dfs3_schedule(0.0, pulse_shape="zero")
        U = propagate_unitary(sched, samples=200).final
        assert np.abs(U - np.eye(8)).max() < 1e-12

    def test_sin2_shape_same_gate(self):
        sched = dfs3_schedule(0.7, pulse_shape="sin2")
        U = comp_block(propagate_unitary(sched, samples=1000).final, sched.system)
        ref = comp_block(propagate_unitary(dfs3_schedule(0.7), samples=1000).final,
                         sched.system)
        assert phase_distance(U, ref) < 1e-8

    def test_custom_shape_area_check(self):
        bad = lambda t: 0.5 * np.ones(np.shape(t))  # wrong area
        with pytest.raises(ValueError, match="area"):
            dfs3_schedule(0.0, pulse_shape=bad)

    def test_rejects_unknown_shape(self):
        with pytest.raises(ValueError, match="shape"):
            dfs3_schedule(0.0, pulse_shape="boxcar")


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
        from nhqcbench.system import hamiltonian_nodes

        w = sched.frame(0.0)[1]
        psi = traj.operators @ w
        H = hamiltonian_nodes(sched, traj.times, ErrorModel())
        rate = np.einsum("ni,nij,nj->n", psi.conj(), H, psi).real
        dyn = -np.trapezoid(rate, traj.times)
        assert dyn == pytest.approx(sched.notes["dynamical_phase"], abs=1e-6)
