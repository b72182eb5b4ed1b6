import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nhqcbench import numkit
from nhqcbench.numkit import (
    TimeGrid,
    expm_hermitian,
    expm_hermitian_batch,
    hermiticity_defect,
    rk4_linear,
    unitarity_defect,
)

PI = np.pi


def rabi_block(omega=1.0):
    """Bright-excited coupling on a 3-level system, analytic test case."""
    H = np.zeros((3, 3), dtype=complex)
    H[1, 2] = H[2, 1] = omega
    return H


class TestExpmHermitian:
    def test_zero_generator(self):
        U = expm_hermitian(np.zeros((3, 3)), dt=1.0)
        assert np.allclose(U, np.eye(3), atol=1e-15)

    def test_diagonal_case(self):
        H = np.diag([1.0, 2.0, 3.0]).astype(complex)
        U = expm_hermitian(H, dt=PI)
        assert np.allclose(np.diag(U), [-1.0, 1.0, -1.0], atol=1e-14)

    def test_rabi_half_area(self):
        # area pi/2 transfers |b> -> -i|e> (cos I - i sin sigma_x on the block)
        U = expm_hermitian(rabi_block(), dt=PI / 2)
        b = np.array([0, 1.0, 0], dtype=complex)
        assert np.allclose(U @ b, [0, 0, -1j], atol=1e-14)

    def test_against_scipy(self):
        rng = np.random.default_rng(7)
        M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        H = M + M.conj().T
        U = expm_hermitian(H, dt=0.37)
        assert np.allclose(U, scipy.linalg.expm(-1j * 0.37 * H), atol=1e-12)

    def test_result_unitary(self):
        U = expm_hermitian(rabi_block(2.3), dt=1.7)
        assert unitarity_defect(U) < 1e-9

    def test_rejects_non_hermitian(self):
        H = np.zeros((2, 2), dtype=complex)
        H[0, 1] = 1.0
        with pytest.raises(ValueError, match="defect"):
            expm_hermitian(H, dt=1.0)

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_semigroup(self, a, b):
        H = rabi_block(0.8)
        lhs = expm_hermitian(H, a) @ expm_hermitian(H, b)
        rhs = expm_hermitian(H, a + b)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        Hs = M + M.conj().transpose(0, 2, 1)
        Us = expm_hermitian_batch(Hs, 0.21)
        for H, U in zip(Hs, Us):
            assert np.allclose(U, expm_hermitian(H, 0.21), atol=1e-12)


def lattice_nodes(H, duration, steps, envelope=lambda t: np.ones_like(t)):
    """envelope(t) * H on the half-step lattice of `steps` RK4 steps."""
    t = np.linspace(0.0, duration, 2 * steps + 1)
    return duration / steps, envelope(t)[:, None, None] * H


def schrodinger(nodes):
    return -1j * nodes


class TestRk4:
    def test_zero_derivative(self):
        h, nodes = lattice_nodes(np.zeros((3, 3)), 1.0, 50)
        ys = rk4_linear(np.eye(3), [(h, nodes)], schrodinger)
        assert ys.shape == (51, 3, 3)
        assert np.allclose(ys, np.eye(3), atol=1e-15)

    def test_constant_generator_vs_expm(self):
        H = rabi_block(1.3)
        U = rk4_linear(np.eye(3), [lattice_nodes(H, 2.0, 400)], schrodinger)[-1]
        assert np.abs(U - expm_hermitian(H, 2.0)).max() < 1e-9

    def test_commuting_time_dependent_generator(self):
        # Omega(t) sigma_x: solution exp(-i area(t) sigma_x)
        H = rabi_block()
        seg = lattice_nodes(H, 1.0, 500, lambda t: np.sin(PI * t) ** 2)
        U = rk4_linear(np.eye(3), [seg], schrodinger)[-1]
        area = 0.5  # integral of sin^2(pi t) over [0, 1]
        assert np.abs(U - expm_hermitian(H, area)).max() < 1e-8

    def test_segments_chain(self):
        # two segments of different step size continue one trajectory
        H = rabi_block(0.7)
        ys = rk4_linear(np.eye(3), [lattice_nodes(H, 1.0, 300), lattice_nodes(H, 2.0, 100)],
                        schrodinger)
        assert ys.shape == (401, 3, 3)
        assert np.abs(ys[300] - expm_hermitian(H, 1.0)).max() < 1e-9
        assert np.abs(ys[-1] - expm_hermitian(H, 3.0)).max() < 1e-7

    def test_chunking_does_not_change_states(self, monkeypatch):
        H = rabi_block(1.1)
        segs = [lattice_nodes(H, 1.0, 37, np.cos)]
        whole = rk4_linear(np.eye(3), segs, schrodinger)
        monkeypatch.setattr(numkit, "CHUNK_ELEMENTS", 5 * 9)  # five steps per chunk
        assert np.array_equal(rk4_linear(np.eye(3), segs, schrodinger), whole)

    def test_fourth_order_convergence(self):
        H = rabi_block(1.0)
        ref = expm_hermitian(H, 3.0)

        def defect(steps):
            U = rk4_linear(np.eye(3), [lattice_nodes(H, 3.0, steps)], schrodinger)[-1]
            return np.abs(U - ref).max()

        assert defect(40) / defect(80) >= 8.0

    def test_nan_abort_reports_step(self):
        h, nodes = lattice_nodes(np.eye(2), 1.0, 10, lambda t: np.where(t > 0.5, np.nan, 1.0))
        with pytest.raises(RuntimeError, match="segment 0 step 5"):
            rk4_linear(np.ones(2), [(h, nodes)], lambda A: A)

    def test_unitarity_drift_small(self):
        H = rabi_block(1.0)
        U = rk4_linear(np.eye(3), [lattice_nodes(H, PI, 700)], schrodinger)[-1]
        assert unitarity_defect(U) < 1e-8


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0.5, 10)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 1)

    def test_times_shape(self):
        grid = TimeGrid(0.0, 2.0, 8)
        assert grid.times.shape == (9,)
        assert grid.h == pytest.approx(0.25)


def test_hermiticity_defect_reports_magnitude():
    H = np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex)
    assert hermiticity_defect(H) == pytest.approx(0.5)
