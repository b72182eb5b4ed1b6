import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expm_phi, rk4_linear
from nhqcbench import dynamics, numkit
from nhqcbench.dynamics import oracle_propagate_unitary
from nhqcbench.numkit import (
    expm_taylor,
    from_real_embedding,
    hermiticity_defect,
    node_last_product,
    ordered_product,
    real_embedding,
    rk4_chunks,
    unitarity_defect,
)
from nhqcbench.system import ErrorModel

PI = np.pi


def rabi_block(omega=1.0):
    """Bright-excited coupling on a 3-level system, analytic test case."""
    H = np.zeros((3, 3), dtype=complex)
    H[1, 2] = H[2, 1] = omega
    return H


def stack_across_scaling_threshold(d):
    """64 Hermitian (d, d) whose ||H||_1 spans 1e-6 to 50 in one stack, so
    its largest member sets scaling and squaring for the smallest."""
    rng = np.random.default_rng(d)
    M = rng.normal(size=(64, d, d)) + 1j * rng.normal(size=(64, d, d))
    Hs = M + M.conj().transpose(0, 2, 1)
    norms = np.abs(Hs).sum(axis=-2).max(axis=-1)
    return Hs * (np.logspace(-6, np.log10(50), 64) / norms)[:, None, None]


class TestRealEmbedding:
    def test_homomorphism(self):
        rng = np.random.default_rng(21)
        A, B = random_unitaries(rng, 2, d=4)
        assert np.abs(real_embedding(A) @ real_embedding(B) - real_embedding(A @ B)).max() <= 1e-15
        assert np.array_equal(real_embedding(np.eye(4)), np.eye(8))

    def test_round_trip_of_a_stack(self):
        M = random_unitaries(np.random.default_rng(22), 5)
        R = real_embedding(M)
        assert R.shape == (5, 6, 6) and R.dtype == np.float64
        assert np.array_equal(from_real_embedding(R), M)


class TestExpmHermitian:
    def test_zero_generator(self):
        U = from_real_embedding(expm_phi(np.zeros((3, 3)), dt=1.0))
        assert np.allclose(U, np.eye(3), atol=1e-15)

    def test_diagonal_case(self):
        H = np.diag([1.0, 2.0, 3.0]).astype(complex)
        U = from_real_embedding(expm_phi(H, dt=PI))
        assert np.allclose(np.diag(U), [-1.0, 1.0, -1.0], atol=1e-14)

    def test_rabi_half_area(self):
        # area pi/2 transfers |b> -> -i|e> (cos I - i sin sigma_x on the block)
        U = from_real_embedding(expm_phi(rabi_block(), dt=PI / 2))
        b = np.array([0, 1.0, 0], dtype=complex)
        assert np.allclose(U @ b, [0, 0, -1j], atol=1e-14)

    def test_against_scipy(self):
        import scipy.linalg

        rng = np.random.default_rng(7)
        M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        H = M + M.conj().T
        U = from_real_embedding(expm_phi(H, dt=0.37))
        assert np.allclose(U, scipy.linalg.expm(-1j * 0.37 * H), atol=1e-12)

    def test_result_unitary(self):
        U = from_real_embedding(expm_phi(rabi_block(2.3), dt=1.7))
        assert unitarity_defect(U) < 1e-9

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_semigroup(self, a, b):
        H = rabi_block(0.8)
        lhs = expm_phi(H, a) @ expm_phi(H, b)
        rhs = expm_phi(H, a + b)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        Hs = M + M.conj().transpose(0, 2, 1)
        Us = from_real_embedding(expm_phi(Hs, 0.21))
        assert Us.shape == (5, 3, 3)
        for H, U in zip(Hs, Us):
            assert np.allclose(U, from_real_embedding(expm_phi(H, 0.21)), atol=1e-12)

    @pytest.mark.parametrize("bad", ["nan", "inf", "huge"])
    def test_rejects_non_finite_naming_global_index(self, bad):
        Hs = np.stack([rabi_block(w) for w in np.linspace(0.5, 2.0, 11)])
        Hs[[9, 10]] = {"nan": rabi_block(np.nan), "inf": rabi_block(np.inf),
                       "huge": np.diag([1e308, 0, 0])}[bad]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="expm_taylor: .* in matrix 9 is not finite"):
                expm_phi(Hs, dt=1.0)

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_stack_across_scaling_threshold_matches_eigh(self, d):
        Hs = stack_across_scaling_threshold(d)
        w, V = np.linalg.eigh(Hs)
        ref = np.einsum("nij,nj,nkj->nik", V, np.exp(-1j * w), V.conj())
        assert np.abs(from_real_embedding(expm_phi(Hs, 1.0)) - ref).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_real_embedding_matches_complex_taylor(self, d):
        # the same degree and scaling as the complex polynomial, from the
        # complex theta; only the rounding of the real products differs,
        # and it grows with the s = 7 squarings of this stack (both sit
        # 1e-14 to 3e-14 from eigh)
        Hs = stack_across_scaling_threshold(d)
        E = from_real_embedding(expm_phi(Hs, 1.0))
        assert np.abs(E - expm_taylor(Hs, -1j)).max() <= 3e-14
        small = Hs[:16]  # theta < 1/2: no squaring, as for oracle slices
        E = from_real_embedding(expm_phi(small, 1.0))
        assert np.abs(E - expm_taylor(small, -1j)).max() <= 1e-18

    def test_oracle_sized_stack_unitary(self):
        # 1e5 slices at ||H||_1 dt = 2e-4, near the largest catalog oracle
        # slice (ps: 2.1e-4 at epsilon = 0.03, eta = -0.02)
        rng = np.random.default_rng(5)
        M = rng.normal(size=(100_000, 3, 3)) + 1j * rng.normal(size=(100_000, 3, 3))
        Hs = M + M.conj().transpose(0, 2, 1)
        Hs *= (2e-4 / np.abs(Hs).sum(axis=-2).max(axis=-1))[:, None, None]
        E = from_real_embedding(expm_phi(Hs, 1.0))
        assert np.abs(E.conj().transpose(0, 2, 1) @ E - np.eye(3)).max() <= 1e-14


class TestExpmTaylor:
    @pytest.mark.parametrize("d", [2, 4, 9])
    def test_non_normal_stack_matches_scipy(self, d):
        # ||X||_1 spans 1e-6 to 50 in one stack, across the scaling threshold
        import scipy.linalg

        rng = np.random.default_rng(100 + d)
        X = rng.normal(size=(48, d, d)) + 1j * rng.normal(size=(48, d, d))
        X *= (np.logspace(-6, np.log10(50), 48) / np.abs(X).sum(axis=-2).max(axis=-1))[:, None, None]
        E = expm_taylor(X, 1.0)
        for Xk, Ek in zip(X, E):
            ref = scipy.linalg.expm(Xk)
            assert np.abs(Ek - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_scale_is_applied_per_chunk(self):
        # the scale is folded into the exponent: the result of a prescaled stack
        rng = np.random.default_rng(12)
        X = rng.normal(size=(37, 4, 4)) + 1j * rng.normal(size=(37, 4, 4))
        whole = expm_taylor(X, 0.3 - 0.2j)
        assert np.abs(whole - expm_taylor((0.3 - 0.2j) * X, 1.0)).max() <= 1e-13

    def test_real_input(self):
        X = np.array([[0.0, 1.0], [0.0, 0.0]])  # nilpotent: exp(aX) = I + aX
        assert np.array_equal(expm_taylor(X, 2.5), [[1.0, 2.5], [0.0, 1.0]])

    def test_real_stack_gives_real_result(self):
        # a real stack and a real scale stay real, and agree with the complex call
        rng = np.random.default_rng(13)
        X = rng.normal(size=(40, 9, 9)) * np.logspace(-4, 0.5, 40)[:, None, None]
        E = expm_taylor(X, 0.7)
        assert E.dtype == np.float64
        ref = expm_taylor(X.astype(complex), 0.7)
        assert ref.dtype == complex
        assert np.abs(E - ref).max() <= 1e-15 * np.abs(ref).max()


def taylor_thetas(monkeypatch):
    """A list to which every later _taylor call appends its theta."""
    thetas = []
    original = numkit._taylor

    def spy(Xs, theta, scale):
        thetas.append(theta)
        return original(Xs, theta, scale)
    monkeypatch.setattr(numkit, "_taylor", spy)
    return thetas


def random_hermitian_stack(d, n=50):
    rng = np.random.default_rng(40 + d)
    M = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    return (M + M.conj().transpose(0, 2, 1)) * rng.uniform(0.01, 3.0, size=(n, 1, 1))


class TestExpmEmbeddedTheta:
    """expm_embedded reads theta off the complex view of the exponents'
    even rows: expm_taylor's theta on the complex stack, and the degree and
    scaling of the hypot of every entry's real and imaginary part."""

    @staticmethod
    def check(thetas, Y, dt):
        thetas.clear()
        E = numkit.expm_embedded(Y, dt)
        # a last axis that is not contiguous is copied before the view
        Yt = np.swapaxes(np.ascontiguousarray(np.swapaxes(Y, -1, -2)), -1, -2)
        assert Yt.strides[-1] != Yt.itemsize
        assert np.array_equal(numkit.expm_embedded(Yt, dt), E)
        expm_taylor(from_real_embedding(Y), dt)
        assert thetas == [thetas[0]] * 3
        absX = np.hypot(Y[:, 0::2, 0::2], Y[:, 1::2, 0::2])
        assert numkit._taylor_degree(thetas[0]) == numkit._taylor_degree(
            abs(dt) * np.einsum("kij->kj", absX).max())

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_random_stacks(self, monkeypatch, d):
        thetas = taylor_thetas(monkeypatch)
        for Hs in (stack_across_scaling_threshold(d), random_hermitian_stack(d)):
            for dt in (1e-3, 0.37, -2.0):
                self.check(thetas, real_embedding(-1j * Hs), dt)

    def test_catalog_exponents(self, monkeypatch, schedules):
        # every exponent stack of the unitary oracle on the catalog
        calls = []
        original = dynamics.expm_embedded
        monkeypatch.setattr(dynamics, "expm_embedded",
                            lambda Y, h: (calls.append((Y, h)), original(Y, h))[1])
        for sched in schedules.values():
            oracle_propagate_unitary(sched, ErrorModel(epsilon=0.04, eta=-0.03), slices=64)
        assert len(calls) >= len(schedules)
        thetas = taylor_thetas(monkeypatch)
        for Y, h in calls:
            self.check(thetas, Y, h)


def random_unitaries(rng, n, d=3):
    M = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    return np.linalg.qr(M)[0]


def sequential_product(Ms):
    U = np.eye(Ms.shape[-1], dtype=complex)
    for M in Ms:
        U = M @ U
    return U


class TestOrderedProduct:
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 1000])
    def test_random_unitaries_match_loop(self, n):
        Ms = random_unitaries(np.random.default_rng(n), n)
        before = Ms.copy()
        assert np.abs(ordered_product(Ms) - sequential_product(Ms)).max() <= 1e-12
        assert np.array_equal(Ms, before)  # input left untouched

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 1000])
    def test_identical_factors_match_loop(self, n):
        # a piecewise-constant segment: every slice is the same matrix
        U = from_real_embedding(expm_phi(rabi_block(1.3), 0.01))
        Ms = np.broadcast_to(U, (n, 3, 3))
        assert np.abs(ordered_product(Ms) - sequential_product(Ms)).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 9, 10, 1024, 1025])  # 1, 2, b**2 and b**2 + 1
    def test_broadcast_factor_matches_materialized_stack(self, n):
        # one block's products serve every block of a broadcast factor, the
        # short last block's included, with the bits of the full product
        M = expm_phi(rabi_block(1.3), 0.01)
        Ms = np.broadcast_to(M, (n,) + M.shape)
        assert np.array_equal(ordered_product(Ms), ordered_product(Ms.copy()))

    def test_rejects_empty_stack(self):
        with pytest.raises(ValueError, match="empty stack: 0 factors"):
            ordered_product(np.zeros((0, 2, 2)))


class TestNodeLastProduct:
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("P, J, R", [(2, 2, 2), (3, 3, 3), (2, 8, 2), (8, 8, 8), (4, 3, 5),
                                         (2, 8, 4), (8, 8, 2)])
    @pytest.mark.parametrize("broadcast", [None, "A", "B"])
    def test_matches_einsum(self, dtype, P, J, R, broadcast):
        rng = np.random.default_rng(P * 100 + J * 10 + R)

        def stack(*shape):
            M = rng.standard_normal(shape)
            return M + 1j * rng.standard_normal(shape) if dtype is complex else M

        n = 257
        # a stride-0 operand is one matrix broadcast along the node axis
        A = np.broadcast_to(stack(P, J, 1), (P, J, n)) if broadcast == "A" else stack(P, J, n)
        B = np.broadcast_to(stack(J, R, 1), (J, R, n)) if broadcast == "B" else stack(J, R, n)
        got = node_last_product(A, B)
        ref = np.einsum("pjn,jrn->prn", A, B)
        assert got.dtype == ref.dtype and got.shape == (P, R, n)
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_mixed_real_and_complex(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((3, 4, 9))
        B = rng.standard_normal((4, 2, 9)) + 1j * rng.standard_normal((4, 2, 9))
        ref = np.einsum("pjn,jrn->prn", A, B)
        assert np.abs(node_last_product(A, B) - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_trailing_axes(self):
        # every axis after the two matrix axes is carried along elementwise
        rng = np.random.default_rng(8)
        A, B = rng.standard_normal((2, 3, 4, 5)), rng.standard_normal((3, 2, 4, 5))
        ref = np.einsum("pjab,jrab->prab", A, B)
        assert np.abs(node_last_product(A, B) - ref).max() <= 1e-15 * np.abs(ref).max()


def lattice_nodes(H, duration, steps, envelope=lambda t: np.ones_like(t)):
    """envelope(t) * H on the half-step lattice of `steps` RK4 steps."""
    t = np.linspace(0.0, duration, 2 * steps + 1)
    return duration / steps, envelope(t)[:, None, None] * H


def schrodinger(H, duration, steps, envelope=lambda t: np.ones_like(t)):
    """The generators -i envelope(t) H of lattice_nodes, as an RK4 segment."""
    h, nodes = lattice_nodes(H, duration, steps, envelope)
    return h, -1j * nodes


def plain_chain(y0, segments):
    """Every state of RK4 on segments, one matmul per step from the step
    matrices numkit builds: the chain rk4_linear blocks."""
    ys = [np.asarray(y0, dtype=complex)]
    for h, A in segments:
        n = (len(A) - 1) // 2
        P = numkit._step_matrices(A, h, np.empty((3, n) + A.shape[1:], dtype=complex))
        for k in range(n):
            ys.append(P[k] @ ys[-1])
    return np.array(ys)


def noncommuting_segment(steps, seed=0, duration=1.3):
    """-i H(t), H(t) = cos(2t) H1 + sin(3t) H2 for two random Hermitian 3x3
    matrices, on the half-step lattice of `steps` steps."""
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    H1, H2 = M + M.conj().transpose(0, 2, 1)
    t = np.linspace(0.0, duration, 2 * steps + 1)[:, None, None]
    return duration / steps, -1j * (np.cos(2 * t) * H1 + np.sin(3 * t) * H2)


class TestRk4:
    def test_zero_derivative(self):
        ys = rk4_linear(np.eye(3), [schrodinger(np.zeros((3, 3)), 1.0, 50)])
        assert ys.shape == (51, 3, 3)
        assert np.allclose(ys, np.eye(3), atol=1e-15)

    def test_constant_generator_vs_expm(self):
        H = rabi_block(1.3)
        U = rk4_linear(np.eye(3), [schrodinger(H, 2.0, 400)])[-1]
        assert np.abs(U - from_real_embedding(expm_phi(H, 2.0))).max() < 1e-9

    def test_commuting_time_dependent_generator(self):
        # Omega(t) sigma_x: solution exp(-i area(t) sigma_x)
        H = rabi_block()
        seg = schrodinger(H, 1.0, 500, lambda t: np.sin(PI * t) ** 2)
        U = rk4_linear(np.eye(3), [seg])[-1]
        area = 0.5  # integral of sin^2(pi t) over [0, 1]
        assert np.abs(U - from_real_embedding(expm_phi(H, area))).max() < 1e-8

    def test_segments_chain(self):
        # two segments of different step size continue one trajectory
        H = rabi_block(0.7)
        ys = rk4_linear(np.eye(3), [schrodinger(H, 1.0, 300), schrodinger(H, 2.0, 100)])
        assert ys.shape == (401, 3, 3)
        assert np.abs(ys[300] - from_real_embedding(expm_phi(H, 1.0))).max() < 1e-9
        assert np.abs(ys[-1] - from_real_embedding(expm_phi(H, 3.0))).max() < 1e-7

    def test_chunking_does_not_change_states(self, monkeypatch):
        H = rabi_block(1.1)
        segs = [schrodinger(H, 1.0, 37, np.cos)]
        whole = rk4_linear(np.eye(3), segs)
        monkeypatch.setattr(numkit, "CHUNK_ELEMENTS", 5 * 9)  # five steps per chunk
        assert np.array_equal(rk4_linear(np.eye(3), segs), whole)

    def test_fourth_order_convergence(self):
        H = rabi_block(1.0)
        ref = from_real_embedding(expm_phi(H, 3.0))

        def defect(steps):
            U = rk4_linear(np.eye(3), [schrodinger(H, 3.0, steps)])[-1]
            return np.abs(U - ref).max()

        assert defect(40) / defect(80) >= 8.0

    def test_nan_abort_reports_step(self):
        h, nodes = lattice_nodes(np.eye(2), 1.0, 10, lambda t: np.where(t > 0.5, np.nan, 1.0))
        with pytest.raises(RuntimeError, match="segment 0 step 5"):
            rk4_linear(np.ones(2), [(h, nodes)])

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 1000])
    def test_blocked_propagator_matches_per_step_chain(self, n):
        # a propagator (r = m) chains its steps in blocks of ceil(sqrt(n))
        segs = [noncommuting_segment(n)]
        assert np.abs(rk4_linear(np.eye(3), segs) - plain_chain(np.eye(3), segs)).max() <= 1e-13

    def test_blocked_segments_match_per_step_chain(self):
        # two segments of different lengths, hence different block sizes
        segs = [noncommuting_segment(170, seed=1), noncommuting_segment(23, seed=2, duration=0.4)]
        ys = rk4_linear(np.eye(3), segs)
        assert ys.shape == (194, 3, 3)
        assert np.abs(ys - plain_chain(np.eye(3), segs)).max() <= 1e-13

    def test_propagator_chain_makes_about_2_sqrt_n_calls(self, monkeypatch):
        # 1000 steps in blocks of 32: 3 matmuls build the step matrices,
        # 31 the prefix products, 32 carry the state from block to block
        # and 1 fills in the blocks, where a plain chain makes 1000
        calls = []
        matmul = np.matmul

        def counted(*args, **kwargs):
            calls.append(1)
            return matmul(*args, **kwargs)
        monkeypatch.setattr(numkit.np, "matmul", counted)
        rk4_linear(np.eye(3), [noncommuting_segment(1000)])
        assert len(calls) == 3 + 31 + 32 + 1

    @pytest.mark.parametrize("chunk_steps", [1, 5, 7, 8, 13, 20, 49])
    def test_chunk_not_a_multiple_of_block_leaves_states_equal(self, monkeypatch, chunk_steps):
        # 50 steps: blocks of 8; chunks round down to whole blocks, at least one
        segs = [noncommuting_segment(50)]
        whole = rk4_linear(np.eye(3), segs)
        monkeypatch.setattr(numkit, "CHUNK_ELEMENTS", chunk_steps * 9)
        assert np.array_equal(rk4_linear(np.eye(3), segs), whole)

    @pytest.mark.parametrize("chunk_steps", [None, 3])
    def test_square_grid_matches_single_runs(self, monkeypatch, chunk_steps):
        # propagators on a grid axis are blocked like single ones, bit for bit
        scales = np.array([0.7, 1.0, 1.3, 2.2])
        h, A = noncommuting_segment(29)
        if chunk_steps:
            monkeypatch.setattr(numkit, "CHUNK_ELEMENTS", chunk_steps * len(scales) * 9)
        grid = rk4_linear(np.broadcast_to(np.eye(3), (4, 3, 3)),
                          [(h, scales[:, None, None] * A[:, None])])
        assert grid.shape == (30, 4, 3, 3)
        for g, a in enumerate(scales):
            assert np.array_equal(grid[:, g], rk4_linear(np.eye(3), [(h, a * A)]))

    def test_narrow_state_matches_per_step_chain(self):
        # a batch of 6 vectorised 3x3 densities (r = 6 < m = 9) is chained
        # in blocks of min(ceil(sqrt(40)), ceil(sqrt(54))) = 7
        rng = np.random.default_rng(5)
        t = np.linspace(0.0, 1.0, 2 * 40 + 1)[:, None, None]
        G = rng.normal(size=(2, 9, 9)) + 1j * rng.normal(size=(2, 9, 9))
        segs = [(1.0 / 40, np.cos(t) * G[0] + t * G[1])]
        y0 = rng.normal(size=(9, 6)) + 1j * rng.normal(size=(9, 6))
        chain = plain_chain(y0, segs)
        assert np.abs(rk4_linear(y0, segs) - chain).max() <= 1e-13 * np.abs(chain).max()

    @pytest.mark.parametrize("shape", [(3,), (3, 2)])
    def test_one_step_segments_of_a_narrow_state_match_per_step_chain(self, shape):
        # a one-step segment takes b = 1 and one one-step chunk, so every
        # chunk's state is written where the state it starts from was yielded
        segs = [noncommuting_segment(1, seed=k, duration=0.3) for k in range(5)]
        y0 = np.random.default_rng(3).normal(size=shape) + 0j
        chain = plain_chain(y0, segs)
        assert np.abs(rk4_linear(y0, segs) - chain).max() <= 1e-13 * np.abs(chain).max()

    def test_nan_abort_reports_step_of_blocked_chain(self):
        # 10 steps in blocks of 4: the first non-finite step lies inside a block
        h, nodes = lattice_nodes(np.eye(2), 1.0, 10, lambda t: np.where(t > 0.5, np.nan, 1.0))
        with pytest.raises(RuntimeError, match="segment 0 step 5"):
            rk4_linear(np.eye(2), [(h, nodes)])

    @pytest.mark.parametrize("chunk_steps", [None, 3, 5, 11, 13])
    def test_blocked_narrow_states_keep_grid_and_broadcast_bits(self, monkeypatch, chunk_steps):
        # 60 steps of a batch of 6 vectorised 3x3 densities (m = 9, r = 6):
        # blocks of min(ceil(sqrt(60)), ceil(sqrt(54))) = 8.  Under chunk
        # budgets that are no multiple of 8 a grid point reads as a single
        # run, and a broadcast node as its materialized stack, bit for bit
        scales = np.array([0.7, 1.0, 1.3])
        rng = np.random.default_rng(9)
        h, A = noncommuting_segment(60, seed=3, duration=1.0)
        A = np.kron(A, np.eye(3))  # (121, 9, 9)
        y0 = rng.normal(size=(9, 6)) + 1j * rng.normal(size=(9, 6))
        node = np.kron(-1j * rabi_block(1.1), np.eye(3)) + 0.1 * rng.normal(size=(9, 9))
        if chunk_steps:
            monkeypatch.setattr(numkit, "CHUNK_ELEMENTS", chunk_steps * len(scales) * 81)
        grid = rk4_linear(np.broadcast_to(y0, (3, 9, 6)), [(h, scales[:, None, None] * A[:, None])])
        for g, a in enumerate(scales):
            assert np.array_equal(grid[:, g], rk4_linear(y0, [(h, a * A)]))
        nodes = np.broadcast_to(scales[:, None, None] * node, (len(A), 3, 9, 9))
        fast = rk4_linear(np.broadcast_to(y0, (3, 9, 6)), [(h, nodes)])
        assert np.array_equal(fast, rk4_linear(np.broadcast_to(y0, (3, 9, 6)), [(h, nodes.copy())]))
        chain = plain_chain(y0, [(h, nodes[:, 1].copy())])
        assert np.abs(fast[:, 1] - chain).max() <= 1e-13 * np.abs(chain).max()

    @pytest.mark.parametrize("chunk_steps", [None, 3])
    def test_nan_abort_reports_step_inside_narrow_block(self, monkeypatch, chunk_steps):
        # 40 steps of a (9, 6) state in blocks of 7: a NaN node of step 17,
        # inside the third block, names step 17
        rng = np.random.default_rng(4)
        A = np.broadcast_to(0.1 * rng.normal(size=(9, 9)), (81, 9, 9)).copy()
        A[2 * 17 + 1, 2, 3] = np.nan
        if chunk_steps:
            monkeypatch.setattr(numkit, "CHUNK_ELEMENTS", chunk_steps * 81)
        with pytest.raises(RuntimeError, match="segment 0 step 17$"):
            rk4_linear(rng.normal(size=(9, 6)), [(1.0 / 40, A)])

    def test_broadcast_density_chain_makes_about_n_over_b_calls(self, monkeypatch):
        # 1000 steps of a (9, 6) state in blocks of 8, chunks of 100 steps
        # rounded up to 104: 3 matmuls build the one step matrix, 7 its
        # powers, 125 carry the state from block to block and 10, one per
        # chunk, fill in the blocks, where a plain chain makes 1000
        rng = np.random.default_rng(6)
        node = 0.1 * rng.normal(size=(9, 9))
        y0 = rng.normal(size=(9, 6))
        monkeypatch.setattr(numkit, "CHUNK_ELEMENTS", 100 * y0.size)
        calls = []
        matmul = np.matmul

        def counted(*args, **kwargs):
            calls.append(1)
            return matmul(*args, **kwargs)
        monkeypatch.setattr(numkit.np, "matmul", counted)
        chunks = sum(1 for _ in rk4_chunks(y0, [(1e-3, np.broadcast_to(node, (2001, 9, 9)))]))
        n, b = 1000, 8
        assert chunks == 10
        assert len(calls) == 3 + (b - 1) + -(-n // b) + chunks

    @pytest.mark.parametrize("chunk_steps", [None, 3])
    def test_grid_axis_matches_single_runs(self, monkeypatch, chunk_steps):
        # G generators share one pass; each grid point gets the states of
        # its own run, bit for bit, and chunking never changes them
        scales = np.array([0.7, 1.0, 1.3, 2.2])
        H = rabi_block(1.1)
        h, nodes = lattice_nodes(H, 1.5, 29, np.cos)
        y0 = np.eye(3)[:, :2]
        if chunk_steps:
            monkeypatch.setattr(numkit, "CHUNK_ELEMENTS", chunk_steps * len(scales) * 9)
        grid = rk4_linear(np.broadcast_to(y0, (4, 3, 2)),
                          [(h, -1j * scales[:, None, None] * nodes[:, None])])
        assert grid.shape == (30, 4, 3, 2)
        for g, a in enumerate(scales):
            single = rk4_linear(y0, [(h, -1j * (a * nodes))])
            assert np.array_equal(grid[:, g], single)

    def test_finite_states_whose_sum_overflows_do_not_abort(self):
        # the chunk sum of 1e308 entries overflows; the per-step pass then
        # finds every state finite
        h, nodes = lattice_nodes(np.zeros((2, 2)), 1.0, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ys = rk4_linear(np.full(2, 1e308), [(h, nodes)])
        assert np.array_equal(ys, np.full((11, 2), 1e308))

    @pytest.mark.parametrize("grid", [False, True])
    def test_real_run_matches_complex_run(self, grid):
        # a real y0 with real generators runs in float64, as the Lindblad
        # routes do on the coordinates of rho
        rng = np.random.default_rng(8)
        t = np.linspace(0.0, 1.0, 2 * 60 + 1)[:, None, None]
        G = rng.normal(size=(2, 9, 9))
        A = np.cos(t) * G[0] + t * G[1]
        y0 = rng.normal(size=(9, 6))
        if grid:
            A = np.stack([A, 0.5 * A], axis=1)
            y0 = np.stack([y0, -y0])
        # a chunk is valid until the next one is requested
        states = np.concatenate([s.copy() for s in rk4_chunks(y0, [(1.0 / 60, A)])])
        assert states.dtype == np.float64
        ref = rk4_linear(y0, [(1.0 / 60, A)])[1:]
        assert ref.dtype == complex
        assert np.abs(states - ref).max() <= 1e-13

    def test_overflow_aborts_without_warnings(self):
        seg = schrodinger(rabi_block(1e300), 1.0, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="non-finite state in segment 0 step 0"):
                rk4_linear(np.eye(3), [seg])

    def test_unitarity_drift_small(self):
        H = rabi_block(1.0)
        U = rk4_linear(np.eye(3), [schrodinger(H, PI, 700)])[-1]
        assert unitarity_defect(U) < 1e-8


def step_matrix_sizes(monkeypatch):
    """The node count of every _step_matrices call rk4_chunks makes."""
    sizes = []
    step_matrices = numkit._step_matrices

    def spy(A, h, work):
        sizes.append(len(A))
        return step_matrices(A, h, work)
    monkeypatch.setattr(numkit, "_step_matrices", spy)
    return sizes


def constant_cases():
    """(y0, segment) whose generators are one node broadcast along the
    lattice (stride 0): a blocked propagator (50 steps, blocks of 8), a
    batch of 6 vectorised 3x3 densities (9x6) and a grid axis of 4 scales."""
    rng = np.random.default_rng(11)
    A = -1j * rabi_block(1.1)
    G = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    scales = np.array([0.7, 1.0, 1.3, 2.2])
    return {
        "propagator": (np.eye(3), (1.0 / 50, np.broadcast_to(A, (101, 3, 3)))),
        "densities": (rng.normal(size=(9, 6)) + 1j * rng.normal(size=(9, 6)),
                      (1.0 / 40, np.broadcast_to(G, (81, 9, 9)))),
        "grid": (np.broadcast_to(np.eye(3)[:, :2], (4, 3, 2)),
                 (1.0 / 50, np.broadcast_to(scales[:, None, None] * A, (101, 4, 3, 3)))),
    }


class TestConstantRuns:
    """A segment of one generator node broadcast along its lattice builds
    one step matrix; its states keep the bits of the materialized stack."""

    @pytest.mark.parametrize("case", ["propagator", "densities", "grid"])
    @pytest.mark.parametrize("chunk_steps", [None, 13])
    def test_constant_path_matches_full_path(self, monkeypatch, case, chunk_steps):
        y0, (h, A) = constant_cases()[case]
        if chunk_steps:
            monkeypatch.setattr(numkit, "CHUNK_ELEMENTS", chunk_steps * len(y0) * 9)
        full = rk4_linear(y0, [(h, A.copy())])
        sizes = step_matrix_sizes(monkeypatch)
        fast = rk4_linear(y0, [(h, A)])
        assert sizes == [3]
        assert np.array_equal(fast, full)
        # blocked: only the rounding of the chain moves
        chain = plain_chain(y0, [(h, A.copy())])
        assert np.abs(fast - chain).max() <= 1e-13 * np.abs(chain).max()

    @pytest.mark.parametrize("case", ["densities", "grid"])
    @pytest.mark.parametrize("elements", [1, 2 * 54, 7 * 54 + 5, 40 * 54, 1 << 15])
    def test_narrow_chunks_sized_by_states_leave_states_equal(self, monkeypatch, case, elements):
        # a broadcast narrow segment takes CHUNK_ELEMENTS // y0.size steps a
        # chunk, rounded up to whole blocks of b = min(ceil(sqrt(n)),
        # ceil(sqrt(m r))), from one block to the whole segment; no chunk
        # size moves a bit
        b = {"densities": 7, "grid": 3}[case]  # n = 40, m r = 54; n = 50, m r = 6
        y0, (h, A) = constant_cases()[case]
        y0 = np.asarray(y0, dtype=complex)
        full = rk4_linear(y0, [(h, A.copy())])
        monkeypatch.setattr(numkit, "CHUNK_ELEMENTS", elements)
        lengths = [len(states) for states in rk4_chunks(y0, [(h, A)])]
        n = (len(A) - 1) // 2
        steps = -(-max(1, elements // y0.size) // b) * b
        assert lengths == [min(steps, n - c0) for c0 in range(0, n, steps)]
        assert np.array_equal(rk4_linear(y0, [(h, A)]), full)

    def test_one_step_matrix_per_broadcast_segment(self, monkeypatch):
        # broadcast segments around a varying one: each broadcast segment
        # builds one step matrix, the varying one a stack per chunk
        y0, (h, A) = constant_cases()["densities"]
        h2, B = noncommuting_segment(30)
        B = np.kron(B, np.eye(3))  # (61, 9, 9)
        segs = [(h, A), (h2, B), (h, np.broadcast_to(2 * A[0], (41, 9, 9)))]
        full = rk4_linear(y0, [(k, np.array(X)) for k, X in segs])
        sizes = step_matrix_sizes(monkeypatch)
        assert np.array_equal(rk4_linear(y0, segs), full)
        assert sizes == [3, len(B), 3]

    def test_broadcast_nodes_take_the_constant_path(self, monkeypatch):
        y0, (h, A) = constant_cases()["densities"]
        sizes = step_matrix_sizes(monkeypatch)
        ys = rk4_linear(y0, [(h, A)])
        assert sizes == [3]
        chain = plain_chain(y0, [(h, A.copy())])
        assert np.abs(ys - chain).max() <= 1e-13 * np.abs(chain).max()

    @pytest.mark.parametrize("node", [-1, 40])
    def test_node_one_ulp_off_takes_full_path(self, monkeypatch, node):
        # a materialized stack is never probed: equal nodes or one a ulp
        # off, it takes the full path
        y0, (h, A) = constant_cases()["densities"]
        A = A.copy()
        A[node, 4, 7] = np.nextafter(A[node, 4, 7].real, np.inf) + 1j * A[node, 4, 7].imag
        chain = plain_chain(y0, [(h, A)])
        sizes = step_matrix_sizes(monkeypatch)
        ys = rk4_linear(y0, [(h, A)])
        assert sizes == [len(A)]
        assert np.abs(ys - chain).max() <= 1e-13 * np.abs(chain).max()

    @pytest.mark.parametrize("broadcast", [False, True])
    def test_constant_nan_aborts_at_step_0(self, broadcast):
        h, nodes = lattice_nodes(np.eye(2), 1.0, 10, lambda t: np.full_like(t, np.nan))
        if broadcast:
            nodes = np.broadcast_to(nodes[0], nodes.shape)
        with pytest.raises(RuntimeError, match="segment 0 step 0$"):
            rk4_linear(np.eye(2), [(h, nodes)])


def einsum_unitarity_defect(M):
    """max |M M^dagger - I| by one complex einsum over the whole Gram matrix."""
    M = M.reshape((-1,) + M.shape[-2:])
    return np.abs(np.einsum("nij,nkj->nik", M, M.conj()) - np.eye(M.shape[1])).max()


class TestUnitarityDefect:
    @pytest.mark.parametrize("shape", [(2, 2), (1, 3, 3), (2001, 3, 3), (2001, 8, 8),
                                       (300, 3, 4), (50, 3, 8)])
    def test_random_stacks_match_einsum(self, shape):
        rng = np.random.default_rng(len(shape) + shape[-1])
        A = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        near = np.linalg.qr(A)[0] if shape[-1] == shape[-2] else A / np.linalg.norm(
            A, axis=-1, keepdims=True)
        for M in (A, near):
            assert abs(unitarity_defect(M) - einsum_unitarity_defect(M)) <= 1e-15 * max(
                1.0, einsum_unitarity_defect(M))

    def test_catalog_trajectories_and_frames_match_einsum(self, schedules, ideal_runs):
        for tag, sched in schedules.items():
            U = ideal_runs[tag].operators
            seg = sched.segments[0]
            V = seg.frame(np.linspace(0.0, seg.duration, 257))
            for M in (U, V):
                assert abs(unitarity_defect(M) - einsum_unitarity_defect(M)) <= 1e-15, tag

    # (2001, 8, 8) stacks are taken in blocks of CHUNK_ELEMENTS // 64 = 512
    # matrices, so their node 1500 lies in the third block
    @pytest.mark.parametrize("shape, where", [
        pytest.param((10, 3, 3), (0, 0, 0), id="where0"),
        pytest.param((10, 3, 3), (7, 2, 1), id="where1"),
        pytest.param((10, 3, 3), (9, 0, 2), id="where2"),
        pytest.param((2001, 8, 8), (1500, 5, 3), id="third-block"),
    ])
    def test_nan_fails_every_threshold(self, shape, where):
        M = np.tile(np.eye(shape[-1], dtype=complex), shape[:1] + (1, 1))
        M[where] = np.nan
        defect = unitarity_defect(M)
        assert not defect <= 1e300 and not defect > 0  # NaN

    @pytest.mark.parametrize("entry", [1e100, 1e100j, -3e150, 1e200])
    def test_overflowing_squares_fail_every_threshold(self, entry):
        # Gram entries whose square overflows (or that overflow themselves)
        # read inf, silently; a NaN elsewhere in the stack, in an earlier
        # block of the long one, still reads NaN
        for shape, at in (((10, 3, 3), (7, 1, 2)), ((2001, 8, 8), (1500, 1, 2))):
            M = np.tile(np.eye(shape[-1], dtype=complex), shape[:1] + (1, 1))
            M[at] = entry
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert unitarity_defect(M) == np.inf, shape
                M[2, 0, 0] = np.nan
                assert np.isnan(unitarity_defect(M)), shape

    def test_empty_stack_reads_zero(self):
        assert unitarity_defect(np.zeros((0, 3, 3), dtype=complex)) == 0.0


def test_hermiticity_defect_reports_magnitude():
    H = np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex)
    assert hermiticity_defect(H) == pytest.approx(0.5)
