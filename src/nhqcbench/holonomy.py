"""Geometric-structure verification: connection and dynamical matrices,
holonomy-condition residuals, and gate reconstruction from auxiliary frames.

Frames come from the scheme builders as analytic functions of local time on
each segment; nothing here infers a frame from the propagator, which keeps
the reconstruction an independent check on the dynamics.

Every check walks the segments in local time, as the integrators do, so no
difference or Magnus step straddles a boundary, where a drive may jump.
The reconstruction samples each segment on its own lattice of 2n+1 times
with spacing h: the frame V (2n+1, L+1, dim), rows 0..L-1 spanning the
computational subspace and row L the auxiliary vector, and H (2n+1, dim,
dim).  `frame_connection` turns them into the connection A and the
dynamical matrix K, both (2n+1, L, L), by five-point differences, and
`holonomy_reconstruct` takes A, K and h to the segment's holonomy by n
fourth-order Magnus steps; the segments are chained by the overlaps of
their frames where they meet.  The symmetrization makes A and K exactly
Hermitian, so every Magnus exponent is exactly anti-Hermitian and goes to
`expm_embedded` in the real embedding as it is, with no Hermiticity check.
The residuals take a run alone: H of the schedule and error model that the
trajectory records, at its RK4 state times, segment by segment, so no H of
the whole trajectory is ever held.

The working set is bounded: every n-sized input is walked in node blocks
of at most numkit.CHUNK_ELEMENTS entries, so apart from the trajectory a
run returns and the node-last computational rows of a frame, no check
holds more than one further row- or block-sized array at a time.  The
residuals read their kets straight from the trajectory, one block of
states at a time; the reconstruction frees the frame once its first, last
and node-last rows are taken, and the connection frees H nu before it
forms the differences, whose centred part runs in node blocks.  Each block
does the per-node arithmetic of the whole stack, so no value depends on
the block size.

Every product of these 2..8-wide complex matrices is taken by
`numkit.node_last_product` on node-last arrays (the sample axis
innermost): the frame rows are copied node-last once, H is read through a
transposed view (a square segment's stride-0 node stays unmaterialized),
and A and K are returned as (2n+1, L, L) views of node-last arrays, which
the Magnus commutator reads as they lie.  A stacked complex product
costs hundreds of ns per matrix at these widths (see numkit).
"""
from __future__ import annotations

import numpy as np

from .dynamics import Trajectory, allocate_steps, segment_state_times
from .numkit import (
    CHUNK_ELEMENTS,
    expm_embedded,
    from_real_embedding,
    node_last_product,
    ordered_product,
    real_embedding,
    unitarity_defect,
)
from .system import ErrorModel, PulseSchedule, segment_hamiltonian_nodes

FRAME_DRIFT_REJECT = 1e-8
RECONSTRUCT_UNITARITY_TOL = 1e-6
RECONSTRUCTION_STEPS = 2048
# five-point one-sided differences at the first two samples, times 12 h
_ONE_SIDED = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0], [-3.0, -10.0, 18.0, -6.0, 1.0]])


def _time_derivative(V: np.ndarray, h: float) -> np.ndarray:
    """Five-point differences along the last axis of samples V (..., n)
    spaced by h, n >= 5: centred inside, one-sided at the two samples
    nearest each end."""
    dV = np.empty_like(V)
    n = V.shape[-1]
    block = max(1, CHUNK_ELEMENTS // (V.size // n))
    for b0 in range(2, n - 2, block):
        # ((V0 - 8 V1) + 8 V3) - V4 in place, one block-sized temporary at a time
        b1 = min(b0 + block, n - 2)
        D = dV[..., b0:b1]
        np.subtract(V[..., b0 - 2:b1 - 2], 8 * V[..., b0 - 1:b1 - 1], out=D)
        D += 8 * V[..., b0 + 1:b1 + 1]
        D -= V[..., b0 + 2:b1 + 2]
    dV[..., :2] = V[..., :5] @ _ONE_SIDED.T
    dV[..., -2:] = -(V[..., -5:] @ _ONE_SIDED[::-1, ::-1].T)
    dV /= 12 * h
    return dV


def _computational_rows(V: np.ndarray, nodes: int) -> np.ndarray:
    """The checks of frame_connection on the frame V and the count of its
    H nodes, then V's computational rows node-last, (L, dim, n)."""
    if len(V) < 5:
        raise ValueError(f"{len(V)} frame samples; five-point differences need at least 5")
    if nodes != len(V):
        raise ValueError(f"{nodes} H nodes for {len(V)} frame samples")
    drift = unitarity_defect(V)
    if not drift <= FRAME_DRIFT_REJECT:  # NaN fails too
        raise ValueError(f"frame orthonormality drift {drift:.3e} > {FRAME_DRIFT_REJECT}")
    return np.ascontiguousarray(V[:, :-1].transpose(1, 2, 0))


def _connection(nu: np.ndarray, H: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """A and K of frame_connection from the computational rows nu (L, dim,
    n), node-last, which it overwrites with their conjugates.  K comes
    first, so H nu is freed before the five-point differences are formed:
    they are taken of conj nu and conjugated back, which is exact, since
    their weights are real."""
    H_nu = node_last_product(nu, H.transpose(2, 1, 0))
    bra = np.conjugate(nu, out=nu)  # in place: nu is read no more
    K_raw = node_last_product(bra, H_nu.transpose(1, 0, 2))
    del H_nu
    d_nu = _time_derivative(bra, h)
    np.conjugate(d_nu, out=d_nu)
    A_raw = 1j * node_last_product(bra, d_nu.transpose(1, 0, 2))
    del bra, d_nu  # the frame-sized arrays, before the symmetrization
    A = 0.5 * (A_raw + A_raw.conj().transpose(1, 0, 2))
    K = 0.5 * (K_raw + K_raw.conj().transpose(1, 0, 2))
    return A.transpose(2, 0, 1), K.transpose(2, 0, 1)


def frame_connection(V: np.ndarray, H: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """A_lm = i <nu_l | d nu_m/dt> by finite differences and K_lm =
    <nu_l|H|nu_m> on the computational rows of the frame V and the
    Hamiltonians H sampled at the same times, spaced by h; both are made
    Hermitian by symmetrization (finite-difference noise).  Both are
    (n, L, L) views of node-last arrays.  Besides V and H it holds the
    node-last rows nu and one further array of their size at a time
    (H nu, then the differences), plus the temporaries of one product."""
    return _connection(_computational_rows(V, len(H)), H, h)


def holonomy_reconstruct(A: np.ndarray, K: np.ndarray, h: float) -> np.ndarray:
    """Holonomy in the frame basis of c' = X c, X = i(A - K), from 2n+1
    samples of A and K spaced by h, n >= 1: the time-ordered product of n
    fourth-order Magnus steps exp(Omega), Omega = 2h/6 (X0 + 4 Xm + X1) +
    (2h)^2/12 [X1, X0] from the samples at the start, middle and end of
    each step (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009))."""
    if len(A) < 3 or len(A) % 2 == 0:
        raise ValueError(f"{len(A)} samples of A; the Magnus steps need 2n+1, n >= 1")
    if len(K) != len(A):
        raise ValueError(f"{len(K)} samples of K for {len(A)} samples of A")
    X = (1j * (A - K)).transpose(1, 2, 0)
    X0, Xm, X1 = X[..., 0:-1:2], X[..., 1::2], X[..., 2::2]
    comm = node_last_product(X1, X0) - node_last_product(X0, X1)
    Omega = (h / 3 * (X0 + 4 * Xm + X1) + h * h / 3 * comm).transpose(2, 0, 1)
    U = from_real_embedding(ordered_product(expm_embedded(real_embedding(Omega), 1.0)))
    defect = unitarity_defect(U)
    if defect > RECONSTRUCT_UNITARITY_TOL:
        raise RuntimeError(
            f"non-unitary holonomy accumulation {defect:.3e}: frame/grid inconsistent"
        )
    return U


def reconstruct_computational_gate(
    schedule: PulseSchedule, steps: int = RECONSTRUCTION_STEPS
) -> np.ndarray:
    """Holonomy of the loop by `steps` Magnus steps, split among the
    segments by allocate_steps, mapped from the frame basis to the
    computational 0/1 basis.  Segment k+1 takes over the coefficients of
    segment k through the overlaps <nu^{k+1}_l(0)|nu^k_m(end)> of their
    computational frame rows."""
    if steps < 2:
        raise ValueError(f"steps={steps} must be >= 2")
    if any(seg.frame is None for seg in schedule.segments):
        raise ValueError(f"schedule {schedule.scheme_label} carries no frame")
    C = end = start = None
    for k, (seg, n) in enumerate(zip(schedule.segments, allocate_steps(schedule, steps))):
        t = np.linspace(0.0, seg.duration, 2 * n + 1)
        h = seg.duration / (2 * n)
        V = seg.frame(t)
        nu = _computational_rows(V, len(t))
        first, last = V[0, :-1].copy(), V[-1, :-1].copy()
        del V  # the whole frame, before H and the connection
        A, K = _connection(nu, segment_hamiltonian_nodes(schedule, k, t, ErrorModel()), h)
        del nu
        Ck = holonomy_reconstruct(A, K, h)
        if C is None:
            C, start = Ck, first
        else:
            C = Ck @ (first.conj() @ end.T) @ C
        end = last
    comp = list(schedule.system.computational_indices)
    # frame vectors expressed in the qubit basis, (L, 2)
    return end[:, comp].T @ C @ start[:, comp].conj()


def condition_residuals(traj: Trajectory) -> tuple[float, float]:
    """Cyclic projector defect and the worst parallel-transport matrix
    element along the computational trajectories of the unitary run
    `traj`, under the Hamiltonian of the schedule and errors it records,
    taken segment by segment.  The kets and their H products are formed
    from traj.operators per block of CHUNK_ELEMENTS // d**2 states inside
    a segment, so no copy of the whole trajectory is made; the largest
    block value is the residual."""
    if traj.kind != "unitary":
        raise ValueError(f"condition_residuals takes a unitary trajectory, not {traj.kind!r}")
    comp = list(traj.schedule.system.computational_indices)
    U = traj.operators
    first, last = U[0][:, comp], U[-1][:, comp]
    cyclic = float(np.linalg.norm(last @ last.conj().T - first @ first.conj().T))
    block = max(1, CHUNK_ELEMENTS // U.shape[-1] ** 2)
    parallel = 0.0
    for k, t in segment_state_times(traj):
        ops, U = U[:len(t)], U[len(t):]
        for b0 in range(0, len(t), block):
            phi = np.ascontiguousarray(ops[b0:b0 + block, :, comp].transpose(1, 2, 0))  # (d, 2, b)
            # H unnamed, so it is freed before the second product
            H_phi = node_last_product(segment_hamiltonian_nodes(
                traj.schedule, k, t[b0:b0 + block], traj.err).transpose(1, 2, 0), phi)
            elems = node_last_product(phi.conj().transpose(1, 0, 2), H_phi)
            parallel = max(parallel, float(np.abs(elems).max()))
    return cyclic, parallel
