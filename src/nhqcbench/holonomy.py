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
`expm_embedded` in the real embedding as it is, with no Hermiticity check.  The residuals take H at the RK4 state times
of a trajectory, segment by segment.
"""
from __future__ import annotations

import numpy as np

from .dynamics import Trajectory, allocate_steps, segment_state_times
from .numkit import (
    expm_embedded,
    from_real_embedding,
    ordered_product,
    real_embedding,
    unitarity_defect,
)
from .system import ErrorModel, PulseSchedule, segment_hamiltonian_nodes

FRAME_DRIFT_REJECT = 1e-8
RECONSTRUCT_UNITARITY_TOL = 1e-6
# five-point one-sided differences at the first two samples, times 12 h
_ONE_SIDED = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0], [-3.0, -10.0, 18.0, -6.0, 1.0]])


def _time_derivative(V: np.ndarray, h: float) -> np.ndarray:
    """Five-point differences of samples V (n, ...) spaced by h, n >= 5:
    centred inside, one-sided at the two samples nearest each end."""
    dV = np.empty_like(V)
    dV[2:-2] = V[:-4] - 8 * V[1:-3] + 8 * V[3:-1] - V[4:]
    dV[:2] = np.tensordot(_ONE_SIDED, V[:5], axes=1)
    dV[-2:] = -np.tensordot(_ONE_SIDED[::-1, ::-1], V[-5:], axes=1)
    return dV / (12 * h)


def frame_connection(V: np.ndarray, H: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """A_lm = i <nu_l | d nu_m/dt> by finite differences and K_lm =
    <nu_l|H|nu_m> on the computational rows of the frame V and the
    Hamiltonians H sampled at the same times, spaced by h; both are made
    Hermitian by symmetrization (finite-difference noise)."""
    drift = unitarity_defect(V)
    if not drift <= FRAME_DRIFT_REJECT:  # NaN fails too
        raise ValueError(f"frame orthonormality drift {drift:.3e} > {FRAME_DRIFT_REJECT}")
    nu = V[:, :-1]
    L = nu.shape[1]
    # <nu_l| against d nu_m/dt and H nu_m in one contraction
    kets = np.concatenate([_time_derivative(nu, h), np.einsum("ncd,nmd->nmc", H, nu)], axis=1)
    G = np.einsum("nlc,nmc->nlm", nu.conj(), kets)
    A_raw, K_raw = 1j * G[:, :, :L], G[:, :, L:]
    A = 0.5 * (A_raw + A_raw.conj().transpose(0, 2, 1))
    K = 0.5 * (K_raw + K_raw.conj().transpose(0, 2, 1))
    return A, K


def holonomy_reconstruct(A: np.ndarray, K: np.ndarray, h: float) -> np.ndarray:
    """Holonomy in the frame basis of c' = X c, X = i(A - K), from 2n+1
    samples of A and K spaced by h: the time-ordered product of n
    fourth-order Magnus steps exp(Omega), Omega = 2h/6 (X0 + 4 Xm + X1) +
    (2h)^2/12 [X1, X0] from the samples at the start, middle and end of
    each step (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009))."""
    X = 1j * (A - K)
    X0, Xm, X1 = X[0:-1:2], X[1::2], X[2::2]
    comm = np.einsum("nij,njk->nik", X1, X0)
    comm -= np.einsum("nij,njk->nik", X0, X1)
    Omega = h / 3 * (X0 + 4 * Xm + X1) + h * h / 3 * comm
    U = from_real_embedding(ordered_product(expm_embedded(real_embedding(Omega), 1.0)))
    defect = unitarity_defect(U)
    if defect > RECONSTRUCT_UNITARITY_TOL:
        raise RuntimeError(
            f"non-unitary holonomy accumulation {defect:.3e}: frame/grid inconsistent"
        )
    return U


def reconstruct_computational_gate(schedule: PulseSchedule, steps: int = 2048) -> np.ndarray:
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
        Ck = holonomy_reconstruct(
            *frame_connection(V, segment_hamiltonian_nodes(schedule, k, t, ErrorModel()), h), h)
        if C is None:
            C, start = Ck, V[0, :-1]
        else:
            C = Ck @ (V[0, :-1].conj() @ end.T) @ C
        end = V[-1, :-1]
    comp = list(schedule.system.computational_indices)
    # frame vectors expressed in the qubit basis, (L, 2)
    return end[:, comp].T @ C @ start[:, comp].conj()


def condition_residuals(
    schedule: PulseSchedule, traj: Trajectory, err: ErrorModel = ErrorModel()
) -> tuple[float, float]:
    """Cyclic projector defect and the worst parallel-transport matrix
    element along the computational trajectories of `traj`, the unitary
    trajectory of `schedule` under `err`."""
    comp = list(schedule.system.computational_indices)
    phis = traj.operators[:, :, comp]  # (n, d, 2)
    P0 = phis[0] @ phis[0].conj().T
    P1 = phis[-1] @ phis[-1].conj().T
    cyclic = float(np.linalg.norm(P1 - P0))
    H = np.concatenate([segment_hamiltonian_nodes(schedule, k, t, err)
                        for k, t in segment_state_times(schedule, traj.steps)])
    elems = np.einsum("nil,nim->nlm", phis.conj(), np.einsum("nij,njm->nim", H, phis))
    parallel = float(np.abs(elems).max())
    return cyclic, parallel
