"""Geometric-structure verification: connection and dynamical matrices,
holonomy-condition residuals, and gate reconstruction from auxiliary frames.

Frames come from the scheme builders as analytic functions of time on each
segment; nothing here infers a frame from the propagator, which keeps the
reconstruction an independent check on the dynamics.

The reconstruction passes plain arrays: `times` (n+1,) is a uniform grid
and V (n+1, L+1, dim) the frame sampled on it, rows 0..L-1 spanning the
computational subspace and row L the auxiliary vector.  `frame_connection`
turns them into the connection A and the dynamical matrix K, both
(n+1, L, L), and `holonomy_reconstruct` takes A, K and the grid spacing h.
"""
from __future__ import annotations

import numpy as np

from .dynamics import Trajectory
from .numkit import (
    expm_hermitian,
    from_real_embedding,
    ordered_product,
    unitarity_defect,
)
from .system import ErrorModel, PulseSchedule, hamiltonian_nodes

FRAME_DRIFT_REJECT = 1e-8
RECONSTRUCT_UNITARITY_TOL = 1e-6


def _time_derivative(V: np.ndarray, h: float) -> np.ndarray:
    """Centered differences inside, one-sided second order at the ends."""
    dV = np.empty_like(V)
    dV[1:-1] = (V[2:] - V[:-2]) / (2 * h)
    dV[0] = (-3 * V[0] + 4 * V[1] - V[2]) / (2 * h)
    dV[-1] = (3 * V[-1] - 4 * V[-2] + V[-3]) / (2 * h)
    return dV


def frame_connection(
    schedule: PulseSchedule,
    times: np.ndarray,
    V: np.ndarray,
    err: ErrorModel = ErrorModel(),
) -> tuple[np.ndarray, np.ndarray]:
    """A_lm = i <nu_l | d nu_m/dt> by finite differences, K_lm = <nu_l|H|nu_m>,
    on the computational rows of the frame V sampled at uniform `times`;
    both are made Hermitian by symmetrization (finite-difference noise)."""
    # the Gram stack stays a temporary: a local name would keep it alive
    drift = float(np.abs(np.einsum("nkc,nlc->nkl", V.conj(), V) - np.eye(V.shape[1])).max())
    if not drift <= FRAME_DRIFT_REJECT:  # NaN fails too
        raise ValueError(f"frame orthonormality drift {drift:.3e} > {FRAME_DRIFT_REJECT}")
    L = V.shape[1] - 1
    h = float(times[1] - times[0])
    dV = _time_derivative(V, h)
    A_raw = 1j * np.einsum("nlc,nmc->nlm", V[:, :L].conj(), dV[:, :L])
    H = hamiltonian_nodes(schedule, times, err)
    K_raw = np.einsum("nlc,ncd,nmd->nlm", V[:, :L].conj(), H, V[:, :L])
    A = 0.5 * (A_raw + A_raw.conj().transpose(0, 2, 1))
    K = 0.5 * (K_raw + K_raw.conj().transpose(0, 2, 1))
    return A, K


def holonomy_reconstruct(A: np.ndarray, K: np.ndarray, h: float) -> np.ndarray:
    """Time-ordered product of exp(i [A - K] h) over the grid, midpoint
    averaged; returns the holonomy in the frame basis."""
    M = A - K
    mids = 0.5 * (M[:-1] + M[1:])
    U = from_real_embedding(ordered_product(expm_hermitian(-mids, h)))  # exp(+i mid h)
    defect = unitarity_defect(U)
    if defect > RECONSTRUCT_UNITARITY_TOL:
        raise RuntimeError(
            f"non-unitary holonomy accumulation {defect:.3e}: frame/grid inconsistent"
        )
    return U


def reconstruct_computational_gate(
    schedule: PulseSchedule, steps: int = 4096, err: ErrorModel = ErrorModel()
) -> np.ndarray:
    """Holonomy on `steps` uniform intervals of the loop, mapped from the
    frame basis to the computational 0/1 basis."""
    if steps < 2:
        raise ValueError(f"steps={steps} must be >= 2")
    times = np.linspace(0.0, schedule.total_duration, steps + 1)
    V = schedule.frame(times)
    A, K = frame_connection(schedule, times, V, err)
    C = holonomy_reconstruct(A, K, float(times[1] - times[0]))
    comp = schedule.system.computational_indices
    B = V[0, :-1][:, comp]  # frame vectors expressed in the qubit basis, (L, 2)
    return B.T @ C @ B.conj()


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
    H = hamiltonian_nodes(schedule, traj.times, err)
    elems = phis.conj().swapaxes(-1, -2) @ (H @ phis)
    parallel = float(np.abs(elems).max())
    return cyclic, parallel
