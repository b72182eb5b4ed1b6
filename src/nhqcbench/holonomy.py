"""Geometric-structure verification: connection and dynamical matrices,
holonomy-condition residuals, and gate reconstruction from auxiliary frames.

Frames come from the scheme builders as analytic functions of time; nothing
here infers a frame from the propagator, which keeps the reconstruction an
independent check on the dynamics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .numkit import TimeGrid, expm_hermitian
from .system import ErrorModel, PulseSchedule, hamiltonian_nodes

ORTHONORMALITY_TOL = 1e-10
BOUNDARY_TOL = 1e-8
FRAME_DRIFT_REJECT = 1e-8
RECONSTRUCT_UNITARITY_TOL = 1e-6


@dataclass(frozen=True)
class AuxiliaryFrame:
    """Sampled auxiliary vectors: times (n+1,), vectors (n+1, L+1, dim).

    Rows 0..L-1 span the computational subspace and must close exactly at
    the loop end; the auxiliary row closes only up to phase (its return
    phase is part of the holonomy data, not of the frame contract).
    """

    times: np.ndarray
    vectors: np.ndarray

    @property
    def n_computational(self) -> int:
        return self.vectors.shape[1] - 1

    def orthonormality_defect(self) -> float:
        V = self.vectors
        G = np.einsum("nkc,nlc->nkl", V.conj(), V)
        eye = np.eye(V.shape[1])
        return float(np.abs(G - eye).max())

    def boundary_defect(self) -> float:
        L = self.n_computational
        return float(np.abs(self.vectors[-1, :L] - self.vectors[0, :L]).max())

    def validate(self) -> None:
        d = self.orthonormality_defect()
        if d > ORTHONORMALITY_TOL:
            raise ValueError(f"frame orthonormality defect {d:.3e} > {ORTHONORMALITY_TOL}")
        b = self.boundary_defect()
        if b > BOUNDARY_TOL:
            raise ValueError(f"frame boundary defect {b:.3e} > {BOUNDARY_TOL}")


def sample_frame(schedule: PulseSchedule, grid: TimeGrid) -> AuxiliaryFrame:
    if schedule.frame is None:
        raise ValueError(f"schedule {schedule.scheme_label} carries no frame")
    vectors = np.stack([schedule.frame(float(t)) for t in grid.times])
    return AuxiliaryFrame(times=grid.times, vectors=vectors)


@dataclass(frozen=True)
class ConnectionPair:
    """Geometric connection A(t) and dynamical matrix K(t) on the
    computational block, Hermitian by symmetrization; presym_defect records
    the worst pre-symmetrization deviation (finite-difference noise)."""

    times: np.ndarray
    A: np.ndarray
    K: np.ndarray
    presym_defect: float


def _time_derivative(V: np.ndarray, h: float) -> np.ndarray:
    """Centered differences inside, one-sided second order at the ends."""
    dV = np.empty_like(V)
    dV[1:-1] = (V[2:] - V[:-2]) / (2 * h)
    dV[0] = (-3 * V[0] + 4 * V[1] - V[2]) / (2 * h)
    dV[-1] = (3 * V[-1] - 4 * V[-2] + V[-3]) / (2 * h)
    return dV


def frame_connection(
    frame: AuxiliaryFrame,
    schedule: PulseSchedule,
    err: ErrorModel = ErrorModel(),
) -> ConnectionPair:
    """A_lm = i <nu_l | d nu_m/dt> by finite differences, K_lm = <nu_l|H|nu_m>."""
    drift = frame.orthonormality_defect()
    if drift > FRAME_DRIFT_REJECT:
        raise ValueError(f"frame orthonormality drift {drift:.3e} > {FRAME_DRIFT_REJECT}")
    V = frame.vectors
    L = frame.n_computational
    h = float(frame.times[1] - frame.times[0])
    dV = _time_derivative(V, h)
    A_raw = 1j * np.einsum("nlc,nmc->nlm", V[:, :L].conj(), dV[:, :L])
    H = hamiltonian_nodes(schedule, frame.times, err)
    K_raw = np.einsum("nlc,ncd,nmd->nlm", V[:, :L].conj(), H, V[:, :L])
    presym = max(
        float(np.abs(A_raw - A_raw.conj().transpose(0, 2, 1)).max()),
        float(np.abs(K_raw - K_raw.conj().transpose(0, 2, 1)).max()),
    )
    A = 0.5 * (A_raw + A_raw.conj().transpose(0, 2, 1))
    K = 0.5 * (K_raw + K_raw.conj().transpose(0, 2, 1))
    return ConnectionPair(times=frame.times, A=A, K=K, presym_defect=presym)


def holonomy_reconstruct(pair: ConnectionPair) -> np.ndarray:
    """Time-ordered product of exp(i [A - K] h) over the grid, midpoint
    averaged; returns the holonomy in the frame basis."""
    M = pair.A - pair.K
    h = float(pair.times[1] - pair.times[0])
    L = M.shape[1]
    U = np.eye(L, dtype=complex)
    for k in range(len(pair.times) - 1):
        mid = 0.5 * (M[k] + M[k + 1])
        U = expm_hermitian(-mid, h) @ U  # exp(+i mid h)
    defect = np.abs(U.conj().T @ U - np.eye(L)).max()
    if defect > RECONSTRUCT_UNITARITY_TOL:
        raise RuntimeError(
            f"non-unitary holonomy accumulation {defect:.3e}: frame/grid inconsistent"
        )
    return U


def reconstruct_computational_gate(
    schedule: PulseSchedule, grid: TimeGrid, err: ErrorModel = ErrorModel()
) -> np.ndarray:
    """Holonomy mapped from the frame basis to the computational 0/1 basis."""
    frame = sample_frame(schedule, grid)
    pair = frame_connection(frame, schedule, err)
    C = holonomy_reconstruct(pair)
    L = frame.n_computational
    V0 = frame.vectors[0, :L]  # (L, dim)
    comp = schedule.system.computational_indices
    B = V0[:, comp]  # frame vectors expressed in the qubit basis, (L, 2)
    return B.T @ C @ B.conj()


def gauge_transformed(frame: AuxiliaryFrame, Vfun) -> AuxiliaryFrame:
    """New frame nu'_k = sum_l nu_l V_lk(t) on the computational rows.

    Vfun(t) must be unitary with V(0) = V(tau) = I (boundary-trivial).
    """
    L = frame.n_computational
    out = frame.vectors.copy()
    for i, t in enumerate(frame.times):
        V = np.asarray(Vfun(float(t)), dtype=complex)
        out[i, :L] = V.T @ frame.vectors[i, :L]
    return AuxiliaryFrame(times=frame.times, vectors=out)


def condition_residuals(
    schedule: PulseSchedule, traj: Trajectory, err: ErrorModel = ErrorModel()
) -> tuple[float, float]:
    """Cyclic projector defect and the worst parallel-transport matrix
    element along the computational trajectories of `traj`, the unitary
    trajectory of `schedule` under `err`."""
    comp = schedule.system.computational_indices
    d = schedule.system.dim
    basis = np.zeros((d, 2), dtype=complex)
    basis[comp[0], 0] = 1.0
    basis[comp[1], 1] = 1.0
    phis = traj.operators @ basis  # (n, d, 2)
    P0 = phis[0] @ phis[0].conj().T
    P1 = phis[-1] @ phis[-1].conj().T
    cyclic = float(np.linalg.norm(P1 - P0))
    H = hamiltonian_nodes(schedule, traj.times, err)
    elems = np.einsum("ndk,nde,nel->nkl", phis.conj(), H, phis)
    parallel = float(np.abs(elems).max())
    return cyclic, parallel
