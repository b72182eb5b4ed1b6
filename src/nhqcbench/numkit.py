"""Dense complex linear algebra and the one RK4 engine for small systems.

Matrices are plain ``numpy`` arrays, ``(d, d)`` with ``d`` between 2 and 8
for Hamiltonians and ``(d*d, d*d)`` for Lindblad superoperators.  Hermitian
and unitary properties are measured by the defect helpers rather than
carried by a wrapper type; callers validate at the boundaries where they
matter.  ``rk4_linear`` integrates every linear ODE y' = A(t) y in the
package (A = -iH for propagators, A = the superoperator for density
matrices) as a chain of precomputed RK4 step matrices.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

HERMITIAN_TOL = 1e-12
# complex entries per batched array in rk4_linear (512 KiB)
CHUNK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid, in units of 1/omega_bar."""

    t_start: float
    t_end: float
    steps: int

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ValueError(f"t_end={self.t_end} must exceed t_start={self.t_start}")
        if self.steps < 2:
            raise ValueError(f"steps={self.steps} must be >= 2")

    @property
    def h(self) -> float:
        return (self.t_end - self.t_start) / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.steps + 1)


def hermiticity_defect(M: np.ndarray) -> float:
    """max |M - M^dagger| over entries."""
    return float(np.abs(M - M.conj().T).max())


def unitarity_defect(M: np.ndarray) -> float:
    """max |M^dagger M - I| over entries."""
    d = M.shape[-1]
    return float(np.abs(M.conj().T @ M - np.eye(d)).max())


def expm_hermitian(H: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i*H*dt) for Hermitian H, via eigendecomposition.

    Rejects non-Hermitian input (beyond HERMITIAN_TOL scaled by the matrix
    magnitude) with the measured defect in the message.
    """
    scale = max(1.0, float(np.abs(H).max()))
    defect = hermiticity_defect(H)
    if defect > HERMITIAN_TOL * scale:
        raise ValueError(
            f"expm_hermitian: input not Hermitian, defect {defect:.3e} "
            f"(tolerance {HERMITIAN_TOL * scale:.3e})"
        )
    w, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * w * dt)) @ V.conj().T


def expm_hermitian_batch(H: np.ndarray, dt: float) -> np.ndarray:
    """Batched exp(-i*H_k*dt) for a stack of Hermitian matrices (n, d, d)."""
    w, V = np.linalg.eigh(H)
    phases = np.exp(-1j * w * dt)
    return np.einsum("nij,nj,nkj->nik", V, phases, V.conj())


def _step_matrices(A: np.ndarray, h: float) -> np.ndarray:
    """RK4 step matrices P_k = I + h/6 (K1 + 2 K2 + 2 K3 + K4) from generator
    nodes A (2c+1, m, m) on the half-step lattice of c steps, where
    K1 = A0, K2 = A1 (I + h/2 K1), K3 = A1 (I + h/2 K2), K4 = A2 (I + h K3)."""
    A0, A1, A2 = A[0:-1:2], A[1::2], A[2::2]
    K2 = A1 + (h / 2) * (A1 @ A0)
    K3 = A1 + (h / 2) * (A1 @ K2)
    K4 = A2 + h * (A2 @ K3)
    return np.eye(A.shape[-1]) + (h / 6) * (A0 + 2 * K2 + 2 * K3 + K4)


def rk4_linear(
    y0: np.ndarray,
    segments: Sequence[tuple[float, np.ndarray]],
    lift: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Fixed-step RK4 for the linear ODE y' = A(t) y; returns every state.

    y0 is (m,) or (m, r).  Each segment is (h, nodes): the nodes sit on the
    half-step lattice of n steps (2n+1 of them) and lift maps a run of nodes
    to generator matrices A (.., m, m).  The step matrices are built in
    batched chunks of at most CHUNK_ELEMENTS // m**2 steps, so transient
    memory depends on neither the step count nor m; the states then follow
    by one chain of matmuls into the returned (1 + total steps, *y0.shape)
    array.  Aborts on the first non-finite state, naming segment and step.
    """
    y0 = np.asarray(y0, dtype=complex)
    m = y0.shape[0]
    total = sum((len(nodes) - 1) // 2 for _, nodes in segments)
    out = np.empty((total + 1,) + y0.shape, dtype=complex)
    out[0] = y0
    chunk = max(1, CHUNK_ELEMENTS // (m * m))
    i = 0  # index of the current state in out
    for si, (h, nodes) in enumerate(segments):
        n = (len(nodes) - 1) // 2
        for c0 in range(0, n, chunk):
            c = min(chunk, n - c0)
            P = _step_matrices(lift(nodes[2 * c0:2 * (c0 + c) + 1]), h)
            for k in range(c):
                np.matmul(P[k], out[i + k], out=out[i + k + 1])
            finite = np.isfinite(out[i + 1:i + 1 + c]).reshape(c, -1).all(axis=1)
            if not finite.all():
                step = c0 + int(np.argmin(finite))
                raise RuntimeError(f"rk4_linear: non-finite state in segment {si} step {step}")
            i += c
    return out
