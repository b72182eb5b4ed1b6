"""Propagation engines with trajectory capture.

Two independent numerical routes are maintained everywhere:

* the production path: ``numkit.rk4_linear``, one fixed-step RK4 engine for
  y' = A(t) y, with A = -iH(t) for propagators and A = the row-major
  Lindblad superoperator for density matrices; H is sampled on the
  half-step lattice of each segment and the states follow as a chain of
  precomputed step matrices;
* the oracle path: time-ordered products of exact slice exponentials
  (a Taylor polynomial whose truncation error is below the unit roundoff
  for unitary slices, a fourth-order commutator-free Magnus product of
  superoperator exponentials for open slices).

Golden values are produced by the oracle path; tests hold the two routes
together.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .numkit import expm_hermitian, ordered_product, rk4_linear
from .system import (
    ErrorModel,
    LevelSystem,
    PulseSchedule,
    segment_hamiltonian_nodes,
)

UNITARY_SAMPLES = 2000
LINDBLAD_SAMPLES = 4000
ORACLE_SLICES = 100_000
ORACLE_LINDBLAD_SLICES = 4000

TRACE_TOL = 1e-8
POSITIVITY_TOL = -1e-9
UNITARITY_DRIFT_TOL = 1e-8


def default_samples(kind: str) -> int:
    """Default integrator step counts; NHQC_SAMPLES overrides both."""
    env = os.environ.get("NHQC_SAMPLES")
    if env:
        return int(env)
    return UNITARY_SAMPLES if kind == "unitary" else LINDBLAD_SAMPLES


def six_axial_states(system: LevelSystem) -> np.ndarray:
    """|0>, |1>, |+x>, |-x>, |+y>, |-y> embedded in the system dimension."""
    r = 1 / np.sqrt(2)
    qubit = [
        (1, 0),
        (0, 1),
        (r, r),
        (r, -r),
        (r, 1j * r),
        (r, -1j * r),
    ]
    return np.stack([system.embed_qubit(q) for q in qubit])


def six_axial_densities(system: LevelSystem) -> np.ndarray:
    """The six axial states as a (6, d, d) stack of density matrices."""
    states = six_axial_states(system)
    return np.einsum("ki,kj->kij", states, states.conj())


def monitor_index(system: LevelSystem) -> int:
    """Level whose population is tracked: the excited level, or the ancilla
    |100> for the three-qubit system."""
    if system.excited_index is not None:
        return system.excited_index
    return 4


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: propagators U(t) for unitary runs, density
    matrices rho(t) (possibly a batch) for open runs.

    excited_population[i] is the monitored-level population at times[i]:
    for unitary runs the maximum over the six axial initial states, for
    open runs the maximum over the propagated batch.
    """

    times: np.ndarray
    operators: np.ndarray
    excited_population: np.ndarray
    kind: str

    @property
    def final(self) -> np.ndarray:
        return self.operators[-1]


def jump_operators(system: LevelSystem) -> tuple[np.ndarray, np.ndarray]:
    """Combined lowering operator and the three-level dephasing operator,
    exactly as printed (one sigma_minus, not per-transition channels)."""
    if system.excited_index is None:
        raise ValueError("no excited level: decoherence channels undefined "
                         "for the three-qubit system")
    d, e = system.dim, system.excited_index
    sm = np.zeros((d, d), dtype=complex)
    sz = np.zeros((d, d), dtype=complex)
    sz[e, e] = 1.0
    for k in range(d):
        if k == e:
            continue
        sm[k, e] = 1.0
        sz[k, k] = -1.0
    return sm, sz


def allocate_steps(schedule: PulseSchedule, total_steps: int, floor: int = 8) -> list[int]:
    """Whole RK4 steps per segment, proportional to duration, each at least
    `floor`; steps never straddle a segment boundary (drive phases may jump
    there, which would spoil the integrator's order)."""
    T = schedule.total_duration
    alloc = [max(floor, int(round(total_steps * seg.duration / T)))
             for seg in schedule.segments]
    return alloc


def _rk4_segments(schedule: PulseSchedule, err: ErrorModel, samples: int | None, kind: str):
    """RK4 inputs per segment, [(h, H nodes on the half-step lattice)], and
    the global time of every state the chain produces; samples=None takes
    the default step count of `kind`."""
    steps = default_samples(kind) if samples is None else samples
    if steps < 1:
        raise ValueError(f"step count {steps} must be >= 1")
    segments = []
    times = [np.zeros(1)]
    t_offset = 0.0
    for si, (seg, n) in enumerate(zip(schedule.segments, allocate_steps(schedule, steps))):
        lattice = np.linspace(0.0, seg.duration, 2 * n + 1)
        segments.append((seg.duration / n, segment_hamiltonian_nodes(schedule, si, lattice, err)))
        times.append(t_offset + lattice[2::2])
        t_offset += seg.duration
    return segments, np.concatenate(times)


def propagate_unitary(
    schedule: PulseSchedule, err: ErrorModel = ErrorModel(), samples: int | None = None
) -> Trajectory:
    """RK4 propagator trajectory, integrated segment by segment."""
    if err.open_system:
        raise ValueError("propagate_unitary requires gamma_minus = gamma_z = 0")
    segments, times = _rk4_segments(schedule, err, samples, "unitary")
    d = schedule.system.dim
    ops = rk4_linear(np.eye(d), segments, lambda H: -1j * H)
    drift = np.abs(ops @ ops.conj().transpose(0, 2, 1) - np.eye(d)).max()
    if drift > UNITARITY_DRIFT_TOL:
        raise RuntimeError(f"unitarity drift {drift:.3e} exceeds {UNITARITY_DRIFT_TOL}")
    states = six_axial_states(schedule.system)
    mon = monitor_index(schedule.system)
    amps = ops[:, mon, :] @ states.T  # (n, 6)
    pe = np.abs(amps).max(axis=1) ** 2
    return Trajectory(times=times, operators=ops, excited_population=pe, kind="unitary")


def _validate_density(rho: np.ndarray, where: str) -> None:
    tr = np.trace(rho, axis1=-2, axis2=-1)
    if np.abs(tr - 1.0).max() > TRACE_TOL:
        raise RuntimeError(f"trace deviates by {np.abs(tr - 1).max():.3e} {where}")
    herm = np.abs(rho - rho.conj().swapaxes(-1, -2)).max()
    if herm > 1e-8:
        raise RuntimeError(f"Hermiticity defect {herm:.3e} {where}")
    wmin = np.linalg.eigvalsh(rho).min()
    if wmin < POSITIVITY_TOL:
        raise RuntimeError(f"negative eigenvalue {wmin:.3e} {where}")


def propagate_lindblad(
    schedule: PulseSchedule,
    err: ErrorModel,
    rho0: np.ndarray,
    samples: int | None = None,
) -> Trajectory:
    """RK4 density-matrix trajectory; rho0 may be (d, d) or a batch (m, d, d).

    Trace, Hermiticity and positivity are enforced at every stored sample;
    violations abort rather than clip.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    batch = rho0.ndim == 3
    rho = rho0 if batch else rho0[None, :, :]
    d = schedule.system.dim
    if rho.shape[-2:] != (d, d):
        raise ValueError(f"rho0 shape {rho0.shape} does not match dim {d}")
    _validate_density(rho, "in rho0")

    segments, times = _rk4_segments(schedule, err, samples, "lindblad")
    # columns are the row-major vectorized density matrices of the batch
    cols = rk4_linear(rho.reshape(len(rho), d * d).T, segments,
                      lambda H: lindblad_superoperator(schedule.system, err, H))
    ops = cols.transpose(0, 2, 1).reshape(len(times), len(rho), d, d)
    _validate_density(ops, "during evolution")
    mon = monitor_index(schedule.system)
    pe = ops[..., mon, mon].real.max(axis=1)
    if not batch:
        ops = ops[:, 0]
    return Trajectory(times=times, operators=ops, excited_population=pe, kind="lindblad")


# ---------------------------------------------------------------------------
# oracle routes
# ---------------------------------------------------------------------------


def oracle_propagate_unitary(
    schedule: PulseSchedule, err: ErrorModel = ErrorModel(), slices: int = ORACLE_SLICES
) -> np.ndarray:
    """U(T) as a time-ordered product of midpoint slice exponentials, sliced
    per segment (exact for piecewise-constant drives up to roundoff)."""
    alloc = allocate_steps(schedule, slices, floor=16)
    d = schedule.system.dim
    U = np.eye(d, dtype=complex)
    for si, seg in enumerate(schedule.segments):
        n = alloc[si]
        h = seg.duration / n
        mids = (np.arange(n) + 0.5) * h
        Hs = segment_hamiltonian_nodes(schedule, si, mids, err)
        U = ordered_product(expm_hermitian(Hs, h)) @ U
    return U


def lindblad_superoperator(system: LevelSystem, err: ErrorModel, H: np.ndarray) -> np.ndarray:
    """Matrix of rho -> -i[H,rho] + dissipator on row-major-vectorized rho
    (Havel, J. Math. Phys. 44, 534 (2003)); H may be one (d, d) matrix or
    a stack (n, d, d), giving (d*d, d*d) or (n, d*d, d*d)."""
    d = system.dim
    eye = np.eye(d)
    H = np.asarray(H)
    # kron(H, I) and kron(I, H^T), broadcast over any leading stack axes
    left = H[..., :, None, :, None] * eye[:, None, :]
    right = eye[:, None, :, None] * H.swapaxes(-1, -2)[..., None, :, None, :]
    L = (-1j * (left - right)).reshape(H.shape[:-2] + (d * d, d * d))
    if err.open_system:
        sm, sz = jump_operators(system)
        for G, A in ((err.gamma_minus, sm), (err.gamma_z, sz)):
            if G > 0:
                AdA = A.conj().T @ A
                L += G * (np.kron(A, A.conj()) - 0.5 * (np.kron(AdA, eye) + np.kron(eye, AdA.T)))
    return L


_CF4_A = 0.25 + np.sqrt(3) / 6
_CF4_B = 0.25 - np.sqrt(3) / 6
_CF4_C1 = 0.5 - np.sqrt(3) / 6
_CF4_C2 = 0.5 + np.sqrt(3) / 6


def oracle_propagate_lindblad(
    schedule: PulseSchedule,
    err: ErrorModel,
    rho0: np.ndarray,
    slices: int = ORACLE_LINDBLAD_SLICES,
) -> np.ndarray:
    """rho(T) via a 4th-order commutator-free Magnus product of exact
    superoperator exponentials (independent of the RK4 route)."""
    rho0 = np.asarray(rho0, dtype=complex)
    batch = rho0.ndim == 3
    d = schedule.system.dim
    alloc = allocate_steps(schedule, slices, floor=16)
    P = np.eye(d * d, dtype=complex)
    for si, seg in enumerate(schedule.segments):
        n = alloc[si]
        h = seg.duration / n
        t0 = np.arange(n) * h
        L1 = lindblad_superoperator(
            schedule.system, err, segment_hamiltonian_nodes(schedule, si, t0 + _CF4_C1 * h, err))
        L2 = lindblad_superoperator(
            schedule.system, err, segment_hamiltonian_nodes(schedule, si, t0 + _CF4_C2 * h, err))
        for k in range(n):
            E1 = scipy.linalg.expm(h * (_CF4_A * L1[k] + _CF4_B * L2[k]))
            E2 = scipy.linalg.expm(h * (_CF4_B * L1[k] + _CF4_A * L2[k]))
            P = E2 @ E1 @ P
    if batch:
        return np.stack([(P @ r.reshape(-1)).reshape(d, d) for r in rho0])
    return (P @ rho0.reshape(-1)).reshape(d, d)
