"""Domain model: level systems, gate angles, segments, pulse schedules, error injection.

Conventions used throughout the package:

* Rates are dimensionless multiples of the reference Rabi rate omega_bar;
  time is in units of 1/omega_bar.  Physical units enter only in the CLI.
* A Lambda-type drive couples the superposition
  ``|w(theta_b, phi_b)> = sin(theta_b/2)|0> - cos(theta_b/2) e^{i phi_b}|1>``
  to the excited level:  H_drive = envelope * e^{-i phase} |w><e| + h.c.
* The ``detuning`` of a segment is the coefficient of |e><e| as it
  appears in the Hamiltonian (H += detuning(t)|e><e|).
* Rabi error multiplies drive terms only: H = (1+eps)*drive
  + (detuning + eta)|e><e| (eta already in omega_bar units).
"""
from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .numkit import unitarity_defect

TWO_PI = 2 * np.pi


@dataclass(frozen=True)
class LevelSystem:
    """Few-level system with a designated qubit subspace."""

    kind: str
    dim: int
    computational_indices: tuple[int, int]
    excited_index: int | None

    @classmethod
    def lambda3(cls) -> "LevelSystem":
        # basis order |0>, |1>, |e>
        return cls("Lambda3", 3, (0, 1), 2)

    @classmethod
    def tripod4(cls) -> "LevelSystem":
        # basis order |0>, |1>, |2>, |e>
        return cls("Tripod4", 4, (0, 1), 3)

    @classmethod
    def three_qubit8(cls) -> "LevelSystem":
        # basis |q1 q2 q3>, index q1*4 + q2*2 + q3; logical 0 = |010>, 1 = |001>,
        # ancilla |100>; no excited level in the Lindblad sense.
        return cls("ThreeQubit8", 8, (2, 1), None)

    def __post_init__(self):
        allowed = {"Lambda3": 3, "Tripod4": 4, "ThreeQubit8": 8}
        if self.kind not in allowed:
            raise ValueError(f"unknown level-system kind {self.kind!r}")
        if self.dim != allowed[self.kind]:
            raise ValueError(f"{self.kind} requires dim={allowed[self.kind]}, got {self.dim}")
        if self.kind == "ThreeQubit8" and self.excited_index is not None:
            raise ValueError("ThreeQubit8 has no excited level")

    def basis_state(self, index: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[index] = 1.0
        return v

    def embed_qubit(self, amplitudes: Sequence[complex]) -> np.ndarray:
        """Lift a 2-component qubit vector into the full system dimension."""
        v = np.zeros(self.dim, dtype=complex)
        i0, i1 = self.computational_indices
        v[i0], v[i1] = amplitudes[0], amplitudes[1]
        return v


@dataclass(frozen=True)
class GateAngles:
    """Rotation angle gamma about the axis n = (sin t cos p, sin t sin p, cos t)."""

    gamma: float
    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if not 0 < self.gamma < TWO_PI:
            raise ValueError(f"gamma={self.gamma} outside (0, 2*pi)")
        if not 0 <= self.theta <= np.pi:
            raise ValueError(f"theta={self.theta} outside [0, pi]")
        if not 0 <= self.phi < TWO_PI:
            raise ValueError(f"phi={self.phi} outside [0, 2*pi)")


@dataclass(frozen=True)
class ErrorModel:
    """Systematic Rabi fraction, detuning fraction, and decoherence rates.

    gamma_minus and gamma_z are in units of omega_bar (the CLI converts from
    physical rates).
    """

    epsilon: float = 0.0
    eta: float = 0.0
    gamma_minus: float = 0.0
    gamma_z: float = 0.0

    def __post_init__(self):
        for name in ("epsilon", "eta", "gamma_minus", "gamma_z"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name}={value} must be finite")
        if self.gamma_minus < 0 or self.gamma_z < 0:
            raise ValueError("decoherence rates must be non-negative")

    @property
    def open_system(self) -> bool:
        return self.gamma_minus > 0 or self.gamma_z > 0


def bright_dark_basis(angles: GateAngles) -> tuple[np.ndarray, np.ndarray]:
    """Qubit-space bright/dark pair for the rotation axis (theta, phi).

    |b> = sin(t/2)|0> - cos(t/2) e^{i p}|1>,
    |d> = cos(t/2) e^{-i p}|0> + sin(t/2)|1>.
    """
    t, p = angles.theta, angles.phi
    b = np.array([np.sin(t / 2), -np.cos(t / 2) * np.exp(1j * p)])
    d = np.array([np.cos(t / 2) * np.exp(-1j * p), np.sin(t / 2)])
    return b, d


@dataclass(frozen=True, eq=False)  # compared by identity: value may be an array
class Constant:
    """A function of local time that takes one value at every time: on
    times (n,) it returns the value broadcast along them, (n, *value.shape),
    stride 0 and read-only.  Square pulses are built from it, so they are
    constant by construction rather than by a probe of their values."""

    value: float | np.ndarray

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.value, np.shape(t) + np.shape(self.value))


@dataclass(frozen=True)
class Segment:
    """One smooth piece of a schedule.

    drive maps local times (n,) to the Hermitian (n, d, d) stack the Rabi
    error scales; detuning, if any, to the (n,) coefficient of |e><e| it
    never scales.  A square pulse has a Constant drive and detuning (if
    any), which the RK4 route takes as one node for the whole segment.
    envelope(t) is the coupling magnitude used for pulse-area accounting.
    frame, when present, maps local times (n,) to the (n, L+1, d) analytic
    auxiliary frame used by the holonomy checks.
    """

    duration: float
    drive: Callable[[np.ndarray], np.ndarray]
    _: KW_ONLY
    envelope: Callable[[np.ndarray], np.ndarray]
    frame: Callable[[np.ndarray], np.ndarray] | None = None
    detuning: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not self.duration > 0:  # NaN fails too
            raise ValueError("segment duration must be positive")

    @property
    def square(self) -> bool:
        """Whether the drive and the detuning, if any, are Constant: one H
        at every time of the segment."""
        return isinstance(self.drive, Constant) and (
            self.detuning is None or isinstance(self.detuning, Constant))


def bright_ray(system: LevelSystem, bright_axis: tuple[float, float]) -> np.ndarray:
    """The driven ray |w(theta_b, phi_b)> of the bright axis, embedded."""
    tb, pb = bright_axis
    return system.embed_qubit([np.sin(tb / 2), -np.cos(tb / 2) * np.exp(1j * pb)])


def bright_ray_segment(
    system: LevelSystem,
    duration: float,
    envelope: Callable[[np.ndarray], np.ndarray],
    phase: Callable[[np.ndarray], np.ndarray],
    bright_axis: tuple[float, float],
    frame: Callable[[np.ndarray], np.ndarray] | None = None,
    detuning: Callable[[np.ndarray], np.ndarray] | None = None,
) -> Segment:
    """Lambda-type drive coupling one bright ray to |e>:
    envelope(t) e^{-i phase(t)} |w><e| + h.c., plus detuning(t) |e><e|.

    envelope and phase are functions of local time that accept numpy
    arrays; frame and detuning are passed through to the segment.  With a
    Constant envelope and phase the drive is Constant too: its one node,
    built as every node of the time-dependent drive is.
    """
    coupler = np.outer(bright_ray(system, bright_axis),
                       system.basis_state(system.excited_index).conj())

    def drive(t: np.ndarray) -> np.ndarray:
        amp = envelope(t) * np.exp(-1j * phase(t))
        M = amp[:, None, None] * coupler[None, :, :]
        return M + M.conj().transpose(0, 2, 1)

    if isinstance(envelope, Constant) and isinstance(phase, Constant):
        drive = Constant(drive(np.zeros(1))[0])

    return Segment(duration, drive, envelope=envelope, frame=frame, detuning=detuning)


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered drive segments plus the ideal 2x2 target gate.

    notes carries the scheme-specific values that reports and checks read
    (e.g. the TO alternative pulse-area conventions).
    """

    system: LevelSystem
    segments: tuple
    target: np.ndarray
    scheme_label: str
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        detuned = [k for k, seg in enumerate(self.segments) if seg.detuning is not None]
        if detuned and self.system.excited_index is None:
            raise ValueError(f"segment {detuned[0]} has a detuning, but "
                             f"{self.system.kind} has no excited level")
        if not self.total_duration > 0:
            raise ValueError("total duration must be positive")
        defect = unitarity_defect(np.asarray(self.target))
        if not defect <= 1e-9:  # NaN fails too
            raise ValueError(f"target gate not unitary: defect {defect:.3e}")

    @property
    def total_duration(self) -> float:
        return float(sum(s.duration for s in self.segments))


def detuning_error(schedule: PulseSchedule, err: ErrorModel) -> np.ndarray:
    """The detuning-error term eta|e><e| of H, (d, d); zero without an
    excited level."""
    d, e = schedule.system.dim, schedule.system.excited_index
    out = np.zeros((d, d), dtype=complex)
    if e is not None:
        out[e, e] = err.eta
    return out


def segment_hamiltonian_nodes(
    schedule: PulseSchedule, seg_index: int, t_local: np.ndarray, err: ErrorModel
) -> np.ndarray:
    """H = (1+eps)*drive + detuning|e><e| + eta|e><e| within one
    segment at local times: the Rabi factor multiplies only the drive, never
    the nominal detuning.  Every consumer assembles H here, segment by
    segment, so no step or difference straddles a boundary.
    """
    drive, detuning = segment_drive_detuning(schedule, seg_index, t_local)
    H = (1.0 + err.epsilon) * drive
    if detuning is not None:
        e = schedule.system.excited_index
        H[:, e, e] += detuning
    H += detuning_error(schedule, err)
    return H


def segment_drive_detuning(
    schedule: PulseSchedule, seg_index: int, t_local: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """The drive (n, d, d) and detuning (n,) or None of one segment at local
    times.  The error model weighs them differently, so one pair serves a
    whole grid of error models."""
    seg = schedule.segments[seg_index]
    t_local = np.atleast_1d(np.asarray(t_local, dtype=float))
    detuning = None if seg.detuning is None else seg.detuning(t_local)
    return seg.drive(t_local), detuning
