"""Domain model: level systems, pulse schedules, scheme specs, error injection.

Conventions used throughout the package:

* Rates are dimensionless multiples of the reference Rabi rate omega_bar;
  time is in units of 1/omega_bar.  Physical units enter only in the CLI.
* A Lambda-type drive couples the superposition
  ``|w(theta_b, phi_b)> = sin(theta_b/2)|0> - cos(theta_b/2) e^{i phi_b}|1>``
  to the excited level:  H_drive = envelope * e^{-i phase} |w><e| + h.c.
* The segment ``detuning`` field is the coefficient of |e><e| as it appears
  in the Hamiltonian (H += detuning(t)|e><e|).
* Rabi error multiplies drive terms only: H = (1+eps)*drive + detuning
  + eta*|e><e| (eta already in omega_bar units).
"""
from __future__ import annotations

from dataclasses import dataclass, field
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

    def axis(self) -> np.ndarray:
        return np.array([
            np.sin(self.theta) * np.cos(self.phi),
            np.sin(self.theta) * np.sin(self.phi),
            np.cos(self.theta),
        ])


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

    @classmethod
    def ideal(cls) -> "ErrorModel":
        return cls()


@dataclass(frozen=True)
class SchemeSpec:
    """Tagged description of one gate-construction scheme and its knobs.

    Fields irrelevant to the chosen scheme are ignored.
    """

    scheme: str
    angles: GateAngles = field(default_factory=lambda: GateAngles(np.pi / 2))
    omega_bar: float = 1.0
    loops: int = 2  # C, CDD
    varsigma: float = 1.0  # PS
    beta0: float = 0.0  # S, CDD
    gamma_ss: float = -np.pi / 6  # SS detuning angle
    phi1: float = np.pi / 2  # STA azimuth span
    dfs_phi: float = 0.0  # DFS3 axis
    chi_profile: str = "half_pi"  # PS: "half_pi" (default) or "full_sine"

    KNOWN = ("SL", "SS", "PS", "C", "DC", "TO", "S", "CDD", "STA", "DFS3")

    def __post_init__(self):
        if self.scheme not in self.KNOWN:
            raise ValueError(f"unknown scheme {self.scheme!r}; known: {', '.join(self.KNOWN)}")
        if self.loops < 1:
            raise ValueError("loops must be >= 1")
        if self.varsigma < 0:
            raise ValueError("varsigma must be >= 0")
        if self.omega_bar <= 0:
            raise ValueError("omega_bar must be positive")


def bright_dark_basis(angles: GateAngles) -> tuple[np.ndarray, np.ndarray]:
    """Qubit-space bright/dark pair for the rotation axis (theta, phi).

    |b> = sin(t/2)|0> - cos(t/2) e^{i p}|1>,
    |d> = cos(t/2) e^{-i p}|0> + sin(t/2)|1>.
    """
    t, p = angles.theta, angles.phi
    b = np.array([np.sin(t / 2), -np.cos(t / 2) * np.exp(1j * p)])
    d = np.array([np.cos(t / 2) * np.exp(-1j * p), np.sin(t / 2)])
    return b, d


def _bright_vector(system: LevelSystem, bright_axis: tuple[float, float]) -> np.ndarray:
    tb, pb = bright_axis
    return system.embed_qubit([np.sin(tb / 2), -np.cos(tb / 2) * np.exp(1j * pb)])


@dataclass(frozen=True)
class DriveSegment:
    """Piecewise drive on a Lambda-type system: one bright ray coupled to |e>.

    envelope, phase and detuning are functions of local time that accept
    scalars or numpy arrays.
    """

    duration: float
    envelope: Callable[[np.ndarray], np.ndarray]
    phase: Callable[[np.ndarray], np.ndarray]
    detuning: Callable[[np.ndarray], np.ndarray]
    bright_axis: tuple[float, float]

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("segment duration must be positive")

    def drive_matrices(self, system: LevelSystem, t_local: np.ndarray) -> np.ndarray:
        """Stack of drive Hamiltonians (n, d, d) at the given local times."""
        t_local = np.atleast_1d(np.asarray(t_local, dtype=float))
        w = _bright_vector(system, self.bright_axis)
        e = system.basis_state(system.excited_index)
        coupler = np.outer(w, e.conj())
        amp = self.envelope(t_local) * np.exp(-1j * self.phase(t_local))
        M = amp[:, None, None] * coupler[None, :, :]
        return M + M.conj().transpose(0, 2, 1)

    def diagonal_matrices(self, system: LevelSystem, t_local: np.ndarray) -> np.ndarray:
        t_local = np.atleast_1d(np.asarray(t_local, dtype=float))
        d = system.dim
        out = np.zeros((t_local.size, d, d), dtype=complex)
        out[:, system.excited_index, system.excited_index] = self.detuning(t_local)
        return out


@dataclass(frozen=True)
class GeneratorSegment:
    """Matrix-valued segment for systems the single-ray drive cannot express
    (tripod counter-diabatic terms, three-qubit exchange couplings).

    drive(t) and diagonal(t) return Hermitian (d, d) arrays for scalar t;
    envelope(t) is the coupling magnitude used for pulse-area accounting.
    """

    duration: float
    drive: Callable[[float], np.ndarray]
    diagonal: Callable[[float], np.ndarray]
    envelope: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("segment duration must be positive")

    def drive_matrices(self, system: LevelSystem, t_local: np.ndarray) -> np.ndarray:
        t_local = np.atleast_1d(np.asarray(t_local, dtype=float))
        return np.stack([np.asarray(self.drive(float(t)), dtype=complex) for t in t_local])

    def diagonal_matrices(self, system: LevelSystem, t_local: np.ndarray) -> np.ndarray:
        t_local = np.atleast_1d(np.asarray(t_local, dtype=float))
        return np.stack([np.asarray(self.diagonal(float(t)), dtype=complex) for t in t_local])


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered drive segments plus the ideal 2x2 target gate.

    frame, when present, maps a time to the (L+1, dim) analytic auxiliary
    frame used by the holonomy checks; geometric_phase is the nominal
    geometric phase of the loop; notes carries scheme-specific metadata
    (e.g. alternative pulse-area conventions).
    """

    system: LevelSystem
    segments: tuple
    target: np.ndarray
    scheme_label: str
    omega_bar: float = 1.0
    frame: Callable[[float], np.ndarray] | None = None
    geometric_phase: float | None = None
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        if self.total_duration <= 0:
            raise ValueError("total duration must be positive")
        defect = unitarity_defect(np.asarray(self.target))
        if defect > 1e-9:
            raise ValueError(f"target gate not unitary: defect {defect:.3e}")

    @property
    def total_duration(self) -> float:
        return float(sum(s.duration for s in self.segments))

    def segment_boundaries(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum([s.duration for s in self.segments])])

    def locate(self, t: float) -> tuple[int, float]:
        """Segment index and local time for global time t in [0, total]."""
        total = self.total_duration
        if t < -1e-12 or t > total + 1e-12:
            raise ValueError(f"t={t} outside schedule [0, {total}]")
        t = min(max(t, 0.0), total)
        bounds = self.segment_boundaries()
        idx = int(np.searchsorted(bounds[1:-1], t, side="right"))
        return idx, t - bounds[idx]


def hamiltonian_nodes(
    schedule: PulseSchedule, times: np.ndarray, err: ErrorModel
) -> np.ndarray:
    """H(t) at each time, with error injection: (1+eps)*drive + diag + eta|e><e|.

    The Rabi factor multiplies only off-diagonal drive terms, never the
    nominal detuning.
    """
    times = np.asarray(times, dtype=float)
    sys_ = schedule.system
    d = sys_.dim
    out = np.empty((times.size, d, d), dtype=complex)
    bounds = schedule.segment_boundaries()
    total = schedule.total_duration
    if times.size and (times.min() < -1e-12 or times.max() > total + 1e-12):
        raise ValueError("requested times outside the schedule")
    tcl = np.clip(times, 0.0, total)
    seg_idx = np.clip(np.searchsorted(bounds[1:-1], tcl, side="right"), 0, len(schedule.segments) - 1)
    eta_term = np.zeros((d, d), dtype=complex)
    if sys_.excited_index is not None and err.eta != 0.0:
        eta_term[sys_.excited_index, sys_.excited_index] = err.eta * schedule.omega_bar
    for k, seg in enumerate(schedule.segments):
        sel = seg_idx == k
        if not np.any(sel):
            continue
        t_local = tcl[sel] - bounds[k]
        # clamp boundary round-off into the segment
        t_local = np.clip(t_local, 0.0, seg.duration)
        H = (1.0 + err.epsilon) * seg.drive_matrices(sys_, t_local)
        H += seg.diagonal_matrices(sys_, t_local)
        H += eta_term[None, :, :]
        out[sel] = H
    return out


def hamiltonian_at(schedule: PulseSchedule, t: float, err: ErrorModel) -> np.ndarray:
    """Assembled Hamiltonian at global time t (Hermitian by construction)."""
    return hamiltonian_nodes(schedule, np.array([t]), err)[0]


def segment_hamiltonian_nodes(
    schedule: PulseSchedule, seg_index: int, t_local: np.ndarray, err: ErrorModel
) -> np.ndarray:
    """H within one segment at local times, error-injected.

    Distinct from hamiltonian_nodes only at shared boundary instants, where
    global assignment would pick the following segment; the integrators use
    this to keep every step inside one smooth segment.
    """
    sys_ = schedule.system
    seg = schedule.segments[seg_index]
    t_local = np.asarray(t_local, dtype=float)
    H = (1.0 + err.epsilon) * seg.drive_matrices(sys_, t_local)
    H += seg.diagonal_matrices(sys_, t_local)
    if sys_.excited_index is not None and err.eta != 0.0:
        H[:, sys_.excited_index, sys_.excited_index] += err.eta * schedule.omega_bar
    return H
