"""Domain model: level systems, gate angles, segments, pulse schedules, error injection.

Conventions used throughout the package:

* Rates are dimensionless multiples of the reference Rabi rate omega_bar;
  time is in units of 1/omega_bar.  Physical units enter only in the CLI.
* A Lambda-type drive couples the superposition
  ``|w(theta_b, phi_b)> = sin(theta_b/2)|0> - cos(theta_b/2) e^{i phi_b}|1>``
  to the excited level:  H_drive = envelope * e^{-i phase} |w><e| + h.c.
* H is data: a segment holds K fixed Hermitian operators H_k and real
  coefficients c_k(t), elementwise in t, H(t) = sum_k c_k(t) H_k.
  ``assemble`` is the one place that sums them, for the H nodes here
  (through Segment.nodes) and for the RK4 generators.
* Rabi error multiplies every term but the one a segment marks unscaled,
  its detuning |e><e|:  H = (1+eps) sum_{k != u} c_k H_k + c_u H_u
  + eta|e><e| (eta already in omega_bar units).
"""
from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .numkit import HERMITIAN_TOL, combine, hermiticity_defect, unitarity_defect

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

    # the ancilla |100> of three_qubit8, whose population its runs monitor
    THREE_QUBIT_ANCILLA = 4

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

    gamma_minus and gamma_z are in units of omega_bar, and the CLI takes
    them so: --units physical scales times only.
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
    """One smooth piece of a schedule: H(t) = sum_k c_k(t) H_k.

    ops holds the K Hermitian operators H_k, (K, d, d), fixed for the
    segment and checked once here; coefficients maps local times (n,) to
    the real (n, K) weights c_k.  The Rabi error scales every column but
    `unscaled`, the index of the detuning |e><e| if the segment has one.
    The coefficients must be elementwise in t: row i of coefficients(t)
    depends on t[i] alone, bit for bit, so the routes may evaluate them on
    any block of times that holds the ones they need and slice it.  A
    square pulse has Constant coefficients, which every route, and the H
    nodes, take as one node for the whole segment.  envelope(t) is the
    coupling magnitude used for pulse-area accounting.  frame, when
    present, maps local times (n,) to the (n, L+1, d) analytic auxiliary
    frame used by the holonomy checks.
    """

    duration: float
    ops: np.ndarray
    coefficients: Callable[[np.ndarray], np.ndarray]
    _: KW_ONLY
    envelope: Callable[[np.ndarray], np.ndarray]
    frame: Callable[[np.ndarray], np.ndarray] | None = None
    unscaled: int | None = None

    def __post_init__(self):
        if not self.duration > 0:  # NaN fails too
            raise ValueError("segment duration must be positive")
        ops = np.array(self.ops, dtype=complex)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ValueError(f"segment ops must be a (K, d, d) stack, got shape {ops.shape}")
        for k, defect in enumerate(hermiticity_defect(ops)):
            if not defect <= HERMITIAN_TOL:  # NaN fails too
                raise ValueError(f"segment op {k} not Hermitian: defect {defect:.3e}")
        if self.unscaled is not None and not 0 <= self.unscaled < len(ops):
            raise ValueError(f"unscaled column {self.unscaled} outside the {len(ops)} ops")
        ops.flags.writeable = False
        object.__setattr__(self, "ops", ops)

    @property
    def square(self) -> bool:
        """Whether the coefficients are Constant: one H at every time of
        the segment."""
        return isinstance(self.coefficients, Constant)

    def weights(self, err: ErrorModel) -> np.ndarray:
        """The factor of each column under err, (K,): 1 + epsilon, and 1
        on the unscaled column (none when unscaled is None)."""
        return np.where(np.arange(len(self.ops)) == self.unscaled, 1.0, 1.0 + err.epsilon)

    def nodes(self, t: np.ndarray, terms: np.ndarray, weights: np.ndarray,
              const: np.ndarray) -> np.ndarray:
        """assemble(coefficients(t), ...) at local times t (n,), (n, G, ...):
        the segment's generators or H nodes at t.  A square segment takes
        the node of its first time alone, broadcast along t (stride 0,
        read-only), with the bits of every node of the materialized
        stack."""
        A = assemble(self.coefficients(t[:1] if self.square else t), terms, weights, const)
        return np.broadcast_to(A, (len(t),) + A.shape[1:]) if self.square else A


def assemble(c: np.ndarray, terms: np.ndarray, weights: np.ndarray, const: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """sum_k weights[g, k] c[i, k] terms[k] + const[g], (n, G, ...), of a
    segment's coefficient rows c (n, K): the one assembly of its
    generators and H nodes.  terms (K, ...) are the ops or their lifts,
    real, weights (G, K) one row of Segment.weights per grid point and
    const (G, ...) the terms that do not vary.  One (n*G, K) @ (K, M)
    product by numkit.combine, written into out (n, G, ...) when it is
    given, to which const is added in place."""
    rows = (c[:, None] * weights).reshape(-1, len(terms))
    flat = None if out is None else out.reshape(len(rows), -1)
    A = combine(rows, terms.reshape(len(terms), -1), out=flat).reshape(c.shape[:1] + const.shape)
    A += const
    return A


def bright_ray(system: LevelSystem, bright_axis: tuple[float, float]) -> np.ndarray:
    """The driven ray |w(theta_b, phi_b)> of the bright axis, embedded."""
    tb, pb = bright_axis
    return system.embed_qubit([np.sin(tb / 2), -np.cos(tb / 2) * np.exp(1j * pb)])


def bright_ray_segment(
    system: LevelSystem,
    duration: float,
    drive: Callable[[np.ndarray], tuple] | Constant,
    bright_axis: tuple[float, float],
    frame: Callable[[np.ndarray], np.ndarray] | None = None,
    detuned: bool = False,
) -> Segment:
    """Lambda-type drive coupling one bright ray to |e>:
    envelope(t) e^{-i phase(t)} |w><e| + h.c., plus detuning(t) |e><e|
    when detuned.

    drive maps local times (n,) to the columns (envelope, phase) or, when
    detuned, (envelope, phase, detuning), computed together so that terms
    they share are evaluated once; a square pulse passes the Constant row
    of those values instead.  With C = |w><e| the ops are C + C^dagger and
    i(C - C^dagger), with coefficients envelope cos(phase) and -envelope
    sin(phase), and |e><e| with coefficient detuning, unscaled, when
    detuned.  The segment's envelope is the drive's first column, and a
    Constant drive gives Constant coefficients: their one row, computed as
    every row of the time-dependent ones is.  frame is passed through to
    the segment.
    """
    e = system.basis_state(system.excited_index)
    C = np.outer(bright_ray(system, bright_axis), e.conj())
    ops = [C + C.conj().T, 1j * (C - C.conj().T)]
    if detuned:
        ops.append(np.outer(e, e.conj()))

    def columns(env: np.ndarray, ph: np.ndarray, *detuning: np.ndarray) -> np.ndarray:
        return np.stack([env * np.cos(ph), -env * np.sin(ph), *detuning], axis=-1)

    if isinstance(drive, Constant):
        coefficients = Constant(columns(*drive(np.zeros(1)).T)[0])
        envelope = Constant(drive.value[0])
    else:
        def coefficients(t: np.ndarray) -> np.ndarray:
            return columns(*drive(t))

        def envelope(t: np.ndarray) -> np.ndarray:
            return drive(t)[0]
    return Segment(duration, np.stack(ops), coefficients, envelope=envelope, frame=frame,
                   unscaled=2 if detuned else None)


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
        d = self.system.dim
        for k, seg in enumerate(self.segments):
            if seg.ops.shape[1:] != (d, d):
                raise ValueError(f"segment {k} has ops of dimension {seg.ops.shape[-1]}, "
                                 f"but {self.system.kind} has dimension {d}")
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
    """H = sum_k w_k c_k(t) H_k + eta|e><e| within one segment at local
    times, (n, d, d), w = Segment.weights(err): Segment.nodes on Re and Im
    of the ops interleaved, read back as complex, so H sums as the RK4
    generators do and a square segment is one node broadcast along the
    times (stride 0, read-only).  Holonomy checks and reports assemble
    complex H here, segment by segment, so no difference straddles a
    boundary; the propagation routes take the lifts of the ops instead.
    """
    seg = schedule.segments[seg_index]
    t_local = np.atleast_1d(np.asarray(t_local, dtype=float))
    H = seg.nodes(t_local, seg.ops.view(float), seg.weights(err)[None],
                  detuning_error(schedule, err).view(float)[None])
    return H[:, 0].view(complex)
