"""Scheme specs, and the builders turning one into a concrete PulseSchedule.

SCHEMES is the one list of schemes: tag -> builder, in catalog order.

Each builder emits:

* the drive segments (envelope/phase/detuning in omega_bar units),
* the ideal 2x2 target gate exp(-i(gamma/2) n.sigma),
* on every segment, an analytic auxiliary frame (local times -> 3
  orthonormal vectors each) for the holonomy checks, cyclic on the
  computational rows of the whole schedule.

The single loop SL is C with one loop, and the shortened-path scheme S is
CDD with one loop: each pair goes through one assembly.

Phase conventions: the two-interval loop uses first-half drive phase 0 and
second-half phase pi-gamma, which composes to e^{i gamma}|b><b| + |d><d| on
the computational space.  Composite loops with an even loop count may
equivalently use -gamma/N per loop (the two differ by a bright-sector sign
that cancels pairwise); the builder picks whichever matches the published
parameter table while keeping the composite gate exact.

The single-shot, shortened-path and time-optimal constructions imprint
their phase on whichever superposition they drive, so those builders drive
the +n axis eigenvector (the dark state of the two-interval loop) through
the bright axis of _plus_n_axis; the computational gate is then the same
rotation as the other schemes.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .system import (
    Constant,
    GateAngles,
    LevelSystem,
    PulseSchedule,
    Segment,
    bright_dark_basis,
    bright_ray,
    bright_ray_segment,
)

PI = np.pi


@dataclass(frozen=True)
class SchemeSpec:
    """Tagged description of one gate-construction scheme and its knobs.

    The tag is a key of SCHEMES.  Fields irrelevant to the chosen scheme
    are ignored; SL is C and S is CDD with one loop, so both ignore
    `loops`.
    """

    scheme: str
    angles: GateAngles = field(default_factory=lambda: GateAngles(PI / 2))
    loops: int = 2  # C, CDD
    varsigma: float = 1.0  # PS
    gamma_ss: float = -PI / 6  # SS detuning angle

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; known: {', '.join(SCHEMES)}")
        if not isinstance(self.loops, numbers.Integral) or self.loops < 1:
            raise ValueError(f"loops={self.loops!r} must be an integer >= 1")
        for name in ("varsigma", "gamma_ss"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name}={value} must be finite")
        if self.varsigma < 0:
            raise ValueError("varsigma must be >= 0")


_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]])
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def rotation_gate(gamma: float, theta: float = 0.0, phi: float = 0.0) -> np.ndarray:
    """exp(-i(gamma/2) n.sigma) with n = (sin t cos p, sin t sin p, cos t)."""
    n = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    ns = n[0] * _SX + n[1] * _SY + n[2] * _SZ
    return np.cos(gamma / 2) * np.eye(2) - 1j * np.sin(gamma / 2) * ns


def _plus_n_axis(angles: GateAngles) -> tuple[float, float]:
    """The bright axis (pi - theta, phi + pi) whose ray is the +n axis
    eigenvector cos(t/2)|0> + sin(t/2) e^{i p}|1>."""
    return (PI - angles.theta, angles.phi + PI)


# ---------------------------------------------------------------------------
# two-interval loops (SL) and their composites (C, DC)
# ---------------------------------------------------------------------------


def _g_matrix(xi: float) -> np.ndarray:
    """Unit bright-excited coupling [[0, e^{i xi}], [e^{-i xi}, 0]]."""
    return np.array([[0, np.exp(1j * xi)], [np.exp(-1j * xi), 0]])


def _piece_step(phase: float, area) -> np.ndarray:
    """Block propagator of one constant piece of drive phase `phase` after
    pulse area `area` (a scalar, or an array of areas giving a stack)."""
    a = np.asarray(area)[..., None, None]
    return np.cos(a) * np.eye(2) - 1j * np.sin(a) * _g_matrix(-phase)


def _bright_frame(
    system: LevelSystem, parked: np.ndarray, driven: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Frame stack (parked, nu2, nu3) from (n, 2, 2) block columns given in
    (driven, e) coordinates."""
    basis = np.stack([driven, system.basis_state(system.excited_index)])
    # one (2n, 2) @ (2, d) product: row (k, j) is column j of block k
    moving = (cols.swapaxes(1, 2).reshape(-1, 2) @ basis).reshape(len(cols), 2, -1)
    return np.concatenate([np.broadcast_to(parked, (len(cols), 1, parked.size)), moving], axis=1)


def _lambda_frame(
    system: LevelSystem,
    parked: np.ndarray,
    driven: np.ndarray,
    block: Callable[[np.ndarray], np.ndarray],
    t0: float,
    total: float,
    return_phase: float,
) -> Callable[[np.ndarray], np.ndarray]:
    """Frame closure of one segment of a loop of length `total` driving
    `driven` against |e> and parking `parked`.

    block maps local times to the (n, 2, 2) analytic propagator in (driven, e)
    coordinates; the diagonal return phases (+return_phase on the driven
    column) are stripped linearly in global time t0 + t, so the
    computational rows close exactly at the loop end.
    """

    def frame(t: np.ndarray) -> np.ndarray:
        s = (t0 + t) / total
        ramp = np.exp(1j * return_phase * s)
        phases = np.stack([ramp.conj(), ramp], axis=-1)
        return _bright_frame(system, parked, driven, block(t) * phases[:, None, :])

    return frame


def _build_loop_schedule(
    spec: SchemeSpec, pieces: list[tuple[float, float]], label: str
) -> PulseSchedule:
    """Assemble a constant-envelope multi-piece loop on the Lambda system."""
    system = LevelSystem.lambda3()
    ang = spec.angles
    b2, d2 = bright_dark_basis(ang)
    b_full, d_full = system.embed_qubit(b2), system.embed_qubit(d2)
    starts = [np.eye(2, dtype=complex)]  # block propagators at the piece starts
    for phase, area in pieces:
        starts.append(_piece_step(phase, area) @ starts[-1])
    t0s = np.concatenate([[0.0], np.cumsum([area for _, area in pieces])])
    return_phase = float(np.angle(starts[-1][0, 0]))

    def piece_frame(k: int) -> Callable[[np.ndarray], np.ndarray]:
        phase, U0 = pieces[k][0], starts[k]

        def block(t: np.ndarray) -> np.ndarray:
            # one (2n, 2) @ (2, 2) product, with the bits of the n stacked ones
            return (_piece_step(phase, t).reshape(-1, 2) @ U0).reshape(-1, 2, 2)

        return _lambda_frame(system, d_full, b_full, block, t0s[k], t0s[-1], return_phase)

    segments = tuple(
        bright_ray_segment(
            system,
            duration=area,
            drive=Constant(np.array([1.0, phase])),
            bright_axis=(ang.theta, ang.phi),
            frame=piece_frame(k),
        )
        for k, (phase, area) in enumerate(pieces)
    )
    target = rotation_gate(ang.gamma, ang.theta, ang.phi)
    return PulseSchedule(
        system=system,
        segments=segments,
        target=target,
        scheme_label=label,
    )


def _elementary_loops(spec: SchemeSpec, loops: int, label: str) -> PulseSchedule:
    """`loops` concatenated copies of the elementary two-interval loop at
    angle gamma/loops: areas pi/2, phases 0 then pi - gamma/loops.  SL is
    one loop, C is spec.loops of them.

    The published table lists -gamma/N for the second halves; that variant
    composes to the same ideal gate for even N but accumulates Rabi error
    faster than the single loop, losing the composite's robustness benefit,
    so the elementary-gate convention is used throughout.
    """
    gl = spec.angles.gamma / loops
    return _build_loop_schedule(spec, [(0.0, PI / 2), (PI - gl, PI / 2)] * loops, label)


def build_dc(spec: SchemeSpec) -> PulseSchedule:
    """Two-interval loop with pi-area corrective insertions at T/4 and 5T/4.

    Insertion phases phi0 + pi/2 and phi0 - gamma - pi/2 relative to the
    first-interval phase phi0 = 0; the inserted dynamical phases cancel.
    """
    g = spec.angles.gamma
    pieces = [
        (0.0, PI / 4),
        (PI / 2, PI / 2),
        (0.0, PI / 4),
        (PI - g, PI / 4),
        (-g - PI / 2, PI / 2),
        (PI - g, PI / 4),
    ]
    return _build_loop_schedule(spec, pieces, "DC-NHQC")


# ---------------------------------------------------------------------------
# single-shot detuned loop (SS)
# ---------------------------------------------------------------------------


def build_ss(spec: SchemeSpec) -> PulseSchedule:
    """Constant detuned drive: coupling cos(g_ss), |e><e| term 2 sin(g_ss),
    duration pi (all in units of omega_bar); rotation angle pi sin(g_ss) + pi.
    """
    system = LevelSystem.lambda3()
    ang = spec.angles
    gss = spec.gamma_ss
    coupling = np.cos(gss)
    if abs(coupling) < 1e-12:
        raise ValueError("gamma_ss = pi/2 leaves no drive; choose |gamma_ss| < pi/2")
    delta = 2 * np.sin(gss)
    duration = PI
    axis = _plus_n_axis(ang)
    phi_gate = PI * np.sin(gss) + PI
    # block evolution with constant H = coupling*G(0) + delta*|e><e|
    half = delta / 2.0
    rot = np.sqrt(coupling**2 + half**2)
    m = np.array([[-half, coupling], [coupling, half]]) / rot  # traceless part / rot

    def block(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t)[..., None, None]
        rt = rot * t
        return np.exp(-1j * half * t) * (np.cos(rt) * np.eye(2) - 1j * np.sin(rt) * m)

    b_full = system.embed_qubit(bright_dark_basis(ang)[0])
    w_full = bright_ray(system, axis)
    return_phase = float(np.angle(block(duration)[0, 0]))
    seg = bright_ray_segment(
        system,
        duration=duration,
        drive=Constant(np.array([coupling, 0.0, delta])),
        bright_axis=axis,
        detuned=True,
        frame=_lambda_frame(system, b_full, w_full, block, 0.0, duration, return_phase),
    )
    target = rotation_gate(phi_gate, ang.theta, ang.phi)
    return PulseSchedule(
        system=system,
        segments=(seg,),
        target=target,
        scheme_label="SS-NHQC",
    )


# ---------------------------------------------------------------------------
# pulse shaping (PS)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsDesign:
    """Shaped two-interval design over two segments of segment_duration:
    chi(seg, s) gives the mixing angle and its rate at segment-local times
    s, f(c) the global phase and varphi(seg, c) the solved azimuth as
    functions of chi, and drive(seg, s) the drive of bright_ray_segment,
    local time -> (envelope, phase), the envelope being the physical
    coupling omega_ps / 2 (omega_ps the magnitude of the published
    quadrature pair).

    Segment 0 sweeps chi 0 -> pi, segment 1 mirrors back pi -> 0; the
    azimuth restarts at -pi/2 - gamma on segment 1.  varphi(chi) = varphi0
    - (4 varsigma / 3) sin^3(chi) solves d(varphi)/dt = -df/dt cos(chi)
    exactly for f = varsigma(2 chi - sin 2 chi).
    """

    varsigma: float
    segment_duration: float
    gamma: float

    def chi(self, seg: int, s):
        """(chi, chi_dot) on segment seg, the ramp and its rate taken once."""
        Ts = self.segment_duration
        x = PI * s / (2 * Ts)
        rate = PI * np.sin(PI * s / Ts) * (PI / (2 * Ts))
        if seg == 0:
            return PI * np.sin(x) ** 2, rate
        return PI * np.cos(x) ** 2, -rate

    def f(self, c):
        return self.varsigma * (2 * c - np.sin(2 * c))

    def varphi(self, seg: int, c):
        return (-PI / 2, -PI / 2 - self.gamma)[seg] - (4 * self.varsigma / 3) * np.sin(c) ** 3

    def drive(self, seg: int, s):
        c, cd = self.chi(seg, s)
        sin_c = np.sin(c)
        fd = 4 * self.varsigma * sin_c ** 2 * cd
        vp = self.varphi(seg, c)
        cos_vp, sin_vp = np.cos(vp), np.sin(vp)
        omR = cos_vp * sin_c * fd - sin_vp * cd
        omI = sin_vp * sin_c * fd + cos_vp * cd
        return 0.5 * np.sqrt(omR**2 + omI**2), np.arctan2(omI, omR)


def ps_design(varsigma: float, tau: float, angles: GateAngles) -> PsDesign:
    """Shaped design over total duration tau (two equal segments)."""
    if varsigma < 0:
        raise ValueError("varsigma must be >= 0")
    if tau <= 0:
        raise ValueError("tau must be positive")
    return PsDesign(varsigma, tau / 2, angles.gamma)


@functools.lru_cache(maxsize=64)
def _ps_area(varsigma: float) -> float:
    """The coupling area of the two unit segments of ps_design, by
    quadrature of the closed form.  |Omega|^2 = (df/dt sin chi)^2 +
    (dchi/dt)^2, since the azimuth, the one place the gate angle enters,
    only rotates the quadrature pair: the area depends on varsigma alone.
    Any angle gives it to the last few ulps; the S gate's pi/2, taken here,
    gives the catalog's PS schedule its bits."""
    ref = ps_design(varsigma, 2.0, GateAngles(PI / 2))
    s = np.linspace(0.0, ref.segment_duration, 20001)
    return sum(float(np.trapezoid(ref.drive(seg, s)[0], s)) for seg in (0, 1))


def build_ps(spec: SchemeSpec) -> PulseSchedule:
    """Shaped two-interval loop; duration set so the time-averaged coupling
    equals omega_bar (the shape fixes the area, the area fixes the time).
    """
    system = LevelSystem.lambda3()
    ang = spec.angles
    total = _ps_area(spec.varsigma)
    design = ps_design(spec.varsigma, total, ang)
    Ts = design.segment_duration
    b2, d2 = bright_dark_basis(ang)
    b_full, d_full = system.embed_qubit(b2), system.embed_qubit(d2)
    g = ang.gamma

    def designed_column(seg: int, s: np.ndarray) -> np.ndarray:
        """(n, 2) designed trajectory of one half at local times s."""
        chi, _ = design.chi(seg, s)
        half = np.exp(1j * design.varphi(seg, chi) / 2)
        return np.exp(-1j * design.f(chi) / 2)[:, None] * np.stack(
            [half.conj() * np.cos(chi / 2), half * np.sin(chi / 2)], axis=-1)

    # physical trajectory constants gluing the two designed segments
    c0 = 1.0 / np.exp(1j * np.angle(designed_column(0, np.zeros(1))[0, 0]))
    psi_mid = c0 * designed_column(0, np.full(1, Ts))[0]
    d20 = designed_column(1, np.zeros(1))[0]
    glue = int(np.argmax(np.abs(d20)))
    c1 = psi_mid[glue] / d20[glue]

    def half_frame(k: int, c: complex) -> Callable[[np.ndarray], np.ndarray]:
        def block(t: np.ndarray) -> np.ndarray:
            col = c * designed_column(k, t)
            partner = np.stack([-np.conj(col[:, 1]), np.conj(col[:, 0])], axis=-1)
            return np.stack([col, partner], axis=-1)

        return _lambda_frame(system, d_full, b_full, block, k * Ts, total, g)

    segments = tuple(
        bright_ray_segment(
            system,
            duration=Ts,
            drive=functools.partial(design.drive, k),
            bright_axis=(ang.theta, ang.phi),
            frame=half_frame(k, c),
        )
        for k, c in enumerate((c0, c1))
    )
    target = rotation_gate(g, ang.theta, ang.phi)
    return PulseSchedule(
        system=system,
        segments=segments,
        target=target,
        scheme_label="PS-NHQC",
        notes={"varsigma": spec.varsigma},
    )


# ---------------------------------------------------------------------------
# time-optimal loop (TO)
# ---------------------------------------------------------------------------


def brachistochrone_tau(gamma: float, omega0: float) -> float:
    """Minimal loop time 2 sqrt(pi^2 - (pi - gamma)^2) / omega0 for a drive
    of amplitude omega0 (bright-excited coupling omega0/2).  Rejects a gamma
    so close to 0 or 2 pi that the loop time rounds to 0."""
    if omega0 <= 0:
        raise ValueError("omega0 must be positive")
    if not 0 < gamma < 2 * PI:
        raise ValueError("gamma must lie in (0, 2*pi)")
    span = PI**2 - (PI - gamma) ** 2
    if not span > 0:
        raise ValueError(f"gamma={gamma!r} too close to 0 or 2*pi: the loop time rounds to 0")
    return 2 * np.sqrt(span) / omega0


def build_to(spec: SchemeSpec) -> PulseSchedule:
    """Constant drive with linear phase 2(gamma - pi) t / tau at the minimal
    loop time; drives the +n axis eigenvector.  Unconventional: the
    dynamical phase is nonzero but proportional to the geometric phase.
    """
    system = LevelSystem.lambda3()
    ang = spec.angles
    g = ang.gamma
    # time-averaged coupling = omega_bar -> drive amplitude 2*omega_bar
    tau = brachistochrone_tau(g, 2.0)
    lam = 1.0  # coupling magnitude
    omega_rot = 2 * (g - PI) / tau

    def drive(t):
        return np.broadcast_to(lam, np.shape(t)), omega_rot * np.asarray(t, dtype=float)

    axis = _plus_n_axis(ang)
    # rotating-frame closed form in (driven, e) block coordinates
    Lam = np.sqrt(lam**2 + omega_rot**2 / 4)
    p = np.array([lam, 0.0, -omega_rot / 2]) / Lam
    psig = p[0] * _SX + p[2] * _SZ

    # the dynamical phase along the driven trajectory is dyn_scale * D(t)
    # (closed form); the frame carries its share g D(t) / D(tau), which
    # makes the frame cyclic and stays finite at gamma = pi, where
    # dyn_scale = 0
    dyn_scale = -(lam**2 * omega_rot) / (2 * Lam**2)

    def D(t):
        return t - np.sin(2 * Lam * t) / (2 * Lam)

    D_tau = D(tau)
    phi_d_total = dyn_scale * D_tau

    b_full = system.embed_qubit(bright_dark_basis(ang)[0])
    w_full = bright_ray(system, axis)

    def frame(t: np.ndarray) -> np.ndarray:
        half = np.exp(1j * omega_rot * t / 2)
        R = np.stack([half.conj(), half], axis=-1)
        Lt = Lam * t[:, None, None]
        U = R[:, :, None] * (np.cos(Lt) * np.eye(2) - 1j * np.sin(Lt) * psig)
        # the driven column carries its dynamical share, |e> a linear ramp
        phases = np.stack([np.exp(1j * g * D(t) / D_tau),
                           np.exp(-1j * g * t / tau)], axis=-1)
        return _bright_frame(system, b_full, w_full, U * phases[:, None, :])

    seg = bright_ray_segment(
        system,
        duration=tau,
        drive=drive,
        bright_axis=axis,
        frame=frame,
    )
    ratio = phi_d_total / (g - phi_d_total)  # dynamical / geometric, constant in t
    target = rotation_gate(g, ang.theta, ang.phi)
    coupling_area = lam * tau
    return PulseSchedule(
        system=system,
        segments=(seg,),
        target=target,
        scheme_label="TO-UNHQC",
        notes={
            "dyn_geo_ratio": ratio,
            "dynamical_phase": -phi_d_total,
            "area_conventions_pi": {
                "coupling": coupling_area / PI,
                "amplitude_envelope": 2 * coupling_area / PI,
                "published": 0.43,
            },
        },
    )


# ---------------------------------------------------------------------------
# shortened-path loop (S) and its composite decoupling variant (CDD)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathParams:
    """Circle path on the bright sphere: azimuth beta(t) from beta0, polar
    alpha(t) and circle parameter ell, over a loop of duration tau."""

    tau: float
    ell: float
    beta0: float

    def angles(self, t):
        """(beta, beta_dot, alpha, alpha_dot) at t, each term taken once."""
        beta = self.beta0 + PI * np.sin(PI * t / (2 * self.tau)) ** 2
        beta_dot = PI * np.sin(PI * t / self.tau) * (PI / (2 * self.tau))
        x = beta - self.beta0
        sin_x = np.sin(x)
        alpha = 2 * np.arctan(self.ell * sin_x)
        alpha_dot = 2 * self.ell * np.cos(x) * beta_dot / (1 + (self.ell * sin_x) ** 2)
        return beta, beta_dot, alpha, alpha_dot


def circle_path_params(gamma: float, beta0: float, tau: float) -> PathParams:
    """Closed circular path through the pole enclosing geometric phase gamma,
    starting at azimuth beta0.

    beta(t) = beta0 + pi sin^2(pi t / (2 tau)),
    alpha(t) = 2 arctan[ell sin(beta - beta0)],
    ell = sqrt(2 pi gamma - gamma^2) / (pi - gamma), gamma in (0, pi).
    """
    if not 0 < gamma < PI:
        raise ValueError(
            f"gamma={gamma} unsupported: the circle parameter ell is singular at "
            "gamma = pi; use gamma in (0, pi)"
        )
    if tau <= 0:
        raise ValueError("tau must be positive")
    ell = np.sqrt(2 * PI * gamma - gamma**2) / (PI - gamma)
    return PathParams(tau=tau, ell=ell, beta0=beta0)


def circle_segment_area(gamma: float) -> float:
    """Coupling area of one circle loop: half the spherical arc length,
    sqrt(gamma(2 pi - gamma)); exact for the circle parameterization."""
    return float(np.sqrt(gamma * (2 * PI - gamma)))


def _circle_drive_segment(system: LevelSystem, path: PathParams, angles: GateAngles) -> Segment:
    """Drive segment realizing the inverse-engineered circle Hamiltonian,
    carrying the construction's auxiliary triple as its frame.

    The driven ray is the +n axis eigenvector; the constant phase offset
    (phi + pi, the azimuth of its bright axis) maps our bright-axis
    convention onto the construction's second frame vector, keeping frame
    and drive phases aligned.
    """
    axis = _plus_n_axis(angles)
    offset = axis[1]
    b2, d2 = bright_dark_basis(angles)
    mu1 = system.embed_qubit(b2)  # parked ray, equals the printed first vector
    v = -system.embed_qubit(d2)  # the printed second vector at t = 0
    e = system.basis_state(system.excited_index)

    def drive(t):
        beta, beta_dot, alpha, alpha_dot = path.angles(t)
        bs = beta_dot * np.sin(alpha)
        chi = np.arctan2(alpha_dot, bs)  # the mixing angle
        return (0.5 * np.sqrt(bs**2 + alpha_dot**2), beta + chi + offset,
                -beta_dot * (1 + np.cos(alpha)))

    def frame(t):
        beta, _, alpha, _ = path.angles(t)
        half = alpha[:, None] / 2
        cos_h, sin_h = np.cos(half), np.sin(half)
        turn = np.exp(1j * beta[:, None])
        mu2 = cos_h * v + sin_h * turn * e
        mu3 = sin_h * turn.conj() * v - cos_h * e
        return np.stack([np.broadcast_to(mu1, mu2.shape), mu2, mu3], axis=1)

    return bright_ray_segment(
        system,
        duration=path.tau,
        drive=drive,
        bright_axis=axis,
        frame=frame,
        detuned=True,
    )


def _circle_schedule(spec: SchemeSpec, loops: int, label: str) -> PulseSchedule:
    """`loops` circle segments at angle gamma/loops, every second one
    starting at azimuth pi (paths mirror-symmetric about the pole); target
    the rotation by gamma about the axis of the spec's angles."""
    system = LevelSystem.lambda3()
    ang = spec.angles
    gl = ang.gamma / loops
    tau_seg = circle_segment_area(gl)
    paths = [
        circle_path_params(gl, PI if k % 2 else 0.0, tau_seg)
        for k in range(loops)
    ]
    return PulseSchedule(
        system=system,
        segments=tuple(_circle_drive_segment(system, p, ang) for p in paths),
        target=rotation_gate(ang.gamma, ang.theta, ang.phi),
        scheme_label=label,
    )


# ---------------------------------------------------------------------------
# transitionless tripod (STA)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StaPath:
    """Orange-slice path on the tripod parameter sphere over three steps of
    duration T each: down the phi=0 meridian, around the pole, back up the
    phi=phi1 meridian."""

    T: float
    phi1: float

    def angles(self, step: int, s):
        """(theta, theta_dot, phi, phi_dot) on step `step` at local times s,
        the ramp and its rate taken once."""
        ramp = np.sin(PI * s / (2 * self.T)) ** 2
        rate = PI * np.sin(PI * s / self.T) / (2 * self.T)
        one, zero = np.ones(np.shape(s)), np.zeros(np.shape(s))
        if step == 0:
            return PI * ramp, PI * rate, zero, zero
        if step == 1:
            return PI * one, zero, self.phi1 * ramp, self.phi1 * rate
        return PI * (1 - ramp), -PI * rate, self.phi1 * one, zero


# the ops of STA, one per real coordinate of the tripod's (|1>, |2>, |e>)
# block in the column order of its coefficients: entry (i, j) v and entry
# (j, i) conj(v) for each (i, j, v); <2|H|e> is real
_STA_OPS = np.zeros((8, 4, 4), dtype=complex)
for _k, (_i, _j, _v) in enumerate([(1, 1, 1), (2, 2, 1), (3, 3, 1), (1, 2, 1), (1, 2, 1j),
                                   (1, 3, 1), (1, 3, 1j), (2, 3, 1)]):
    _STA_OPS[_k, _i, _j], _STA_OPS[_k, _j, _i] = _v, np.conj(_v)


def sta_schedule(phi1: float, tau: float) -> PulseSchedule:
    """Three-step transitionless tripod schedule for the phase-shift gate.

    The counter-diabatic term forces exact evolution along the dark channel
    at any speed; the accumulated phase on |1> equals the connection
    quadrature -integral(phi_dot sin^2(theta/2)), measured, not assumed.
    """
    if not 0 <= phi1 < 2 * PI:
        raise ValueError("phi1 must lie in [0, 2*pi)")
    if tau <= 0:
        raise ValueError("tau must be positive")
    system = LevelSystem.tripod4()
    path = StaPath(tau / 3, phi1)
    nu1 = system.basis_state(0)
    k1 = system.basis_state(1)
    k2 = system.basis_state(2)

    def make_step(step: int) -> Segment:
        def coefficients(s: np.ndarray) -> np.ndarray:
            # H0 = |e><B| + h.c. plus the counter-diabatic term i <B|dD/dt>
            # |B><D| + h.c. + (phi_dot/2) sin^2(theta/2) (|B><B| - |e><e|),
            # entry by entry, with B = (B1, B2) and D = (D1, D2) on (|1>, |2>)
            t_, td_, p_, pd_ = path.angles(step, s)
            sin_h, cos_h, turn = np.sin(t_ / 2), np.cos(t_ / 2), np.exp(-1j * p_)
            B = (-sin_h * turn, cos_h)
            D = (cos_h * turn, sin_h)
            ibd = 1j * (td_ / 2 + 1j * (pd_ / 2) * np.sin(t_))  # i <B|dD/dt>
            g = (pd_ / 2) * sin_h ** 2
            # ibd <i|B><D|j>, each product once
            D_conj = [np.conj(d) for d in D]
            bd = [[ibd * (b * d) for d in D_conj] for b in B]

            def block(i, j):
                return bd[i][j] + np.conj(bd[j][i]) + g * (B[i] * np.conj(B[j]))
            h11, h12, h22 = block(0, 0), block(0, 1), block(1, 1)
            return np.stack([h11.real, h22.real, -g, h12.real, h12.imag,
                             B[0].real, B[0].imag, B[1]], axis=-1)

        def frame(s: np.ndarray) -> np.ndarray:
            t_, _, p_, _ = path.angles(step, s)
            half = t_[:, None] / 2
            sin_h, cos_h, turn = np.sin(half), np.cos(half), np.exp(1j * p_[:, None])
            nu2 = cos_h * k1 + sin_h * turn * k2
            nu3 = -sin_h * k1 + cos_h * turn * k2
            return np.stack([np.broadcast_to(nu1, nu2.shape), nu2, nu3], axis=1)

        return Segment(
            duration=path.T,
            ops=_STA_OPS,
            coefficients=coefficients,
            envelope=Constant(1.0),
            frame=frame,
        )

    segments = tuple(make_step(k) for k in range(3))

    # phase-shift magnitude from the connection quadrature along the path
    gamma1 = 0.0
    s = np.linspace(0.0, path.T, 4001)
    for step in range(3):
        theta, _, _, phi_dot = path.angles(step, s)
        gamma1 -= float(np.trapezoid(phi_dot * np.sin(theta / 2) ** 2, s))

    target = np.diag([1.0, np.exp(1j * gamma1)]).astype(complex)
    return PulseSchedule(
        system=system,
        segments=segments,
        target=target,
        scheme_label="STA-NHQC",
        notes={"phi1": phi1, "gamma1": gamma1},
    )


# ---------------------------------------------------------------------------
# three-qubit subspace demo (DFS3)
# ---------------------------------------------------------------------------


def _pair_coupling(op_a: np.ndarray, op_b: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    mats = [np.eye(2, dtype=complex)] * 3
    mats[pair[0]] = op_a
    mats[pair[1]] = op_b
    return np.kron(np.kron(mats[0], mats[1]), mats[2])


def dfs3_unit_hamiltonian(phi: float) -> np.ndarray:
    """8x8 exchange Hamiltonian at unit J: XY plus antisymmetric terms."""
    c, s = np.cos(phi / 2), np.sin(phi / 2)
    H = np.zeros((8, 8), dtype=complex)
    for (jx, jy), pair in (((c, -s), (0, 1)), ((-c, -s), (0, 2))):
        xx = _pair_coupling(_SX, _SX, pair)
        yy = _pair_coupling(_SY, _SY, pair)
        xy = _pair_coupling(_SX, _SY, pair)
        yx = _pair_coupling(_SY, _SX, pair)
        H += 0.5 * (jx * (xx + yy) + jy * (xy - yx))
    return H


def dfs3_schedule(phi: float) -> PulseSchedule:
    """Three-qubit schedule: single-excitation subspace {100, 010, 001} hosts
    an effective bright-ancilla loop.  The coupling is the square pulse
    J = 1 for a time pi/sqrt(2), so the bright-ancilla angle sqrt(2) t of
    the frame reaches pi and the loop is cyclic.
    """
    system = LevelSystem.three_qubit8()
    duration = PI / np.sqrt(2)
    H_unit = dfs3_unit_hamiltonian(phi)

    # logical frame: bright/dark combinations of |010>, |001> against |100>
    zero_l = system.basis_state(2)
    one_l = system.basis_state(1)
    anc = system.basis_state(system.THREE_QUBIT_ANCILLA)
    B = (np.exp(1j * phi / 2) * zero_l - np.exp(-1j * phi / 2) * one_l) / np.sqrt(2)
    D = (np.exp(1j * phi / 2) * zero_l + np.exp(-1j * phi / 2) * one_l) / np.sqrt(2)

    def frame(t: np.ndarray) -> np.ndarray:
        A = np.sqrt(2) * np.asarray(t, dtype=float)[:, None]  # accumulated bright-coupling area
        h = A / PI
        cos_A, sin_A, ramp = np.cos(A), np.sin(A), np.exp(-1j * PI * h)
        psi_b = (cos_A * B - 1j * sin_A * anc) * ramp
        psi_a = (-1j * sin_A * B + cos_A * anc) * ramp
        return np.stack([np.broadcast_to(D, psi_b.shape), psi_b, psi_a], axis=1)

    seg = Segment(
        duration=duration,
        ops=H_unit[None],
        coefficients=Constant(np.ones(1)),  # J = 1
        envelope=Constant(1.0),
        frame=frame,
    )

    # logical gate: pi rotation about -(cos phi, sin phi, 0)
    n = -np.array([np.cos(phi), np.sin(phi), 0.0])
    ns = n[0] * _SX + n[1] * _SY + n[2] * _SZ
    target = -1j * ns  # exp(-i (pi/2) n.sigma)
    return PulseSchedule(
        system=system,
        segments=(seg,),
        target=target,
        scheme_label="DFS3-NHQC",
    )


# ---------------------------------------------------------------------------
# the schemes
# ---------------------------------------------------------------------------

# tag: builder, in catalog order; SL is C and S is CDD with one loop; STA
# and DFS3 fix their gate: the phase gate diag(1, -i) and the pi rotation
# about -x
SCHEMES: dict[str, Callable[[SchemeSpec], PulseSchedule]] = {
    "SL": lambda spec: _elementary_loops(spec, 1, "SL-NHQC"),
    "SS": build_ss,
    "PS": build_ps,
    "C": lambda spec: _elementary_loops(spec, spec.loops, "C-NHQC"),
    "DC": build_dc,
    "TO": build_to,
    "S": lambda spec: _circle_schedule(spec, 1, "S-NHQC"),
    "CDD": lambda spec: _circle_schedule(spec, spec.loops, "CDD-NHQC"),
    "STA": lambda spec: sta_schedule(PI / 2, PI),
    "DFS3": lambda spec: dfs3_schedule(0.0),
}


def build_schedule(spec: SchemeSpec) -> PulseSchedule:
    """Build the pulse schedule for a scheme spec; raises ValueError for
    parameter domains a scheme cannot realize."""
    return SCHEMES[spec.scheme](spec)
