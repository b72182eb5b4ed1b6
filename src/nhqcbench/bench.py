"""Metrics, sweeps, and the published-comparison machinery.

Fidelity definitions (the comparison source plots gate fidelity without
stating a formula, so these are pinned here and stamped into every data
file header):

* unitary runs: two-design average gate fidelity
  F = (Tr(M M^+) + |Tr M|^2) / (d(d+1)), M the target-aligned computational
  block of the propagator; leakage lowers F through Tr(M M^+);
* open-system runs: mean fidelity over the six axial qubit states,
  F = (1/6) sum_k <psi_k| T^+ rho_k(tau) T |psi_k>;
* robustness-order fits: trace overlap |Tr M| / 2, the metric under which
  the printed closed-form error expansions hold exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import (
    propagate_lindblad,
    propagate_lindblad_grid,
    propagate_unitary,
    six_axial_densities,
    six_axial_states,
)
from .holonomy import condition_residuals
from .schemes import SCHEMES, SchemeSpec, build_schedule
from .system import ErrorModel, GateAngles, PulseSchedule

PI = np.pi

# catalog tag: published pulse area in units of pi, in table order (TO
# excluded from exact matching: its published 0.43 does not follow from any
# stated normalization; see the schedule's area_conventions note)
TABLE1_AREAS_PI = {"sl": 1.00, "ps": 2.16, "c": 2.00, "dc": 2.00, "to": 0.43, "s": 0.87,
                   "cdd": 1.32}
TABLE1_TAGS = tuple(TABLE1_AREAS_PI)

FIG13_GAMMA = 3e-4  # 2*pi*3 kHz at omega_bar = 2*pi*10 MHz
OMEGA_BAR_HZ = 2 * PI * 1.0e7
PULSE_AREA_SAMPLES = 4001  # trapezoid nodes per segment of pulse_area
# the metric name of the six-state fidelity, as reports and data files print it
SIX_STATE_METRIC = "six_axial_state_average"


GATE_ANGLES = {
    "S": GateAngles(PI / 2, 0.0, 0.0),
    "T": GateAngles(PI / 4, 0.0, 0.0),
    "NOT": GateAngles(PI, PI / 2, 0.0),
    "H": GateAngles(PI, PI / 4, 0.0),
    "sqrtH": GateAngles(PI / 2, PI / 4, 0.0),
}


def benchmark_catalog() -> dict[str, SchemeSpec]:
    """The comparison set: every scheme at its spec defaults, asked for the
    quarter-turn z-rotation (S gate), keyed by its lowercased tag; ss, sta
    and dfs3 fix their own gate."""
    return {tag.lower(): SchemeSpec(tag, GATE_ANGLES["S"]) for tag in SCHEMES}


@dataclass(frozen=True)
class GateReport:
    """One run's figures; fidelity is measured against target, the 2x2
    gate the schedule was built to realize."""

    scheme_label: str
    fidelity: float
    pulse_area_pi: float
    peak_excited_population: float
    cyclic_residual: float
    parallel_residual: float
    duration: float
    metric: str
    target: np.ndarray

    def __post_init__(self):
        fields_ = (
            self.fidelity,
            self.pulse_area_pi,
            self.peak_excited_population,
            self.cyclic_residual,
            self.parallel_residual,
            self.duration,
        )
        if not all(np.isfinite(v) for v in fields_):
            raise ValueError("non-finite report field")
        if self.fidelity > 1 + 1e-9:
            raise ValueError(f"fidelity {self.fidelity} exceeds 1")


@dataclass(frozen=True)
class SweepResult:
    """Per scheme tag: six-state fidelity and peak monitored population at
    each grid point, (G,) arrays, plus the tag's pulse area (multiples of
    pi), duration and the RK4 steps it took."""

    axis: str
    grid: np.ndarray
    fixed: ErrorModel
    fidelity: dict[str, np.ndarray] = field(default_factory=dict)
    peak_excited_population: dict[str, np.ndarray] = field(default_factory=dict)
    pulse_area_pi: dict[str, float] = field(default_factory=dict)
    duration: dict[str, float] = field(default_factory=dict)
    steps: dict[str, int] = field(default_factory=dict)


def computational_block(actual: np.ndarray, system) -> np.ndarray:
    i0, i1 = system.computational_indices
    return actual[np.ix_((i0, i1), (i0, i1))]


def unitary_gate_fidelity(actual: np.ndarray, target: np.ndarray, system) -> float:
    """Two-design average gate fidelity of the computational block of a
    full-system propagator against a 2x2 target."""
    M = target.conj().T @ computational_block(actual, system)
    d = 2
    return float((np.trace(M @ M.conj().T).real + abs(np.trace(M)) ** 2) / (d * (d + 1)))


def overlap_gate_fidelity(actual: np.ndarray, target: np.ndarray, system) -> float:
    """Trace overlap |Tr(target^+ actual)|/2 on the computational block."""
    M = target.conj().T @ computational_block(actual, system)
    return float(abs(np.trace(M)) / 2)


def six_state_fidelity(schedule: PulseSchedule, rho: np.ndarray) -> float:
    """Mean <psi_k| T^+ rho_k T |psi_k> over the six axial states, T the
    schedule's target, given their final densities rho (6, d, d),
    propagated by any route from six_axial_densities(schedule.system)."""
    system, T = schedule.system, schedule.target
    comp = list(system.computational_indices)
    ideal = np.stack([system.embed_qubit(T @ s[comp]) for s in six_axial_states(system)])
    return float(np.einsum("ki,kij,kj->k", ideal.conj(), rho, ideal).real.mean())


def lindblad_gate_fidelity(
    schedule: PulseSchedule, err: ErrorModel, samples: int | None = None
) -> float:
    """Six-axial-state average <psi|T^+ rho(tau) T|psi>, T the schedule's
    target."""
    traj = propagate_lindblad(schedule, err, six_axial_densities(schedule.system), samples)
    return six_state_fidelity(schedule, traj.final)


def pulse_area(schedule: PulseSchedule) -> float:
    """Envelope integral over the schedule, in multiples of pi."""
    total = 0.0
    for seg in schedule.segments:
        s = np.linspace(0.0, seg.duration, PULSE_AREA_SAMPLES)
        total += float(np.trapezoid(np.asarray(seg.envelope(s), dtype=float), s))
    return total / PI


def _schedule(spec: SchemeSpec | PulseSchedule) -> PulseSchedule:
    """The schedule of spec, built unless spec is one already."""
    return spec if isinstance(spec, PulseSchedule) else build_schedule(spec)


def simulate_report(
    spec: SchemeSpec | PulseSchedule, err: ErrorModel = ErrorModel(), samples: int | None = None
) -> tuple[GateReport, object]:
    """Single-run report plus the captured trajectory."""
    schedule = _schedule(spec)
    closed = ErrorModel(epsilon=err.epsilon, eta=err.eta)
    if err.open_system:
        # samples counts Lindblad steps here; the residuals keep the
        # default unitary resolution
        cyc, par = condition_residuals(propagate_unitary(schedule, closed))
        traj = propagate_lindblad(schedule, err, six_axial_densities(schedule.system), samples)
        fid = six_state_fidelity(schedule, traj.final)
        metric = SIX_STATE_METRIC
    else:
        traj = propagate_unitary(schedule, closed, samples)
        cyc, par = condition_residuals(traj)
        fid = unitary_gate_fidelity(traj.final, schedule.target, schedule.system)
        metric = "two_design_average"
    report = GateReport(
        scheme_label=schedule.scheme_label,
        fidelity=fid,
        pulse_area_pi=pulse_area(schedule),
        peak_excited_population=float(traj.excited_population.max()),
        cyclic_residual=cyc,
        parallel_residual=par,
        duration=schedule.total_duration,
        metric=metric,
        target=schedule.target,
    )
    return report, traj


def sweep(
    specs: dict[str, SchemeSpec | PulseSchedule],
    axis: str,
    grid: np.ndarray,
    fixed: ErrorModel,
    samples: int | None = None,
) -> SweepResult:
    """Evaluate the six-state fidelity per scheme per grid point.

    epsilon/eta sweeps hold the decoherence rates of `fixed`; the
    decoherence sweep sets gamma_minus = gamma_z = value with eps = eta = 0,
    so it rejects nonzero fixed rates, which it would not apply.
    The axis only chooses each point's error model: every scheme takes one
    RK4 pass over the whole grid (propagate_lindblad_grid), whose generator
    is affine in the error parameters.  Evaluation order never affects
    values (each point is pure): a point reads the same, bit for bit, alone
    or inside a larger grid.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty sweep grid")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("sweep grid must be strictly increasing")
    points = {
        "epsilon": lambda x: replace(fixed, epsilon=x),
        "eta": lambda x: replace(fixed, eta=x),
        "decoherence": lambda x: ErrorModel(gamma_minus=x, gamma_z=x),
    }
    point = points.get(axis)
    if point is None:
        raise ValueError(f"unknown axis {axis!r}; valid: {', '.join(points)}")
    if axis == "decoherence" and fixed.open_system:
        raise ValueError(f"the decoherence axis sets both rates from its grid; fixed "
                         f"gamma_minus={fixed.gamma_minus:g} and gamma_z={fixed.gamma_z:g} "
                         f"must be 0")
    errs = [point(float(x)) for x in grid]
    result = SweepResult(axis=axis, grid=grid, fixed=fixed)
    for tag, spec in specs.items():
        schedule = _schedule(spec)
        final, peak, steps = propagate_lindblad_grid(
            schedule, errs, six_axial_densities(schedule.system), samples)
        fid = np.array([six_state_fidelity(schedule, rho) for rho in final])
        if fid.max() > 1 + 1e-9:
            raise ValueError(f"fidelity {fid.max()} exceeds 1")
        result.fidelity[tag] = fid
        result.peak_excited_population[tag] = peak
        result.pulse_area_pi[tag] = pulse_area(schedule)
        result.duration[tag] = schedule.total_duration
        result.steps[tag] = steps
    return result


def fit_leading_order(
    spec: SchemeSpec | PulseSchedule,
    eps_grid: np.ndarray | None = None,
    samples: int | None = None,
) -> tuple[float, float]:
    """Least-squares (c2, c4) of 1 - F = c2 e^2 + c4 e^4 over a small Rabi
    error grid at zero detuning and decoherence, under the trace-overlap
    metric (the one the closed-form expansions are written in)."""
    if eps_grid is None:
        eps_grid = np.linspace(-0.05, 0.05, 11)
    eps_grid = np.asarray(eps_grid, dtype=float)
    if eps_grid.size < 3:
        raise ValueError("epsilon grid too small for a two-term fit")
    if np.abs(eps_grid).max() > 0.05 + 1e-12:
        raise ValueError("fit grid must satisfy |epsilon| <= 0.05")
    if len(np.unique(np.abs(eps_grid[eps_grid != 0]))) < 2:
        # e^2 and e^4 are proportional on one |epsilon|: a rank-deficient fit
        raise ValueError("epsilon grid needs two distinct nonzero |epsilon| for a two-term fit")
    schedule = _schedule(spec)
    infid = []
    for e in eps_grid:
        traj = propagate_unitary(schedule, ErrorModel(epsilon=float(e)), samples)
        infid.append(1.0 - overlap_gate_fidelity(traj.final, schedule.target, schedule.system))
    A = np.vstack([eps_grid**2, eps_grid**4]).T
    sol, *_ = np.linalg.lstsq(A, np.asarray(infid), rcond=None)
    return float(sol[0]), float(sol[1])


def table1_rows() -> list[dict]:
    """Computed pulse areas next to the published values for every
    comparison scheme; the TO row carries all three area conventions."""
    rows = []
    catalog = benchmark_catalog()
    for tag in TABLE1_TAGS:
        schedule = build_schedule(catalog[tag])
        area = pulse_area(schedule)
        row = {
            "tag": tag,
            "label": schedule.scheme_label,
            "area_pi": area,
            "published": TABLE1_AREAS_PI[tag],
            "duration": schedule.total_duration,
        }
        if "area_conventions_pi" in schedule.notes:
            row["area_conventions_pi"] = schedule.notes["area_conventions_pi"]
        rows.append(row)
    return rows
