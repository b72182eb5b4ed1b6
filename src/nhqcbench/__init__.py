"""Pulse-level simulator and robustness benchmark for holonomic quantum gates."""

from .system import (
    ErrorModel,
    GateAngles,
    LevelSystem,
    PulseSchedule,
    Segment,
    bright_dark_basis,
    bright_ray_segment,
)
from .schemes import (
    SCHEMES,
    SchemeSpec,
    brachistochrone_tau,
    build_schedule,
    circle_path_params,
    dfs3_schedule,
    ps_design,
    rotation_gate,
    sta_schedule,
)
from .dynamics import (
    Trajectory,
    oracle_propagate_lindblad,
    oracle_propagate_unitary,
    propagate_lindblad,
    propagate_lindblad_grid,
    propagate_unitary,
)
from .holonomy import (
    condition_residuals,
    frame_connection,
    holonomy_reconstruct,
)
from .bench import (
    GateReport,
    SweepResult,
    benchmark_catalog,
    fit_leading_order,
    lindblad_gate_fidelity,
    overlap_gate_fidelity,
    pulse_area,
    sweep,
    unitary_gate_fidelity,
)

__all__ = [
    "ErrorModel",
    "GateAngles",
    "GateReport",
    "LevelSystem",
    "PulseSchedule",
    "SCHEMES",
    "SchemeSpec",
    "Segment",
    "SweepResult",
    "Trajectory",
    "benchmark_catalog",
    "brachistochrone_tau",
    "bright_dark_basis",
    "bright_ray_segment",
    "build_schedule",
    "circle_path_params",
    "condition_residuals",
    "dfs3_schedule",
    "fit_leading_order",
    "frame_connection",
    "holonomy_reconstruct",
    "lindblad_gate_fidelity",
    "oracle_propagate_lindblad",
    "oracle_propagate_unitary",
    "overlap_gate_fidelity",
    "propagate_lindblad",
    "propagate_lindblad_grid",
    "propagate_unitary",
    "ps_design",
    "pulse_area",
    "rotation_gate",
    "sta_schedule",
    "sweep",
    "unitary_gate_fidelity",
]

__version__ = "0.1.0"
