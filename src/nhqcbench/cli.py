"""Command-line front end.

Subcommands: simulate, sweep, table1, fig13, check, goldens.  All data
files are CSV with a `#`-prefixed metadata header naming the fidelity
metric, sample counts, and unit mode; reruns are byte-identical.  A JSON
config file can mirror any flag; explicit flags win.

Exit codes: 0 success, 2 usage error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bench import (
    FIG13_GAMMA,
    GATE_ANGLES,
    OMEGA_BAR_HZ,
    TABLE1_TAGS,
    benchmark_catalog,
    pulse_area,
    simulate_report,
    sweep,
    table1_rows,
)
from .dynamics import (
    default_samples,
    oracle_propagate_lindblad,
    oracle_propagate_unitary,
    propagate_unitary,
    six_axial_states,
)
from .holonomy import (
    condition_residuals,
    reconstruct_computational_gate,
)
from .numkit import TimeGrid
from .schemes import build_schedule
from .system import ErrorModel, GateAngles, SchemeSpec

TIME_UNIT_NS = 1e9 / OMEGA_BAR_HZ  # one unit of 1/omega_bar, in ns

GOLDEN_VERSION = "v1"
GOLDEN_ORACLE_SLICES = 4000


class UsageError(Exception):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _parse_gate(text: str) -> GateAngles:
    if text in GATE_ANGLES:
        return GATE_ANGLES[text]
    if text.startswith("custom:"):
        parts = text[len("custom:"):].split(",")
        if len(parts) != 3:
            raise UsageError(f"custom gate needs gamma,theta,phi; got {text!r}")
        try:
            g, t, p = (float(v) for v in parts)
            return GateAngles(g, t, p)
        except ValueError as exc:
            raise UsageError(f"bad custom gate {text!r}: {exc}") from None
    raise UsageError(
        f"unknown gate {text!r}; valid: {', '.join(GATE_ANGLES)} or custom:g,t,p"
    )


def _parse_range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"range must be a:b:n, got {text!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"range must be a:b:n with numeric fields, got {text!r}") from None
    if n < 1 or b <= a:
        raise UsageError(f"range needs b > a and n >= 1, got {text!r}")
    return np.linspace(a, b, n)


def _resolve_spec(tag: str, angles: GateAngles | None = None) -> SchemeSpec:
    catalog = benchmark_catalog()
    if tag not in catalog:
        raise UsageError(f"unknown scheme {tag!r}; valid: {', '.join(catalog)}")
    spec = catalog[tag]
    if angles is None:
        return spec
    from dataclasses import replace

    return replace(spec, angles=angles)


def _header_lines(**meta) -> list[str]:
    lines = [f"# nhqcbench {GOLDEN_VERSION}"]
    for k in sorted(meta):
        lines.append(f"# {k}={_fmt(meta[k])}")
    return lines


def _write_csv(path: Path, header_meta: dict, columns: list[str], rows: list[list]) -> None:
    lines = _header_lines(**header_meta)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _error_model(args) -> ErrorModel:
    return ErrorModel(
        epsilon=args.epsilon,
        eta=args.eta,
        gamma_minus=args.gamma_minus,
        gamma_z=args.gamma_z,
    )


def cmd_simulate(args) -> int:
    angles = _parse_gate(args.gate)
    spec = _resolve_spec(args.scheme, angles)
    err = _error_model(args)
    report, traj = simulate_report(spec, err, args.samples)
    unit = args.units
    scale = TIME_UNIT_NS if unit == "physical" else 1.0
    fields = {
        "scheme": report.scheme_label,
        "gate": args.gate,
        "fidelity": f"{report.fidelity:.6f}",
        "fidelity_metric": report.metric,
        "pulse_area_pi": f"{report.pulse_area_pi:.4f}",
        "peak_excited_population": f"{report.peak_excited_population:.6f}",
        "cyclic_residual": f"{report.cyclic_residual:.3e}",
        "parallel_residual": f"{report.parallel_residual:.3e}",
        "duration": f"{report.duration * scale:.6g}" + (" ns" if unit == "physical" else ""),
    }
    for k, v in fields.items():
        print(f"{k}={v}")
    out_dir = Path(args.out_dir)
    traj_path = out_dir / f"trajectory_{args.scheme}_{args.gate.replace(':', '_').replace(',', '_')}.csv"
    rows = [[t * scale, p] for t, p in zip(traj.times, traj.excited_population)]
    _write_csv(
        traj_path,
        {
            "kind": traj.kind,
            "metric": report.metric,
            "samples": default_samples(traj.kind) if args.samples is None else args.samples,
            "unit_mode": unit,
            "omega_bar": 1.0,
            "scheme": args.scheme,
        },
        ["time", "excited_population"],
        rows,
    )
    report_path = out_dir / f"report_{args.scheme}_{args.gate.replace(':', '_').replace(',', '_')}.json"
    payload = {
        "scheme": report.scheme_label,
        "gate": args.gate,
        "fidelity": report.fidelity,
        "metric": report.metric,
        "pulse_area_pi": report.pulse_area_pi,
        "peak_excited_population": report.peak_excited_population,
        "cyclic_residual": report.cyclic_residual,
        "parallel_residual": report.parallel_residual,
        "duration": report.duration,
        "unit_mode": unit,
        "error_model": {
            "epsilon": err.epsilon,
            "eta": err.eta,
            "gamma_minus": err.gamma_minus,
            "gamma_z": err.gamma_z,
        },
    }
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"trajectory_file={traj_path}")
    print(f"report_file={report_path}")
    return 0


def _sweep_rows(result) -> tuple[list[str], list[list]]:
    columns = ["scheme", "value", "fidelity", "pulse_area_pi", "duration",
               "peak_excited_population"]
    rows = []
    for tag in result.reports:
        for x, rep in zip(result.grid, result.reports[tag]):
            rows.append([tag, float(x), rep.fidelity, rep.pulse_area_pi,
                         rep.duration, rep.peak_excited_population])
    return columns, rows


def cmd_sweep(args) -> int:
    axis = {"epsilon": "epsilon", "eta": "eta", "decoherence": "gamma_decoherence"}.get(args.axis)
    if axis is None:
        raise UsageError(f"unknown axis {args.axis!r}; valid: epsilon, eta, decoherence")
    grid = _parse_range(args.range)
    tags = [t.strip() for t in args.schemes.split(",") if t.strip()]
    catalog = benchmark_catalog()
    specs = {}
    for t in tags:
        if t not in catalog:
            raise UsageError(f"unknown scheme {t!r}; valid: {', '.join(catalog)}")
        specs[t] = catalog[t]
    fixed = ErrorModel(gamma_minus=args.gamma_minus, gamma_z=args.gamma_z)
    result = sweep(specs, axis, grid, fixed, args.samples)
    columns, rows = _sweep_rows(result)
    meta = {
        "metric": "six_axial_state_average",
        "samples": default_samples("lindblad") if args.samples is None else args.samples,
        "unit_mode": args.units,
        "omega_bar": 1.0,
        "axis": args.axis,
        "fixed_gamma_minus": fixed.gamma_minus,
        "fixed_gamma_z": fixed.gamma_z,
    }
    out = Path(args.out) if args.out else Path(args.out_dir) / f"sweep_{args.axis}.csv"
    _write_csv(out, meta, columns, rows)
    print(f"rows={len(rows)}")
    print(f"sweep_file={out}")
    return 0


def cmd_table1(args) -> int:
    rows = table1_rows()
    print("scheme areas (multiples of pi); published values alongside")
    out_rows = []
    for row in rows:
        extra = ""
        if "area_conventions_pi" in row:
            conv = row["area_conventions_pi"]
            extra = (f"  [conventions: coupling={conv['coupling']:.3f}, "
                     f"amplitude={conv['amplitude_envelope']:.3f}, "
                     f"published={conv['published']:.2f}; excluded from matching]")
        print(f"{row['label']}, area_pi={row['area_pi']:.3f}, "
              f"published={row['published']:.2f}{extra}")
        out_rows.append([row["tag"], row["label"], row["area_pi"], row["published"],
                         row["area_pi"] - row["published"]])
    if args.out:
        _write_csv(
            Path(args.out),
            {"metric": "pulse_area", "unit_mode": "dimensionless", "omega_bar": 1.0,
             "samples": 4001},
            ["tag", "label", "area_pi", "published", "difference"],
            out_rows,
        )
        print(f"table_file={args.out}")
    return 0


def cmd_fig13(args) -> int:
    panel = args.panel
    catalog = benchmark_catalog()
    specs = {t: catalog[t] for t in TABLE1_TAGS}
    n = args.points
    if panel == "a":
        grid = np.linspace(0.0, 6e-4, n)
        grid[0] = 1e-12  # strictly increasing from a decoherence-free start
        result = sweep(specs, "gamma_decoherence", grid, ErrorModel(), args.samples)
        axis_name = "decoherence"
    elif panel == "b":
        grid = np.linspace(-0.1, 0.1, n)
        fixed = ErrorModel(gamma_minus=FIG13_GAMMA, gamma_z=FIG13_GAMMA)
        result = sweep(specs, "epsilon", grid, fixed, args.samples)
        axis_name = "epsilon"
    elif panel == "c":
        grid = np.linspace(-0.1, 0.1, n)
        fixed = ErrorModel(gamma_minus=FIG13_GAMMA, gamma_z=FIG13_GAMMA)
        result = sweep(specs, "eta", grid, fixed, args.samples)
        axis_name = "eta"
    else:
        raise UsageError(f"unknown panel {panel!r}; valid: a, b, c")
    columns, rows = _sweep_rows(result)
    meta = {
        "metric": "six_axial_state_average",
        "samples": default_samples("lindblad") if args.samples is None else args.samples,
        "unit_mode": args.units,
        "omega_bar": 1.0,
        "panel": panel,
        "axis": axis_name,
        "fixed_gamma_minus": result.fixed.gamma_minus,
        "fixed_gamma_z": result.fixed.gamma_z,
    }
    out = Path(args.out) if args.out else Path(args.out_dir) / f"fig13{panel}.csv"
    _write_csv(out, meta, columns, rows)
    print(f"rows={len(rows)}")
    print(f"data_file={out}")
    return 0


def cmd_check(args) -> int:
    spec = _resolve_spec(args.scheme)
    schedule = build_schedule(spec)
    traj = propagate_unitary(schedule, ErrorModel(), args.samples)
    cyc, par = condition_residuals(schedule, traj)
    U_oracle = oracle_propagate_unitary(schedule)
    defect = float(np.abs(traj.final - U_oracle).max())
    print(f"scheme={schedule.scheme_label}")
    print(f"cyclic_residual={cyc:.3e}")
    print(f"parallel_residual={par:.3e}")
    print(f"rk4_vs_oracle={defect:.3e}")
    if schedule.frame is not None:
        grid = TimeGrid(0.0, schedule.total_duration, 4096)
        U_rec = reconstruct_computational_gate(schedule, grid)
        comp = list(schedule.system.computational_indices)
        U_prop = traj.final[np.ix_(comp, comp)]
        ov = np.trace(U_rec.conj().T @ U_prop) / 2
        rec_defect = float(np.abs(U_prop - (ov / abs(ov)) * U_rec).max()) if abs(ov) > 0 else 1.0
        print(f"holonomy_reconstruction_defect={rec_defect:.3e}")
    if "dyn_geo_ratio" in schedule.notes:
        print(f"dyn_geo_ratio={schedule.notes['dyn_geo_ratio']:.6f}")
    return 0


def cmd_goldens(args) -> int:
    if not args.regenerate:
        print("nothing to do (use --regenerate)")
        return 0
    out_dir = Path(args.dir)
    catalog = benchmark_catalog()
    grid = np.linspace(-0.1, 0.1, 41)
    fixed = ErrorModel(gamma_minus=FIG13_GAMMA, gamma_z=FIG13_GAMMA)
    rows = []
    for tag in ("sl", "ps", "dc"):
        schedule = build_schedule(catalog[tag])
        area = pulse_area(schedule)
        states = six_axial_states(schedule.system)
        rho0 = np.einsum("ki,kj->kij", states, states.conj())
        comp = list(schedule.system.computational_indices)
        ideal = np.stack([
            schedule.system.embed_qubit(schedule.target @ s[comp]) for s in states
        ])
        for x in grid:
            err = ErrorModel(epsilon=float(x), gamma_minus=fixed.gamma_minus,
                             gamma_z=fixed.gamma_z)
            rho_fin = oracle_propagate_lindblad(schedule, err, rho0,
                                                slices=GOLDEN_ORACLE_SLICES)
            fids = np.einsum("ki,kij,kj->k", ideal.conj(), rho_fin, ideal).real
            rows.append([tag, float(x), float(fids.mean()), area,
                         schedule.total_duration])
        print(f"golden sweep: {tag} done")
    _write_csv(
        out_dir / "sweep_epsilon_sl_ps_dc.csv",
        {
            "metric": "six_axial_state_average",
            "oracle": "cf4_superoperator_expm",
            "oracle_slices": GOLDEN_ORACLE_SLICES,
            "unit_mode": "dimensionless",
            "omega_bar": 1.0,
            "axis": "epsilon",
            "fixed_gamma_minus": fixed.gamma_minus,
            "fixed_gamma_z": fixed.gamma_z,
        },
        ["scheme", "value", "fidelity", "pulse_area_pi", "duration"],
        rows,
    )
    # frozen single-point value: SL S gate at the published decoherence rates
    schedule = build_schedule(catalog["sl"])
    states = six_axial_states(schedule.system)
    rho0 = np.einsum("ki,kj->kij", states, states.conj())
    comp = list(schedule.system.computational_indices)
    ideal = np.stack([schedule.system.embed_qubit(schedule.target @ s[comp]) for s in states])
    rho_fin = oracle_propagate_lindblad(schedule, fixed, rho0, slices=GOLDEN_ORACLE_SLICES)
    fid = float(np.einsum("ki,kij,kj->k", ideal.conj(), rho_fin, ideal).real.mean())
    point = {
        "scheme": "sl",
        "gate": "S",
        "gamma_minus": fixed.gamma_minus,
        "gamma_z": fixed.gamma_z,
        "metric": "six_axial_state_average",
        "oracle": "cf4_superoperator_expm",
        "oracle_slices": GOLDEN_ORACLE_SLICES,
        "fidelity": fid,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "sl_fig13_point.json").write_text(
        json.dumps(point, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    # reference pulse areas
    t_rows = [[r["tag"], r["label"], r["area_pi"], r["published"]] for r in table1_rows()]
    _write_csv(
        out_dir / "table1.csv",
        {"metric": "pulse_area", "unit_mode": "dimensionless", "omega_bar": 1.0,
         "samples": 4001},
        ["tag", "label", "area_pi", "published"],
        t_rows,
    )
    print(f"golden_dir={out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhqcbench",
        description="Simulate and benchmark holonomic-gate control schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--samples", type=int, default=None,
                       help="integrator steps (default: 2000 unitary / 4000 open; "
                            "NHQC_SAMPLES overrides)")
        p.add_argument("--units", choices=["dimensionless", "physical"],
                       default=None, help="output unit mode")
        p.add_argument("--out-dir", default=None, help="output directory")
        p.add_argument("--config", default=None, help="JSON config mirroring flags")

    p = sub.add_parser("simulate", help="single gate run with a full report")
    p.add_argument("--scheme", required=True)
    p.add_argument("--gate", required=True,
                   help="S|T|sqrtH|NOT|H|custom:gamma,theta,phi")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--gamma-minus", type=float, default=None)
    p.add_argument("--gamma-z", type=float, default=None)
    add_common(p)

    p = sub.add_parser("sweep", help="error/decoherence sweep over schemes")
    p.add_argument("--axis", required=True)
    p.add_argument("--range", required=True, help="a:b:n")
    p.add_argument("--schemes", required=True, help="comma-separated tags")
    p.add_argument("--gamma-minus", type=float, default=None)
    p.add_argument("--gamma-z", type=float, default=None)
    p.add_argument("--out", default=None)
    add_common(p)

    p = sub.add_parser("table1", help="pulse-area table with published values")
    p.add_argument("--out", default=None)
    add_common(p)

    p = sub.add_parser("fig13", help="benchmark sweep data for one panel")
    p.add_argument("panel", choices=["a", "b", "c"])
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--out", default=None)
    add_common(p)

    p = sub.add_parser("check", help="numerical-hygiene report for one scheme")
    p.add_argument("--scheme", required=True)
    add_common(p)

    p = sub.add_parser("goldens", help="regenerate oracle-produced golden files")
    p.add_argument("--regenerate", action="store_true")
    p.add_argument("--dir", default=None)
    add_common(p)

    return parser


_DEFAULTS = {
    "epsilon": 0.0,
    "eta": 0.0,
    "gamma_minus": 0.0,
    "gamma_z": 0.0,
    "units": "dimensionless",
    "out_dir": "out",
    "points": 9,
    "dir": f"goldens/{GOLDEN_VERSION}",
}


def _apply_config(args) -> None:
    """Fill None-valued options from the config file, then from defaults."""
    config = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file {path} not found")
        config = json.loads(path.read_text(encoding="utf-8"))
    for key, value in vars(args).items():
        if value is None:
            if key in config:
                setattr(args, key, config[key])
            elif key in _DEFAULTS:
                setattr(args, key, _DEFAULTS[key])


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "simulate": cmd_simulate,
        "sweep": cmd_sweep,
        "table1": cmd_table1,
        "fig13": cmd_fig13,
        "check": cmd_check,
        "goldens": cmd_goldens,
    }
    try:
        _apply_config(args)
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
