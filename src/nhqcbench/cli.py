"""Command-line front end.

Subcommands: simulate, sweep, table1, fig13, check, goldens.  All data
files are CSV with a `#`-prefixed metadata header naming the fidelity
metric, sample counts, and unit mode; reruns are byte-identical.  A JSON
config file can mirror any flag; explicit flags win.

Exit codes: 0 success, 2 usage error (an unreadable config, an unwritable
output path, and a grid or a step count above its cap included), 3
numerical failure or a request too large to allocate.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .bench import (
    FIG13_GAMMA,
    GATE_ANGLES,
    OMEGA_BAR_HZ,
    PULSE_AREA_SAMPLES,
    SIX_STATE_METRIC,
    TABLE1_TAGS,
    benchmark_catalog,
    computational_block,
    pulse_area,
    simulate_report,
    six_state_fidelity,
    sweep,
    table1_rows,
)
from .dynamics import (
    LINDBLAD_SAMPLES,
    ORACLE_LINDBLAD_SLICES,
    ORACLE_SLICE_FLOOR,
    ORACLE_SLICES,
    UNITARY_SAMPLES,
    allocate_steps,
    oracle_propagate_lindblad,
    oracle_propagate_unitary,
    propagate_unitary,
    six_axial_densities,
)
from .holonomy import (
    RECONSTRUCTION_STEPS,
    condition_residuals,
    reconstruct_computational_gate,
)
from .schemes import SchemeSpec, build_schedule, rotation_gate
from .system import ErrorModel, GateAngles, PulseSchedule

TIME_UNIT_NS = 1e9 / OMEGA_BAR_HZ  # one unit of 1/omega_bar, in ns

GOLDEN_VERSION = "v1"
# the most points a sweep grid may hold: the grid is checked before any work
MAX_GRID_POINTS = 10_000
# the most integrator steps --samples may ask for, 25x the Lindblad default:
# checked once the config is merged, before any schedule is built
MAX_SAMPLES = 100_000


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
    if not np.isfinite([a, b, b - a]).all():
        raise UsageError(f"range needs finite a, b and b - a, got {text!r}")
    if n < 1 or b <= a:
        raise UsageError(f"range needs b > a and n >= 1, got {text!r}")
    return _grid(a, b, n, "--range")


def _grid(a: float, b: float, n: int, what: str) -> np.ndarray:
    if n > MAX_GRID_POINTS:
        raise UsageError(f"{what} asks for {n} grid points; at most {MAX_GRID_POINTS}")
    return np.linspace(a, b, n)


def _resolve_spec(tag: str, angles: GateAngles | None = None) -> SchemeSpec:
    catalog = benchmark_catalog()
    if tag not in catalog:
        raise UsageError(f"unknown scheme {tag!r}; valid: {', '.join(catalog)}")
    spec = catalog[tag]
    if angles is None:
        return spec
    return replace(spec, angles=angles)


def _header_lines(**meta) -> list[str]:
    lines = [f"# nhqcbench {GOLDEN_VERSION}"]
    for k in sorted(meta):
        lines.append(f"# {k}={_fmt(meta[k])}")
    return lines


def _csv_line(row: list) -> str:
    """One CSV row, each cell formatted by _fmt."""
    return ",".join(map(_fmt, row))


def _write_csv(path: Path, header_meta: dict, columns: list[str], lines) -> None:
    """Write the header, the column names and the formatted rows `lines`
    (strings, as _csv_line makes them)."""
    lines = [*_header_lines(**header_meta), ",".join(columns), *lines]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _warn_if_eta_idle(tag: str, schedule: PulseSchedule) -> None:
    """Warn on stderr that eta has no effect when the schedule's system has
    no excited level (dfs3): its runs are those of eta = 0."""
    if schedule.system.excited_index is None:
        print(f"warning: scheme {tag} has no excited level; eta has no effect on it",
              file=sys.stderr)


def cmd_simulate(args) -> int:
    angles = _parse_gate(args.gate)
    schedule = build_schedule(_resolve_spec(args.scheme, angles))
    err = ErrorModel(epsilon=args.epsilon, eta=args.eta, gamma_minus=args.gamma_minus,
                     gamma_z=args.gamma_z)
    report, traj = simulate_report(schedule, err, args.samples)
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
    stem = f"{args.scheme}_{args.gate.replace(':', '_').replace(',', '_')}"
    traj_path = out_dir / f"trajectory_{stem}.csv"
    # one format call for every row: the bytes _csv_line gives them
    cells = np.empty(2 * len(traj.times))
    cells[0::2], cells[1::2] = traj.times * scale, traj.excited_population
    lines = [("%.12g,%.12g\n" * len(traj.times) % tuple(cells.tolist()))[:-1]]
    _write_csv(
        traj_path,
        {
            "kind": traj.kind,
            "metric": report.metric,
            "samples": len(traj.times) - 1,
            "unit_mode": unit,
            "omega_bar": 1.0,
            "scheme": args.scheme,
        },
        ["time", "excited_population"],
        lines,
    )
    report_path = out_dir / f"report_{stem}.json"
    payload = {
        "scheme": report.scheme_label,
        "gate": args.gate,
        "fidelity": report.fidelity,
        "metric": report.metric,
        "pulse_area_pi": report.pulse_area_pi,
        "peak_excited_population": report.peak_excited_population,
        "cyclic_residual": report.cyclic_residual,
        "parallel_residual": report.parallel_residual,
        "duration": report.duration * scale,
        "unit_mode": unit,
        "error_model": asdict(err),
    }
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"trajectory_file={traj_path}")
    print(f"report_file={report_path}")
    # ss, sta and dfs3 fix their gate, or its angle, whatever --gate asks for
    requested = rotation_gate(angles.gamma, angles.theta, angles.phi)
    if 1 - abs(np.trace(requested.conj().T @ report.target)) / 2 > 1e-9:
        print(f"warning: scheme {args.scheme} does not realize the requested gate "
              f"{args.gate}; the fidelity is measured against the scheme's own target",
              file=sys.stderr)
    if err.eta:
        _warn_if_eta_idle(args.scheme, schedule)
    return 0


def _write_sweep(args, result, out: Path, **meta) -> None:
    """Write a sweep's CSV, durations in ns under --units physical and the
    steps each scheme took in the samples field, and print its row count;
    meta adds header fields."""
    scale = TIME_UNIT_NS if args.units == "physical" else 1.0
    rows = [[tag, float(x), float(f), result.pulse_area_pi[tag], result.duration[tag] * scale,
             float(p)]
            for tag, fid in result.fidelity.items()
            for x, f, p in zip(result.grid, fid, result.peak_excited_population[tag])]
    meta.update({
        "metric": SIX_STATE_METRIC,
        "samples": ",".join(f"{tag}:{n}" for tag, n in result.steps.items()),
        "unit_mode": args.units,
        "omega_bar": 1.0,
        "fixed_gamma_minus": result.fixed.gamma_minus,
        "fixed_gamma_z": result.fixed.gamma_z,
    })
    _write_csv(out, meta, ["scheme", "value", "fidelity", "pulse_area_pi", "duration",
                           "peak_excited_population"], map(_csv_line, rows))
    print(f"rows={len(rows)}")


def cmd_sweep(args) -> int:
    grid = _parse_range(args.range)
    tags = [t.strip() for t in args.schemes.split(",") if t.strip()]
    if not tags:
        raise UsageError(f"--schemes names no scheme, got {args.schemes!r}")
    schedules = {t: build_schedule(_resolve_spec(t)) for t in tags}
    fixed = ErrorModel(gamma_minus=args.gamma_minus, gamma_z=args.gamma_z)
    result = sweep(schedules, args.axis, grid, fixed, args.samples)
    out = Path(args.out) if args.out else Path(args.out_dir) / f"sweep_{args.axis}.csv"
    _write_sweep(args, result, out, axis=args.axis)
    print(f"sweep_file={out}")
    if args.axis == "eta":
        for t, schedule in schedules.items():
            _warn_if_eta_idle(t, schedule)
    return 0


# the header of both table1 files, `table1 --out` and the golden one
_TABLE1_META = {"metric": "pulse_area", "unit_mode": "dimensionless", "omega_bar": 1.0,
                "samples": PULSE_AREA_SAMPLES}


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
        _write_csv(Path(args.out), _TABLE1_META,
                   ["tag", "label", "area_pi", "published", "difference"],
                   map(_csv_line, out_rows))
        print(f"table_file={args.out}")
    return 0


_FIG13_DECOHERED = ErrorModel(gamma_minus=FIG13_GAMMA, gamma_z=FIG13_GAMMA)
# panel: (sweep axis, grid ends, fixed error model)
_FIG13_PANELS = {
    "a": ("decoherence", (0.0, 6e-4), ErrorModel()),
    "b": ("epsilon", (-0.1, 0.1), _FIG13_DECOHERED),
    "c": ("eta", (-0.1, 0.1), _FIG13_DECOHERED),
}


def cmd_fig13(args) -> int:
    panel = args.panel
    if args.points < 1:
        raise UsageError(f"--points must be >= 1, got {args.points}")
    axis, (a, b), fixed = _FIG13_PANELS[panel]
    catalog = benchmark_catalog()
    specs = {t: catalog[t] for t in TABLE1_TAGS}
    result = sweep(specs, axis, _grid(a, b, args.points, "--points"), fixed, args.samples)
    out = Path(args.out) if args.out else Path(args.out_dir) / f"fig13{panel}.csv"
    _write_sweep(args, result, out, panel=panel, axis=axis)
    print(f"data_file={out}")
    return 0


def cmd_check(args) -> int:
    schedule = build_schedule(_resolve_spec(args.scheme))
    traj = propagate_unitary(schedule, ErrorModel(), args.samples)
    cyc, par = condition_residuals(traj)
    # only the trajectory's end is read below: free the rest, the largest
    # array of the check, before the oracle and the reconstruction run
    U_final, rk4_steps = traj.final.copy(), traj.steps
    del traj
    U_oracle = oracle_propagate_unitary(schedule)
    defect = float(np.abs(U_final - U_oracle).max())
    print(f"scheme={schedule.scheme_label}")
    # the steps per segment of each route, as allocate_steps gives them to it
    allocations = {"rk4_steps": rk4_steps,
                   "oracle_slices": allocate_steps(schedule, ORACLE_SLICES, ORACLE_SLICE_FLOOR),
                   "reconstruction_steps": allocate_steps(schedule, RECONSTRUCTION_STEPS)}
    for key, steps in allocations.items():
        print(f"{key}={','.join(map(str, steps))}")
    print(f"cyclic_residual={cyc:.3e}")
    print(f"parallel_residual={par:.3e}")
    print(f"rk4_vs_oracle={defect:.3e}")
    U_rec = reconstruct_computational_gate(schedule)
    U_prop = computational_block(U_final, schedule.system)
    ov = np.trace(U_rec.conj().T @ U_prop) / 2
    rec_defect = float(np.abs(U_prop - (ov / abs(ov)) * U_rec).max()) if abs(ov) > 0 else 1.0
    print(f"holonomy_reconstruction_defect={rec_defect:.3e}")
    if "dyn_geo_ratio" in schedule.notes:
        print(f"dyn_geo_ratio={schedule.notes['dyn_geo_ratio']:.6f}")
    return 0


def _oracle_fidelity(schedule, err: ErrorModel) -> float:
    """Six-state fidelity through the oracle route at its default slice count."""
    rho = oracle_propagate_lindblad(schedule, err, six_axial_densities(schedule.system))
    return six_state_fidelity(schedule, rho)


def cmd_goldens(args) -> int:
    if not args.regenerate:
        print("nothing to do (use --regenerate)")
        return 0
    out_dir = Path(args.dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # fail before the oracle work
    catalog = benchmark_catalog()
    grid = np.linspace(-0.1, 0.1, 41)
    fixed = _FIG13_DECOHERED
    rows = []
    for tag in ("sl", "ps", "dc"):
        schedule = build_schedule(catalog[tag])
        area = pulse_area(schedule)
        for x in grid:
            rows.append([tag, float(x), _oracle_fidelity(schedule, replace(fixed, epsilon=float(x))),
                         area, schedule.total_duration])
        print(f"golden sweep: {tag} done")
    oracle = {"metric": SIX_STATE_METRIC, "oracle": "cf4_superoperator_expm",
              "oracle_slices": ORACLE_LINDBLAD_SLICES}
    _write_csv(
        out_dir / "sweep_epsilon_sl_ps_dc.csv",
        {
            **oracle,
            "unit_mode": "dimensionless",
            "omega_bar": 1.0,
            "axis": "epsilon",
            "fixed_gamma_minus": fixed.gamma_minus,
            "fixed_gamma_z": fixed.gamma_z,
        },
        ["scheme", "value", "fidelity", "pulse_area_pi", "duration"],
        map(_csv_line, rows),
    )
    # frozen single-point value: SL S gate at the published decoherence rates
    fid = _oracle_fidelity(build_schedule(catalog["sl"]), fixed)
    point = {
        **oracle,
        "scheme": "sl",
        "gate": "S",
        "gamma_minus": fixed.gamma_minus,
        "gamma_z": fixed.gamma_z,
        "fidelity": fid,
    }
    (out_dir / "sl_fig13_point.json").write_text(
        json.dumps(point, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    # reference pulse areas
    t_rows = [[r["tag"], r["label"], r["area_pi"], r["published"]] for r in table1_rows()]
    _write_csv(out_dir / "table1.csv", _TABLE1_META, ["tag", "label", "area_pi", "published"],
               map(_csv_line, t_rows))
    print(f"golden_dir={out_dir}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of main, built once: every option defaults to None or
    False, so each parse_args call still starts from a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="nhqcbench",
        description="Simulate and benchmark holonomic-gate control schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", default=None, help="JSON config mirroring optional flags")

    def add_common(p, units=True, out_dir_help="output directory"):
        p.add_argument("--samples", type=int, default=None,
                       help=f"integrator steps (default: {UNITARY_SAMPLES} unitary / "
                            f"{LINDBLAD_SAMPLES} open)")
        if units:
            p.add_argument("--units", choices=["dimensionless", "physical"],
                           default=None, help="output unit mode")
        p.add_argument("--out-dir", default=None, help=out_dir_help)
        add_config(p)

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
    add_config(p)

    p = sub.add_parser("fig13", help="benchmark sweep data for one panel")
    p.add_argument("panel", choices=["a", "b", "c"])
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--out", default=None)
    add_common(p)

    p = sub.add_parser("check", help="numerical-hygiene report for one scheme")
    p.add_argument("--scheme", required=True)
    add_common(p, units=False, out_dir_help="accepted and unused: check writes no file")

    p = sub.add_parser("goldens", help="regenerate oracle-produced golden files")
    p.add_argument("--regenerate", action="store_true")
    p.add_argument("--dir", default=None)
    add_config(p)

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


# JSON value types that fit an option of each argparse type (str when None)
_JSON_TYPES = {int: (int,), float: (int, float), None: (str,)}


def _apply_config(args, parser: argparse.ArgumentParser) -> None:
    """Fill None-valued options from the config file, then from defaults.

    The config must be a JSON object whose keys are optional flags of the
    subcommand, each value of the flag's type; a required flag is read from
    the command line only.
    """
    config = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file {path} not found")
        try:
            config = json.loads(path.read_text(encoding="utf-8"))
        except RecursionError:  # a RuntimeError, which main reports as numerical
            raise UsageError(f"config file {path} nests too deeply") from None
        if not isinstance(config, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
        sub = next(a for a in parser._actions if a.dest == "command")
        options = {a.dest: a for a in sub.choices[args.command]._actions
                   if a.option_strings and a.dest not in ("help", "config")}
        for key, value in config.items():
            action = options.get(key)
            if action is None:
                raise UsageError(f"config key {key!r} is not an option of {args.command}")
            if action.required:  # argparse has already taken it from the command line
                raise UsageError(f"config key {key!r} names the required flag "
                                 f"{action.option_strings[0]}; give it on the command line")
            # type(), not isinstance(): a JSON bool is no number
            fits = (bool,) if action.nargs == 0 else _JSON_TYPES[action.type]
            misfit = UsageError(f"config value {value!r} does not fit option {key!r}")
            if type(value) not in fits or (action.choices and value not in action.choices):
                raise misfit
            if action.type is float:  # a JSON integer too, as argparse converts a flag
                try:
                    config[key] = float(value)
                except OverflowError:  # an integer beyond the float range
                    raise misfit from None
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
        _apply_config(args, parser)
        samples = getattr(args, "samples", None)
        if samples is not None and samples > MAX_SAMPLES:
            raise UsageError(f"--samples asks for {samples} steps; at most {MAX_SAMPLES}")
        return handlers[args.command](args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
