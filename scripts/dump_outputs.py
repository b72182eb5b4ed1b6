"""Dump the full numerical outputs of every catalog scheme, or compare two dumps.

    python scripts/dump_outputs.py OUT.npz
    python scripts/dump_outputs.py --compare A.npz B.npz
    python scripts/dump_outputs.py --oracle-error
    python scripts/dump_outputs.py --reference PATH

The dump holds, per scheme, the arrays a numerical change must keep within
1e-12 of the previous outputs: what the schedule carries (its target, the
segment durations, the `Segment.square` flags and every numeric entry of
`notes`, nested ones included) and its `pulse_area`; H nodes and the full
RK4 propagator
trajectory (both at epsilon = 0.03, eta = -0.02), the unitary oracle and
the (cyclic, parallel) condition residuals of that trajectory, under the
errors it records, the auxiliary frame, the holonomy reconstruction `check` prints,
and the six-axial-state Lindblad trajectory (epsilon = 0.05, gamma_minus =
gamma_z = 3e-4; schemes with an excited level).  H nodes and
frames are sampled segment by segment in local time, each segment on its
allocate_steps share of 4000 (H) or 4096 (frame) intervals, both ends
included.  The oracle Lindblad final states of sl, ps and dc at the golden
4000 slices are included too, and so are the six-state fidelities and peak
populations of two grid sweeps at the default 4000 steps: the 41-point
epsilon sweep of sl, ps and dc at gamma_minus = gamma_z = 3e-4, the
`fig13 a` decoherence sweep (9 points) and the closed 9-point epsilon sweep
of dfs3 (the d = 8 Lindblad grid).  `--compare` prints max |A - B| per key
and exits 1 if the key sets or the shape of any array differ, or if any key
deviates by more than BOUND = 1e-12 or reads NaN; the line of such a key
ends in "exceeds 1e-12".
`--oracle-error` prints, per scheme, max |U_oracle - U_ref| of the unitary
oracle at the ideal and the closed-system errors above, where U_ref is the
same product of CF4 slice exponentials evaluated in clongdouble, and then,
for sl, ps and dc
at the golden point (gamma_minus = gamma_z = 3e-4, 4000 slices), max
|rho_oracle - rho_ref| of the Lindblad oracle's six axial states, where
rho_ref is the same product of CF4 slice exponents evaluated in clongdouble
(about a minute).
`--reference` writes the outputs of `reference`, the oracle and RK4 final
states, residuals, reconstructions and three points of each sweep, to PATH
as JSON, one key per line, each entry a pair [re, im] of floats in repr,
so that a diff of two such files shows every number that moved;
tests/data/reference.json is one, which the tests hold every later change
to within BOUND.
"""
import argparse
import json
import sys
from pathlib import Path

import numpy as np

from nhqcbench import dynamics
from nhqcbench.bench import FIG13_GAMMA, TABLE1_TAGS, benchmark_catalog, pulse_area, sweep
from nhqcbench.dynamics import (
    ORACLE_LINDBLAD_SLICES,
    ORACLE_SLICE_FLOOR,
    ORACLE_SLICES,
    allocate_steps,
    lindblad_superoperator,
    oracle_propagate_lindblad,
    oracle_propagate_unitary,
    propagate_lindblad,
    propagate_unitary,
    six_axial_densities,
)
from nhqcbench.holonomy import condition_residuals, reconstruct_computational_gate
from nhqcbench.schemes import build_schedule
from nhqcbench.system import ErrorModel, segment_hamiltonian_nodes

BOUND = 1e-12  # the most an output may move under a numerical change
CLOSED = ErrorModel(epsilon=0.03, eta=-0.02)
OPEN = ErrorModel(epsilon=0.05, gamma_minus=3e-4, gamma_z=3e-4)
GOLDEN_TAGS = ("sl", "ps", "dc")
# name: (tags, axis, grid, fixed error model)
SWEEPS = {
    "sweep_epsilon": (GOLDEN_TAGS, "epsilon", np.linspace(-0.1, 0.1, 41),
                      ErrorModel(gamma_minus=FIG13_GAMMA, gamma_z=FIG13_GAMMA)),
    "fig13a": (TABLE1_TAGS, "decoherence", np.linspace(0.0, 6e-4, 9), ErrorModel()),
    "dfs3_epsilon": (("dfs3",), "epsilon", np.linspace(-0.1, 0.1, 9), ErrorModel()),
}


def per_segment(sched, intervals: int, sample) -> np.ndarray:
    """sample(k, local times) on each segment's share of `intervals`,
    both ends included, concatenated in segment order."""
    return np.concatenate([sample(k, np.linspace(0.0, seg.duration, n + 1)) for k, (seg, n)
                           in enumerate(zip(sched.segments, allocate_steps(sched, intervals)))])


def numeric_notes(prefix: str, notes: dict) -> dict:
    """The numeric entries of a schedule's notes, nested dicts flattened
    into keys prefix/name/..."""
    out = {}
    for name, value in notes.items():
        if isinstance(value, dict):
            out.update(numeric_notes(f"{prefix}/{name}", value))
        elif isinstance(value, (int, float, complex, np.number)):
            out[f"{prefix}/{name}"] = np.array(value)
    return out


def dump(path: str) -> None:
    arrays = {}
    for tag, spec in benchmark_catalog().items():
        sched = build_schedule(spec)
        arrays[f"{tag}/target"] = sched.target
        arrays[f"{tag}/durations"] = np.array([seg.duration for seg in sched.segments])
        arrays[f"{tag}/square"] = np.array([seg.square for seg in sched.segments], dtype=float)
        arrays[f"{tag}/pulse_area"] = np.array(pulse_area(sched))
        arrays.update(numeric_notes(f"{tag}/notes", sched.notes))
        arrays[f"{tag}/hnodes"] = per_segment(
            sched, 4000, lambda k, t: segment_hamiltonian_nodes(sched, k, t, CLOSED))
        traj = propagate_unitary(sched, CLOSED)
        arrays[f"{tag}/unitary"] = traj.operators
        arrays[f"{tag}/residuals"] = np.array(condition_residuals(traj))
        arrays[f"{tag}/oracle_unitary"] = oracle_propagate_unitary(sched, CLOSED)
        arrays[f"{tag}/frame"] = per_segment(sched, 4096, lambda k, t: sched.segments[k].frame(t))
        arrays[f"{tag}/reconstruction"] = reconstruct_computational_gate(sched)
        if sched.system.excited_index is None:
            continue
        rho0 = six_axial_densities(sched.system)
        arrays[f"{tag}/lindblad"] = propagate_lindblad(sched, OPEN, rho0).operators
        if tag in GOLDEN_TAGS:
            arrays[f"{tag}/oracle_lindblad"] = oracle_propagate_lindblad(sched, OPEN, rho0)
        print(f"{tag} done", file=sys.stderr)
    catalog = benchmark_catalog()
    for name, (tags, axis, grid, fixed) in SWEEPS.items():
        result = sweep({tag: catalog[tag] for tag in tags}, axis, grid, fixed)
        for tag in tags:
            arrays[f"{name}/{tag}/fidelity"] = result.fidelity[tag]
            arrays[f"{name}/{tag}/peak"] = result.peak_excited_population[tag]
        print(f"{name} done", file=sys.stderr)
    np.savez_compressed(path, **arrays)


def longdouble_oracle(sched, err: ErrorModel) -> np.ndarray:
    """The unitary oracle's CF4 product in clongdouble: the same H nodes at
    the two Gauss nodes of every slice, both exponents a H1 + b H2 and
    b H1 + a H2 formed in clongdouble, each exponential a degree-9 Taylor
    polynomial (truncation far below the long double roundoff at oracle
    slice norms) and a sequential product."""
    d = sched.system.dim
    eye = np.eye(d, dtype=np.clongdouble)
    a, b = np.longdouble(dynamics._CF4_A), np.longdouble(dynamics._CF4_B)
    U = eye.copy()
    chunk = 2048  # slices per batched polynomial
    alloc = allocate_steps(sched, ORACLE_SLICES, floor=ORACLE_SLICE_FLOOR)
    for si, (seg, n) in enumerate(zip(sched.segments, alloc)):
        h = seg.duration / n
        t0 = np.arange(n) * h
        H1, H2 = (segment_hamiltonian_nodes(sched, si, t0 + c * h, err).astype(np.clongdouble)
                  for c in (dynamics._CF4_C1, dynamics._CF4_C2))
        for c0 in range(0, n, chunk):
            H1c, H2c = H1[c0:c0 + chunk], H2[c0:c0 + chunk]
            Xs = np.stack([a * H1c + b * H2c, b * H1c + a * H2c], axis=1).reshape(-1, d, d)
            X = np.clongdouble(-1j) * np.longdouble(h) * Xs
            E = eye + X / 9
            for k in range(8, 0, -1):
                E = eye + (X @ E) / k
            for V in E:
                U = V @ U
    return U


def longdouble_lindblad_oracle(sched, err: ErrorModel, rho0: np.ndarray) -> np.ndarray:
    """The Lindblad oracle's CF4 product in clongdouble: the same
    superoperators at the two Gauss nodes of every slice, both exponents
    h (a L1 + b L2) and h (b L1 + a L2) formed in clongdouble, each a
    degree-12 Taylor polynomial (truncation far below the long double
    roundoff at slice norms ~ 1e-2), and a sequential product."""
    d2 = sched.system.dim ** 2
    eye = np.eye(d2, dtype=np.clongdouble)
    a, b = np.longdouble(dynamics._CF4_A), np.longdouble(dynamics._CF4_B)
    P = eye.copy()
    alloc = allocate_steps(sched, ORACLE_LINDBLAD_SLICES, floor=ORACLE_SLICE_FLOOR)
    for si, (seg, n) in enumerate(zip(sched.segments, alloc)):
        h = seg.duration / n
        t0 = np.arange(n) * h
        L1, L2 = (lindblad_superoperator(sched.system, err,
                                         segment_hamiltonian_nodes(sched, si, t0 + c * h, err))
                  .astype(np.clongdouble) for c in (dynamics._CF4_C1, dynamics._CF4_C2))
        X = np.longdouble(h) * np.stack([a * L1 + b * L2, b * L1 + a * L2], axis=1)
        E = eye + X / 12
        for k in range(11, 0, -1):
            E = eye + (X @ E) / k
        for V in E.reshape(-1, d2, d2):
            P = V @ P
    return (P @ rho0.astype(np.clongdouble).reshape(-1, d2, 1)).reshape(rho0.shape)


def oracle_error() -> None:
    catalog = benchmark_catalog()
    print("scheme,ideal,closed")
    for tag, spec in catalog.items():
        sched = build_schedule(spec)
        errs = [np.abs(oracle_propagate_unitary(sched, err) - longdouble_oracle(sched, err)).max()
                for err in (ErrorModel(), CLOSED)]
        print(f"{tag},{errs[0]:.3e},{errs[1]:.3e}", flush=True)
    print("scheme,lindblad_golden_point")
    golden = ErrorModel(gamma_minus=FIG13_GAMMA, gamma_z=FIG13_GAMMA)
    for tag in GOLDEN_TAGS:
        sched = build_schedule(catalog[tag])
        rho0 = six_axial_densities(sched.system)
        rho = oracle_propagate_lindblad(sched, golden, rho0)
        ref = longdouble_lindblad_oracle(sched, golden, rho0)
        print(f"{tag},{float(np.abs(rho - ref).max()):.3e}", flush=True)


def reference(oracle_gates=None, ideal_runs=None) -> dict:
    """key -> array of the outputs a reference file holds: for every
    catalog scheme, U(T) of the unitary oracle and of the RK4 run at the
    ideal and the CLOSED errors, the (cyclic, parallel) condition residuals
    of the ideal RK4 run and the holonomy reconstruction; for sl, ps and
    dc, the six axial final states of the Lindblad oracle (4000 slices) and
    of the RK4 run at the golden point (gamma_minus = gamma_z = 3e-4); and
    the six-state fidelities and peak populations of the three SWEEPS at
    their first, middle and last points, swept alone (a point reads the
    same bits alone or inside a grid).  oracle_gates, a map tag -> oracle
    U(T) at the ideal errors, and ideal_runs, a map tag -> ideal RK4
    trajectory at the default steps, save recomputing those."""
    golden = ErrorModel(gamma_minus=FIG13_GAMMA, gamma_z=FIG13_GAMMA)
    catalog = benchmark_catalog()
    out = {}
    for tag, spec in catalog.items():
        sched = build_schedule(spec)
        ideal = propagate_unitary(sched) if ideal_runs is None else ideal_runs[tag]
        out[f"{tag}/oracle_unitary/ideal"] = (
            oracle_propagate_unitary(sched) if oracle_gates is None else oracle_gates[tag])
        out[f"{tag}/oracle_unitary/closed"] = oracle_propagate_unitary(sched, CLOSED)
        out[f"{tag}/unitary/ideal"] = ideal.final
        out[f"{tag}/unitary/closed"] = propagate_unitary(sched, CLOSED).final
        out[f"{tag}/residuals/ideal"] = np.array(condition_residuals(ideal))
        out[f"{tag}/reconstruction"] = reconstruct_computational_gate(sched)
        if tag in GOLDEN_TAGS:
            rho0 = six_axial_densities(sched.system)
            out[f"{tag}/oracle_lindblad/golden"] = oracle_propagate_lindblad(sched, golden, rho0)
            out[f"{tag}/lindblad/golden"] = propagate_lindblad(sched, golden, rho0).final
    for name, (tags, axis, grid, fixed) in SWEEPS.items():
        points = grid[[0, len(grid) // 2, -1]]
        result = sweep({tag: catalog[tag] for tag in tags}, axis, points, fixed)
        for tag in tags:
            out[f"{name}/{tag}/fidelity"] = result.fidelity[tag]
            out[f"{name}/{tag}/peak"] = result.peak_excited_population[tag]
    return out


def write_reference(path: str) -> None:
    lines = [f"{json.dumps(key)}:"
             f"{json.dumps(np.stack([a.real, a.imag], -1).tolist(), separators=(',', ':'))}"
             for key, a in sorted(reference().items())]
    Path(path).write_text("{\n" + ",\n".join(lines) + "\n}\n")


def read_reference(path) -> dict:
    """The arrays of a file write_reference wrote, bit for bit, as complex
    arrays."""
    return {key: np.array(pairs, dtype=float).view(complex)[..., 0]
            for key, pairs in json.loads(Path(path).read_text()).items()}


def compare(a_path: str, b_path: str) -> int:
    a, b = np.load(a_path), np.load(b_path)
    if set(a.files) != set(b.files):
        print(f"key sets differ: {sorted(set(a.files) ^ set(b.files))}")
        return 1
    status = 0
    for key in sorted(a.files):
        if a[key].shape != b[key].shape:
            print(f"{key}: shape {a[key].shape} vs {b[key].shape}")
            status = 1
            continue
        deviation = np.abs(a[key] - b[key]).max()
        if deviation <= BOUND:  # NaN fails too
            print(f"{key}: {deviation:.3e}")
        else:
            print(f"{key}: {deviation:.3e} exceeds {BOUND:.0e}")
            status = 1
    return status


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", metavar="NPZ")
    parser.add_argument("--compare", action="store_true",
                        help="compare two dumps instead of writing one")
    parser.add_argument("--oracle-error", action="store_true",
                        help="print the oracles' errors against clongdouble products")
    parser.add_argument("--reference", metavar="PATH",
                        help="write the outputs of the reference file to PATH")
    args = parser.parse_args()
    if args.reference:
        if args.paths or args.compare or args.oracle_error:
            parser.error("--reference takes no other argument")
        write_reference(args.reference)
        sys.exit(0)
    if args.oracle_error:
        if args.paths or args.compare:
            parser.error("--oracle-error takes no other argument")
        oracle_error()
        sys.exit(0)
    if args.compare:
        if len(args.paths) != 2:
            parser.error("--compare takes two dumps")
        sys.exit(compare(*args.paths))
    if len(args.paths) != 1:
        parser.error("give one output path")
    dump(args.paths[0])
