"""Write the reference file of every catalog scheme's outputs, or print the oracles' errors.

    python scripts/dump_outputs.py --reference PATH
    python scripts/dump_outputs.py --oracle-error

`--reference` writes the outputs of `reference` to PATH as JSON, one key
per line, each entry a nested list of pairs [re, im] of floats in repr, so
that a diff of two such files shows every number that moved.  They are the
outputs a numerical change must keep within BOUND = 1e-12: what each
schedule carries, the oracle and RK4 final states, residuals,
reconstructions, the H nodes, RK4 and Lindblad trajectories and auxiliary
frames as summaries (the first, middle and last row of every segment and a
fixed-weight sum over all rows), and three points of each sweep.
tests/data/reference.json is one, and a tier-1 test holds every later
change to it within BOUND; a change that moves an output within the bound
rewrites that file by this script.
`--oracle-error` prints, per scheme, max |U_oracle - U_ref| of the unitary
oracle at the ideal and the closed-system errors, where U_ref is the same
product of CF4 slice exponentials evaluated in clongdouble, and then, for
sl, ps and dc at the golden point (gamma_minus = gamma_z = 3e-4, 4000
slices), max |rho_oracle - rho_ref| of the Lindblad oracle's six axial
states, where rho_ref is the same product of CF4 slice exponents evaluated
in clongdouble (about 8 s on a 2-core machine).
"""
import argparse
import json
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


def per_segment(sched, intervals: int, sample) -> list:
    """sample(k, local times) on each segment's share of `intervals`, both
    ends included, one block of rows per segment in segment order."""
    return [sample(k, np.linspace(0.0, seg.duration, n + 1)) for k, (seg, n)
            in enumerate(zip(sched.segments, allocate_steps(sched, intervals)))]


def segment_blocks(traj) -> list:
    """The states of the RK4 run traj, one block of rows per segment, both
    ends included: a state on a boundary ends one block and starts the
    next."""
    ends = np.cumsum((0,) + traj.steps)
    return [traj.operators[a:b + 1] for a, b in zip(ends[:-1], ends[1:])]


def summary(prefix: str, blocks) -> dict:
    """prefix/rows, the first, middle and last row of every block, and
    prefix/sum, the mean of the rows of all blocks together.  Its weights
    are positive and sum to 1, so by the triangle inequality it moves by at
    most BOUND when no entry of any row moves by more, and a move spread
    over the rows that prefix/rows skips still shows in it.  The mean is
    taken of a C-ordered copy, so its bits do not depend on the blocks'
    memory layout (a broadcast square-pulse block concatenates to another
    order)."""
    return {f"{prefix}/rows": np.stack([b[i] for b in blocks for i in (0, len(b) // 2, -1)]),
            f"{prefix}/sum": np.ascontiguousarray(np.concatenate(blocks)).mean(axis=0)}


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
    """key -> array of the outputs a reference file holds.  For every
    catalog scheme: what the schedule carries (its target, the segment
    durations, the `Segment.square` flags and every numeric entry of
    `notes`, nested ones included) and its `pulse_area`; U(T) of the
    unitary oracle and of the RK4 run at the ideal and the CLOSED errors;
    the (cyclic, parallel) condition residuals of both RK4 runs; the
    holonomy reconstruction; and the summary (rows and sum) of the H nodes
    at CLOSED on 4000 intervals, of the CLOSED RK4 run, and of the
    auxiliary frame on 4096 intervals, H nodes and frames sampled segment
    by segment in local time on each segment's allocate_steps share, both
    ends included.  For schemes with an excited level, the summary of the
    six-axial-state Lindblad run at OPEN.  For sl, ps and dc, the six axial
    final states of the Lindblad oracle (4000 slices) at OPEN and at the
    golden point (gamma_minus = gamma_z = 3e-4), and of the RK4 run at the
    golden point.  And the six-state fidelities and peak populations of the
    three SWEEPS at their first, middle and last points, swept alone (a
    point reads the same bits alone or inside a grid).  oracle_gates, a map
    tag -> oracle U(T) at the ideal errors, and ideal_runs, a map tag ->
    ideal RK4 trajectory at the default steps, save recomputing those."""
    golden = ErrorModel(gamma_minus=FIG13_GAMMA, gamma_z=FIG13_GAMMA)
    catalog = benchmark_catalog()
    out = {}
    for tag, spec in catalog.items():
        sched = build_schedule(spec)
        out[f"{tag}/target"] = sched.target
        out[f"{tag}/durations"] = np.array([seg.duration for seg in sched.segments])
        out[f"{tag}/square"] = np.array([seg.square for seg in sched.segments], dtype=float)
        out[f"{tag}/pulse_area"] = np.array(pulse_area(sched))
        out.update(numeric_notes(f"{tag}/notes", sched.notes))
        ideal = propagate_unitary(sched) if ideal_runs is None else ideal_runs[tag]
        closed = propagate_unitary(sched, CLOSED)
        out[f"{tag}/oracle_unitary/ideal"] = (
            oracle_propagate_unitary(sched) if oracle_gates is None else oracle_gates[tag])
        out[f"{tag}/oracle_unitary/closed"] = oracle_propagate_unitary(sched, CLOSED)
        out[f"{tag}/unitary/ideal"] = ideal.final
        out[f"{tag}/unitary/closed"] = closed.final
        out[f"{tag}/residuals/ideal"] = np.array(condition_residuals(ideal))
        out[f"{tag}/residuals/closed"] = np.array(condition_residuals(closed))
        out[f"{tag}/reconstruction"] = reconstruct_computational_gate(sched)
        out.update(summary(f"{tag}/hnodes", per_segment(
            sched, 4000, lambda k, t: segment_hamiltonian_nodes(sched, k, t, CLOSED))))
        out.update(summary(f"{tag}/unitary", segment_blocks(closed)))
        out.update(summary(f"{tag}/frame", per_segment(
            sched, 4096, lambda k, t: sched.segments[k].frame(t))))
        if sched.system.excited_index is None:
            continue
        rho0 = six_axial_densities(sched.system)
        out.update(summary(f"{tag}/lindblad", segment_blocks(propagate_lindblad(sched, OPEN, rho0))))
        if tag in GOLDEN_TAGS:
            out[f"{tag}/oracle_lindblad/open"] = oracle_propagate_lindblad(sched, OPEN, rho0)
            out[f"{tag}/oracle_lindblad/golden"] = oracle_propagate_lindblad(sched, golden, rho0)
            out[f"{tag}/lindblad/golden"] = propagate_lindblad(sched, golden, rho0).final
    for name, (tags, axis, grid, fixed) in SWEEPS.items():
        points = grid[[0, len(grid) // 2, -1]]
        result = sweep({tag: catalog[tag] for tag in tags}, axis, points, fixed)
        for tag in tags:
            out[f"{name}/{tag}/fidelity"] = result.fidelity[tag]
            out[f"{name}/{tag}/peak"] = result.peak_excited_population[tag]
    return out


def format_reference(arrays: dict) -> str:
    """The text of a reference file: a JSON object, one key per line in
    sorted order, each entry the array as nested pairs [re, im] of floats
    in repr."""
    lines = []
    for key, a in sorted(arrays.items()):
        a = np.asarray(a, dtype=complex)
        pairs = np.stack([a.real, a.imag], -1).tolist()
        lines.append(f"{json.dumps(key)}:{json.dumps(pairs, separators=(',', ':'))}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def write_reference(path: str) -> None:
    Path(path).write_text(format_reference(reference()))


def read_reference(path) -> dict:
    """The arrays of a file write_reference wrote, bit for bit, as complex
    arrays."""
    return {key: np.array(pairs, dtype=float).view(complex)[..., 0]
            for key, pairs in json.loads(Path(path).read_text()).items()}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--reference", metavar="PATH",
                      help="write the outputs of the reference file to PATH")
    mode.add_argument("--oracle-error", action="store_true",
                      help="print the oracles' errors against clongdouble products")
    args = parser.parse_args()
    if args.oracle_error:
        oracle_error()
    else:
        write_reference(args.reference)
