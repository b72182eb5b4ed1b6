"""Seeded workloads and the checks on their outputs.

Every workload is a fixed list of ops; the seed changes the values in the
ops (and their order), never the amount of work.  An op is one
`nhqcbench.cli.main(argv)` call, except the golden-point op of `verify`,
which calls `dynamics.oracle_propagate_lindblad` directly because no CLI
command reaches that oracle short of the eight-minute
`goldens --regenerate`.

The checks are pure functions of what an op printed and wrote, so they can
be tested without running the package.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

OUT_DIR = ".perfbench/out"  # relative to the checkout root
GOLDEN_DIR = Path("goldens/v1")
# every catalog schedule carries an auxiliary frame, so `check` prints a
# holonomy reconstruction defect for each of them
SCHEMES = ("sl", "ss", "ps", "c", "dc", "to", "s", "cdd", "sta", "dfs3")
EPS_LATTICE = [round(-0.1 + 0.005 * i, 3) for i in range(41)]  # golden epsilon grid
FIG13_GAMMA = "3e-4"

GOLDEN_TOL = 1e-8
FIDELITY_CEIL = 1 + 1e-9
IDEAL_INFIDELITY_TOL = 1e-8
IDEAL_CYCLIC_TOL = 1e-8
RK4_ORACLE_TOL = 1e-7
HOLONOMY_TOL = 1e-5


@dataclass
class Op:
    name: str
    kind: str  # "sweep", "gate", "check" or "golden_point"
    argv: list[str] = field(default_factory=list)
    ideal: bool = False


@dataclass
class OpOutput:
    rc: int
    stdout: str
    files: dict[str, bytes] = field(default_factory=dict)

    @property
    def values(self) -> dict[str, str]:
        """The key=value lines the op printed."""
        out = {}
        for line in self.stdout.splitlines():
            key, sep, value = line.partition("=")
            if sep:
                out[key.strip()] = value.strip()
        return out


# -- workloads -------------------------------------------------------------


def sweep_open(rng: random.Random) -> list[Op]:
    """Fig. 13b operating point: one open-system epsilon sweep per scheme
    over four consecutive points of the golden lattice."""
    ops = []
    for tag in ("sl", "ps", "dc"):
        i = rng.randrange(len(EPS_LATTICE) - 3)
        a, b = EPS_LATTICE[i], EPS_LATTICE[i + 3]
        ops.append(Op(f"sweep:{tag}", "sweep", [
            "sweep", "--axis", "epsilon", f"--range={a!r}:{b!r}:4", "--schemes", tag,
            "--gamma-minus", FIG13_GAMMA, "--gamma-z", FIG13_GAMMA,
            "--out", f"{OUT_DIR}/sweep_{tag}.csv",
        ]))
    return ops


def gates(rng: random.Random) -> list[Op]:
    """Closed-system simulate runs: per scheme an ideal gate, one with a
    Rabi error and one with a detuning error, each a seeded custom rotation."""
    ops = []
    for tag in SCHEMES:
        for err in ("ideal", "epsilon", "eta"):
            # gamma stays clear of pi (scheme s rejects gamma >= pi); theta and
            # phi stay inside their closed/half-open ranges after rounding
            gate = (f"custom:{rng.uniform(0.1, math.pi - 0.1):.6f},"
                    f"{rng.uniform(0.0, 3.14159):.6f},{rng.uniform(0.0, 6.28318):.6f}")
            argv = ["simulate", "--scheme", tag, "--gate", gate, "--out-dir", OUT_DIR]
            if err != "ideal":
                argv.append(f"--{err}={rng.uniform(-0.05, 0.05):.6f}")
            ops.append(Op(f"simulate:{tag}:{err}", "gate", argv, ideal=err == "ideal"))
    return ops


def verify(rng: random.Random) -> list[Op]:
    """`check` for every scheme plus the oracle Lindblad golden point; the
    seed only sets the order."""
    ops = [Op(f"check:{tag}", "check", ["check", "--scheme", tag, "--out-dir", OUT_DIR])
           for tag in SCHEMES]
    ops.append(Op("golden_point:sl", "golden_point"))
    return ops


WORKLOADS = {"sweep_open": sweep_open, "gates": gates, "verify": verify}


def make_ops(workload: str, seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = WORKLOADS[workload](rng)
    rng.shuffle(ops)
    return ops


# -- goldens -----------------------------------------------------------------


def read_csv_rows(text: str) -> list[dict[str, str]]:
    """Rows of an nhqcbench CSV, skipping its `#` metadata header."""
    body = "".join(line for line in io.StringIO(text) if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def load_goldens(root: Path) -> dict:
    sweep_rows = read_csv_rows((root / GOLDEN_DIR / "sweep_epsilon_sl_ps_dc.csv").read_text())
    point = json.loads((root / GOLDEN_DIR / "sl_fig13_point.json").read_text())
    return {
        "sweep": {(r["scheme"], float(r["value"])): float(r["fidelity"]) for r in sweep_rows},
        "point": point,
    }


# -- checks --------------------------------------------------------------------


def _golden_fidelity(goldens: dict, scheme: str, value: float) -> float | None:
    for (tag, x), fid in goldens["sweep"].items():
        if tag == scheme and abs(x - value) < 1e-9:
            return fid
    return None


def check_sweep(out: OpOutput, goldens: dict) -> list[str]:
    path = out.values.get("sweep_file")
    if path not in out.files:
        return ["no sweep file"]
    rows = read_csv_rows(out.files[path].decode())
    if len(rows) != 4:
        return [f"{len(rows)} sweep rows, expected 4"]
    failures = []
    for r in rows:
        ref = _golden_fidelity(goldens, r["scheme"], float(r["value"]))
        if ref is None:
            failures.append(f"{r['scheme']} eps={r['value']} not on the golden lattice")
        elif not abs(float(r["fidelity"]) - ref) <= GOLDEN_TOL:
            failures.append(f"{r['scheme']} eps={r['value']}: fidelity {r['fidelity']} "
                            f"vs golden {ref!r}")
    return failures


def check_gate(out: OpOutput, ideal: bool) -> list[str]:
    path = out.values.get("report_file")
    if path not in out.files:
        return ["no report file"]
    report = json.loads(out.files[path])
    fid, cyc = report["fidelity"], report["cyclic_residual"]
    failures = []
    if not fid <= FIDELITY_CEIL:
        failures.append(f"fidelity {fid!r} exceeds 1+1e-9")
    if ideal and not 1 - fid < IDEAL_INFIDELITY_TOL:
        failures.append(f"ideal gate infidelity {1 - fid:.3e}")
    if ideal and not cyc < IDEAL_CYCLIC_TOL:
        failures.append(f"ideal gate cyclic_residual {cyc:.3e}")
    return failures


def check_verify(out: OpOutput) -> list[str]:
    values = out.values
    failures = []
    for key, tol in (("rk4_vs_oracle", RK4_ORACLE_TOL),
                     ("holonomy_reconstruction_defect", HOLONOMY_TOL)):
        if key not in values:
            failures.append(f"check printed no {key}")
        elif not float(values[key]) < tol:
            failures.append(f"{key}={values[key]} not below {tol:g}")
    return failures


def check_point(out: OpOutput, goldens: dict) -> list[str]:
    fid = float(out.values["fidelity"])
    ref = goldens["point"]["fidelity"]
    if not abs(fid - ref) <= GOLDEN_TOL:
        return [f"golden point fidelity {fid!r} vs {ref!r}"]
    return []


def check(op: Op, out: OpOutput, goldens: dict) -> list[str]:
    """Failures of one op: a nonzero exit code or an output out of bounds."""
    if out.rc != 0:
        return [f"exit code {out.rc}"]
    if op.kind == "sweep":
        return check_sweep(out, goldens)
    if op.kind == "gate":
        return check_gate(out, op.ideal)
    if op.kind == "check":
        return check_verify(out)
    return check_point(out, goldens)
