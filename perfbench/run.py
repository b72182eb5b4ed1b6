"""Benchmark harness for nhqcbench.

    python3 perfbench/run.py --workload {sweep_open,gates,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The harness imports the package from
`src/` of that checkout and drives it in-process as a closed loop with one
client: each op (a `nhqcbench.cli.main(argv)` call, or one library call
where no CLI command exists) starts after the previous one returned.  The
ops are generated from the seed by `workloads.py`; the package sees only
the resulting argv and inputs.  Whole passes over the op list are repeated
while the next one still fits in `--seconds`; there is always at least one.

With `--trace 0` the run prints the end-to-end metrics named in
BENCHMARK.json.  Their times are normalised to a reference speed measured
during each op (see `speed.py`); the raw times are printed after them.
With `--trace 1` it alternates untraced and traced passes and prints the
per-layer metrics of the traced ones (see `spans.py`) plus
`trace.overhead_s`, the traced minus the untraced median pass time.

Every op's output is checked (see `workloads.check`) and digested: a
sha256 of each file it wrote and the key=value lines it printed.  An op
fails when it exits nonzero, fails its check, or its digest differs from
the first pass of the run.  The last stdout line is the JSON result; the
full record (manifest, per-op digests, all metrics) goes to
`.perfbench/results/`.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = Path(".perfbench")  # relative to ROOT, like every path the run writes
SETUP_PROBES = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PACKAGE_VARS = ("NHQC_SAMPLES",)  # environment overrides the package reads


def pin_environment() -> dict:
    """Fix the environment the package sees; must run before numpy or the
    package is imported.  BLAS gets one thread per available core, and
    NHQC_SAMPLES, which would change the step counts of every op, is
    removed.  Returns the settings in force and the value removed."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    removed = {var: os.environ.pop(var, None) for var in PACKAGE_VARS}
    return {"nproc": nproc, **{var: os.environ[var] for var in BLAS_VARS},
            "removed": removed}


def git_revision(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def source_digest(root: Path) -> str:
    """sha256 over the package sources, which names the code under test
    even where there is no git revision."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "nhqcbench").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Harness:
    def __init__(self, workload: str, seed: int):
        import numpy as np

        import nhqcbench.bench
        import nhqcbench.cli
        import nhqcbench.dynamics
        import nhqcbench.schemes
        import nhqcbench.system

        self.np = np
        self.pkg = nhqcbench
        self.ops = workloads.make_ops(workload, seed)
        self.goldens = None

    # -- ops -------------------------------------------------------------
    def golden_point(self, slices: int | None = None) -> int:
        """Six-axial-state fidelity of the golden SL point through the
        oracle Lindblad route, printed as fidelity=<repr>."""
        np, pkg = self.np, self.pkg
        point = self.goldens["point"]
        schedule = pkg.schemes.build_schedule(pkg.bench.benchmark_catalog()[point["scheme"]])
        err = pkg.system.ErrorModel(gamma_minus=point["gamma_minus"], gamma_z=point["gamma_z"])
        states = pkg.dynamics.six_axial_states(schedule.system)
        rho0 = np.einsum("ki,kj->kij", states, states.conj())
        rho = pkg.dynamics.oracle_propagate_lindblad(
            schedule, err, rho0, slices=slices or point["oracle_slices"])
        comp = list(schedule.system.computational_indices)
        ideal = np.stack([schedule.system.embed_qubit(schedule.target @ s[comp]) for s in states])
        fid = float(np.einsum("ki,kij,kj->k", ideal.conj(), rho, ideal).real.mean())
        print(f"fidelity={fid!r}")
        return 0

    def call(self, op) -> tuple[int, str]:
        """Run one op; returns (exit code, captured stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.golden_point() if op.kind == "golden_point" else self.pkg.cli.main(op.argv)
            except Exception:  # an escaped exception is a failed op, not a failed run
                traceback.print_exc()
                rc = 1
        if rc != 0:
            sys.stderr.write(f"{op.name}: exit {rc}\n{err.getvalue()}")
        return rc, out.getvalue()

    # -- set-up ----------------------------------------------------------
    def setup_once(self, warm_dir: str) -> None:
        """Catalog schedule builds, golden load and a warm-up of the unitary,
        Lindblad and oracle paths at small step counts."""
        pkg = self.pkg
        for spec in pkg.bench.benchmark_catalog().values():
            pkg.schemes.build_schedule(spec)
        self.goldens = workloads.load_goldens(ROOT)
        with contextlib.redirect_stdout(io.StringIO()):
            base = ["simulate", "--scheme", "sl", "--gate", "S", "--samples", "200",
                    "--out-dir", warm_dir]
            for argv in (base, base + ["--gamma-minus", "3e-4", "--gamma-z", "3e-4"]):
                if pkg.cli.main(argv) != 0:
                    raise RuntimeError(f"warm-up failed: {' '.join(argv)}")
            self.golden_point(slices=64)

    # -- passes ----------------------------------------------------------
    def run_pass(self, sampler, recorder=None) -> list:
        """One pass over the ops under the speed sampler; returns per op
        (raw s, net s, speed factor, exit code, stdout)."""
        results = []
        with sampler:
            for i, op in enumerate(self.ops):
                if recorder is not None:
                    recorder.begin_op(i)
                (rc, stdout), raw, net, factor = sampler.timed(lambda: self.call(op))
                results.append((raw, net, factor, rc, stdout))
        return results

    def digest_and_check(self, results: list) -> tuple[list, list]:
        """Per op: the determinism record and the list of check failures."""
        records, failures = [], []
        for op, (*_, rc, stdout) in zip(self.ops, results):
            out = workloads.OpOutput(rc, stdout)
            for key, value in out.values.items():
                if key.endswith("_file") and Path(value).is_file():
                    out.files[value] = Path(value).read_bytes()
            records.append({
                "op": op.name,
                "argv": op.argv,
                "rc": rc,
                "printed": out.values,
                "files": {p: hashlib.sha256(b).hexdigest() for p, b in sorted(out.files.items())},
            })
            failures.append(workloads.check(op, out, self.goldens))
        return records, failures


def median(values):
    return statistics.median(values) if values else 0.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # set up once, print the set-up time and exit (run in a child process)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def probe_setup(argv: list[str]) -> dict:
    """Cold set-up, measured in a fresh interpreter so that imports and
    first-call work count every time."""
    r = subprocess.run([sys.executable, __file__, *argv, "--setup-probe"],
                       capture_output=True, text=True, timeout=120)
    if r.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({r.returncode}): {r.stderr.strip()}")
    return json.loads(r.stdout.splitlines()[-1])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    package = ROOT / "src" / "nhqcbench" / "__init__.py"
    if not package.is_file() or not (ROOT / "goldens" / "v1").is_dir():
        print(f"error: {ROOT} holds no nhqcbench sources and goldens", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    env = pin_environment()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    (WORK_DIR / "results").mkdir(parents=True, exist_ok=True)
    probes = [] if args.setup_probe else [probe_setup(argv) for _ in range(SETUP_PROBES)]

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import nhqcbench

    import_s = time.perf_counter() - t0
    if Path(nhqcbench.__file__).resolve() != package.resolve():
        print(f"error: imported {nhqcbench.__file__}, not {package}", file=sys.stderr)
        return 2
    h = Harness(args.workload, args.seed)
    h.setup_once(str(WORK_DIR / "warmup"))
    setup_s = time.perf_counter() - t0
    sampler = speed.SpeedSampler()
    if args.setup_probe:
        ks = [sampler.sample() for _ in range(20)]
        factor = speed.REF_S * len(ks) / sum(ks)
        print(json.dumps({"import_s": import_s, "raw_s": setup_s, "speed_factor": factor,
                          "setup_s": setup_s * factor}))
        return 0

    recorder = spans.SpanRecorder() if args.trace else None
    passes, failed_ops, first = [], 0, None
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            recorder.begin_pass(len(passes))
            missing = recorder.install()
            sampler.on_sample = recorder.exclude
        t = time.perf_counter()
        try:
            results = h.run_pass(sampler, recorder if traced else None)
        finally:
            if traced:
                recorder.uninstall()
                sampler.on_sample = None
        pass_s = time.perf_counter() - t
        # check before the next pass overwrites the output files
        recs, fails = h.digest_and_check(results)
        first = first or recs
        for rec, ref, fail in zip(recs, first, fails):
            if rec != ref:
                fail.append("output differs from the first pass")
            if fail:
                failed_ops += 1
                sys.stderr.write(f"pass {len(passes)} {rec['op']}: {'; '.join(fail)}\n")
        passes.append({"traced": traced,
                       "raw_latencies_s": [r[0] for r in results],
                       "speed_factors": [r[2] for r in results],
                       "latencies_s": [net * f for _, net, f, *_ in results],
                       "failures": {r["op"]: f for r, f in zip(recs, fails) if f}})
        both_modes = not args.trace or len({p["traced"] for p in passes}) == 2
        if both_modes and time.perf_counter() - start + pass_s > args.seconds:
            break
    attempted = len(passes) * len(h.ops)
    digest = hashlib.sha256(json.dumps(first, sort_keys=True).encode()).hexdigest()

    plain = [p for p in passes if not p["traced"]]
    op_latencies = [t for p in plain for t in p["latencies_s"]]
    computed = {
        "setup_s": median([p["setup_s"] for p in probes]),
        "wall_s": median([sum(p["latencies_s"]) for p in plain]),
        "op_p50_s": median(op_latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_computed = {
        "setup_s": median([p["raw_s"] for p in probes]),
        "wall_s": median([sum(p["raw_latencies_s"]) for p in plain]),
        "op_p50_s": median([t for p in plain for t in p["raw_latencies_s"]]),
    }
    if args.trace:
        traced_passes = [i for i, p in enumerate(passes) if p["traced"]]
        scale = {(i, j): f for i in traced_passes for j, f in enumerate(passes[i]["speed_factors"])}
        computed = spans.layer_metrics(recorder.pass_summaries(traced_passes, scale))
        computed["trace.overhead_s"] = (
            median([sum(passes[i]["latencies_s"]) for i in traced_passes])
            - median([sum(p["latencies_s"]) for p in plain]))

    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}
    import numpy
    import scipy

    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(ROOT),
        "source_sha256": source_digest(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "environment": env,
        "load": "closed loop, 1 client, in-process",
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "ops_per_pass": len(h.ops),
        "op_p50_samples": len(op_latencies),
        "setup_probes": probes,
        "speed_ref_s": speed.REF_S,
        "setup_in_process": {"import_s": import_s, "setup_s": setup_s},
    }
    if recorder is not None:
        manifest["trace_missing_entry_points"] = missing
        manifest["trace_hook_errors"] = recorder.hook_errors[:20]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = WORK_DIR / "results" / f"{tag}.json"
    full = {"manifest": manifest, "digest": digest, "computed": computed,
            "raw": raw_computed, "ops": first, "passes": passes}
    result_path.write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    if recorder is not None:
        recorder.write(WORK_DIR / "results" / f"{tag}-spans.jsonl.gz")

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, value in ({} if args.trace else raw_computed).items():
        print(f"raw {name} = {value:.6g} s (not normalised to reference speed)")
    print(f"fail_ratio = {failed_ops / attempted:.6g} 1 ({failed_ops} of {attempted} ops)")
    print(f"op_p50_s samples = {len(op_latencies)}; passes = {len(passes)}")
    print(f"output digest = {digest}")
    print(f"manifest = {json.dumps(manifest, sort_keys=True)}")
    print(f"result_file = {result_path}")
    print(json.dumps({"correct": failed_ops == 0, "attempted": attempted,
                      "failed": failed_ops, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
