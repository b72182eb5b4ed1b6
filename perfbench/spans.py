"""In-memory span recorder for the traced benchmark run.

`SpanRecorder.install` wraps each public entry point of the package in
every `nhqcbench` module namespace that bound it (`from .system import
segment_hamiltonian_nodes` leaves a second reference in `dynamics`, and
`propagate_unitary` is bound in `bench`, `holonomy` and `cli` too), so a
call is recorded whichever name it went through.  `uninstall` puts the
originals back, which lets one process alternate traced and untraced
passes.

A span is one call: layer, pass, op, parent span, start, end.  Spans stay
in a list until the run ends.  A layer's self time is the sum over its
spans of duration minus the durations of their direct child spans.
Entry points that a later version of the package no longer has are
skipped: their layer then reads zero calls.
"""
from __future__ import annotations

import functools
import gzip
import hashlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path


def _schedule_key(schedule):
    """Value identity of a schedule: each CLI op rebuilds its schedules, so
    object identity would never repeat across ops."""
    return (
        schedule.scheme_label,
        schedule.target.tobytes(),
        tuple(float(s.duration) for s in schedule.segments),
    )


def _hnodes(rec, args, out):
    times = args.get("times", args.get("t_local"))
    n = len(out)
    rec.count("system.hnodes.nodes", n)
    err = args.get("err")
    key = (
        _schedule_key(args["schedule"]),
        args.get("seg_index", -1),
        hashlib.sha1(times.tobytes() if hasattr(times, "tobytes") else repr(times).encode()).digest(),
        getattr(err, "epsilon", 0.0),
        getattr(err, "eta", 0.0),
    )
    if key in rec.pass_memo:
        rec.count("system.hnodes.redundant_nodes", n)
    rec.pass_memo.add(key)


def _unitary(rec, args, out):
    steps = len(out.times) - 1
    rec.count("dynamics.unitary.steps", steps)
    schedule = args["schedule"]
    key = ("unitary", id(schedule), args.get("err"), steps)
    if key in rec.op_memo:
        rec.count("dynamics.unitary.repeats", 1)
    rec.op_memo.add(key)
    rec.op_refs.append(schedule)  # keeps id(schedule) unique within the op


def _lindblad(rec, args, out):
    rec.count("dynamics.lindblad.steps", len(out.times) - 1)
    rec.count("dynamics.lindblad.bytes_out", out.operators.nbytes)


# (layer, module, function, hook run after the call with the bound
# arguments and the result, adding work counts)
ENTRY_POINTS = [
    ("schemes.build", "schemes", "build_schedule", None),
    ("system.hnodes", "system", "hamiltonian_nodes", _hnodes),
    ("system.hnodes", "system", "segment_hamiltonian_nodes", _hnodes),
    ("numkit.rk4_step", "numkit", "rk4_step_nodes", None),
    ("numkit.expm", "numkit", "expm_hermitian", None),
    ("numkit.expm_batch", "numkit", "expm_hermitian_batch",
     lambda rec, a, out: rec.count("numkit.expm_batch.matrices", len(out))),
    ("dynamics.unitary", "dynamics", "propagate_unitary", _unitary),
    ("dynamics.lindblad", "dynamics", "propagate_lindblad", _lindblad),
    ("dynamics.validate", "dynamics", "_validate_density", None),
    ("dynamics.superop", "dynamics", "lindblad_superoperator", None),
    ("dynamics.oracle_unitary", "dynamics", "oracle_propagate_unitary",
     lambda rec, a, out: rec.count("dynamics.oracle_unitary.slices", a["slices"])),
    ("dynamics.oracle_lindblad", "dynamics", "oracle_propagate_lindblad",
     lambda rec, a, out: rec.count("dynamics.oracle_lindblad.slices", a["slices"])),
    ("holonomy.residuals", "holonomy", "condition_residuals", None),
    ("holonomy.frame", "holonomy", "sample_frame", None),
    ("holonomy.connection", "holonomy", "frame_connection", None),
    ("holonomy.transport", "holonomy", "holonomy_reconstruct", None),
    ("bench.simulate_report", "bench", "simulate_report", None),
    ("bench.sweep", "bench", "sweep", None),
    ("bench.six_state", "bench", "_six_state_run", None),
    ("bench.pulse_area", "bench", "pulse_area", None),
    ("cli.main", "cli", "main", None),
]

LAYERS = list(dict.fromkeys(layer for layer, *_ in ENTRY_POINTS))
WORK_COUNTS = (
    "dynamics.lindblad.steps", "dynamics.lindblad.bytes_out", "dynamics.unitary.steps",
    "dynamics.unitary.repeats", "system.hnodes.nodes", "system.hnodes.redundant_nodes",
    "numkit.expm_batch.matrices", "dynamics.oracle_unitary.slices",
    "dynamics.oracle_lindblad.slices",
)


class SpanRecorder:
    """Records nested spans and work counts; `clock` is injectable so tests
    can check the self-time arithmetic with exact numbers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []  # [layer, pass, op, parent, start, end]
        self.counts: dict = defaultdict(float)  # (pass, name) -> value
        self.hook_errors: list[str] = []
        self.pass_index = 0
        self.op_index = 0
        self.pass_memo: set = set()
        self.op_memo: set = set()
        self.op_refs: list = []
        self._stack: list[int] = []
        self._patched: list = []
        self._hook_time: dict = defaultdict(float)  # span -> harness time inside it

    # -- scoping ---------------------------------------------------------
    def begin_pass(self, index: int) -> None:
        self.pass_index = index
        self.pass_memo = set()

    def begin_op(self, index: int) -> None:
        self.op_index = index
        self.op_memo = set()
        self.op_refs = []

    def exclude(self, seconds: float) -> None:
        """Take time the harness spent inside the innermost open span (the
        speed sampler's kernel) out of that span's self time."""
        if self._stack:
            self._hook_time[self._stack[-1]] += seconds

    def count(self, name: str, value: float) -> None:
        self.counts[(self.pass_index, name)] += value

    # -- spans -----------------------------------------------------------
    def wrap(self, layer: str, fn, hook=None):
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = self.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[idx] = (layer, self.pass_index, self.op_index, parent, start, end)
            if hook is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self, bound.arguments, out)
                except Exception as exc:  # a count must never fail the op
                    self.hook_errors.append(f"{layer}: {exc!r}")
                if parent >= 0:  # hashing inputs is tracing cost, not the parent's work
                    self._hook_time[parent] += self.clock() - end
            return out

        return traced

    def install(self, package: str = "nhqcbench") -> list[str]:
        """Wrap every entry point in every loaded module of `package` that
        binds it; returns the entry points the package does not have."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        missing = []
        for layer, mod_name, fn_name, hook in ENTRY_POINTS:
            home = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self.wrap(layer, original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return missing

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    # -- results ---------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: duration minus the summed durations of its children
        (and minus the time count hooks spent inside it)."""
        child = [self._hook_time.get(i, 0.0) for i in range(len(self.spans))]
        for layer, _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(end - start) - c for (_, _, _, _, start, end), c in zip(self.spans, child)]

    def pass_summaries(self, passes: list[int], scale: dict | None = None) -> list[dict[str, float]]:
        """Per-layer calls, self time and work counts, one dict per pass;
        `scale` maps (pass, op) to a factor applied to self times."""
        scale = scale or {}
        out = {}
        for p in passes:
            out[p] = dict.fromkeys(WORK_COUNTS, 0.0)
            out[p].update({f"{layer}.{kind}": 0.0 for layer in LAYERS for kind in ("calls", "self_s")})
        for span, self_s in zip(self.spans, self.self_times()):
            summary = out.get(span[1])
            if summary is not None:
                summary[f"{span[0]}.calls"] += 1
                summary[f"{span[0]}.self_s"] += self_s * scale.get((span[1], span[2]), 1.0)
        for (p, name), value in self.counts.items():
            if p in out:
                out[p][name] += value
        return [out[p] for p in passes]

    def write(self, path: Path) -> None:
        """Write every span, gzip-compressed JSON lines, one per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for layer, p, op, parent, start, end in self.spans:
                fh.write(json.dumps([layer, p, op, parent, start, end]) + "\n")


def layer_metrics(summaries: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced passes of each per-pass figure, plus the two
    ratios (repeats and redundant nodes over their bases)."""
    keys = sorted(set().union(*summaries))
    med = {k: statistics.median(s.get(k, 0.0) for s in summaries) for k in keys}

    def ratio(num, den):
        return med.get(num, 0.0) / med[den] if med.get(den) else 0.0

    med["dynamics.unitary.repeat_ratio"] = ratio("dynamics.unitary.repeats", "dynamics.unitary.calls")
    med["system.hnodes.redundant_ratio"] = ratio("system.hnodes.redundant_nodes", "system.hnodes.nodes")
    return med
