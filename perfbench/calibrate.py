"""Check that speed normalisation keeps a program-side change at its size.

    python3 perfbench/calibrate.py --workload gates --seed 101 --passes 5

Run from the root of a checkout.  Normalised times divide by a reference
kernel that runs inside the process under test (see `speed.py`), so a
change that alters the process's own load could also move the divisor.
This script wraps each op with a known change and times plain and changed
calls of the same op back to back, in alternating order, under the same
sampler as `run.py`.  Adjacent calls see nearly the same machine speed, so
the unscaled ratio changed/plain (net times, before the speed factor) is
the true size of the change; normalisation is faithful when the normalised
ratio matches it.

Changes:
- `none`: nothing (the noise floor; both ratios should be 1);
- `repeat`: the op runs twice, so the program does exactly twice the work;
- `blas`: after the op, one BLAS call on all cores (a 512 x 512 complex
  matmul), which leaves the BLAS worker threads spinning;
- `heap`: after the op, a sweep over a 128 MB array kept alive for the
  run, which evicts the caches and enlarges the heap.

Per change it prints the median over passes of the summed-time ratio,
unscaled and normalised, and the median over passes of their quotient (1
when normalisation is faithful).
The last line is the JSON of these figures.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import run
import speed

CHANGES = ("none", "repeat", "blas", "heap")


def make_changes(h):
    np = h.np
    mat = np.random.default_rng(0).standard_normal((512, 512)) * (1 + 1j)
    heap = np.ones(16 * 2**20)  # 128 MB of float64

    def blas():
        mat @ mat

    def sweep_heap():
        heap.sum()

    return {
        "none": lambda op: h.call(op),
        "repeat": lambda op: (h.call(op), h.call(op))[-1],
        "blas": lambda op: (h.call(op), blas())[0],
        "heap": lambda op: (h.call(op), sweep_heap())[0],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(run.workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=101)
    p.add_argument("--passes", type=int, default=5)
    args = p.parse_args(argv)
    os.chdir(run.ROOT)
    run.pin_environment()
    sys.path.insert(0, str(run.ROOT / "src"))
    h = run.Harness(args.workload, args.seed)
    h.setup_once(str(run.WORK_DIR / "warmup"))
    changes = make_changes(h)
    sampler = speed.SpeedSampler()

    ratios = {name: {"unscaled": [], "normalised": []} for name in CHANGES}
    for k in range(args.passes):
        for name in CHANGES:
            sums = {(changed, kind): 0.0 for changed in (0, 1) for kind in ("unscaled", "normalised")}
            with sampler:
                for i, op in enumerate(h.ops):
                    order = (0, 1) if (i + k) % 2 == 0 else (1, 0)
                    for changed in order:
                        fn = changes[name] if changed else changes["none"]
                        (rc, _), _, net, factor = sampler.timed(lambda: fn(op))
                        if rc != 0:
                            raise RuntimeError(f"{op.name} exited {rc}")
                        sums[changed, "unscaled"] += net
                        sums[changed, "normalised"] += net * factor
            for kind in ("unscaled", "normalised"):
                ratios[name][kind].append(sums[1, kind] / sums[0, kind])
            print(f"pass {k} {name}: unscaled {ratios[name]['unscaled'][-1]:.4f} "
                  f"normalised {ratios[name]['normalised'][-1]:.4f}", flush=True)

    result = {}
    for name, r in ratios.items():
        unscaled, norm = statistics.median(r["unscaled"]), statistics.median(r["normalised"])
        quotient = statistics.median(n / u for u, n in zip(r["unscaled"], r["normalised"]))
        result[name] = {"unscaled_ratio": unscaled, "normalised_ratio": norm,
                        "quotient": quotient, "passes": len(r["unscaled"])}
        print(f"{name}: unscaled ratio {unscaled:.4f}, normalised ratio {norm:.4f}, "
              f"normalised/unscaled {quotient:.4f}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "changes": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
