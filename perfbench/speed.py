"""Machine-speed reference for normalised timings.

On a shared machine the speed of one core can change by up to 1.75x, both
within a second and in phases of tens of seconds, and CPU time follows wall
time.  Raw timings of the same code then differ by that much between runs.
The harness therefore reports each time scaled to a nominal speed:

    normalised = net * REF_S / (mean time of the reference kernel during it)

`SpeedSampler` runs a fixed sub-millisecond reference kernel from a
SIGALRM handler every INTERVAL_S of wall time, in the main thread, between
two bytecodes of whatever code is running (no thread is started).  An op's
net time is its raw time minus the time its handler calls took.  An op
shorter than MIN_SAMPLES intervals is topped up with kernel runs right
after it.

The kernel belongs to the benchmark, never to the package.  It is a
Python-level RK4 loop over 3x3 complex matmuls with a Lindblad-style
commutator update, the kind of loop most of the package's time goes to.
"""
from __future__ import annotations

import signal
import time

# reference kernel time at nominal speed: its typical time on a shared
# 2-core x86-64 virtual machine (numpy 2.4, scipy 1.17) while that machine
# ran at full speed
REF_S = 0.0005
INTERVAL_S = 0.05
MIN_SAMPLES = 3


class SpeedSampler:
    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(20230629)
        g = rng.standard_normal((3, 24, 3, 3)) + 1j * rng.standard_normal((3, 24, 3, 3))
        self.gen = -0.1j * (g + g.conj().swapaxes(-1, -2))
        self.rho = np.stack([np.eye(3, dtype=complex) / 3] * 6)
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in sample(), both kernel runs
        self.on_sample = None  # called with the seconds of each alarm-driven run
        self._busy = False
        self._previous = None
        for _ in range(3):  # first runs pay one-time costs
            self.kernel()

    def kernel(self) -> None:
        np, dt = self.np, 0.05
        u, rho = np.eye(3, dtype=complex), self.rho
        for a0, a1, a2 in zip(*self.gen):
            k1 = a0 @ u
            k2 = a1 @ (u + dt / 2 * k1)
            k3 = a1 @ (u + dt / 2 * k2)
            u = u + dt / 6 * (k1 + 2 * k2 + 2 * k3 + a2 @ (u + dt * k3))
            rho = rho + dt * (a1 @ rho - rho @ a1)

    def sample(self) -> float:
        """Time one kernel run, after an untimed run that reloads the
        kernel's data into cache (the op around it evicts them)."""
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.kernel()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.spent += t2 - t0
        return t2 - t1

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # never nest if a run outlasts the interval
            self._busy = True
            try:
                spent = self.spent
                self.sample()
                if self.on_sample is not None:
                    self.on_sample(self.spent - spent)
            finally:
                self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn):
        """Call fn(); returns (its result, raw seconds, net seconds, speed
        factor REF_S / mean kernel time).  Net excludes the kernel runs the
        alarm made during the call."""
        mark, spent = len(self.samples), self.spent
        start = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - start
        net = raw - (self.spent - spent)
        inside = self.samples[mark:]
        ks = inside + [self.sample() for _ in range(MIN_SAMPLES - len(inside))]
        return out, raw, net, REF_S * len(ks) / sum(ks)
