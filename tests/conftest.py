from dataclasses import replace
from typing import Sequence

import numpy as np
import pytest

from nhqcbench.bench import benchmark_catalog
from nhqcbench.dynamics import oracle_propagate_unitary, propagate_unitary
from nhqcbench.numkit import expm_embedded, real_embedding, rk4_chunks
from nhqcbench.schemes import build_schedule
from nhqcbench.system import ErrorModel


@pytest.fixture(scope="session")
def catalog():
    return benchmark_catalog()


@pytest.fixture(scope="session")
def schedules(catalog):
    return {tag: build_schedule(spec) for tag, spec in catalog.items()}


@pytest.fixture(scope="session")
def ideal_runs(schedules):
    """Ideal RK4 trajectories at the default step count, computed once."""
    return {tag: propagate_unitary(s) for tag, s in schedules.items()}


@pytest.fixture(scope="session")
def oracle_gates(schedules):
    """Ideal expm-product propagators at the full oracle resolution."""
    return {tag: oracle_propagate_unitary(s) for tag, s in schedules.items()}


def align_phase(actual, reference):
    """Remove the global phase of `actual` relative to `reference`."""
    ov = np.trace(reference.conj().T @ actual)
    if abs(ov) < 1e-12:
        return actual
    return actual * (abs(ov) / ov)


def gauge_twisted(schedule, Vfun):
    """`schedule` with the computational frame rows of every segment rotated
    to nu'_k = sum_l nu_l W_lk, W = Vfun(t) at the global time t = t0 + s of
    local time s on a segment that starts at t0.

    Vfun(t) must be unitary with Vfun(0) = Vfun(tau) = I (boundary-trivial).
    """
    def twist(seg, t0):
        def frame(s):
            V = seg.frame(s).copy()
            W = np.stack([np.asarray(Vfun(t0 + float(x)), dtype=complex) for x in s])
            V[:, :-1] = W.swapaxes(1, 2) @ V[:, :-1]
            return V
        return replace(seg, frame=frame)

    starts = np.cumsum([0.0] + [seg.duration for seg in schedule.segments[:-1]])
    return replace(schedule, segments=tuple(
        twist(seg, t0) for seg, t0 in zip(schedule.segments, starts)))


def rk4_linear(
    y0: np.ndarray, segments: Sequence[tuple[float, Sequence[np.ndarray]]]
) -> np.ndarray:
    """Every state of rk4_chunks, y0 included: (1 + total steps, *y0.shape)."""
    y0 = np.asarray(y0, dtype=complex)
    total = sum((len(A) - 1) // 2 for _, A in segments)
    out = np.empty((total + 1,) + y0.shape, dtype=complex)
    out[0] = y0
    i = 1
    for states in rk4_chunks(y0, segments):
        out[i:i + len(states)] = states
        i += len(states)
    return out


def expm_phi(H, dt):
    """phi(exp(-i H dt)), real (..., 2d, 2d), of one Hermitian matrix (d, d)
    or a stack: expm_embedded on the real embedding of -iH."""
    H = np.asarray(H)
    d = H.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # -1j * inf: NaN, rejected below
        Y = real_embedding(-1j * H.reshape(-1, d, d))
    return expm_embedded(Y, dt).reshape(H.shape[:-2] + (2 * d, 2 * d))


def phase_distance(actual, reference):
    """1 - |Tr(ref^+ actual)| / d, zero iff equal up to global phase."""
    d = reference.shape[0]
    return 1 - abs(np.trace(reference.conj().T @ actual)) / d


@pytest.fixture(scope="session")
def ideal_error():
    return ErrorModel()
