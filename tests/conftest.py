from typing import Sequence

import numpy as np
import pytest

from nhqcbench.bench import benchmark_catalog
from nhqcbench.dynamics import oracle_propagate_unitary, propagate_unitary
from nhqcbench.numkit import rk4_chunks
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


def gauge_transformed(times, V, Vfun):
    """The frame V (n+1, L+1, dim) sampled at `times`, its computational
    rows rotated to nu'_k = sum_l nu_l W_lk(t), W = Vfun(t).

    Vfun(t) must be unitary with Vfun(0) = Vfun(tau) = I (boundary-trivial).
    """
    out = V.copy()
    for i, t in enumerate(times):
        W = np.asarray(Vfun(float(t)), dtype=complex)
        out[i, :-1] = W.T @ V[i, :-1]
    return out


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


def phase_distance(actual, reference):
    """1 - |Tr(ref^+ actual)| / d, zero iff equal up to global phase."""
    d = reference.shape[0]
    return 1 - abs(np.trace(reference.conj().T @ actual)) / d


@pytest.fixture(scope="session")
def ideal_error():
    return ErrorModel()
