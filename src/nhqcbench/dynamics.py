"""Propagation engines with trajectory capture.

Two independent numerical routes are maintained everywhere:

* the production path: ``numkit.rk4_chunks``, one fixed-step RK4 engine
  for y' = A(t) y, with A = phi(-iH(t)), the real embedding of -iH, for
  propagators and A = the real Lindblad generator for density matrices;
  the states follow as a chain of precomputed real step matrices.  H is
  data, sum_k c_k(t) H_k (``system.Segment``), and A is linear in H, so
  each segment lifts its ops H_k once (``_lift``) and ``system.assemble``,
  the one assembly of a segment's generators, gives them at a run of the
  half-step lattice by one product.  The terms that do not vary, the lift
  of eta|e><e| and the dissipator, come from one place, ``_fixed``, for
  both routes.  A is affine in the error parameters, so a whole grid of
  error models shares one set of coefficients and one pass
  (``propagate_lindblad_grid``);
* the oracle path: time-ordered products of exact slice exponentials,
  each a Taylor polynomial whose truncation error is below the unit
  roundoff (``numkit.expm_taylor``), of the two exponents of a
  fourth-order commutator-free Magnus step per slice, in batched chunks
  of slices multiplied by ``numkit.ordered_product``; one loop,
  ``_cf4_product``, serves propagators (exponents -iH, formed in the real
  embedding from the lifted ops) and densities (the real Lindblad
  generator, from the folded ops).

Both Lindblad routes run on the real coordinates Q = Re rho + Im rho of a
Hermitian rho (d*d reals, row-major), on which the generator is the real
d*d x d*d matrix ``_fold(lindblad_superoperator(...))``.  Both take rho0
through one intake, ``_rho0_columns``, which checks its shape, Hermiticity,
trace, positivity and finiteness and returns the columns Q that both start
from.  Every RK4 state is checked for trace and positivity in Q, the
latter by an LDL^H elimination of 2(rho - POSITIVITY_TOL*I) taken entry by
entry on its lower triangle, one loop for every d (``_validate_density``),
and rho, Hermitian by construction, is read back only where a caller keeps
it: once per chunk of a trajectory, once per grid block for the final
states of a sweep.  Likewise the propagator chain runs on phi(U), real
(2d, 2d), and U(t) is read back once per chunk.  The states of a pass live
in the one buffer that ``rk4_chunks`` holds for it, coordinate-major, so
the density check reads a chunk's coordinates in place, as a (d, d, N)
view, and allocates only its temporaries, about d*d/2 + d rows of N
values, afresh for each chunk.

The RK4 generators of a segment reach the engine in one of two forms.  A
square pulse (sl, ss, c, dc and dfs3) is constant by construction: its
coefficients are ``system.Constant``, so ``Segment.nodes`` gives one
generator node broadcast along its lattice (stride 0), and the engine
builds one step matrix for the whole segment, with no probe of values.
Every other segment reaches the engine through one lazy sequence,
``_Runs``, which assembles each run of matrices as the engine reads it.
Its coefficients come from ``_Blocks``, which evaluates the drive once per
block of at most CHUNK_ELEMENTS // K lattice times (K ops; at the default
step counts every catalog segment is one block), so each run is a slice
of a block; the coefficients are elementwise in t, so a slice has the
bits of its own evaluation.  Every run of a pass is written into one
buffer held for the pass, which the engine consumes before it reads the
next run, so no stack of generators the size of a segment is ever held:
only its coefficients, K per time.  One pass builder,
``_rk4_pass``, serves both kinds, and checks the states of both: only the
lift of the ops and the density check of a Lindblad pass differ.  On a
square pulse the oracle takes one exponential and one chunk product per
chunk length, which serves every chunk of that length; on every other
segment it reads the coefficients at its Gauss nodes from ``_Blocks``
too.  So
``Segment.square`` is the one notion of "constant" in both routes.  Every
per-node operation gives one node alone the bits it gives it inside the
stack, and a reused chunk product is the one its chunk would build, so
these shortcuts change no value.

Golden values are produced by the oracle path; tests hold the two routes
together.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkit import (
    CHUNK_ELEMENTS,
    RejectedMatrix,
    combine,
    expm_embedded,
    expm_taylor,
    from_real_embedding,
    hermiticity_defect,
    ordered_product,
    real_embedding,
    rk4_chunks,
    unitarity_defect,
)
from .system import ErrorModel, LevelSystem, PulseSchedule, assemble, detuning_error

UNITARY_SAMPLES = 2000
LINDBLAD_SAMPLES = 4000
ORACLE_SLICES = 10_000
# the fewest slices an oracle gives one segment
ORACLE_SLICE_FLOOR = 16
ORACLE_LINDBLAD_SLICES = 4000

TRACE_TOL = 1e-8
POSITIVITY_TOL = -1e-9
UNITARITY_DRIFT_TOL = 1e-8


def six_axial_states(system: LevelSystem) -> np.ndarray:
    """|0>, |1>, |+x>, |-x>, |+y>, |-y> embedded in the system dimension."""
    r = 1 / np.sqrt(2)
    qubit = [
        (1, 0),
        (0, 1),
        (r, r),
        (r, -r),
        (r, 1j * r),
        (r, -1j * r),
    ]
    return np.stack([system.embed_qubit(q) for q in qubit])


def six_axial_densities(system: LevelSystem) -> np.ndarray:
    """The six axial states as a (6, d, d) stack of density matrices."""
    states = six_axial_states(system)
    return np.einsum("ki,kj->kij", states, states.conj())


def monitor_index(system: LevelSystem) -> int:
    """Level whose population is tracked: the excited level, or the ancilla
    |100> for the three-qubit system."""
    if system.excited_index is not None:
        return system.excited_index
    return system.THREE_QUBIT_ANCILLA


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: propagators U(t) for unitary runs, density
    matrices rho(t) (possibly a batch) for open runs.

    excited_population[i] is the monitored-level population at times[i]:
    for unitary runs the maximum over the six axial initial states, for
    open runs the maximum over the propagated batch.  A run records what
    it ran: the schedule, the error model err and the RK4 steps of each
    segment, which segment_state_times turns back into the local times of
    the states, so a check of the run needs nothing else.
    """

    times: np.ndarray
    operators: np.ndarray
    excited_population: np.ndarray
    kind: str
    steps: tuple[int, ...]
    schedule: PulseSchedule
    err: ErrorModel

    @property
    def final(self) -> np.ndarray:
        return self.operators[-1]


def jump_operators(system: LevelSystem) -> tuple[np.ndarray, np.ndarray]:
    """Combined lowering operator and the three-level dephasing operator,
    exactly as printed (one sigma_minus, not per-transition channels)."""
    if system.excited_index is None:
        raise ValueError("no excited level: decoherence channels undefined "
                         "for the three-qubit system")
    d, e = system.dim, system.excited_index
    sm = np.zeros((d, d), dtype=complex)
    sz = np.zeros((d, d), dtype=complex)
    sz[e, e] = 1.0
    for k in range(d):
        if k == e:
            continue
        sm[k, e] = 1.0
        sz[k, k] = -1.0
    return sm, sz


def allocate_steps(schedule: PulseSchedule, total_steps: int, floor: int = 8) -> list[int]:
    """Whole RK4 steps per segment, proportional to duration, each at least
    `floor`; steps never straddle a segment boundary (drive phases may jump
    there, which would spoil the integrator's order)."""
    T = schedule.total_duration
    alloc = [max(floor, int(round(total_steps * seg.duration / T)))
             for seg in schedule.segments]
    return alloc


class _Blocks:
    """Segment.coefficients of seg at `times`, as the lazy sequence of
    coefficient rows both routes read run by run, in increasing order:
    they are evaluated once per block of at most CHUNK_ELEMENTS // K times,
    K the segment's op count, taken from the first run that the held block
    does not cover, and every run is a slice of its block (a run longer
    than a block is its own block).  Coefficients are elementwise in t
    (Segment), so a run has the bits of its own evaluation."""

    def __init__(self, seg, times: np.ndarray):
        self.coefficients = seg.coefficients
        self.times = times
        self.size = max(1, CHUNK_ELEMENTS // len(seg.ops))
        self.start = self.stop = 0
        self.block = None

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, run: slice) -> np.ndarray:
        start, stop, _ = run.indices(len(self.times))
        if not self.start <= start <= stop <= self.stop:
            self.start = start
            self.stop = min(len(self.times), start + max(self.size, stop - start))
            self.block = self.coefficients(self.times[self.start:self.stop])
        return self.block[start - self.start:stop - self.start]


@dataclass(frozen=True)
class _Runs:
    """The RK4 generators of a varying segment on its half-step lattice,
    as the lazy sequence rk4_chunks reads: a run [run] is assembled when
    it is read, from its slice of the coefficient blocks, by
    system.assemble into held[0], the one buffer of the pass, shared by
    its segments and grown to the longest run read.  So a run is valid
    until the next is read, as rk4_chunks needs: it builds a run's step
    matrices before it reads the next."""

    coefficients: _Blocks
    terms: np.ndarray
    weights: np.ndarray
    const: np.ndarray
    held: list

    def __len__(self) -> int:
        return len(self.coefficients)

    def __getitem__(self, run: slice) -> np.ndarray:
        c = self.coefficients[run]
        size = len(c) * self.const.size
        if self.held[0].size < size:
            self.held[0] = np.empty(size)
        out = self.held[0][:size].reshape(c.shape[:1] + self.const.shape)
        return assemble(c, self.terms, self.weights, self.const, out=out)


def segment_state_times(traj: Trajectory):
    """(segment index, local times) of the states of the RK4 run traj, in
    order: segment k of its schedule took n = traj.steps[k] steps, so its
    states lie at linspace(0, duration, 2n+1)[0::2], where a state on a
    boundary belongs to the following segment."""
    last = len(traj.steps) - 1
    for k, (seg, n) in enumerate(zip(traj.schedule.segments, traj.steps)):
        t = np.linspace(0.0, seg.duration, 2 * n + 1)[0::2]
        yield k, t if k == last else t[:-1]


def _lift(system: LevelSystem, kind: str, H: np.ndarray) -> np.ndarray:
    """The generator of Hermitian H (..., d, d) for `kind`: phi(-iH),
    (..., 2d, 2d), for "unitary", the folded commutator superoperator,
    (..., d*d, d*d), for "lindblad".  It is linear in H, so a segment's
    generators are its coefficients times the lifts of its ops."""
    if kind == "unitary":
        return real_embedding(-1j * H)
    return _fold(lindblad_superoperator(system, ErrorModel(), H))


def _fixed(schedule: PulseSchedule, kind: str, errs) -> np.ndarray:
    """The terms of the generator that do not vary, C_g for every error
    model of errs, (G, m, m): the lift _lift(kind) of eta_g|e><e| and, for
    "lindblad", the folded dissipator of g, which reads only the rates, so
    each distinct (gamma_minus, gamma_z) pair is folded once.  Overflow
    is left to the routes' checks of their states and exponents."""
    system = schedule.system
    with np.errstate(over="ignore", invalid="ignore"):
        C = _lift(system, kind, np.stack([detuning_error(schedule, e) for e in errs]))
        if kind == "lindblad":
            d = system.dim
            rates = {(e.gamma_minus, e.gamma_z): e for e in errs}
            folded = {key: _fold(lindblad_superoperator(system, e, np.zeros((d, d))))
                      for key, e in rates.items()}
            C += np.stack([folded[e.gamma_minus, e.gamma_z] for e in errs])
    return C


def _rk4_pass(schedule: PulseSchedule, errs, y0: np.ndarray, kind: str, samples: int | None):
    """One RK4 pass of the run's initial state y0, (m, r), broadcast over
    every error model of errs at once: the global time of every state, the
    steps per segment and an iterator over the states after y0, chunk by
    chunk, as (c, G, m, r), each chunk valid until the next is requested
    (rk4_chunks holds one buffer for them); samples=None takes the default
    step count of `kind`.

    The generator of grid point g is sum_k w_gk c_k(t) S[H_k] + C_g, with
    w_g = Segment.weights(errs[g]), C_g = _fixed(...)[g] and S the lift
    that kind picks (_lift): phi(-iH) for "unitary", the folded commutator
    superoperator for "lindblad".  Each segment lifts its K ops once, and
    system.assemble gives the whole grid's generators at a run of times by
    one product.  A square pulse (Segment.square) gets its one node,
    broadcast along its lattice (Segment.nodes), which rk4_chunks takes
    whole.  Every other segment gets _Runs: its coefficients are evaluated
    once per block of at most CHUNK_ELEMENTS // K lattice times (_Blocks),
    and each run is assembled from its slice of a block into one buffer
    held for the pass, shared by the segments, with the product written
    there by out= and the fixed terms added in place.

    This is the one place that checks every chunk of a pass as it is made:
    rk4_chunks aborts on a non-finite state, and each chunk of a
    "lindblad" pass, the coordinates Q of its densities, passes
    _validate_density, trace and positivity, before it is yielded; the
    states read back from Q are Hermitian by construction.  The unitarity
    drift of a propagator run is checked on the U(t) that
    propagate_unitary reads back."""
    if samples is None:
        samples = UNITARY_SAMPLES if kind == "unitary" else LINDBLAD_SAMPLES
    if samples < 1:
        raise ValueError(f"step count {samples} must be >= 1")
    const = _fixed(schedule, kind, errs)
    steps = tuple(allocate_steps(schedule, samples))
    held = [np.empty(0)]  # the generators of every run of the pass's varying segments
    segments = []
    times = [np.zeros(1)]
    t_offset = 0.0
    for seg, n in zip(schedule.segments, steps):
        lattice = np.linspace(0.0, seg.duration, 2 * n + 1)
        terms = _lift(schedule.system, kind, seg.ops)
        weights = np.stack([seg.weights(e) for e in errs])
        if seg.square:
            with np.errstate(over="ignore", invalid="ignore"):  # left to rk4_chunks' check
                A = seg.nodes(lattice, terms, weights, const)
        else:
            A = _Runs(_Blocks(seg, lattice), terms, weights, const, held)
        segments.append((seg.duration / n, A))
        times.append(t_offset + lattice[2::2])
        t_offset += seg.duration

    def checked(chunks):
        for states in chunks:
            _validate_density(states, "during evolution")
            yield states
    chunks = rk4_chunks(np.broadcast_to(y0, (len(errs),) + y0.shape), segments)
    return np.concatenate(times), steps, chunks if kind == "unitary" else checked(chunks)


def propagate_unitary(
    schedule: PulseSchedule, err: ErrorModel = ErrorModel(), samples: int | None = None
) -> Trajectory:
    """RK4 propagator trajectory, integrated segment by segment in the real
    embedding phi: the generators are phi(-iH), the chain carries phi(U),
    real (2d, 2d), and U(t) is read back chunk by chunk, so no real
    trajectory is held.  phi is an exact algebra homomorphism and an RK4
    step uses only products, real scalings and I, so the chain is phi of
    the complex one up to roundoff."""
    if err.open_system:
        raise ValueError("propagate_unitary requires gamma_minus = gamma_z = 0")
    d = schedule.system.dim
    times, steps, chunks = _rk4_pass(schedule, [err], np.eye(2 * d), "unitary", samples)
    ops = np.empty((len(times), d, d), dtype=complex)
    ops[0] = np.eye(d)
    i = 1
    for states in chunks:
        ops[i:i + len(states)] = from_real_embedding(states[:, 0])
        i += len(states)
    drift = unitarity_defect(ops)
    if drift > UNITARITY_DRIFT_TOL:
        raise RuntimeError(f"unitarity drift {drift:.3e} exceeds {UNITARITY_DRIFT_TOL}")
    states = six_axial_states(schedule.system)
    mon = monitor_index(schedule.system)
    amps = ops[:, mon, :] @ states.T  # (n, 6)
    pe = np.abs(amps).max(axis=1) ** 2
    return Trajectory(times=times, operators=ops, excited_population=pe, kind="unitary",
                      steps=steps, schedule=schedule, err=err)


def _validate_density(states: np.ndarray, where: str) -> None:
    """Trace and positivity of every density of `states`, given by the real
    coordinates Q of batches (..., d*d, k): as rk4_chunks yields them, or
    the columns (d*d, k) of rho0 that _rho0_columns makes.

    They are checked with all N densities in the last axis, so each numpy
    call acts on every one of them.  They are read through q, Q with its
    coordinate axis moved first, reshaped to (d, d, N): a view of a chunk
    of rk4_chunks, whose buffer is coordinate-major, and a copy only where
    the other axes do not merge (a caller's own arrays).  The trace is the
    sum of Q's diagonal coordinates, the rows that also seed the pivots,
    added in order k = 0, 1, ....  Positivity is the LDL^H
    elimination of 2(rho - POSITIVITY_TOL*I), taken entry by entry on its
    lower triangle: the diagonal is the real (d, N) array of pivots
    2 q_kk - 2 POSITIVITY_TOL, and each entry below it one complex array
    2 rho_kl = (q_kl + q_lk) + i (q_kl - q_lk).  Pivot j takes |a_kj|^2/p_j
    from each later pivot k, as the real part of a_kj c_k with
    c_k = conj(a_kj)/p_j, and a_kj c_l from each later entry (k, l) below
    the diagonal.  Scaling by 2 is exact, so every pivot is positive iff
    every eigenvalue of rho exceeds POSITIVITY_TOL (Golub & Van Loan,
    Matrix Computations, 4.2).  A pivot is final once taken, and one that
    is not positive spoils only the later ones, so all are checked at the
    end; only when one is not positive does eigvalsh decide exactly and
    name the eigenvalue, after a non-finite entry, which only rho0 can
    hold, is named as such.  Each call allocates the trace, the d pivots,
    the d(d-1)/2 entries below the diagonal, the d rows c and one product
    row, N values each; the elimination writes into them with out=."""
    d = math.isqrt(states.shape[-2])
    q = np.moveaxis(states, -2, 0).reshape(d, d, -1)
    diagonal = q.reshape(d * d, -1)[::d + 1]
    # added in order k = 0, 1, ... whatever q's strides, as np.trace adds a contiguous q
    deviation = np.abs(sum(diagonal[1:], diagonal[0]) - 1.0).max()
    if not deviation <= TRACE_TOL:  # NaN fails too
        raise RuntimeError(f"trace deviates by {deviation:.3e} {where}")
    n = q.shape[2:]
    pivots = diagonal - POSITIVITY_TOL
    pivots *= 2.0
    low = {}
    for k in range(d):
        for l in range(k):
            a = low[k, l] = np.empty(n, complex)
            np.add(q[k, l], q[l, k], out=a.real)
            np.subtract(q[k, l], q[l, k], out=a.imag)
    c = np.empty((d,) + n, complex)
    product = np.empty(n, complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(d - 1):
            # c_k = conj(a_kj) / p_j as products of the real parts with 1 / p_j
            inv = np.divide(1.0, pivots[j])
            minus_inv = np.negative(inv)
            for k in range(j + 1, d):
                a = low[k, j]
                np.multiply(a.real, inv, out=c[k].real)
                np.multiply(a.imag, minus_inv, out=c[k].imag)
                pivots[k] -= np.multiply(a, c[k], out=product).real
                for l in range(j + 1, k):
                    low[k, l] -= np.multiply(a, c[l], out=product)
    if not pivots.min() > 0:  # NaN fails too
        if not np.isfinite(q).all():  # only rho0: rk4_chunks aborts on a non-finite state
            raise RuntimeError(f"non-finite entry {where}")
        wmin = np.linalg.eigvalsh(_density(q.reshape(d * d, -1).T)).min()
        if wmin < POSITIVITY_TOL:
            raise RuntimeError(f"negative eigenvalue {wmin:.3e} {where}")


def _coordinates(rho: np.ndarray) -> np.ndarray:
    """The real coordinates Q = Re rho + Im rho of Hermitian matrices
    (..., d, d): Re rho is symmetric and Im rho antisymmetric, so Q holds
    both, and keeps the Frobenius norm and the trace of rho."""
    return rho.real + rho.imag


def _density(q: np.ndarray) -> np.ndarray:
    """rho = (Q + Q^T)/2 + i (Q - Q^T)/2, (..., d, d), of row-major
    coordinates q (..., d*d): one real matmul whose columns 2j and 2j+1
    hold Re and Im of entry j of vec rho, read as one complex array.  Each
    entry is 0.5 q_kl +- 0.5 q_lk, exact in any summation order, so rho is
    Hermitian bit for bit."""
    d2 = q.shape[-1]
    d = math.isqrt(d2)
    eye = np.eye(d2)
    swap = eye.reshape(d, d, d2).swapaxes(0, 1).reshape(d2, d2)  # q -> vec Q^T
    readback = np.empty((d2, 2 * d2))
    readback[:, 0::2] = 0.5 * (eye + swap)
    readback[:, 1::2] = 0.5 * (eye - swap)
    return np.matmul(q, readback).view(complex).reshape(q.shape[:-1] + (d, d))


def _fold(L: np.ndarray) -> np.ndarray:
    """The real generator of Q for superoperators L (..., d*d, d*d) on
    row-major vec rho that keep rho Hermitian: dQ/dt = _fold(L) vec Q.

    vec rho = ((1+i) vec Q + (1-i) Pi vec Q) / 2, with Pi the permutation
    vec Q -> vec Q^T, so Re + Im of L vec rho is (Re L + Im L Pi) vec Q:
    Re L plus Im L with its columns (k, l) and (l, k) swapped."""
    d = math.isqrt(L.shape[-1])
    # a copy: the swapped axes cannot merge back into a view of L
    swapped = L.imag.reshape(L.shape[:-1] + (d, d)).swapaxes(-1, -2).reshape(L.shape)
    swapped += L.real
    return swapped


def _rho0_columns(system: LevelSystem, rho0) -> np.ndarray:
    """The one intake of rho0, (d, d) or a batch (k, d, d), for both
    Lindblad routes: its shape against the dimension of `system` and
    that it holds a density (ValueError), its Hermiticity, and trace,
    positivity and finiteness by _validate_density (RuntimeError, with
    no numpy warning for a non-finite entry).  Returns the row-major
    coordinates Q of the batch in the columns of (d*d, k), from which
    both routes start."""
    rho = np.asarray(rho0, dtype=complex)
    d = system.dim
    if rho.ndim > 3 or rho.shape[-2:] != (d, d):
        raise ValueError(f"rho0 shape {rho.shape} does not match dim {d}")
    if not rho.size:
        raise ValueError(f"rho0 shape {rho.shape} holds no density")
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf reads NaN
        herm = hermiticity_defect(rho).max()
        if herm > 1e-8:  # a NaN defect is left to _validate_density
            raise RuntimeError(f"Hermiticity defect {herm:.3e} in rho0")
        cols = _coordinates(rho).reshape(-1, d * d).T
        _validate_density(cols, "in rho0")
    return cols


def propagate_lindblad(
    schedule: PulseSchedule,
    err: ErrorModel,
    rho0: np.ndarray,
    samples: int | None = None,
) -> Trajectory:
    """RK4 density-matrix trajectory; rho0 may be (d, d) or a batch (m, d, d).

    Trace and positivity are enforced at every stored sample, which is
    read back from Q chunk by chunk, Hermitian by construction; rho0 must
    pass _rho0_columns.  Violations abort rather than clip.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    cols = _rho0_columns(schedule.system, rho0)
    times, steps, chunks = _rk4_pass(schedule, [err], cols, "lindblad", samples)
    ops = np.concatenate([rho0.reshape((1, -1) + rho0.shape[-2:]),
                          *(_density(states[:, 0].swapaxes(-1, -2)) for states in chunks)])
    mon = monitor_index(schedule.system)
    pe = ops[..., mon, mon].real.max(axis=1)
    if rho0.ndim == 2:
        ops = ops[:, 0]
    return Trajectory(times=times, operators=ops, excited_population=pe, kind="lindblad",
                      steps=steps, schedule=schedule, err=err)


def propagate_lindblad_grid(
    schedule: PulseSchedule,
    errs,
    rho0: np.ndarray,
    samples: int | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The batch rho0 (k, d, d) under every error model of errs, without
    keeping trajectories: final densities (G, k, d, d), the peak monitored
    population of each grid point over time and batch (G,), and the RK4
    steps taken.

    An empty errs is rejected first (ValueError); rho0 then passes
    _rho0_columns once.  The points share one RK4 pass, in
    blocks of CHUNK_ELEMENTS // d**4 so that memory stays bounded; each
    point's values are those of propagate_lindblad under its own error
    model, checked the same way.  Only the final states of a block are read
    back from Q; the monitored population is Q's coordinate (mon, mon),
    which equals Re rho[mon, mon] bit for bit.  In a chunk of rk4_chunks'
    coordinate-major buffer it is one contiguous (c, G, k) run, whose peak
    is taken axis by axis.
    """
    if not len(errs):
        raise ValueError("empty error grid")
    rho = np.asarray(rho0, dtype=complex)
    d = schedule.system.dim
    cols = _rho0_columns(schedule.system, rho)
    mon = monitor_index(schedule.system)
    block = max(1, CHUNK_ELEMENTS // d ** 4)
    final, peak = [], []
    for b0 in range(0, len(errs), block):
        part = errs[b0:b0 + block]
        _, steps, chunks = _rk4_pass(schedule, part, cols, "lindblad", samples)
        top = np.full(len(part), rho[..., mon, mon].real.max())
        for states in chunks:
            monitored = np.moveaxis(states, -2, 0)[mon * (d + 1)]  # (c, G, k), contiguous
            top = np.maximum(top, monitored.max(axis=0).max(axis=1))
        final.append(_density(states[-1].swapaxes(-1, -2)))
        peak.append(top)
    return np.concatenate(final), np.concatenate(peak), sum(steps)


# ---------------------------------------------------------------------------
# oracle routes
# ---------------------------------------------------------------------------


def lindblad_superoperator(system: LevelSystem, err: ErrorModel, H: np.ndarray) -> np.ndarray:
    """Matrix of rho -> -i[H,rho] + dissipator on row-major-vectorized rho
    (Havel, J. Math. Phys. 44, 534 (2003)); H may be one (d, d) matrix or
    a stack (n, d, d), giving (d*d, d*d) or (n, d*d, d*d).  The one complex
    definition: both Lindblad routes take it through _fold."""
    d = system.dim
    eye = np.eye(d)
    K = -1j * np.asarray(H)
    # kron(K, I) - kron(I, K^T) over any leading stack axes, written into
    # its nonzero blocks: L[i, j, k, l] = K[i, k] d_jl - d_ik K[l, j]
    L = np.zeros(K.shape[:-2] + (d, d, d, d), dtype=complex)
    for j in range(d):
        L[..., :, j, :, j] = K
    for i in range(d):
        L[..., i, :, i, :] -= K.swapaxes(-1, -2)
    L = L.reshape(K.shape[:-2] + (d * d, d * d))
    if err.open_system:
        sm, sz = jump_operators(system)
        for G, A in ((err.gamma_minus, sm), (err.gamma_z, sz)):
            if G > 0:
                AdA = A.conj().T @ A
                L += G * (np.kron(A, A.conj()) - 0.5 * (np.kron(AdA, eye) + np.kron(eye, AdA.T)))
    return L


_CF4_A = 0.25 + np.sqrt(3) / 6
_CF4_B = 0.25 - np.sqrt(3) / 6
_CF4_C1 = 0.5 - np.sqrt(3) / 6
_CF4_C2 = 0.5 + np.sqrt(3) / 6


def _cf4_product(schedule: PulseSchedule, err: ErrorModel, slices: int, kind: str) -> np.ndarray:
    """The (m, m) propagator of both oracles: the time-ordered product of
    allocate_steps(..., floor=ORACLE_SLICE_FLOOR) 4th-order commutator-free Magnus slices
    (Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011)).

    Slice k of length h contributes E(b X1 + a X2) E(a X1 + b X2), with X1,
    X2 the generators at its two Gauss nodes and E(., h) the exponentials
    of a stack (2c, m, m) of exponents, by expm_embedded for "unitary" and
    expm_taylor for "lindblad"; since a + b = 1/2, a piecewise-constant
    drive makes it exact.  The generators are linear in H, so each
    exponent is the coefficient row a c(t1) + b c(t2) (or b, a), weighted
    by Segment.weights(err), times the lifts _lift(kind) of the segment's
    ops, taken once per segment, plus (a + b) C, with C = _fixed(...) the
    terms that do not vary.  The coefficients at both Gauss nodes of
    every slice, interleaved in time order, are read from _Blocks, which
    evaluates them once per block of at most CHUNK_ELEMENTS // K nodes, a
    chunk's rows being a slice of a block (they are elementwise in t, so
    the bits are those of a call per node).  The rows are mixed before the
    product, not the nodes after it, which would cost m**2 per slice.
    Segments are taken in chunks of CHUNK_ELEMENTS // m**2 slices: the
    coefficient rows, both exponents of every slice interleaved in time
    order, and one ordered_product.  A chunk of a square pulse
    (Segment.square) takes the coefficients of its first slice alone and
    the exponential of its first exponent, broadcast to every factor of
    the product, which the per-matrix Taylor polynomial gives bit for bit,
    and ordered_product then builds one block's products for all blocks.
    Its chunks of one length have the same factors, so a square segment
    takes that product once per chunk length, held for the segment's loop
    alone, and multiplies it into P for every chunk of that length: the
    same product the chunk would build, so the same bits.  A rejected
    exponent names its slice."""
    const = (_CF4_A + _CF4_B) * _fixed(schedule, kind, [err])[0]
    exponentials = expm_embedded if kind == "unitary" else expm_taylor
    m = const.shape[-1]
    chunk = max(1, CHUNK_ELEMENTS // m ** 2)
    alloc = allocate_steps(schedule, slices, floor=ORACLE_SLICE_FLOOR)
    P = np.eye(m)
    for seg, n in zip(schedule.segments, alloc):
        h = seg.duration / n
        t0 = np.arange(n) * h
        # both Gauss nodes of slice k, at 2k and 2k + 1
        gauss = np.stack([t0 + _CF4_C1 * h, t0 + _CF4_C2 * h], axis=1).reshape(-1)
        blocks = _Blocks(seg, gauss)
        lifted = _lift(schedule.system, kind, seg.ops).reshape(len(seg.ops), m * m)
        w = seg.weights(err)
        products = {}  # a square segment's chunk products, by chunk length
        for c0 in range(0, n, chunk):
            size = min(chunk, n - c0)
            if size in products:
                P = products[size] @ P
                continue
            with np.errstate(over="ignore", invalid="ignore"):  # left to the exponentials
                if seg.square:  # the first slice alone
                    k = seg.coefficients(gauss[2 * c0:2 * c0 + 2]) * w
                else:
                    k = blocks[2 * c0:2 * (c0 + size)] * w
                k1, k2 = k[0::2], k[1::2]
                rows = np.stack([_CF4_A * k1 + _CF4_B * k2, _CF4_B * k1 + _CF4_A * k2], axis=1)
                X = combine(rows.reshape(-1, len(w)), lifted).reshape(-1, m, m) + const
            try:
                if seg.square:  # one exponential, broadcast
                    E = np.broadcast_to(exponentials(X[:1], h), (2 * size, m, m))
                else:
                    E = exponentials(X, h)
            except RejectedMatrix as e:
                raise e.at(c0 + e.index // 2) from None
            product = ordered_product(E)
            if seg.square:
                products[size] = product
            P = product @ P
    return P


def oracle_propagate_unitary(
    schedule: PulseSchedule, err: ErrorModel = ErrorModel(), slices: int = ORACLE_SLICES
) -> np.ndarray:
    """U(T) as the CF4 product of exact slice exponentials, taken in the
    real embedding by expm_embedded, whose exponents are formed there
    directly, and read back once."""
    return from_real_embedding(_cf4_product(schedule, err, slices, "unitary"))


def oracle_propagate_lindblad(
    schedule: PulseSchedule,
    err: ErrorModel,
    rho0: np.ndarray,
    slices: int = ORACLE_LINDBLAD_SLICES,
) -> np.ndarray:
    """rho(T) via the CF4 product of exact superoperator exponentials
    (independent of the RK4 route).

    The exponents of slice k are h (a L1 + b L2) and h (b L1 + a L2), with
    L1, L2 the superoperators at its two Gauss nodes.  They are linear in
    H, so each is the sum of S[H_k], with S the commutator superoperator,
    folded once per segment, weighted by the slice's coefficient rows, and
    (a + b) (S[eta|e><e|] + D), with D the dissipator, both folded once
    per call by _fixed; the product runs on the real coordinates Q of
    rho0, which must pass _rho0_columns.
    """
    cols = _rho0_columns(schedule.system, rho0)
    P = _cf4_product(schedule, err, slices, "lindblad")
    # one matrix-vector product per state: a (d*d, k) matmul moves the bits
    q = P @ cols.T[..., None]
    return _density(q[..., 0]).reshape(np.shape(rho0))
