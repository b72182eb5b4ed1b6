"""Dense complex linear algebra and the one RK4 engine for small systems.

Matrices are plain ``numpy`` arrays, ``(d, d)`` with ``d`` between 2 and 8
for Hamiltonians and ``(d*d, d*d)`` for Lindblad superoperators.  Hermitian
and unitary properties are measured by the defect helpers rather than
carried by a wrapper type; callers validate at the boundaries where they
matter.  ``expm_taylor`` is the one matrix exponential of the package, for
stacks of any matrices (both oracles use it; ``expm_hermitian`` is its
Hermitian front end), and ``ordered_product`` multiplies slice stacks in
time order.  ``rk4_chunks`` integrates every linear ODE y' = A(t) y in the
package (A = -iH for propagators, A = the superoperator for density
matrices) as a chain of precomputed RK4 step matrices, optionally for a
whole grid of generators at once; ``rk4_linear`` keeps every state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

HERMITIAN_TOL = 1e-12
# complex entries per batched array in rk4_linear, expm_taylor and the
# Lindblad oracle (512 KiB)
CHUNK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid, in units of 1/omega_bar."""

    t_start: float
    t_end: float
    steps: int

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ValueError(f"t_end={self.t_end} must exceed t_start={self.t_start}")
        if self.steps < 2:
            raise ValueError(f"steps={self.steps} must be >= 2")

    @property
    def h(self) -> float:
        return (self.t_end - self.t_start) / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.steps + 1)


def hermiticity_defect(M: np.ndarray) -> float | np.ndarray:
    """max |M - M^dagger| over the entries of each matrix of M (..., d, d)."""
    return np.abs(M - M.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def unitarity_defect(M: np.ndarray) -> float:
    """max |M^dagger M - I| over entries."""
    d = M.shape[-1]
    return float(np.abs(M.conj().T @ M - np.eye(d)).max())


def expm_hermitian(H: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i*H*dt) for one Hermitian matrix (d, d) or a stack (n, d, d),
    by expm_taylor with scale -i*dt.

    Rejects input in which any matrix is non-Hermitian beyond HERMITIAN_TOL
    scaled by that matrix's magnitude, naming the matrix and its defect.
    The check is taken in chunks of CHUNK_ELEMENTS // d**2 matrices, so no
    temporary is the size of the stack.
    """
    H = np.asarray(H)
    d = H.shape[-1]
    Hs = H.reshape(-1, d, d)
    chunk = max(1, CHUNK_ELEMENTS // (d * d))
    for c0 in range(0, len(Hs), chunk):
        X = Hs[c0:c0 + chunk]
        with np.errstate(invalid="ignore"):  # inf - inf; expm_taylor names the entry
            defect = hermiticity_defect(X)
        if defect.max() > HERMITIAN_TOL:  # no scaled tolerance is below this
            tol = HERMITIAN_TOL * np.maximum(1.0, np.abs(X).max(axis=(-2, -1)))
            k = np.argmax(defect > tol)
            if defect[k] > tol[k]:
                raise ValueError(
                    f"expm_hermitian: input not Hermitian, defect {defect[k]:.3e} "
                    f"(tolerance {tol[k]:.3e}) in matrix {c0 + k}"
                )
    return expm_taylor(H, -1j * dt)


def expm_taylor(X: np.ndarray, scale: complex) -> np.ndarray:
    """exp(scale*X) for one matrix (d, d) or a stack (n, d, d), as a Taylor
    polynomial whose truncation error is below the unit roundoff.

    theta = |scale| max_k ||X_k||_1 bounds the norm of every exponent in the
    stack.  Above 1/2 the exponents are scaled by 2^-s, s = ceil(log2
    2 theta), and the result is squared s times.  The degree is the smallest
    m with theta^(m+1) / (m+1)! e^theta <= 2^-53 (Bader, Blanes & Casas,
    Mathematics 7, 1174 (2019); Al-Mohy & Higham, SIAM J. Matrix Anal.
    Appl. 31, 970 (2009)), so oracle slices, with theta ~ 1e-4 to 1e-2, need
    m = 3 to 5: m - 1 batched matmuls each by Horner's rule, in chunks of
    CHUNK_ELEMENTS // d**2 matrices.  scale*X is formed chunk by chunk, so
    no temporary is the size of the stack.

    Rejects, naming the first such matrix, a stack in which some
    2 |scale| ||X_k||_1 is not finite: NaN or infinite entries, or a norm
    too large to scale.
    """
    X = np.asarray(X)
    d = X.shape[-1]
    Xs = X.reshape(-1, d, d)
    chunk = max(1, CHUNK_ELEMENTS // (d * d))
    theta = 0.0
    for c0 in range(0, len(Xs), chunk):
        with np.errstate(over="ignore", invalid="ignore"):
            norms = abs(scale) * np.abs(Xs[c0:c0 + chunk]).sum(axis=-2).max(axis=-1)
            top = norms.max()  # NaN propagates through max
            if not np.isfinite(2 * top):
                k = np.argmin(np.isfinite(2 * norms))
                raise ValueError(f"expm_taylor: |scale| * ||X||_1 = {norms[k]:.3e} in matrix "
                                 f"{c0 + k} is not finite or too large to scale")
        theta = max(theta, float(top))
    s = math.ceil(math.log2(2 * theta)) if theta > 0.5 else 0
    theta = math.ldexp(theta, -s)
    m = 1
    while theta ** (m + 1) / math.factorial(m + 1) * math.exp(theta) > 2.0 ** -53:
        m += 1
    E = np.empty(Xs.shape, dtype=complex)
    eye = np.eye(d)
    for c0 in range(0, len(Xs), chunk):
        A = (scale * 0.5 ** s) * Xs[c0:c0 + chunk]
        P = E[c0:c0 + chunk]
        tmp = np.empty_like(P)
        # Horner: P = I + A/m, then P = I + A P / k for k = m-1, ..., 1
        np.multiply(A, 1 / m, out=P)
        P += eye
        for k in range(m - 1, 0, -1):
            np.matmul(A, P, out=tmp)
            np.multiply(tmp, 1 / k, out=P)
            P += eye
        for _ in range(s):
            np.matmul(P, P, out=tmp)
            P[...] = tmp
    return E.reshape(X.shape)


def ordered_product(Ms: np.ndarray) -> np.ndarray:
    """Time-ordered product M[n-1] ... M[1] M[0] of a stack (n, d, d), n >= 1.

    The products of blocks of b = ceil(sqrt(n)) consecutive factors are built
    side by side, one batched matmul per block position (the short last block
    stops early), then chained in order.  Unlike a pairwise tree, this keeps
    rounding errors on runs of equal factors from adding up coherently.
    """
    b = math.isqrt(len(Ms) - 1) + 1
    P = Ms[::b].copy()
    for i in range(1, b):
        F = Ms[i::b]
        P[:len(F)] = F @ P[:len(F)]
    U = P[0]
    for B in P[1:]:
        U = B @ U
    return U


def _step_matrices(A: np.ndarray, h: float, work: np.ndarray) -> np.ndarray:
    """RK4 step matrices P_k = I + h/6 (K1 + 2 K2 + 2 K3 + K4) from generator
    nodes A (2c+1, .., m, m) on the half-step lattice of c steps, where
    K1 = A0, K2 = A1 (I + h/2 K1), K3 = A1 (I + h/2 K2), K4 = A2 (I + h K3).
    Built in place in work (3, c, .., m, m), which the result occupies, in
    the order A1 + h/2 (A1 A0), ..., A0 + 2 K2 + 2 K3 + K4."""
    A0, A1, A2 = A[0:-1:2], A[1::2], A[2::2]
    K2, K3, K4 = work
    np.matmul(A1, A0, out=K2)
    K2 *= h / 2
    K2 += A1
    np.matmul(A1, K2, out=K3)
    K3 *= h / 2
    K3 += A1
    np.matmul(A2, K3, out=K4)
    K4 *= h
    K4 += A2
    K2 *= 2
    K2 += A0
    K3 *= 2
    K2 += K3
    K2 += K4
    K2 *= h / 6
    K2 += np.eye(A.shape[-1])
    return K2


def rk4_chunks(
    y0: np.ndarray,
    segments: Sequence[tuple[float, np.ndarray]],
    lift: Callable[[np.ndarray], np.ndarray],
) -> Iterator[np.ndarray]:
    """Fixed-step RK4 for the linear ODE y' = A(t) y, yielding the states
    after y0 chunk by chunk.

    y0 is (m,), (m, r) or (G, m, r); a leading grid axis carries G
    independent problems on one step lattice, and lift then returns one
    generator per grid point, (.., G, m, m).  Each segment is (h, nodes):
    the nodes sit on the half-step lattice of n steps (2n+1 of them; any
    sequence that len() measures and a slice reads, such as an array) and
    lift maps a run of nodes to generator matrices.  The step matrices are
    built in batched chunks of at most CHUNK_ELEMENTS // (G m**2) steps, so
    transient memory depends on neither the step count nor m, and one
    matmul per step advances the whole grid.  Each chunk of states is a
    fresh (c, *y0.shape) array.  Aborts on the first non-finite state,
    naming segment and step; the overflow of a diverging run is left to
    that check instead of being warned about.
    """
    y = np.asarray(y0, dtype=complex)
    grid = y.shape[:1] if y.ndim == 3 else ()
    m = len(y[0]) if grid else len(y)
    chunk = max(1, CHUNK_ELEMENTS // (math.prod(grid) * m * m))
    # one workspace for the step matrices of every chunk: fresh arrays of
    # this size per chunk would make the allocator return and refault pages
    work = np.empty((3, chunk) + grid + (m, m), dtype=complex)
    for si, (h, nodes) in enumerate(segments):
        n = (len(nodes) - 1) // 2
        for c0 in range(0, n, chunk):
            c = min(chunk, n - c0)
            states = np.empty((c,) + y.shape, dtype=complex)
            with np.errstate(over="ignore", invalid="ignore"):
                P = _step_matrices(lift(nodes[2 * c0:2 * (c0 + c) + 1]), h, work[:, :c])
                for k in range(c):
                    y = np.matmul(P[k], y, out=states[k])
            finite = np.isfinite(states).reshape(c, -1).all(axis=1)
            if not finite.all():
                step = c0 + int(np.argmin(finite))
                raise RuntimeError(f"rk4_linear: non-finite state in segment {si} step {step}")
            yield states


def rk4_linear(
    y0: np.ndarray,
    segments: Sequence[tuple[float, np.ndarray]],
    lift: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Every state of rk4_chunks, y0 included: (1 + total steps, *y0.shape)."""
    y0 = np.asarray(y0, dtype=complex)
    total = sum((len(nodes) - 1) // 2 for _, nodes in segments)
    out = np.empty((total + 1,) + y0.shape, dtype=complex)
    out[0] = y0
    i = 1
    for states in rk4_chunks(y0, segments, lift):
        out[i:i + len(states)] = states
        i += len(states)
    return out
