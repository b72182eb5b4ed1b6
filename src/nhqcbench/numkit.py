"""Dense linear algebra and the one RK4 engine for small systems.

Matrices are plain ``numpy`` arrays, real or complex, ``(d, d)`` with
``d`` between 2 and 8 for Hamiltonians and ``(d*d, d*d)`` for Lindblad
generators; the engines compute in the dtype they are given, so callers
choose the representation.  Hermitian and unitary properties are measured
by the defect helpers rather than carried by a wrapper type; callers
validate at the boundaries where they matter.  The Taylor polynomial of
``expm_taylor`` is the one matrix exponential of the package, for stacks
of any matrices (both oracles use it); it takes the stack it is given in
one pass, so callers bound its size.  ``expm_embedded`` takes exponents
already in the real embedding phi, which turns each entry a + ib into the
2x2 block [[a, -b], [b, a]] and in which stacked products are several
times cheaper than complex ones; its callers form exponents that are
anti-Hermitian by construction (the unitary oracle from checked ops, the
holonomy reconstruction from symmetrized A and K), so nothing checks
Hermiticity per exponent.  ``combine`` is the one product of coefficient
rows with fixed terms (a drive's operators or their lifts), with the same
bits for a row alone as inside a stack.  ``node_last_product`` multiplies
stacks of small complex matrices laid out node-last (the node axis
innermost) by one broadcast multiply-add per summed index, where a stacked
einsum or ``@`` costs hundreds of ns per matrix: it takes every contraction
of the holonomy checks, which keep 2 to 4 rows and sum over up to 8.  Its
cost grows with the product of all three widths, so a stack 8 wide
throughout is faster by ``@``; the real stacks of 6x6 and larger (RK4 step
matrices, oracle exponents, Taylor polynomials) stay on ``matmul``.

Both engines take matrices only: ``ordered_product`` multiplies an array
of factors in time order, and ``rk4_chunks`` integrates every linear ODE
y' = A(t) y in the package (A = phi(-iH) for propagators, A = the real
Lindblad generator for density matrices) as a chain of precomputed RK4
step matrices, reading runs of generators from an array or from a lazy
sequence that builds each run as it is read, or taking one generator
broadcast along a segment whole, optionally for a whole grid of them at
once, and yields the states chunk by chunk.  A stack broadcast along its
first axis (stride 0) is the one form of "constant" either engine knows;
callers pass it for square pulses, and no value is ever probed.  Both
use the same blocking: products of blocks of about sqrt(n) consecutive
factors are built side by side, one batched matmul per block position, so
a run of n small matrices costs about 2 sqrt(n) numpy calls instead of n.
The RK4 chain blocks every state: a propagator in blocks of b =
ceil(sqrt(n)), a narrower state (density coordinates, a vector) in blocks
of at most ceil(sqrt(m r)), so a segment takes about n/b + b numpy calls.
b depends only on the step count and the state's shape, never on the grid
size or the chunk budget, so neither of them moves a bit.
"""
from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

HERMITIAN_TOL = 1e-12
# entries per batched array in rk4_chunks, the Lindblad oracle and the
# grid blocks of propagate_lindblad_grid (512 KiB complex, 256 KiB real)
CHUNK_ELEMENTS = 1 << 15


def hermiticity_defect(M: np.ndarray) -> float | np.ndarray:
    """max |M - M^dagger| over the entries of each matrix of M (..., d, d)."""
    return np.abs(M - M.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def unitarity_defect(M: np.ndarray) -> float:
    """The Gram defect max |M M^dagger - I|, I = eye(r), over the entries of
    one matrix M (r, c) or of every matrix of a stack (n, r, c): the
    unitarity of square matrices and the orthonormality of the rows of
    frames.  M M^dagger is Hermitian, so only its rows i <= k are formed,
    in real arithmetic on node-last copies of Re M and Im M, and the
    largest re^2 + im^2 of an entry takes the one square root.  The copies
    are taken per block of max(1, CHUNK_ELEMENTS // (r c)) matrices, so a
    trajectory-sized stack is never copied whole; each block does the
    per-matrix arithmetic of the whole stack, and the largest block value
    is returned.  NaN in M reads NaN, squares that overflow read inf, and
    an empty stack reads 0."""
    M = M.reshape((-1,) + M.shape[-2:])
    block = max(1, CHUNK_ELEMENTS // (M.shape[-2] * M.shape[-1]))
    worst = [_gram_squares(M[b0:b0 + block]) for b0 in range(0, len(M), block)]
    return math.sqrt(np.max(worst, initial=0.0))


def _gram_squares(M: np.ndarray) -> float:
    """The largest |M M^dagger - I|^2 over the entries of a nonempty stack
    M (n, r, c), on node-last copies of Re M and Im M, which are freed on
    return."""
    re, im = (np.ascontiguousarray(x.transpose(1, 2, 0)) for x in (M.real, M.imag))
    worst = []
    for i in range(len(re)):
        # Re and Im of the entries (i, k >= i) of the Gram matrix, (r - i, n)
        gram_re = np.einsum("jn,kjn->kn", re[i], re[i:]) + np.einsum("jn,kjn->kn", im[i], im[i:])
        gram_im = np.einsum("jn,kjn->kn", im[i], re[i:]) - np.einsum("jn,kjn->kn", re[i], im[i:])
        gram_re[0] -= 1.0
        with np.errstate(over="ignore"):  # inf fails every threshold
            worst.append((gram_re * gram_re + gram_im * gram_im).max())
    return np.max(worst)


def node_last_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sum_j A[p, j, ...] B[j, r, ...], (P, R, ...): the products of two
    stacks of small matrices whose node axes are last, A (P, J, ...) and
    B (J, R, ...), real or complex, either of them possibly broadcast along
    its nodes (stride 0), by one broadcast multiply-add per summed index j
    in order."""
    out = A[:, 0, None] * B[0]
    for j in range(1, len(B)):
        out += A[:, j, None] * B[j]
    return out


def combine(rows: np.ndarray, terms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """rows (n, K) @ terms (K, M), real: the product of system.assemble,
    which assembles every generator and H node of a segment, and of the
    oracle's exponents.  Two rows or more go into out (n, M) when it is
    given.  numpy hands a single row to BLAS gemv, which can round
    otherwise than the gemm that takes a stack of two rows or more, so one
    row is taken as two, in a fresh array: a square segment's one node
    then has the bits of the same node inside a run, as the tests of the
    constant path check."""
    if len(rows) == 1:
        return (np.concatenate([rows, rows]) @ terms)[:1]
    return np.matmul(rows, terms, out=out)


class RejectedMatrix(ValueError):
    """A stack rejected for one of its matrices, whose position `index` the
    message names.  A caller whose stack is a strided run of a longer
    sequence re-raises e.at(i), i being that matrix's index in the sequence."""

    def __init__(self, template: str, index: int):
        super().__init__(template.format(index=index))
        self.template = template
        self.index = index

    def at(self, index: int) -> "RejectedMatrix":
        return RejectedMatrix(self.template, index)


def real_embedding(M: np.ndarray) -> np.ndarray:
    """phi(M), real (..., 2d, 2d), of complex (..., d, d): each entry a + ib
    becomes the 2x2 block [[a, -b], [b, a]], so phi(M) = Re M (x) I +
    Im M (x) [[0, -1], [1, 0]].  phi is an exact algebra homomorphism
    (phi(AB) = phi(A) phi(B), phi(I) = I), so products, polynomials and
    exponentials may be taken in the embedding and read back once.  Rows
    2i and 2i+1 of phi(M), read as complex numbers, are conj(M[i]) and
    i conj(M[i]): the interleaved layout of a complex array."""
    M = np.asarray(M)
    R = np.empty(M.shape[:-2] + (2 * M.shape[-2], 2 * M.shape[-1]))
    Rc = R.view(complex)
    np.conjugate(M, out=Rc[..., 0::2, :])
    np.multiply(Rc[..., 0::2, :], 1j, out=Rc[..., 1::2, :])
    return R


def from_real_embedding(R: np.ndarray) -> np.ndarray:
    """The complex M (..., d, d) with real_embedding(M) = R, read from the
    first column of every 2x2 block of R."""
    return R[..., 0::2, 0::2] + 1j * R[..., 1::2, 0::2]


def _theta(Xs: np.ndarray, scale: complex) -> float:
    """|scale| max_k ||X_k||_1 over a stack Xs (n, d, d); rejects the first
    matrix whose 2 |scale| ||X_k||_1 is not finite: NaN or infinite
    entries, or a norm too large to scale."""
    with np.errstate(over="ignore", invalid="ignore"):  # the rejection names the matrix
        colsums = np.einsum("kij->kj", np.abs(Xs))
    top = abs(scale) * float(colsums.max(initial=0.0))  # NaN propagates through max
    if not math.isfinite(2 * top):
        with np.errstate(over="ignore", invalid="ignore"):
            norms = abs(scale) * colsums.max(axis=-1)
            k = int(np.argmin(np.isfinite(2 * norms)))
        raise RejectedMatrix(f"expm_taylor: |scale| * ||X||_1 = {norms[k]:.3e} in matrix "
                             "{index} is not finite or too large to scale", k)
    return top


def _taylor_degree(theta: float) -> tuple[int, int]:
    """Degree m and squarings s of the Taylor polynomial for exponents of
    norm at most theta: s = ceil(log2 2 theta) above 1/2, else 0, and the
    smallest m with (theta/2^s)^(m+1) / (m+1)! e^(theta/2^s) <= 2^-53."""
    s = math.ceil(math.log2(2 * theta)) if theta > 0.5 else 0
    theta = math.ldexp(theta, -s)
    m = 1
    while theta ** (m + 1) / math.factorial(m + 1) * math.exp(theta) > 2.0 ** -53:
        m += 1
    return m, s


def _taylor_polynomial(A: np.ndarray, m: int, s: int, out: np.ndarray) -> None:
    """The degree-m Taylor polynomial of exp(A) for a stack A (c, k, k) by
    Horner's rule, squared s times, written to out (c, k, k)."""
    tmp = np.empty_like(out)
    eye = np.eye(A.shape[-1])
    # Horner: P = I + A/m, then P = I + A P / k for k = m-1, ..., 1
    np.multiply(A, 1 / m, out=out)
    out += eye
    for k in range(m - 1, 0, -1):
        np.matmul(A, out, out=tmp)
        np.multiply(tmp, 1 / k, out=out)
        out += eye
    for _ in range(s):
        np.matmul(out, out, out=tmp)
        out[...] = tmp


def _taylor(Xs: np.ndarray, theta: float, scale: complex) -> np.ndarray:
    """exp(scale*X) of a stack Xs (n, d, d) whose exponents are bounded in
    norm by theta, by the Taylor polynomial _taylor_degree picks."""
    m, s = _taylor_degree(theta)
    E = np.empty(Xs.shape, dtype=np.result_type(Xs, scale))
    _taylor_polynomial((scale * 0.5 ** s) * Xs, m, s, E)
    return E


def expm_embedded(Y: np.ndarray, dt: float) -> np.ndarray:
    """exp(dt*Y) for a stack Y (n, 2d, 2d) of real embeddings phi(-iX) of
    Hermitian X: real_embedding(exp(-i*X*dt)).

    The Taylor polynomial of expm_taylor runs on the embedded exponents,
    where a stacked real product is several times cheaper than a complex
    one, but its degree and scaling come from the complex theta = |dt|
    max_k ||X_k||_1 (the embedding's 1-norm can be up to sqrt 2 larger):
    the even rows of Y, read as complex, are conj(-iX), so theta is
    expm_taylor's, taken on that view (Y is copied first if its last axis
    is not contiguous).

    Rejects, naming the first such matrix, a stack in which some
    2 |dt| ||X_k||_1 is not finite, as expm_taylor does.
    """
    if Y.strides[-1] != Y.itemsize:
        Y = np.ascontiguousarray(Y)
    return _taylor(Y, _theta(Y[:, 0::2].view(complex), dt), dt)


def expm_taylor(X: np.ndarray, scale: complex) -> np.ndarray:
    """exp(scale*X) for one matrix (d, d) or a stack (n, d, d), as a Taylor
    polynomial whose truncation error is below the unit roundoff.

    theta = |scale| max_k ||X_k||_1 bounds the norm of every exponent in the
    stack.  Above 1/2 the exponents are scaled by 2^-s, s = ceil(log2
    2 theta), and the result is squared s times.  The degree is the smallest
    m with theta^(m+1) / (m+1)! e^theta <= 2^-53 (Bader, Blanes & Casas,
    Mathematics 7, 1174 (2019); Al-Mohy & Higham, SIAM J. Matrix Anal.
    Appl. 31, 970 (2009)), so oracle slices, with theta ~ 1e-4 to 1e-2, need
    m = 3 to 5: m - 1 batched matmuls each by Horner's rule.

    The result has the dtype of np.result_type(X, scale): real for a real
    stack and a real scale.

    Rejects, naming the first such matrix, a stack in which some
    2 |scale| ||X_k||_1 is not finite: NaN or infinite entries, or a norm
    too large to scale.
    """
    X = np.asarray(X)
    d = X.shape[-1]
    Xs = X.reshape(-1, d, d)
    return _taylor(Xs, _theta(Xs, scale), scale).reshape(X.shape)


def ordered_product(Ms: np.ndarray) -> np.ndarray:
    """Time-ordered product M[n-1] ... M[1] M[0] of an array of n >= 1
    factors (n, d, d).

    The products of blocks of b = ceil(sqrt(n)) consecutive factors are
    built side by side, one batched matmul per block position i on the
    factors Ms[i::b] (the short last block stops early), then chained in
    order.  Unlike a pairwise tree, this keeps rounding errors on runs of
    equal factors from adding up coherently.  For one factor broadcast
    along the stack (stride 0) every block multiplies the same matrices in
    the same order, so one block's products serve them all, the short
    last block's among them.
    """
    n = len(Ms)
    if n < 1:
        raise ValueError("ordered_product of an empty stack: 0 factors")
    b = math.isqrt(n - 1) + 1
    if Ms.strides[0] == 0:
        powers = [Ms[0].copy()]
        for _ in range(1, b):
            powers.append(Ms[0] @ powers[-1])
        blocks = -(-n // b)
        P = [powers[-1]] * (blocks - 1) + [powers[n - (blocks - 1) * b - 1]]
    else:
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


def _block_size(n: int, m: int, r: int) -> int:
    """The block size b of rk4_chunks for a segment of n steps and states
    (.., m, r): ceil(sqrt(n)), and for narrow states (r < m) at most
    ceil(sqrt(m r))."""
    b = math.isqrt(n - 1) + 1 if n else 1
    return b if r >= m else min(b, math.isqrt(m * r - 1) + 1)


def rk4_chunks(
    y0: np.ndarray, segments: Sequence[tuple[float, Sequence[np.ndarray]]]
) -> Iterator[np.ndarray]:
    """Fixed-step RK4 for the linear ODE y' = A(t) y, yielding the states
    after y0 chunk by chunk.

    The states have y0's dtype, so real generators with a real y0 make a
    real run.  y0 is (m,), (m, r) or (G, m, r); a leading grid axis
    carries G independent problems on one step lattice, with one generator
    per grid point, (.., G, m, m).  Each segment is (h, A): A holds the
    generators on the half-step lattice of n steps, 2n+1 of them, as an
    array or any sequence that len() measures and a slice reads, so a lazy
    sequence can build each run as it is read.  The step matrices are built
    in batched chunks of about CHUNK_ELEMENTS // (G m**2) steps, rounded to
    whole blocks (below), so transient memory does not grow with the step
    count.  Each chunk of states is a (c, *y0.shape) view of one buffer
    held for the call: it is valid until the next chunk is requested, and
    the last one stays valid.  The buffer is coordinate-major, allocated
    as (m, rows, *grid, r) and handed out through np.moveaxis, so each
    coordinate of a chunk, (c, *grid, r), is one contiguous run: for a
    y0 (.., m, r), np.moveaxis(chunk, -2, 0).reshape(m, -1) is a view.

    A segment whose A is one node broadcast along the lattice (stride 0, a
    square pulse) builds its step matrix once, from the same three nodes,
    and no stack of them: the batched products act matrix by matrix, so
    it holds the bits of every step matrix the general path builds.

    The steps of a segment are chained in blocks of b: the prefix products
    P_j ... P_1 of all the chunk's blocks are built side by side in place,
    one batched matmul per block position j; one matmul per block carries
    the state from block end to block end, and one batched matmul gives
    the states inside the blocks from the state before each, about n/b + b
    numpy calls for n steps where a plain chain makes n.  A state at least
    as wide as the step matrix (r >= m, as for propagators) takes b =
    ceil(sqrt(n)).  A prefix product costs m**3 per step against m**2 r
    for advancing a state of r columns, so a narrower state, such as a
    batch of density coordinates or a vector (r = 1), takes b =
    min(ceil(sqrt(n)), ceil(sqrt(m r))): 8 for six 3-level densities, 20
    for six 8-level ones.  b depends only on n and the state's shape (m, r),
    never on G, on CHUNK_ELEMENTS or on whether the segment is broadcast,
    so a grid point reads the same alone or inside a grid, no chunk
    budget moves a bit, and a square pulse keeps the bits of its
    materialized stack.  Chunks hold a whole number of blocks (identity
    steps pad the segment's last block), so block boundaries depend only
    on the step index within the segment.  A chunk of a wide state holds
    CHUNK_ELEMENTS // (G m**2) steps rounded down to whole blocks, at
    least one.  A varying chunk of a narrow state holds at least four
    blocks, so that its b - 1 prefix matmuls each act on several blocks,
    as long as those fit in four chunk budgets, and at least one block:
    the four-block floor would hold about 8 MB of step matrices per grid
    point for an 8-level density, and ran slower there than one block.
    In a broadcast segment every block's prefix products are the powers
    P, P^2, ..., P^b of its one step matrix, built once for the segment
    and shared by all its blocks; a narrow state's chunks are then sized
    by the states alone, CHUNK_ELEMENTS // y0.size steps rounded up to
    whole blocks.

    Aborts on the first non-finite state, naming segment and step; the
    overflow of a diverging run, or of building its generators, is left to
    that check instead of being warned about.  A chunk is checked by the
    sum of its states; only when that is not finite (a non-finite state,
    or finite ones whose sum overflows) are its steps checked one by one.
    """
    y0 = np.asarray(y0)
    y = y0[:, None] if y0.ndim == 1 else y0  # a vector is chained as one column
    grid = y.shape[:-2]
    m, r = y.shape[-2:]
    chunk = max(1, CHUNK_ELEMENTS // (math.prod(grid) * m * m))
    steps = [(len(A) - 1) // 2 for _, A in segments]
    broadcast = [isinstance(A, np.ndarray) and A.strides[0] == 0 for _, A in segments]
    blocks = [_block_size(n, m, r) for n in steps]

    def whole_blocks(b: int, one: bool) -> int:
        """The steps per chunk, a whole number of blocks (see above)."""
        if r >= m:
            return max(b, chunk // b * b)
        if one:
            return -(-max(1, CHUNK_ELEMENTS // y.size) // b) * b
        return b * max(1, chunk // b, min(4, 4 * chunk // b))
    runs = [whole_blocks(b, one) for one, b in zip(broadcast, blocks)]
    rows = [min(run, -(-n // b) * b) for n, b, run in zip(steps, blocks, runs)]
    # one workspace for the step matrices, three slots per step of a chunk
    # (a broadcast segment holds its b powers, at least the three slots of
    # its one build), and one buffer for the states of every chunk: fresh
    # arrays of this size per chunk would make the allocator return and
    # refault pages
    held = [max(3, b) if one else 3 * rs for one, b, rs in zip(broadcast, blocks, rows)]
    work = np.empty((max(held, default=0),) + grid + (m, m), dtype=y.dtype)
    # coordinate-major, so that each coordinate of a chunk is one contiguous run
    buf = np.moveaxis(np.empty((m, max(rows, default=0)) + grid + (r,), dtype=y.dtype), 0, -2)
    for si, ((h, A), n, b, run, one) in enumerate(zip(segments, steps, blocks, runs, broadcast)):
        if one and n:
            powers = work[:b]
            with np.errstate(over="ignore", invalid="ignore"):
                _step_matrices(A[:3], h, work[:3, None])  # into powers[0]
                for j in range(1, b):
                    np.matmul(powers[0], powers[j - 1], out=powers[j])
        for c0 in range(0, n, run):
            c = min(run, n - c0)
            cb = -(-c // b) * b  # whole blocks: identity steps, dropped below, pad the last
            states = buf[:cb]
            start = y
            with np.errstate(over="ignore", invalid="ignore"):
                if one:
                    # every block end is P^b, and the prefix products are shared
                    P = np.broadcast_to(powers[-1], (cb,) + powers.shape[1:])
                    inside = powers[:-1]
                else:
                    P = work[:cb]
                    _step_matrices(A[2 * c0:2 * (c0 + c) + 1], h,
                                   work[:3 * c].reshape((3, c) + work.shape[1:]))  # into P[:c]
                    P[c:] = np.eye(m)
                    for j in range(1, b):
                        np.matmul(P[j::b], P[j - 1::b], out=P[j::b])
                    inside = P.reshape((-1, b) + P.shape[1:])[:, :-1]
                for k in range(b - 1, cb, b):
                    y = np.matmul(P[k], y, out=states[k])
                if b > 1:
                    # the states inside each block, from the state before it
                    S = states.reshape((-1, b) + y.shape)
                    before = np.concatenate([start[None], S[:-1, -1]])[:, None]
                    np.matmul(inside, before, out=S[:, :-1])
                states = states[:c]
                total = states.sum()
            # a copy: the next chunk overwrites the buffer while it reads this state
            y = states[-1].copy()
            if not np.isfinite(total):
                finite = np.isfinite(states).reshape(c, -1).all(axis=1)
                if not finite.all():
                    step = c0 + int(np.argmin(finite))
                    raise RuntimeError(f"rk4_chunks: non-finite state in segment {si} step {step}")
            yield states.reshape((c,) + y0.shape)
