"""Dense linear-algebra helpers shared across modules.

Everything here is batch-oriented: a trailing (d, d) matrix shape with an
arbitrary leading batch axis, so step unitaries and grid scans can be
vectorized in chunks.  No norm takes an SVD: the 2x2 Hermitian norm has a
closed form, and the operator norm of A is the root of that of A^H A.

Every chunked loop in the package is cut here, by ``chunk_ranges`` or
``chunk_map``, into batches of ``chunk_size`` = max(64, 2**19 // d^2)
matrices, i.e. 2**19 entries (8 MiB of complex128); no other module sizes
a batch.  Each batch is copied several times through evaluation,
eigendecomposition and exponentiation, so this budget bounds peak memory
while leaving every numpy call enough matrices to amortize Python
overhead.  For power-of-two d the batch size is a power of two, so a
pairwise product split at batch boundaries reproduces the unsplit product
tree exactly.

``chunk_map`` runs a loop's per-chunk work on a pool of W = min(usable
CPUs, 4) threads made for that call, with at most W chunks in flight:
together they hold 2**21 entries, one batch's budget before the pool.
Chunk boundaries depend on d alone, never on W, so results do not depend
on the core count.  Its one caller is the tracker, whose per-chunk work,
evaluation plus ``branch_eigenpairs``' ``eigvalsh`` and one batched
shifted solve (the closed form at d = 2), releases the interpreter lock
and forms no (n, d, d) eigenvector batch.  Closing the pool calls glibc's
``malloc_trim``: each thread's arena keeps up to two freed batches
resident, so peak memory would otherwise depend on which thread ran what.
The evolution and proof-check folds stay sequential on ``chunk_ranges``,
as each chunk's product feeds a running product and their d = 2
closed-form steps ran slower threaded; both reduce a chunk through
``segment_products``, the one fold, cut at their snapshot stride or block
length.
"""

from __future__ import annotations

import ctypes
import os
from collections import deque
from concurrent import futures
from itertools import islice
from typing import Callable, Iterator, TypeVar

import numpy as np

MAX_WORKERS = 4
_LIBC = ctypes.CDLL(None) if os.name == "posix" else None
_MALLOC_TRIM = getattr(_LIBC, "malloc_trim", None)  # glibc only
# branch_eigenpairs shifts its solve SHIFT_ULPS ulps of ||A|| above gamma_r,
# so that an exactly computed eigenvalue (of a diagonal A, say) does not
# make the solve singular
SHIFT_ULPS = 8
BRANCH_RESIDUAL_RTOL = 1e-13
_T = TypeVar("_T")


def dagger(mats: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(mats, -1, -2))


def opnorm_hermitian(mats: np.ndarray) -> np.ndarray:
    """Operator norm (largest |eigenvalue|) of Hermitian input, batched; NaN
    for a NaN entry, where LAPACK can return finite eigenvalues."""
    if mats.shape[-1] == 2:  # |c| + r: nothing cancels
        c, _, _, r = _two_level(mats)
        return np.abs(c) + r
    nan = np.isnan(mats).any(axis=(-2, -1))
    if nan.any():
        mats = np.where(nan[..., None, None], 0.0, mats)
    return np.where(nan, np.nan, np.abs(np.linalg.eigvalsh(mats)).max(axis=-1))


def opnorm(mats: np.ndarray) -> np.ndarray:
    """Largest singular value, no symmetry assumed: sigma_max^2 is the top
    eigenvalue of the positive semidefinite A^H A, accurate to a few ulps."""
    return np.sqrt(opnorm_hermitian(dagger(mats) @ mats))


def _real_if_exact(mats: np.ndarray) -> np.ndarray:
    """The real part of complex input whose imaginary part is exactly zero:
    LAPACK's real routines are the fast path for such Hermitian matrices."""
    if np.iscomplexobj(mats) and not mats.imag.any():
        return mats.real
    return mats


def eigh_batch(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh with a fast path for exactly-real Hermitian input."""
    return np.linalg.eigh(_real_if_exact(mats))


def _two_level(mats: np.ndarray) -> tuple[np.ndarray, ...]:
    """(c, mu, b, r) of 2x2 Hermitian input A = c I + [[mu, b], [b*, -mu]],
    whose eigenvalues are c -+ r with r = hypot(mu, |b|)."""
    a, d = mats[..., 0, 0].real, mats[..., 1, 1].real
    b = mats[..., 0, 1]
    mu = 0.5 * (a - d)
    return 0.5 * (a + d), mu, b, np.hypot(mu, np.abs(b))


def _two_level_eigenpairs(mats: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    # [[mu, b], [b*, -mu]] has the eigenvector (p, b*) or (b, p) for +r and
    # (-b, p) or (p, -b*) for -r, with p = r + |mu|: the first form of each
    # when mu >= 0.  p >= |b| adds no cancellation; b = mu = 0 (a multiple
    # of I) takes a unit vector
    c, mu, b, r = _two_level(mats)
    p = np.where(r > 0.0, r + np.abs(mu), 1.0)
    upper = rank == 1
    leading = (mu >= 0.0) == upper  # p sits in component 0
    off = np.conj(b) if upper else -np.conj(b)
    column = np.empty(mats.shape[:-1], dtype=complex)
    column[..., 0] = np.where(leading, p, np.conj(off))
    column[..., 1] = np.where(leading, off, p)
    column /= np.hypot(p, np.abs(b))[..., None]
    return np.stack([c - r, c + r], axis=-1), column


def branch_eigenpairs(
    mats: np.ndarray, rank: int, start: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenvalue, ascending, and the unit rank-``rank`` eigenvector of
    each Hermitian matrix of a batch: (..., d) and (..., d).

    For d = 2 both come in closed form and ``start`` is unused.  Otherwise
    the eigenvalues are LAPACK's ``eigvalsh`` (real routines for exactly
    real input), and the vector is one shifted solve
    (A - (gamma_r + eta) I) x = start with eta = SHIFT_ULPS ulps of ||A||,
    so ``start`` must not be orthogonal to the wanted vector.  Each x is
    certified by its residual: ||A x - gamma_r x|| <= BRANCH_RESIDUAL_RTOL
    * ||A||, which bounds sin(angle(x, v_r)) by that residual over the
    distance from gamma_r to the other eigenvalues (Davis-Kahan).  If the
    solve is singular or not finite, or any x fails its certificate, the
    whole batch takes its vectors from ``eigh_batch``; the eigenvalues stay.
    """
    mats = np.asarray(mats)
    if mats.shape[-1] == 2:
        return _two_level_eigenpairs(mats, rank)
    mats = _real_if_exact(mats)
    evals = np.linalg.eigvalsh(mats)
    gamma = evals[..., rank]
    scale = np.abs(evals).max(axis=-1)
    column = _shifted_solve(mats, gamma + SHIFT_ULPS * np.spacing(scale), start)
    if column is not None:
        applied = (mats @ column[..., None])[..., 0]
        residual = np.linalg.norm(applied - gamma[..., None] * column, axis=-1)
        if (residual <= BRANCH_RESIDUAL_RTOL * scale).all():
            return evals, column
    return evals, eigh_batch(mats)[1][..., rank]


def _shifted_solve(
    mats: np.ndarray, shift: np.ndarray, start: np.ndarray
) -> np.ndarray | None:
    """Unit solutions of (A - shift I) x = start, or None when LAPACK finds
    a matrix singular or a solution is not finite."""
    shifted = mats.copy()
    diagonal = np.arange(mats.shape[-1])
    shifted[..., diagonal, diagonal] -= shift[..., None]
    rhs = np.broadcast_to(start, mats.shape[:-1])[..., None]
    try:
        raw = np.linalg.solve(shifted, rhs)[..., 0]
    except np.linalg.LinAlgError:
        return None
    # scale by the largest entry first: no overflow in the norm, no 0/0
    peak = np.abs(raw).max(axis=-1, keepdims=True)
    if not (np.isfinite(peak).all() and peak.all()):
        return None
    raw /= peak
    raw /= np.linalg.norm(raw, axis=-1, keepdims=True)
    return raw


def _expm_i_two_level(mats: np.ndarray, t: float) -> np.ndarray:
    # Closed-form spectral exponential for 2x2 Hermitian input:
    # A = c*I + M0 with traceless M0, M0^2 = r^2 * I, so
    # exp(i t A) = e^{i t c} (cos(t r) I + i sin(t r)/r * M0).
    c, mu, b, r = _two_level(mats)
    co = np.cos(t * r)
    safe_r = np.where(r > 0.0, r, 1.0)
    f = np.where(r > 0.0, np.sin(t * r) / safe_r, t)  # limit sin(tr)/r -> t
    phase = np.exp(1j * t * c)
    out = np.empty(mats.shape, dtype=complex)
    out[..., 0, 0] = phase * (co + 1j * f * mu)
    out[..., 0, 1] = phase * (1j * f * b)
    out[..., 1, 0] = phase * (1j * f * np.conj(b))
    out[..., 1, 1] = phase * (co - 1j * f * mu)
    return out


def expm_i_hermitian(mats: np.ndarray, t: float) -> np.ndarray:
    """exp(i*t*A) for Hermitian A (batched), by spectral decomposition.

    The 2x2 case uses the analytically diagonalized form; larger matrices
    go through a batched eigendecomposition.  Both are exact up to
    eigensolver precision.
    """
    mats = np.asarray(mats)
    if mats.shape[-1] == 2:
        return _expm_i_two_level(mats, t)
    w, v = eigh_batch(mats)
    phase = np.exp(1j * t * w)
    return (v * phase[..., None, :]) @ dagger(v.astype(complex, copy=False))


def ordered_product(mats: np.ndarray) -> np.ndarray:
    """U_{n-1} @ ... @ U_1 @ U_0 by order-preserving pairwise reduction.

    The product runs over axis 0; any axes between it and the trailing
    matrix shape are batch axes, so (n, g, e, e) input gives the g products
    of shape (e, e) in one reduction.
    """
    if mats.shape[0] == 0:
        raise ValueError("empty product")
    while mats.shape[0] > 1:
        n = mats.shape[0]
        m = n // 2
        paired = np.matmul(mats[1 : 2 * m : 2], mats[0 : 2 * m : 2])
        if n % 2:
            mats = np.concatenate([paired, mats[2 * m :]], axis=0)
        else:
            mats = paired
    return mats[0]


def segment_products(mats: np.ndarray, start: int, stride: int) -> np.ndarray:
    """Ordered products of the runs of one chunk, cut at multiples of stride.

    Row i of ``mats`` is step start + i.  A run ends at each multiple of
    ``stride`` inside the chunk and at the chunk's end, so the result is
    (runs, d, d), in step order.  The whole runs reduce together in one
    batched ``ordered_product``; a partial head and tail run each reduce
    alone.
    """
    n, shape = len(mats), mats.shape[1:]
    head = min(-start % stride, n)
    whole = (n - head) // stride
    tail = head + whole * stride
    runs = [ordered_product(mats[:head])[None]] if head else []
    if whole:
        rows = mats[head:tail].reshape(whole, stride, *shape)
        runs.append(ordered_product(rows.swapaxes(0, 1)))
    if tail < n:
        runs.append(ordered_product(mats[tail:])[None])
    return np.concatenate(runs)


def chunk_size(dim: int) -> int:
    """Matrices per batch of dim x dim matrices."""
    return max(64, 2**19 // (dim * dim))


def chunk_ranges(lo: int, hi: int, dim: int) -> Iterator[tuple[int, int]]:
    """Consecutive (start, stop) batches of dim x dim matrices covering lo..hi-1."""
    step = chunk_size(dim)
    for start in range(lo, hi, step):
        yield start, min(start + step, hi)


def _workers() -> int:
    """W: the CPUs this process may run on, at most MAX_WORKERS."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_WORKERS)


def chunk_map(
    fn: Callable[[int, int], _T], lo: int, hi: int, dim: int
) -> Iterator[tuple[int, int, _T]]:
    """Yield (start, stop, fn(start, stop)) for each chunk of
    ``chunk_ranges(lo, hi, dim)``, in order.

    A range of one chunk, or W = 1, calls fn inline as the loop advances.
    Otherwise the calls run on a pool of W threads made for this call: up
    to W chunks are computed while the caller waits for the next result,
    and up to W - 1 while it uses one.  fn is then called from several
    threads at once.  An exception of fn is raised at its chunk's turn, so
    an earlier chunk's result is always seen first.  Closing the
    generator, as ``contextlib.closing`` does when the caller raises or
    stops early, cancels the chunks not yet started and joins the pool's
    threads: no call of fn, and no thread, outlives it.
    """
    ranges = list(chunk_ranges(lo, hi, dim))
    workers = _workers()
    if len(ranges) < 2 or workers < 2:
        for start, stop in ranges:
            yield start, stop, fn(start, stop)
        return
    pool = futures.ThreadPoolExecutor(workers, thread_name_prefix="adialab-chunk")
    pending: deque = deque()
    queued = iter(ranges)
    try:
        for start, stop in ranges:
            # top up to W chunks in flight, then wait for this one
            for later in islice(queued, workers - len(pending)):
                pending.append(pool.submit(fn, *later))
            yield start, stop, pending.popleft().result()
    finally:
        # a later chunk's own failure is dropped: an earlier error, or the
        # caller's, is the one that propagates
        pool.shutdown(cancel_futures=True)
        if _MALLOC_TRIM is not None:
            _MALLOC_TRIM(0)
