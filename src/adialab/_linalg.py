"""Dense linear-algebra helpers shared across modules.

Everything here is batch-oriented: a trailing (d, d) matrix shape with an
arbitrary leading batch axis, so step unitaries and grid scans can be
vectorized in chunks.  No norm takes an SVD: the 2x2 Hermitian norm has a
closed form, and the operator norm of A is the root of that of A^H A.

Every chunked loop in the package sizes its batches by ``chunk_size``, most
of them through ``chunk_ranges``: max(64, 2**21 // d^2) matrices, i.e.
2**21 entries (32 MiB of complex128).
Each batch is copied several times through evaluation, eigendecomposition
and exponentiation, so this budget bounds peak memory while leaving every
numpy call enough matrices to amortize Python overhead.  For power-of-two
d the batch size is a power of two, so a pairwise product split at batch
boundaries reproduces the unsplit product tree exactly.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

# Second-order finite-difference stencils: (offset, weight) pairs, summed in
# the listed order and divided by 2h (first derivative) or h^2 (second).
# "left"/"right" are the one-sided stencils for the lower/upper end.
_STENCILS = {
    (1, "central"): ((1, 1.0), (-1, -1.0)),
    (1, "left"): ((0, -3.0), (1, 4.0), (2, -1.0)),
    (1, "right"): ((0, 3.0), (-1, -4.0), (-2, 1.0)),
    (2, "central"): ((1, 1.0), (0, -2.0), (-1, 1.0)),
    (2, "left"): ((0, 2.0), (1, -5.0), (2, 4.0), (3, -1.0)),
    (2, "right"): ((0, 2.0), (-1, -5.0), (-2, 4.0), (-3, -1.0)),
}


def dagger(mats: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(mats, -1, -2))


def opnorm_hermitian(mats: np.ndarray) -> np.ndarray:
    """Operator norm (largest |eigenvalue|) of Hermitian input, batched; NaN
    for a NaN entry, where LAPACK can return finite eigenvalues."""
    if mats.shape[-1] == 2:  # |(a+d)/2| + hypot((a-d)/2, |b|): nothing cancels
        a, d = mats[..., 0, 0].real, mats[..., 1, 1].real
        return np.abs(0.5 * (a + d)) + np.hypot(0.5 * (a - d), np.abs(mats[..., 0, 1]))
    nan = np.isnan(mats).any(axis=(-2, -1))
    if nan.any():
        mats = np.where(nan[..., None, None], 0.0, mats)
    return np.where(nan, np.nan, np.abs(np.linalg.eigvalsh(mats)).max(axis=-1))


def opnorm(mats: np.ndarray) -> np.ndarray:
    """Largest singular value, no symmetry assumed: sigma_max^2 is the top
    eigenvalue of the positive semidefinite A^H A, accurate to a few ulps."""
    return np.sqrt(opnorm_hermitian(dagger(mats) @ mats))


def eigh_batch(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh with a fast path for exactly-real Hermitian input."""
    if np.iscomplexobj(mats) and not mats.imag.any():
        return np.linalg.eigh(mats.real)
    return np.linalg.eigh(mats)


def _expm_i_two_level(mats: np.ndarray, t: float) -> np.ndarray:
    # Closed-form spectral exponential for 2x2 Hermitian input:
    # A = c*I + M0 with traceless M0, M0^2 = r^2 * I, so
    # exp(i t A) = e^{i t c} (cos(t r) I + i sin(t r)/r * M0).
    a = mats[..., 0, 0].real
    d = mats[..., 1, 1].real
    b = mats[..., 0, 1]
    c = 0.5 * (a + d)
    mu = 0.5 * (a - d)
    r = np.sqrt(mu * mu + np.abs(b) ** 2)
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


def chunk_size(dim: int) -> int:
    """Matrices per batch of dim x dim matrices."""
    return max(64, 2**21 // (dim * dim))


def chunk_ranges(lo: int, hi: int, dim: int) -> Iterator[tuple[int, int]]:
    """Consecutive (start, stop) batches of dim x dim matrices covering lo..hi-1."""
    step = chunk_size(dim)
    for start in range(lo, hi, step):
        yield start, min(start + step, hi)


def grid_derivative(values: np.ndarray, h: float, order: int) -> np.ndarray:
    """First or second derivative along axis 0 of samples with spacing h."""
    n = values.shape[0]
    out = np.empty_like(values)
    for first, stop, side in (
        (1, n - 1, "central"), (0, 1, "left"), (n - 1, n, "right")
    ):
        (k0, w0), *rest = _STENCILS[order, side]
        total = w0 * values[first + k0 : stop + k0]
        for k, w in rest:
            total = total + w * values[first + k : stop + k]
        out[first:stop] = total / (2 * h if order == 1 else h**2)
    return out

