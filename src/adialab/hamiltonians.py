"""Time-dependent Hermitian Hamiltonians H(s), s in [0, 1].

Each sample is a dense complex Hermitian matrix.  A TimeDependentHamiltonian
bundles the evaluator with analytic first and second derivatives and the
sup-norm quantities max_s ||H(s)||, max_s ||H'(s)||, max_s ||H''(s)||
consumed by the runtime bound.  The derivatives are always supplied by the
instance: the bound needs sup ||H''|| as an upper bound, and a finite
difference of H carries roundoff of order eps ||H|| / h^2 that can push
the measured value below the true one.

Sup norms are approximated on a uniform grid (default 1025 points):
``norm_spectra`` takes the eigenvalues of H, H' and H'' at every grid point,
sampled by ``eval_batch`` and ``derivative_batch`` in ``chunk_ranges``
batches, and ``norm_bundle`` takes each grid max from them followed by one
golden-section refinement around the grid argmax, evaluated point by point.
A caller that already holds a spectrum on the grid (a tracked path's, or a
translated copy for H(s) - c(s) I) passes it in instead of sampling again.
Every sample passes one Hermiticity check (``_check_hermitian``, relative
to each matrix's largest entry); failing matrices are rejected rather than
symmetrized, so instance bugs fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._linalg import (
    chunk_ranges,
    dagger,
    golden_section_max,
    opnorm_hermitian,
)
from .errors import DomainError, IntegrityError, NumericalError

HERMITICITY_RTOL = 1e-12
DEFAULT_NORM_GRID = 1025

Evaluator = Callable[[float], np.ndarray]
BatchEvaluator = Callable[[np.ndarray], np.ndarray]


def _check_hermitian(mats: np.ndarray, what: str) -> None:
    """Reject non-finite entries, and any matrix of the batch whose defect
    |A - A^dagger| exceeds HERMITICITY_RTOL times its own largest entry."""
    batch = mats.reshape(-1, *mats.shape[-2:])
    for lo, hi in chunk_ranges(0, batch.shape[0], batch.shape[-1]):
        part = batch[lo:hi]
        scales = np.abs(part).max(axis=(1, 2))
        if not np.isfinite(scales).all():
            raise NumericalError(f"{what} contains non-finite entries")
        defects = np.abs(part - dagger(part)).max(axis=(1, 2))
        bad = np.flatnonzero(defects > HERMITICITY_RTOL * scales)
        if bad.size:
            raise IntegrityError(
                f"{what} is not Hermitian: defect {defects[bad[0]]:.3e} exceeds "
                f"{HERMITICITY_RTOL:.0e} * {scales[bad[0]]:.3e}"
            )


@dataclass(frozen=True)
class HermitianOperator:
    """A dense complex square matrix certified Hermitian at construction."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DomainError(f"expected a square matrix, got shape {entries.shape}")
        if entries.shape[0] < 2:
            raise DomainError("matrix dimension must be at least 2")
        _check_hermitian(entries, "matrix")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def operator_norm(a: HermitianOperator) -> float:
    """Largest absolute eigenvalue of a Hermitian operator."""
    return float(opnorm_hermitian(a.entries))


@dataclass(frozen=True)
class TimeDependentHamiltonian:
    """Sampler for H(s) and its analytic derivatives, with instance metadata.

    ``evaluator``, ``d1`` and ``d2`` return H(s), H'(s) and H''(s) and must
    be pure functions of s; all values are immutable after construction,
    so instances are safe to share across threads.  ``evaluator_batch``,
    when provided, evaluates a whole array of s values at once (shape
    (n, dim, dim)) and is used by the hot evolution loops.
    """

    dim: int
    evaluator: Evaluator
    d1: Evaluator
    d2: Evaluator
    name: str = ""
    params: dict = field(default_factory=dict)
    evaluator_batch: BatchEvaluator | None = None

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise DomainError("Hamiltonian dimension must be at least 2")


def _check_s(s: float) -> float:
    s = float(s)
    if not (0.0 <= s <= 1.0):
        raise DomainError(f"s={s} lies outside [0, 1]")
    return s


def _check_s_values(s_values: np.ndarray) -> np.ndarray:
    s_values = np.asarray(s_values, dtype=float)
    # written so that NaN, which fails every comparison, is rejected too
    outside = ~((s_values >= 0.0) & (s_values <= 1.0))
    if outside.any():
        raise DomainError(f"s={s_values[outside].flat[0]} lies outside [0, 1]")
    return s_values


def _check_order(order: int) -> None:
    if order not in (1, 2):
        raise DomainError(f"derivative order must be 1 or 2, got {order}")


def _sample(h: TimeDependentHamiltonian, s: float, order: int = 0) -> np.ndarray:
    """H(s), H'(s) or H''(s) for order 0, 1 or 2, checked for shape only."""
    mat = np.asarray((h.evaluator, h.d1, h.d2)[order](s), dtype=complex)
    if mat.shape != (h.dim, h.dim):
        source = "evaluator" if order == 0 else f"order-{order} derivative"
        raise IntegrityError(
            f"{source} returned shape {mat.shape}, expected {(h.dim, h.dim)}"
        )
    return mat


def eval_at(h: TimeDependentHamiltonian, s: float) -> HermitianOperator:
    """Evaluate H(s), certifying the result Hermitian."""
    return HermitianOperator(_sample(h, _check_s(s)))


def eval_batch(h: TimeDependentHamiltonian, s_values: np.ndarray) -> np.ndarray:
    """Evaluate H on an array of s values; returns shape (n, dim, dim).

    Every matrix of the batch is checked for Hermiticity in one vectorized
    pass.
    """
    s_values = _check_s_values(s_values)
    if h.evaluator_batch is not None:
        mats = np.asarray(h.evaluator_batch(s_values), dtype=complex)
        if mats.shape != (s_values.size, h.dim, h.dim):
            raise IntegrityError(
                f"batch evaluator returned shape {mats.shape}, expected "
                f"{(s_values.size, h.dim, h.dim)}"
            )
    else:
        mats = np.empty((s_values.size, h.dim, h.dim), dtype=complex)
        for i, s in enumerate(s_values):
            mats[i] = _sample(h, float(s))
    _check_hermitian(mats, "evaluator output")
    return mats


def derivative(
    h: TimeDependentHamiltonian, s: float, order: int
) -> HermitianOperator:
    """H'(s) or H''(s) from the instance's analytic ``d1`` or ``d2``."""
    s = _check_s(s)
    _check_order(order)
    return HermitianOperator(_sample(h, s, order))


def derivative_batch(
    h: TimeDependentHamiltonian, s_values: np.ndarray, order: int
) -> np.ndarray:
    """``derivative`` on an array of s values; returns shape (n, dim, dim)."""
    s_values = _check_s_values(s_values)
    _check_order(order)
    mats = np.empty((s_values.size, h.dim, h.dim), dtype=complex)
    for i, s in enumerate(s_values):
        mats[i] = _sample(h, float(s), order)
    _check_hermitian(mats, f"order-{order} derivative")
    return mats


@dataclass(frozen=True)
class NormBundle:
    """Grid suprema of ||H||, ||H'||, ||H''|| over s in [0, 1]."""

    norm_H: float
    norm_H1: float
    norm_H2: float
    grid_size: int

    def __post_init__(self) -> None:
        for label, value in (
            ("norm_H", self.norm_H),
            ("norm_H1", self.norm_H1),
            ("norm_H2", self.norm_H2),
        ):
            if value < 0.0:
                raise IntegrityError(f"{label} is negative: {value}")

    def to_dict(self) -> dict:
        return {
            "norm_H": self.norm_H,
            "norm_H1": self.norm_H1,
            "norm_H2": self.norm_H2,
            "grid_size": self.grid_size,
        }


def _refined_max(
    values: np.ndarray, grid: np.ndarray, point_fn: Callable[[float], float]
) -> float:
    """Grid max plus one golden-section refinement around the argmax."""
    i = int(np.argmax(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    best = float(values[i])
    if hi > lo:
        _, refined = golden_section_max(point_fn, float(lo), float(hi))
        best = max(best, float(refined))
    return best


def norm_spectra(
    h: TimeDependentHamiltonian,
    grid_size: int = DEFAULT_NORM_GRID,
    h_eigenvalues: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues of H, H' and H'' on ``norm_bundle``'s grid, (grid_size, dim) each.

    Samples are taken in ``chunk_ranges`` batches, so one batch of matrices
    is alive at a time.  ``h_eigenvalues``, when given, is H's spectrum on
    the same grid (a path tracked on it holds one), and H is not sampled.
    """
    if grid_size < 2:
        raise DomainError("grid_size must be at least 2")
    grid = np.linspace(0.0, 1.0, grid_size)
    orders = (0, 1, 2) if h_eigenvalues is None else (1, 2)
    spectra = {order: np.empty((grid_size, h.dim)) for order in orders}
    for lo, hi in chunk_ranges(0, grid_size, h.dim):
        for order in orders:
            if order == 0:
                mats = eval_batch(h, grid[lo:hi])
            else:
                mats = derivative_batch(h, grid[lo:hi], order)
            spectra[order][lo:hi] = np.linalg.eigvalsh(mats)
            del mats  # one batch alive at a time
    return spectra.get(0, h_eigenvalues), spectra[1], spectra[2]


def norm_bundle(
    h: TimeDependentHamiltonian,
    grid_size: int = DEFAULT_NORM_GRID,
    *,
    spectra: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> NormBundle:
    """Measure the sup norms of H, H' and H'' on a uniform grid.

    ``spectra`` are the eigenvalues of H, H' and H'' at the grid points, as
    ``norm_spectra`` returns them; when omitted they are computed.  The
    refinement around each grid argmax evaluates ``h`` point by point.
    """
    if spectra is None:
        spectra = norm_spectra(h, grid_size)
    elif any(np.shape(spec) != (grid_size, h.dim) for spec in spectra):
        raise DomainError(f"spectra must have shape {(grid_size, h.dim)} each")
    grid = np.linspace(0.0, 1.0, grid_size)
    point_fns = (
        lambda s: operator_norm(eval_at(h, s)),
        lambda s: operator_norm(derivative(h, s, 1)),
        lambda s: operator_norm(derivative(h, s, 2)),
    )
    out = [
        _refined_max(np.abs(spec).max(axis=1), grid, point_fn)
        for spec, point_fn in zip(spectra, point_fns)
    ]
    return NormBundle(out[0], out[1], out[2], grid_size)


__all__ = [
    "HermitianOperator",
    "TimeDependentHamiltonian",
    "NormBundle",
    "eval_at",
    "eval_batch",
    "derivative",
    "derivative_batch",
    "operator_norm",
    "norm_bundle",
    "norm_spectra",
    "DEFAULT_NORM_GRID",
    "HERMITICITY_RTOL",
]
