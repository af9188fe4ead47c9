"""Time-dependent Hermitian Hamiltonians H(s), s in [0, 1].

Each sample is a dense complex Hermitian matrix.  A TimeDependentHamiltonian
bundles the evaluator with analytic first and second derivatives, and
``norm_bundle`` measures the sup norms max_s ||H(s)||, max_s ||H'(s)|| and
max_s ||H''(s)|| that the runtime bound consumes.  The derivatives are
always supplied by the instance: the bound needs sup ||H''|| as an upper
bound, and a finite difference of H carries roundoff of order eps ||H|| / h^2
that can push the measured value below the true one.

``affine_hamiltonian`` builds H(s) = (1-s) H0 + s H1 and records its data
(``AffineRecord``) on the instance.  Both endpoints are certified Hermitian
once, at construction, and stored as their Hermitian part, so every sample,
and every shift of it by a real multiple of I (``_shift_by``), is exactly
Hermitian in floating point and ``eval_batch`` does not check it again.
Its norms are exact: s -> ||H(s)|| is convex, so sup ||H|| =
max(||H(0)||, ||H(1)||), ||H'|| = ||D|| with D = H1 - H0, and ||H''|| = 0.
For H(s) - c(s) I, ||H'(s) - c'(s) I|| = max(lambda_max(D) - c'(s),
c'(s) - lambda_min(D)) and ||H''|| = |c''(s)|: scalar functions of s, whose
sup is taken on a uniform grid and refined without forming a matrix.  Only
sup ||H - cI|| needs a spectrum: H's on the grid, translated by c.

Any other instance is sampled: ``norm_spectra`` takes the eigenvalues of H,
H' and H'' at every point of a uniform grid (default 1025 points), sampled
by ``eval_batch`` and ``derivative_batch`` in ``chunk_ranges`` batches.
Every grid sup is followed by one golden-section refinement around the grid
argmax.  A caller that already holds H's spectrum on the grid (a tracked
path's, or a translated copy for H(s) - c(s) I) passes it in instead of
sampling again.  Every sample of such an instance passes one Hermiticity
check (``_check_hermitian``, relative to each matrix's largest entry);
failing matrices are rejected rather than symmetrized, so instance bugs
fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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


@dataclass(frozen=True, eq=False)
class AffineRecord:
    """The data of H(s) = (1-s) h0 + s h1 - c(s) I.

    Both endpoints are certified Hermitian at construction (``IntegrityError``
    otherwise) and stored as their Hermitian part (A + A^dagger)/2, which
    leaves an exactly Hermitian endpoint bit-identical.  ``diff`` is
    D = h1 - h0.  ``shift``, when given, is (c, c', c'') as functions of s
    that accept arrays.
    """

    h0: np.ndarray
    h1: np.ndarray
    shift: tuple[Callable, Callable, Callable] | None = None
    diff: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        h0, h1 = (np.array(end, dtype=complex) for end in (self.h0, self.h1))
        if h0.shape != h1.shape or h0.ndim != 2 or h0.shape[0] != h0.shape[1]:
            raise DomainError("endpoints must be square matrices of equal shape")
        for label, end in (("h0", h0), ("h1", h1)):
            _check_hermitian(end, f"endpoint {label}")
            part = 0.5 * (end + dagger(end))
            part.setflags(write=False)
            object.__setattr__(self, label, part)
        diff = self.h1 - self.h0
        diff.setflags(write=False)
        object.__setattr__(self, "diff", diff)


@dataclass(frozen=True)
class TimeDependentHamiltonian:
    """Sampler for H(s) and its analytic derivatives, with instance metadata.

    ``evaluator``, ``d1`` and ``d2`` return H(s), H'(s) and H''(s) and must
    be pure functions of s; all values are immutable after construction,
    so instances are safe to share across threads.  ``evaluator_batch``,
    when provided, evaluates a whole array of s values at once (shape
    (n, dim, dim)) and is used by the hot evolution loops.  ``affine`` is
    set only by ``affine_hamiltonian`` and ``_shift_by``, which build the
    evaluators from it; it cannot be passed to the constructor.
    """

    dim: int
    evaluator: Evaluator
    d1: Evaluator
    d2: Evaluator
    name: str = ""
    params: dict = field(default_factory=dict)
    evaluator_batch: BatchEvaluator | None = None
    affine: AffineRecord | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise DomainError("Hamiltonian dimension must be at least 2")


def affine_hamiltonian(
    h0: np.ndarray, h1: np.ndarray, *, name: str = "", params: dict | None = None
) -> TimeDependentHamiltonian:
    """H(s) = (1-s) h0 + s h1 with exact analytic derivatives.

    Raises ``IntegrityError`` here, not at the first evaluation, if an
    endpoint is not Hermitian.
    """
    record = AffineRecord(h0, h1)
    h0, h1, diff = record.h0, record.h1, record.diff
    zero = np.zeros_like(h0)
    zero.setflags(write=False)

    def evaluate(s: float) -> np.ndarray:
        return (1.0 - s) * h0 + s * h1

    def evaluate_batch(s_values: np.ndarray) -> np.ndarray:
        s_col = np.asarray(s_values, dtype=float)[:, None, None]
        return (1.0 - s_col) * h0 + s_col * h1

    h = TimeDependentHamiltonian(
        dim=h0.shape[0],
        evaluator=evaluate,
        d1=lambda s: diff,
        d2=lambda s: zero,
        name=name,
        params=dict(params or {}),
        evaluator_batch=evaluate_batch,
    )
    object.__setattr__(h, "affine", record)
    return h


def _shift_by(
    h: TimeDependentHamiltonian,
    shift: tuple[Callable, Callable, Callable],
    name: str,
    params: dict,
) -> TimeDependentHamiltonian:
    """H(s) - c(s) I for shift = (c, c', c''), functions of s arrays.

    The shift of an unshifted affine instance keeps its record, with the
    shift added; any other instance gives a general one.
    """
    c, dc, d2c = shift
    eye = np.eye(h.dim, dtype=complex)

    def evaluate(s: float) -> np.ndarray:
        return h.evaluator(s) - float(c(s)) * eye

    batch = None
    if h.evaluator_batch is not None:

        def batch(s_values: np.ndarray) -> np.ndarray:
            shifts = np.asarray(c(s_values), dtype=float)
            return h.evaluator_batch(s_values) - shifts[:, None, None] * eye

    shifted = TimeDependentHamiltonian(
        dim=h.dim,
        evaluator=evaluate,
        d1=lambda s: h.d1(s) - float(dc(s)) * eye,
        d2=lambda s: h.d2(s) - float(d2c(s)) * eye,
        name=name,
        params=params,
        evaluator_batch=batch,
    )
    if h.affine is not None and h.affine.shift is None:
        object.__setattr__(shifted, "affine", replace(h.affine, shift=shift))
    return shifted


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
    pass, unless the instance carries an ``AffineRecord``: its samples are
    Hermitian by construction.
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
    if h.affine is None:
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
    """Suprema of ||H||, ||H'||, ||H''|| over s in [0, 1].

    Exact for an affine instance, up to the refinement of its shifted
    frame's scalar norm curves; otherwise grid suprema, each refined around
    its argmax.  ``grid_size`` is the grid the measurement used or, when
    exact, would have used.
    """

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
    orders: tuple[int, ...] = (0, 1, 2),
) -> tuple[np.ndarray, ...]:
    """Eigenvalues of H (order 0), H' or H'' on a uniform grid, one
    (grid_size, dim) array per order.

    Samples are taken in ``chunk_ranges`` batches, so one batch of matrices
    is alive at a time.
    """
    if grid_size < 2:
        raise DomainError("grid_size must be at least 2")
    grid = np.linspace(0.0, 1.0, grid_size)
    spectra = {order: np.empty((grid_size, h.dim)) for order in orders}
    for lo, hi in chunk_ranges(0, grid_size, h.dim):
        for order in orders:
            if order == 0:
                mats = eval_batch(h, grid[lo:hi])
            else:
                mats = derivative_batch(h, grid[lo:hi], order)
            spectra[order][lo:hi] = np.linalg.eigvalsh(mats)
            del mats  # one batch alive at a time
    return tuple(spectra[order] for order in orders)


def norm_bundle(
    h: TimeDependentHamiltonian,
    grid_size: int = DEFAULT_NORM_GRID,
    *,
    spectrum: np.ndarray | None = None,
) -> NormBundle:
    """Measure the sup norms of H, H' and H'' over s in [0, 1].

    An instance with an ``AffineRecord`` takes the exact route of the
    module docstring; any other is sampled by ``norm_spectra`` on a uniform
    grid of ``grid_size`` points and refined point by point.  ``spectrum``,
    when given, is H's eigenvalues on that grid, shape (grid_size, dim),
    and H is not sampled; the unshifted affine route needs no spectrum.
    """
    if grid_size < 2:
        raise DomainError("grid_size must be at least 2")
    if spectrum is not None and np.shape(spectrum) != (grid_size, h.dim):
        raise DomainError(f"spectrum must have shape {(grid_size, h.dim)}")
    record = h.affine
    if record is not None and record.shift is None:
        ends = opnorm_hermitian(np.stack([record.h0, record.h1]))
        norm_d = np.abs(np.linalg.eigvalsh(record.diff)).max()
        return NormBundle(float(ends.max()), float(norm_d), 0.0, grid_size)

    grid = np.linspace(0.0, 1.0, grid_size)
    if spectrum is None:
        (spectrum,) = norm_spectra(h, grid_size, (0,))

    def h_fn(s):
        return operator_norm(eval_at(h, s))

    if record is None:
        spectra = (spectrum, *norm_spectra(h, grid_size, (1, 2)))
        curves = [np.abs(spec).max(axis=1) for spec in spectra]
        point_fns = (
            h_fn,
            lambda s: operator_norm(derivative(h, s, 1)),
            lambda s: operator_norm(derivative(h, s, 2)),
        )
    else:
        d_min, d_max = np.linalg.eigvalsh(record.diff)[[0, -1]]
        _, dc, d2c = record.shift

        def h1_fn(s):
            slope = dc(s)
            return np.maximum(d_max - slope, slope - d_min)

        def h2_fn(s):
            return np.abs(d2c(s))

        curves = [np.abs(spectrum).max(axis=1), h1_fn(grid), h2_fn(grid)]
        point_fns = (h_fn, h1_fn, h2_fn)
    out = [_refined_max(c, grid, fn) for c, fn in zip(curves, point_fns)]
    return NormBundle(out[0], out[1], out[2], grid_size)


__all__ = [
    "AffineRecord",
    "HermitianOperator",
    "TimeDependentHamiltonian",
    "NormBundle",
    "affine_hamiltonian",
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
