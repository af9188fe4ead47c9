"""Time-dependent Hermitian Hamiltonians H(s), s in [0, 1].

An instance's evaluator maps an array of n values of s to H at each, an
(n, dim, dim) array of dense complex Hermitian matrices.  ``norm_bundle``
measures the sup norms of H, H' and H'' over s that the runtime bound
consumes, and ``derivative`` gives H'(s) and H''(s).  Both need the
evaluator to be an ``AffineRecord``: the bound holds only if its sups are
upper bounds, which a grid maximum of sampled norms is not.  Any other
evaluator can be sampled, tracked and evolved; each of its samples passes
one Hermiticity check (``_check_hermitian``, relative to each matrix's
largest entry), and failing matrices are rejected rather than symmetrized.

The record of H(s) = (1-s) H0 + s H1 - c(s) I is the one place that knows
the affine form: its ``__call__``, ``derivative`` and ``norm_bundle`` read
it.  Both endpoints are certified Hermitian once, at construction, and
stored as their Hermitian part, so every sample, whatever the real shift
c, is exactly Hermitian in floating point and is not checked again.
With c = 0 the norms are exact: s -> ||H(s)|| is convex, so sup ||H|| =
max(||H(0)||, ||H(1)||), ||H'|| = ||D|| with D = H1 - H0, and ||H''|| = 0.
For H(s) - c(s) I, H'(s) = D - c'(s) I and H''(s) = -c''(s) I, so
||H'(s)|| = max(lambda_max(D) - c'(s), c'(s) - lambda_min(D)) and
||H''(s)|| = |c''(s)|: scalar functions of s, whose sup is taken on a
uniform grid (default 1025 points) and refined by one golden-section
search around the grid argmax, without forming a matrix.  Only
sup ||H - cI|| needs a spectrum: H's on the grid, translated by c.
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
    """The data of H(s) = (1-s) h0 + s h1 - c(s) I, and its evaluator.

    Both endpoints are certified Hermitian at construction (``IntegrityError``
    otherwise) and stored as their Hermitian part (A + A^dagger)/2, which
    leaves an exactly Hermitian endpoint bit-identical.  ``diff`` is
    D = h1 - h0.  ``shift``, when given, is (c, c', c'') as functions of s
    that accept arrays.  Calling the record on an s array returns H there,
    shape (n, dim, dim).
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

    def __call__(self, s_values: np.ndarray) -> np.ndarray:
        s_col = np.asarray(s_values, dtype=float)[:, None, None]
        mats = (1.0 - s_col) * self.h0 + s_col * self.h1
        if self.shift is not None:
            shifts = np.asarray(self.shift[0](s_values), dtype=float)
            eye = np.eye(self.h0.shape[0], dtype=complex)
            mats -= shifts[:, None, None] * eye  # in place: no third batch alive
        return mats


@dataclass(frozen=True)
class TimeDependentHamiltonian:
    """Sampler for H(s), with instance metadata.

    ``evaluator`` maps an array of n values of s to H at each, shape
    (n, dim, dim), and must be a pure function of s; all values are
    immutable after construction, so instances are safe to share across
    threads.  ``affine`` is the evaluator when it is an ``AffineRecord``
    and None otherwise; without a record the instance has no norms.
    """

    dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise DomainError("Hamiltonian dimension must be at least 2")
        record_dim = self.dim if self.affine is None else self.affine.h0.shape[0]
        if record_dim != self.dim:
            raise DomainError(f"record has dimension {record_dim}, not {self.dim}")

    @property
    def affine(self) -> AffineRecord | None:
        return self.evaluator if isinstance(self.evaluator, AffineRecord) else None


def affine_hamiltonian(
    h0: np.ndarray, h1: np.ndarray, *, name: str = "", params: dict | None = None
) -> TimeDependentHamiltonian:
    """H(s) = (1-s) h0 + s h1, with exact derivatives and norms.

    Raises ``IntegrityError`` here, not at the first evaluation, if an
    endpoint is not Hermitian.
    """
    record = AffineRecord(h0, h1)
    return TimeDependentHamiltonian(len(record.h0), record, name, dict(params or {}))


def _shift_by(
    h: TimeDependentHamiltonian,
    shift: tuple[Callable, Callable, Callable],
    name: str,
    params: dict,
) -> TimeDependentHamiltonian:
    """H(s) - c(s) I for shift = (c, c', c''), functions of s arrays.

    The shift of an affine instance is its record with the shift added to
    any it already carries; any other instance gives a general one.
    """
    record = h.affine
    if record is not None:
        if record.shift is not None:
            shift = tuple(
                lambda s, a=a, b=b: a(s) + b(s) for a, b in zip(record.shift, shift)
            )
        record = replace(record, shift=shift)
        return TimeDependentHamiltonian(h.dim, record, name, params)
    c = shift[0]
    eye = np.eye(h.dim, dtype=complex)

    def evaluate(s_values: np.ndarray) -> np.ndarray:
        shifts = np.asarray(c(s_values), dtype=float)
        return h.evaluator(s_values) - shifts[:, None, None] * eye

    return TimeDependentHamiltonian(h.dim, evaluate, name, params)


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


def _record(h: TimeDependentHamiltonian, what: str) -> AffineRecord:
    """The instance's AffineRecord; ``DomainError`` when it has none."""
    if h.affine is None:
        raise DomainError(
            f"{what} needs an instance built by affine_hamiltonian (or its "
            f"shifted frame); {h.name or 'this instance'} has no certified norms"
        )
    return h.affine


def eval_at(h: TimeDependentHamiltonian, s: float) -> HermitianOperator:
    """Evaluate H(s), certifying the result Hermitian."""
    return HermitianOperator(eval_batch(h, np.array([s], dtype=float))[0])


def eval_batch(h: TimeDependentHamiltonian, s_values: np.ndarray) -> np.ndarray:
    """Evaluate H on an array of s values; returns shape (n, dim, dim).

    Every matrix of the batch is checked for Hermiticity in one vectorized
    pass, unless the instance carries an ``AffineRecord``: its samples are
    Hermitian by construction.
    """
    s_values = _check_s_values(s_values)
    mats = np.asarray(h.evaluator(s_values), dtype=complex)
    if mats.shape != (s_values.size, h.dim, h.dim):
        raise IntegrityError(
            f"evaluator returned shape {mats.shape}, expected "
            f"{(s_values.size, h.dim, h.dim)}"
        )
    if h.affine is None:
        _check_hermitian(mats, "evaluator output")
    return mats


def derivative(
    h: TimeDependentHamiltonian, s: float, order: int
) -> HermitianOperator:
    """H'(s) = D - c'(s) I or H''(s) = -c''(s) I from the affine record,
    with c = 0 when the instance is not shifted."""
    s = _check_s(s)
    if order not in (1, 2):
        raise DomainError(f"derivative order must be 1 or 2, got {order}")
    record = _record(h, "derivative")
    rate = 0.0 if record.shift is None else float(record.shift[order](s))
    mat = (record.diff if order == 1 else 0.0 * record.diff) - rate * np.eye(h.dim)
    return HermitianOperator(mat)


@dataclass(frozen=True)
class NormBundle:
    """Suprema of ||H||, ||H'||, ||H''|| over s in [0, 1].

    Exact for an unshifted affine instance; for its shifted frame, the
    grid suprema of the scalar norm curves and of the translated spectrum,
    each refined around its argmax.  ``grid_size`` is the grid the
    measurement used or, when exact, would have used.
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


def norm_bundle(
    h: TimeDependentHamiltonian,
    grid_size: int = DEFAULT_NORM_GRID,
    *,
    spectrum: np.ndarray | None = None,
) -> NormBundle:
    """Measure the sup norms of H, H' and H'' over s in [0, 1].

    Takes the route of the module docstring, on a uniform grid of
    ``grid_size`` points for a shifted frame.  ``spectrum``, when given, is
    H's eigenvalues on that grid, shape (grid_size, dim), and H is not
    sampled; the unshifted route needs no spectrum.  Raises ``DomainError``
    for an instance without an ``AffineRecord``.
    """
    if grid_size < 2:
        raise DomainError("grid_size must be at least 2")
    if spectrum is not None and np.shape(spectrum) != (grid_size, h.dim):
        raise DomainError(f"spectrum must have shape {(grid_size, h.dim)}")
    record = _record(h, "norm_bundle")
    if record.shift is None:
        ends = opnorm_hermitian(np.stack([record.h0, record.h1]))
        norm_d = np.abs(np.linalg.eigvalsh(record.diff)).max()
        return NormBundle(float(ends.max()), float(norm_d), 0.0, grid_size)

    grid = np.linspace(0.0, 1.0, grid_size)
    if spectrum is None:
        spectrum = np.empty((grid_size, h.dim))
        for lo, hi in chunk_ranges(0, grid_size, h.dim):
            # one batch of matrices alive at a time
            spectrum[lo:hi] = np.linalg.eigvalsh(eval_batch(h, grid[lo:hi]))
    d_min, d_max = np.linalg.eigvalsh(record.diff)[[0, -1]]
    _, dc, d2c = record.shift

    def h_fn(s):
        return operator_norm(eval_at(h, s))

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
    "operator_norm",
    "norm_bundle",
    "DEFAULT_NORM_GRID",
    "HERMITICITY_RTOL",
]
