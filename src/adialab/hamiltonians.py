"""Time-dependent Hermitian Hamiltonians H(s), s in [0, 1].

An instance's evaluator maps an array of n values of s to H at each, an
(n, dim, dim) array of dense complex Hermitian matrices.  ``norm_bundle``
measures the sup norms of H, H' and H'' over s that the runtime bound
consumes, ``derivative`` gives H'(s) and H''(s), and ``_shift_by`` builds
the frame H(s) - c(s) I that they are measured in.  All three need the
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
A shift c is a ``CubicHermiteSpline``, the module's own cubic Hermite
spline (numpy only: its knot values and slopes are given, and none is
solved for), and H'(s) = D - c'(s) I, H''(s) = -c''(s) I,
so ||H'(s)|| = max(lambda_max(D) - c'(s), c'(s) - lambda_min(D)) and
||H''(s)|| = |c''(s)|.  On each spline piece c'' is linear and c' is
quadratic, so both sups are read off the pieces' coefficients in closed
form, c'' at both ends of every piece: the spline is C^1, and c'' may
jump at a knot, so sup ||H''|| is the Lipschitz constant of H'.
sup ||H - cI|| is bounded per cell from the spectrum at the knots:
H - cI is Lipschitz with constant sup ||D - c'I||.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ._linalg import chunk_ranges, dagger, opnorm_hermitian
from .errors import DomainError, IntegrityError, NumericalError

HERMITICITY_RTOL = 1e-12


def _check_hermitian(mats: np.ndarray, what: str) -> None:
    """Reject non-finite entries, and any matrix of the batch whose defect
    |A - A^dagger| exceeds HERMITICITY_RTOL times its own largest entry."""
    batch = mats.reshape(-1, *mats.shape[-2:])
    scales = np.abs(batch).max(axis=(1, 2))
    if not np.isfinite(scales).all():
        raise NumericalError(f"{what} contains non-finite entries")
    defects = np.abs(batch - dagger(batch)).max(axis=(1, 2))
    bad = np.flatnonzero(defects > HERMITICITY_RTOL * scales)
    if bad.size:
        raise IntegrityError(
            f"{what} is not Hermitian: defect {defects[bad[0]]:.3e} exceeds "
            f"{HERMITICITY_RTOL:.0e} * {scales[bad[0]]:.3e}"
        )


class CubicHermiteSpline:
    """The cubic Hermite spline through (x_j, y_j) with slope slopes[j] at
    x_j, numpy only.

    ``x`` holds the increasing knots and ``c`` the pieces, shape
    (4, knots - 1), highest power first: on [x_j, x_{j+1}] the spline is
    c[0, j] t^3 + c[1, j] t^2 + c[2, j] t + c[3, j] with t = s - x_j.
    Each piece is fixed by its ends' values and slopes, so the spline is
    C^1, not C^2: c'' is linear on each piece and may jump at a knot.
    Calling it on an s array gives the spline or its ``nu``-th derivative,
    nu = 0, 1, 2.  Each s reads the piece with x_j <= s < x_{j+1}, the last
    piece closed, so an inner knot's c'' is its right-hand piece's;
    x_{-1} reads that piece re-expanded about x_{-1}, so every knot
    returns its y_j and its slope bit for bit.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, slopes: np.ndarray) -> None:
        x, y, slopes = (np.array(v, dtype=float) for v in (x, y, slopes))
        if x.ndim != 1 or not x.shape == y.shape == slopes.shape or x.size < 2:
            raise DomainError(
                "a spline needs at least 2 knots and one value and one slope per knot"
            )
        dx = np.diff(x)
        finite = np.isfinite(np.concatenate([x, y, slopes])).all()
        if not (finite and (dx > 0.0).all()):
            raise DomainError("spline knots must be finite and strictly increasing, "
                              "and its values and slopes finite")
        secant = np.diff(y) / dx
        t = (slopes[:-1] + slopes[1:] - 2.0 * secant) / dx
        a, b = t / dx, (secant - slopes[:-1]) / dx - t
        # one more column: the last piece about x_{-1}, where t = 0
        a, b = np.append(a, a[-1]), np.append(b, b[-1] + 3.0 * a[-1] * dx[-1])
        self._table = np.stack([a, b, slopes, y])
        self._table.setflags(write=False)
        x.setflags(write=False)
        self.x = x
        self.c = self._table[:, :-1]

    def __call__(self, s: np.ndarray, nu: int = 0) -> np.ndarray:
        if nu not in (0, 1, 2):
            raise DomainError(f"spline derivative order must be 0, 1 or 2, got {nu}")
        s = np.asarray(s, dtype=float)
        # the number of piece ends x_1..x_{-1} at or below s is s's piece
        piece = np.searchsorted(self.x[1:], s, side="right")
        t = s - self.x.take(piece)
        a, b, e, f = self._table.take(piece, axis=1)
        if nu == 0:
            return ((a * t + b) * t + e) * t + f
        if nu == 1:
            return (3.0 * a * t + 2.0 * b) * t + e
        return 6.0 * a * t + 2.0 * b


@dataclass(frozen=True, eq=False)
class AffineRecord:
    """The data of H(s) = (1-s) h0 + s h1 - c(s) I, and its evaluator.

    Both endpoints are certified Hermitian at construction (``IntegrityError``
    otherwise) and stored as their Hermitian part (A + A^dagger)/2, which
    leaves an exactly Hermitian endpoint bit-identical.  ``diff`` is
    D = h1 - h0.  ``shift``, when given, is the cubic Hermite spline c
    (``CubicHermiteSpline``).  Calling the record on an s array returns H there,
    shape (n, dim, dim).
    """

    h0: np.ndarray
    h1: np.ndarray
    shift: CubicHermiteSpline | None = None
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
        # h0 + s D, added in place: one batch alive, and s = 0 gives h0 exactly
        mats = s_col * self.diff
        mats += self.h0
        if self.shift is not None:
            # the diagonal as a strided view: c(s) I needs no batch of its own
            diagonal = mats.reshape(len(mats), -1)[:, :: self.h0.shape[0] + 1]
            diagonal -= self.shift(s_values)[:, None]
        return mats


@dataclass(frozen=True)
class TimeDependentHamiltonian:
    """Sampler for H(s), with instance metadata.

    ``evaluator`` maps an array of n values of s to H at each, shape
    (n, dim, dim), and must be a pure function of s: the tracker calls it
    from worker threads (``_linalg.chunk_map``).
    All values are immutable after construction, so instances are safe to
    share across threads.  ``affine`` is the evaluator when it is an
    ``AffineRecord`` and None otherwise; without a record the instance has
    no norms.
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
    h: TimeDependentHamiltonian, shift: CubicHermiteSpline, name: str, params: dict
) -> TimeDependentHamiltonian:
    """H(s) - c(s) I for the cubic Hermite spline c = ``shift``.

    The shifted frame is the instance's record carrying the spline.  An
    instance without a record raises ``DomainError``, since its frame would
    have no norms to bound with, and so does a frame that is shifted
    already: shift the instance it was built from.
    """
    record = _record(h, "the zero-eigenvalue shift")
    if record.shift is not None:
        raise DomainError(f"{h.name or 'this instance'} is a shifted frame already")
    return TimeDependentHamiltonian(h.dim, replace(record, shift=shift), name, params)


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


def derivative(h: TimeDependentHamiltonian, s: float, order: int) -> np.ndarray:
    """H'(s) = D - c'(s) I or H''(s) = -c''(s) I from the affine record,
    with c'(s) or c''(s) read off the shift's piece at s (``shift(s, order)``)
    and c = 0 when the instance is not shifted: a (dim, dim) array, exactly
    Hermitian because D is and c is real.  The shift is only C^1, so at an
    interior knot, where c'' may jump, H''(s) is the right-hand piece's."""
    s = _check_s(s)
    if order not in (1, 2):
        raise DomainError(f"derivative order must be 1 or 2, got {order}")
    record = _record(h, "derivative")
    rate = 0.0 if record.shift is None else float(record.shift(s, order))
    return (record.diff if order == 1 else 0.0 * record.diff) - rate * np.eye(h.dim)


@dataclass(frozen=True)
class NormBundle:
    """Upper bounds on ||H||, ||H'||, ||H''|| over s in [0, 1].

    Exact for an unshifted affine instance.  For its shifted frame,
    ||H'|| and ||H''|| are the closed-form sups over the spline's pieces
    and ||H|| a per-cell bound from the knots.
    """

    norm_H: float
    norm_H1: float
    norm_H2: float

    def __post_init__(self) -> None:
        for label, value in (
            ("norm_H", self.norm_H),
            ("norm_H1", self.norm_H1),
            ("norm_H2", self.norm_H2),
        ):
            if value < 0.0:
                raise IntegrityError(f"{label} is negative: {value}")

    def to_dict(self) -> dict:
        return {"norm_H": self.norm_H, "norm_H1": self.norm_H1, "norm_H2": self.norm_H2}


def norm_bundle(
    h: TimeDependentHamiltonian, *, spectrum: np.ndarray | None = None
) -> NormBundle:
    """Bound the sup norms of H, H' and H'' over s in [0, 1].

    Takes the route of the module docstring.  A shifted frame is measured
    on its spline's knots; ``spectrum``, when given, is H's eigenvalues
    there, shape (knots, dim), and H is not sampled.  The unshifted route
    is exact from the endpoints and takes no spectrum.  Raises
    ``DomainError`` for an instance without an ``AffineRecord``, and for a
    spectrum it cannot use.
    """
    record = _record(h, "norm_bundle")
    shift = record.shift
    if shift is None:
        if spectrum is not None:
            raise DomainError("an unshifted instance's norms take no spectrum")
        ends = opnorm_hermitian(np.stack([record.h0, record.h1]))
        norm_d = np.abs(np.linalg.eigvalsh(record.diff)).max()
        return NormBundle(float(ends.max()), float(norm_d), 0.0)

    knots = shift.x
    if spectrum is None:
        spectrum = np.empty((knots.size, h.dim))
        for lo, hi in chunk_ranges(0, knots.size, h.dim):
            # one batch of matrices alive at a time
            spectrum[lo:hi] = np.linalg.eigvalsh(eval_batch(h, knots[lo:hi]))
    elif np.shape(spectrum) != (knots.size, h.dim):
        raise DomainError(
            f"spectrum must have shape {(knots.size, h.dim)}: "
            f"H on the frame's {knots.size} spline knots"
        )
    d_min, d_max = np.linalg.eigvalsh(record.diff)[[0, -1]]
    # piece j is c = a t^3 + b t^2 + e t + f for t in [0, w_j]
    (a, b, e, _), w = shift.c, np.diff(knots)
    # c' = 3a t^2 + 2b t + e peaks at a piece end, or at t = -b/(3a) where
    # c' = e - b^2/(3a) when that lies inside the piece (never when a = 0)
    inside = (np.sign(a) == -np.sign(b)) & (np.abs(b) < 3.0 * np.abs(a) * w)
    drop = np.divide(b * b, 3.0 * a, out=np.zeros_like(a), where=inside)
    right = e + 2.0 * b * w + 3.0 * a * (w * w)
    slopes = np.concatenate([e, right, (e - drop)[inside]])
    norm_h1 = max(d_max - slopes.min(), slopes.max() - d_min)
    # c'' = 6a t + 2b is linear, so |c''| peaks at a piece end
    norm_h2 = np.abs(np.concatenate([2.0 * b, 2.0 * b + 6.0 * a * w])).max()
    # ||H - cI|| is Lipschitz with constant norm_h1: on a cell of width w it
    # stays below the mean of its knot values plus w * norm_h1 / 2
    knot_norms = np.abs(spectrum).max(axis=1)
    norm_h = (0.5 * (knot_norms[:-1] + knot_norms[1:] + w * norm_h1)).max()
    return NormBundle(float(norm_h), float(norm_h1), float(norm_h2))


__all__ = [
    "AffineRecord",
    "CubicHermiteSpline",
    "TimeDependentHamiltonian",
    "NormBundle",
    "affine_hamiltonian",
    "eval_batch",
    "derivative",
    "norm_bundle",
    "HERMITICITY_RTOL",
]
