"""Gauge-fixed eigenpath tracking, spectral gaps and path derivatives.

A branch selected at s = 0 is continued across the grid by maximum-overlap
matching against the previous state, which stays robust when non-tracked
branches cross.  Matching runs per batch of grid points in constant-rank
segments: one batched overlap computation assumes the branch keeps its
sorted index and ends at the first point that picks another.  Each matched
state is then phase-rotated so that the overlap with its predecessor is
real and nonnegative — the discrete form of the parallel-transport gauge
<Psi'(s), Psi(s)> = 0; the rotations are one cumulative product of the
raw overlaps' phases.  ``gauge_residual`` certifies the gauge numerically
from finite differences of the states.
``eigen_residuals`` measures how well sampled states solve the eigenvalue
equation of a Hamiltonian; the gap scan and the zero-eigenvalue shift both
gate on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import chunk_ranges, grid_derivative
from .errors import DomainError, GapCollapseError, UnderResolvedGridError
from .hamiltonians import TimeDependentHamiltonian, eval_batch

DEGENERACY_RTOL = 1e-8
MIN_BRANCH_OVERLAP = 0.5
DEFAULT_GRID = 1025


@dataclass(frozen=True)
class EigenPath:
    """Gauge-fixed samples of one eigenvector branch over a grid.

    ``states[j]`` is the unit eigenvector at ``grid[j]``, ``gammas[j]`` its
    eigenvalue, ``eigenvalues[j]`` the full spectrum at that point and
    ``tracked_index[j]`` the branch position inside it.  ``gauge_phase``
    accumulates the rotation applied by the discrete parallel transport.
    ``gap`` is the smallest distance from the tracked eigenvalue to any
    other eigenvalue over the whole grid.
    """

    grid: np.ndarray
    states: np.ndarray
    gammas: np.ndarray
    eigenvalues: np.ndarray
    tracked_index: np.ndarray
    gauge_phase: np.ndarray
    gap: float

    @property
    def npoints(self) -> int:
        return self.grid.size

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def to_dict(self) -> dict:
        return {
            "grid": self.grid.tolist(),
            "gammas": self.gammas.tolist(),
            "gap": self.gap,
        }


def track_eigenpath(
    h: TimeDependentHamiltonian,
    grid_size: int = DEFAULT_GRID,
    selector="ground",
) -> EigenPath:
    """Track one nondegenerate branch of H over a uniform grid.

    ``selector`` is either ``"ground"`` (lowest eigenvalue at s = 0) or a
    vector, in which case the branch with the largest initial overlap is
    taken.  Raises GapCollapseError if the tracked eigenvalue comes within
    1e-8 * ||H(s)|| of another branch, and UnderResolvedGridError if two
    consecutive states overlap by less than 0.5 in magnitude; the first
    failing point raises, its overlap check before its margin check.

    Each batch is matched in segments of constant sorted index, so the
    number of batched overlap computations is 1 + the index switches in it.
    With m_j = <v_{idx_j}(s_j), v_{idx_{j-1}}(s_{j-1})> on the raw
    eigenvectors, state j is v_{idx_j}(s_j) R_j with R_j = R_{j-1} m_j/|m_j|,
    and ``gauge_phase`` is the running sum of angle(R_j).
    """
    if grid_size < 2:
        raise DomainError("grid_size must be at least 2")
    if isinstance(selector, str):
        if selector != "ground":
            raise DomainError(f"unknown selector {selector!r}")
        match_vector = None
    else:
        match_vector = np.asarray(selector, dtype=complex)
        if match_vector.shape != (h.dim,):
            raise DomainError(
                f"selector vector has shape {match_vector.shape}, "
                f"expected ({h.dim},)"
            )

    grid = np.linspace(0.0, 1.0, grid_size)
    dim = h.dim
    states = np.empty((grid_size, dim), dtype=complex)
    gammas = np.empty(grid_size)
    spectra = np.empty((grid_size, dim))
    tracked = np.empty(grid_size, dtype=np.intp)

    rotation = np.ones(grid_size, dtype=complex)
    gap = np.inf
    previous = current = None
    for lo, hi in chunk_ranges(0, grid_size, dim):
        evals, evecs = np.linalg.eigh(eval_batch(h, grid[lo:hi]))
        evecs = evecs.astype(complex, copy=False)
        rows = np.arange(hi - lo)
        picks = np.empty(hi - lo, dtype=np.intp)
        overlap = np.ones(hi - lo, dtype=complex)
        start = 0
        if lo == 0:
            current = 0 if match_vector is None else int(
                np.argmax(np.abs(evecs[0].conj().T @ match_vector))
            )
            picks[0], previous, start = current, evecs[0, :, current], 1
        # Constant-rank segments: assume the branch keeps index `current`,
        # compare every remaining point with its predecessor's raw column
        # (|overlap| ignores the phase), and restart after the first point
        # whose argmax differs.  Conjugating the (n, d) side instead of the
        # (n, d, d) batch saves a copy; the einsum gives conj(<v_k, back>).
        while start < hi - lo:
            back = np.concatenate([previous[None], evecs[start:-1, :, current]])
            conj_overlaps = np.einsum("nik,ni->nk", evecs[start:], back.conj())
            best = np.argmax(np.abs(conj_overlaps), axis=1)
            switched = np.flatnonzero(best != current)
            stop = hi - lo if switched.size == 0 else start + int(switched[0]) + 1
            seg = slice(start, stop)
            picks[seg] = best[: stop - start]
            overlap[seg] = conj_overlaps[rows[: stop - start], picks[seg]].conj()
            current = int(picks[stop - 1])
            previous, start = evecs[stop - 1, :, current].copy(), stop
        del back, conj_overlaps, best  # batch-sized; free before the checks

        magnitude = np.abs(overlap)
        point_norm = np.abs(evals).max(axis=1)
        gammas[lo:hi] = evals[rows, picks]
        distance = np.abs(evals - gammas[lo:hi, None])
        distance[rows, picks] = np.inf
        margin = distance.min(axis=1)
        low = np.flatnonzero(magnitude < MIN_BRANCH_OVERLAP)
        degenerate = np.flatnonzero(
            (margin <= DEGENERACY_RTOL * point_norm) | (point_norm == 0.0)
        )
        # the earliest failing point raises; at one point, overlap before margin
        if low.size and (not degenerate.size or low[0] <= degenerate[0]):
            r = low[0]
            raise UnderResolvedGridError(
                f"consecutive overlap {magnitude[r]:.3f} < "
                f"{MIN_BRANCH_OVERLAP} at s={grid[lo + r]:.6g}; refine the grid"
            )
        if degenerate.size:
            r = degenerate[0]
            raise GapCollapseError(
                f"tracked eigenvalue degenerate at s={grid[lo + r]:.6g}: "
                f"nearest branch at distance {margin[r]:.3e} "
                f"(tolerance {DEGENERACY_RTOL:.0e} * {point_norm[r]:.3e})"
            )
        gap = min(gap, float(margin.min()))

        # R_j = R_{j-1} m_j/|m_j| makes <state_{j-1}, state_j> real and
        # nonnegative; the cumulative product is renormalized to modulus 1
        # (rotation[lo - 1] is the carried R, and still 1 when lo = 0)
        phases = rotation[lo - 1] * np.cumprod(overlap / magnitude)
        rotation[lo:hi] = phases / np.abs(phases)
        np.multiply(evecs[rows, :, picks], rotation[lo:hi, None], out=states[lo:hi])
        spectra[lo:hi] = evals
        tracked[lo:hi] = picks

    gauge_phase = np.cumsum(np.angle(rotation))

    return EigenPath(
        grid=grid,
        states=states,
        gammas=gammas,
        eigenvalues=spectra,
        tracked_index=tracked,
        gauge_phase=gauge_phase,
        gap=float(gap),
    )


@dataclass(frozen=True)
class GapReport:
    """Spectral gap of the tracked branch over the grid."""

    lambda_min: float
    argmin_s: float
    gap_values: np.ndarray
    grid: np.ndarray

    def to_dict(self) -> dict:
        return {
            "grid": self.grid.tolist(),
            "gap_values": self.gap_values.tolist(),
            "lambda_min": self.lambda_min,
            "argmin_s": self.argmin_s,
        }


def eigen_residuals(
    h: TimeDependentHamiltonian,
    grid: np.ndarray,
    states: np.ndarray,
    values: np.ndarray,
) -> np.ndarray:
    """||H(s_j) psi_j - c_j psi_j|| for every grid point s_j."""
    residuals = np.empty(grid.size)
    for lo, hi in chunk_ranges(0, grid.size, h.dim):
        mats = eval_batch(h, grid[lo:hi])
        applied = np.einsum("nij,nj->ni", mats, states[lo:hi])
        residuals[lo:hi] = np.linalg.norm(
            applied - values[lo:hi, None] * states[lo:hi], axis=1
        )
    return residuals


def spectral_gap(h: TimeDependentHamiltonian, path: EigenPath) -> GapReport:
    """Measure min_s min_{k != tracked} |lambda_k(s) - gamma(s)|.

    The path is first checked for consistency with ``h``: its states must
    be eigenvectors of H(s_j) within residual 1e-8 * ||H(s_j)||.
    """
    point_norms = np.abs(path.eigenvalues).max(axis=1)
    residual = eigen_residuals(h, path.grid, path.states, path.gammas)
    bad = np.flatnonzero(
        residual > DEGENERACY_RTOL * np.maximum(point_norms, 1e-300)
    )
    if bad.size:
        j = bad[0]
        raise DomainError(
            f"path inconsistent with Hamiltonian at s={path.grid[j]:.6g}: "
            f"eigen-residual {residual[j]:.3e}"
        )

    mask = np.ones_like(path.eigenvalues, dtype=bool)
    mask[np.arange(path.npoints), path.tracked_index] = False
    distances = np.abs(path.eigenvalues - path.gammas[:, None])
    gap_values = np.where(mask, distances, np.inf).min(axis=1)
    j_min = int(np.argmin(gap_values))
    lambda_min = float(gap_values[j_min])
    if lambda_min <= DEGENERACY_RTOL * float(point_norms.max()):
        raise GapCollapseError(
            f"spectral gap {lambda_min:.3e} collapses at s={path.grid[j_min]:.6g}"
        )
    return GapReport(
        lambda_min=lambda_min,
        argmin_s=float(path.grid[j_min]),
        gap_values=gap_values,
        grid=path.grid,
    )


def _check_uniform(grid: np.ndarray) -> float:
    steps = np.diff(grid)
    h = float(steps[0])
    if not np.allclose(steps, h, rtol=1e-9, atol=1e-15):
        raise DomainError("path grid must be uniform for finite differences")
    return h


def path_derivatives(path: EigenPath, order: int) -> np.ndarray:
    """Finite-difference Psi'(s_j) or Psi''(s_j) on the gauge-fixed states.

    Central second-order stencils inside, one-sided second-order stencils
    at the grid ends.  Requires at least 5 grid points.
    """
    if order not in (1, 2):
        raise DomainError(f"derivative order must be 1 or 2, got {order}")
    if path.npoints < 5:
        raise DomainError("path too coarse: need at least 5 grid points")
    return grid_derivative(path.states, _check_uniform(path.grid), order)


def gauge_residual(path: EigenPath) -> float:
    """max_j |<Psi'(s_j), Psi(s_j)>|; near zero certifies the gauge."""
    d1 = path_derivatives(path, 1)
    inner = np.einsum("ij,ij->i", d1.conj(), path.states)
    return float(np.abs(inner).max())


__all__ = [
    "EigenPath",
    "GapReport",
    "track_eigenpath",
    "eigen_residuals",
    "spectral_gap",
    "path_derivatives",
    "gauge_residual",
    "DEFAULT_GRID",
    "DEGENERACY_RTOL",
]
