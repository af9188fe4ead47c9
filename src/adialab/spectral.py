"""Gauge-fixed eigenpath tracking, spectral gaps and path derivatives.

A branch selected at s = 0 is continued across the grid by maximum-overlap
matching against the previous state, which stays robust when non-tracked
branches cross.  Each matched state is then phase-rotated so that the
overlap with its predecessor is real and nonnegative — the discrete form
of the parallel-transport gauge <Psi'(s), Psi(s)> = 0.  ``gauge_residual``
certifies the gauge numerically from finite differences of the states.
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
    consecutive states overlap by less than 0.5 in magnitude.
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
    gauge_phase = np.zeros(grid_size)

    gap = np.inf
    previous: np.ndarray | None = None
    for lo, hi in chunk_ranges(0, grid_size, dim):
        mats = eval_batch(h, grid[lo:hi])
        evals, evecs = np.linalg.eigh(mats)
        evecs = evecs.astype(complex, copy=False)
        for offset in range(hi - lo):
            j = lo + offset
            w = evals[offset]
            v = evecs[offset]
            if j == 0:
                if match_vector is None:
                    idx = 0
                else:
                    idx = int(np.argmax(np.abs(v.conj().T @ match_vector)))
                state = v[:, idx]
            else:
                overlaps = v.conj().T @ previous
                idx = int(np.argmax(np.abs(overlaps)))
                overlap = overlaps[idx]
                magnitude = abs(overlap)
                if magnitude < MIN_BRANCH_OVERLAP:
                    raise UnderResolvedGridError(
                        f"consecutive overlap {magnitude:.3f} < "
                        f"{MIN_BRANCH_OVERLAP} at s={grid[j]:.6g}; "
                        "refine the grid"
                    )
                # overlaps[idx] = <v_idx, previous>, so multiplying the
                # candidate by overlap/|overlap| makes <previous, state>
                # real and nonnegative
                rotation = overlap / magnitude
                state = v[:, idx] * rotation
                gauge_phase[j] = gauge_phase[j - 1] + float(np.angle(rotation))

            point_norm = float(np.abs(w).max())
            others = np.abs(np.delete(w, idx) - w[idx])
            margin = float(others.min()) if others.size else np.inf
            if margin <= DEGENERACY_RTOL * point_norm or point_norm == 0.0:
                raise GapCollapseError(
                    f"tracked eigenvalue degenerate at s={grid[j]:.6g}: "
                    f"nearest branch at distance {margin:.3e} "
                    f"(tolerance {DEGENERACY_RTOL:.0e} * {point_norm:.3e})"
                )
            gap = min(gap, margin)

            states[j] = state
            gammas[j] = w[idx]
            spectra[j] = w
            tracked[j] = idx
            previous = state

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
