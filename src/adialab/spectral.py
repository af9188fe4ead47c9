"""Gauge-fixed eigenpath tracking, spectral gaps and path derivatives.

A branch selected at s = 0 keeps its sorted rank r over the whole grid:
while its gap stays positive it cannot change rank, so a change of rank is
a crossing and raises GapCollapseError.  Each point's eigenvectors are
compared with the previous point's rank-r eigenvector, one batched overlap
computation per batch; the best overlap must stay at rank r, which also
holds when two untracked branches cross.  Each rank-r state is then
phase-rotated so that the overlap with its predecessor is real and
nonnegative — the discrete form of the parallel-transport gauge
<Psi'(s), Psi(s)> = 0; the rotations are one cumulative product of the
raw overlaps' phases.  ``gauge_residual`` certifies the gauge numerically
from ``path_derivatives``, Psi' by finite differences of the states: the
package's only finite difference, since gamma' and gamma'' are read off
the zero-eigenvalue frame's spline.
The path carries its per-point gap: the distance from the tracked
eigenvalue to ranks r +- 1, which in a sorted spectrum is its distance to
the nearest other eigenvalue.  The tracker measures it once, for its
degeneracy check, and no gap is computed anywhere else.
``eigen_residuals`` measures how well sampled states solve the eigenvalue
equation of a Hamiltonian; the zero-eigenvalue shift gates on it.
Both evaluate and decompose their chunks through ``chunk_map``, on worker
threads when the grid spans several chunks; the tracker's walk over the
results stays in grid order, in the calling thread.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass

import numpy as np

from ._linalg import chunk_map, eigh_batch
from .errors import DomainError, GapCollapseError, UnderResolvedGridError, require_count
from .hamiltonians import TimeDependentHamiltonian, eval_batch

DEGENERACY_RTOL = 1e-8
MIN_BRANCH_OVERLAP = 0.5
DEFAULT_GRID = 1025


@dataclass(frozen=True)
class EigenPath:
    """Gauge-fixed samples of one eigenvector branch over a grid.

    ``states[j]`` is the unit eigenvector at ``grid[j]``, ``gammas[j]`` its
    eigenvalue and ``eigenvalues[j]`` the full sorted spectrum at that point;
    ``tracked_index`` is the branch's sorted rank, the same at every point.
    ``gap_values[j]`` is the distance from the tracked eigenvalue to the
    nearest other eigenvalue at ``grid[j]``, and ``gap`` its minimum over
    the grid.
    """

    grid: np.ndarray
    states: np.ndarray
    gammas: np.ndarray
    eigenvalues: np.ndarray
    tracked_index: int
    gap_values: np.ndarray

    @property
    def gap(self) -> float:
        return float(self.gap_values.min())

    @property
    def npoints(self) -> int:
        return self.grid.size

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def select_branch(evals: np.ndarray, evecs: np.ndarray, selector="ground") -> int:
    """The rank of the branch ``selector`` picks from H(0)'s eigenvalues
    ``evals`` (ascending) and eigenvectors ``evecs``: 0 for ``"ground"``,
    else the column of largest overlap with the vector ``selector``, which
    must be finite, nonzero and of matching shape (``DomainError``).  A
    degenerate pick, by the tracker's rule, raises ``GapCollapseError``."""
    rank = 0
    if not isinstance(selector, str):
        vector = np.asarray(selector, dtype=complex)
        if vector.shape != evecs.shape[:1]:
            raise DomainError(f"selector shape {vector.shape} is not {evecs.shape[:1]}")
        if not (np.isfinite(vector).all() and vector.any()):
            raise DomainError("selector vector must be finite and nonzero")
        rank = int(np.argmax(np.abs(evecs.conj().T @ vector)))
    elif selector != "ground":
        raise DomainError(f"unknown selector {selector!r}")
    margin = np.sort(np.abs(evals - evals[rank]))[1]
    if margin <= DEGENERACY_RTOL * np.abs(evals).max():
        raise GapCollapseError(f"branch picked at s=0 is degenerate (gap {margin:.3e})")
    return rank


def track_eigenpath(
    h: TimeDependentHamiltonian,
    grid_size: int = DEFAULT_GRID,
    selector="ground",
) -> EigenPath:
    """Track one nondegenerate branch of H over a uniform grid.

    ``selector`` picks the branch at s = 0 (``select_branch``), and its
    sorted rank r there is kept for the whole grid.  At each further point
    the raw eigenvectors are compared with the previous point's rank-r
    eigenvector, and the first failing point raises:
    UnderResolvedGridError if the best overlap is below 0.5 in magnitude;
    GapCollapseError if a neighbouring rank r +- 1 comes within
    1e-8 * ||H(s)|| of the tracked eigenvalue, or else if the best overlap
    is at another rank (the branch crosses a neighbour between the two
    points).  That nearest-neighbour distance is kept as the path's
    ``gap_values``.

    One batched overlap computation covers each batch.  With
    m_j = <v_r(s_j), v_r(s_{j-1})> on the raw eigenvectors, state j is
    v_r(s_j) R_j with R_j = R_{j-1} m_j/|m_j|.  Each batch is evaluated
    and decomposed by ``chunk_map``, so the instance's evaluator may be
    called from worker threads; it must be a pure function of s.
    ``grid_size`` must be an integer of at least 2 (``DomainError``).
    """
    require_count(grid_size, "grid_size", 2)
    grid = np.linspace(0.0, 1.0, grid_size)
    dim = h.dim
    states = np.empty((grid_size, dim), dtype=complex)
    gammas = np.empty(grid_size)
    spectra = np.empty((grid_size, dim))
    gaps = np.empty(grid_size)

    def decompose(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        return eigh_batch(eval_batch(h, grid[lo:hi]))

    carried = 1.0
    rank = previous = None
    # closing: a raise below cancels the chunks still queued and waits for
    # the running ones, so no evaluation outlives this call
    with closing(chunk_map(decompose, 0, grid_size, dim)) as batches:
        for lo, hi, (evals, evecs) in batches:
            if lo == 0:
                rank = select_branch(evals[0], evecs[0], selector)
                neighbours = [k for k in (rank - 1, rank + 1) if 0 <= k < dim]
                # s = 0 is matched against itself: overlap |v|^2, so R_0 = 1
                previous = evecs[0, :, rank]
            column = evecs[:, :, rank]
            # every point against its predecessor's rank-r column (|overlap|
            # ignores the phase); conjugating the (n, d) side instead of the
            # (n, d, d) batch saves a copy, and the einsum gives conj(<v_k, back>)
            back = np.concatenate([previous[None], column[:-1]])
            conj_overlaps = np.einsum("nik,ni->nk", evecs, back.conj())
            magnitudes = np.abs(conj_overlaps)
            best = magnitudes.argmax(axis=1)
            overlap = conj_overlaps[:, rank].conj()
            magnitude = magnitudes[:, rank]

            point_norm = np.abs(evals).max(axis=1)
            gammas[lo:hi] = evals[:, rank]
            margin = np.abs(evals[:, neighbours] - gammas[lo:hi, None]).min(
                axis=1, initial=np.inf, out=gaps[lo:hi]
            )
            low = magnitudes.max(axis=1) < MIN_BRANCH_OVERLAP
            crossed = best != rank
            degenerate = (margin <= DEGENERACY_RTOL * point_norm) | (point_norm == 0.0)
            failed = np.flatnonzero(low | crossed | degenerate)
            if failed.size:
                r = failed[0]
                s = grid[lo + r]
                if low[r]:
                    raise UnderResolvedGridError(
                        f"consecutive overlap {magnitudes[r].max():.3f} < "
                        f"{MIN_BRANCH_OVERLAP} at s={s:.6g}; refine the grid"
                    )
                # in a degenerate eigenspace the best rank is LAPACK's choice
                if degenerate[r]:
                    raise GapCollapseError(
                        f"tracked eigenvalue degenerate at s={s:.6g}: "
                        f"nearest branch at distance {margin[r]:.3e} "
                        f"(tolerance {DEGENERACY_RTOL:.0e} * {point_norm[r]:.3e})"
                    )
                raise GapCollapseError(
                    f"tracked branch leaves sorted rank {rank} between "
                    f"s={grid[lo + r - 1]:.6g} and s={s:.6g}: it crosses "
                    f"rank {best[r]} there"
                )

            # R_j = R_{j-1} m_j/|m_j| makes <state_{j-1}, state_j> real and
            # nonnegative; the cumulative product is renormalized to modulus 1
            # (``carried`` is the previous batch's last R, and 1 when lo = 0)
            phases = carried * np.cumprod(overlap / magnitude)
            rotation = phases / np.abs(phases)
            np.multiply(column, rotation[:, None], out=states[lo:hi])
            spectra[lo:hi] = evals
            previous = column[-1].copy()
            carried = rotation[-1]

    return EigenPath(
        grid=grid,
        states=states,
        gammas=gammas,
        eigenvalues=spectra,
        tracked_index=rank,
        gap_values=gaps,
    )


def eigen_residuals(
    h: TimeDependentHamiltonian,
    grid: np.ndarray,
    states: np.ndarray,
    values: np.ndarray,
) -> np.ndarray:
    """||H(s_j) psi_j - c_j psi_j|| for every grid point s_j.

    The chunks run through ``chunk_map``, so H's evaluator may be called
    from worker threads.
    """

    def residual(lo: int, hi: int) -> np.ndarray:
        # the batch dies with the einsum, before its thread evaluates another
        applied = np.einsum("nij,nj->ni", eval_batch(h, grid[lo:hi]), states[lo:hi])
        return np.linalg.norm(applied - values[lo:hi, None] * states[lo:hi], axis=1)

    residuals = np.empty(grid.size)
    for lo, hi, part in chunk_map(residual, 0, grid.size, h.dim):
        residuals[lo:hi] = part
    return residuals


def _check_uniform(grid: np.ndarray) -> float:
    steps = np.diff(grid)
    h = float(steps[0])
    if not np.allclose(steps, h, rtol=1e-9, atol=1e-15):
        raise DomainError("path grid must be uniform for finite differences")
    return h


def path_derivatives(path: EigenPath) -> np.ndarray:
    """Finite-difference Psi'(s_j) on the gauge-fixed states.

    ``np.gradient`` at second order: central differences inside and
    one-sided ones at the grid ends.  Requires at least 3 grid points.
    """
    if path.npoints < 3:
        raise DomainError("path too coarse: need at least 3 grid points")
    spacing = _check_uniform(path.grid)
    return np.gradient(path.states, spacing, axis=0, edge_order=2)


def gauge_residual(path: EigenPath) -> float:
    """max_j |<Psi'(s_j), Psi(s_j)>|; near zero certifies the gauge."""
    d1 = path_derivatives(path)
    inner = np.einsum("ij,ij->i", d1.conj(), path.states)
    return float(np.abs(inner).max())


__all__ = [
    "EigenPath",
    "select_branch",
    "track_eigenpath",
    "eigen_residuals",
    "path_derivatives",
    "gauge_residual",
    "DEFAULT_GRID",
    "DEGENERACY_RTOL",
]
