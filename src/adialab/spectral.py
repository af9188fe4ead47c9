"""Gauge-fixed eigenpath tracking, spectral gaps and path derivatives.

The branch of sorted rank r at s = 0 keeps that rank over the whole grid:
while its gap stays positive it cannot change rank, so a change of rank is
a crossing (GapCollapseError) unless Weyl's inequality keeps the gap open
over that cell, which makes the grid too coarse.  The tracker needs every
eigenvalue (for the gap) but only the rank-r eigenvector:
``_linalg.branch_eigenpairs`` gives each chunk's eigenvalues from
``eigvalsh`` (or the 2x2 closed form) and the rank-r vector from one
shifted solve started at the rank-r ``eigh`` column of the chunk's first
point.  Each vector is certified by its residual ||H x - gamma_r x||
relative to ||H||, which by Davis-Kahan bounds its angle to the true
eigenvector by residual/gap; a chunk with a failed solve or certificate
takes its vectors from ``eigh`` instead.  Each point's vector is compared
with the previous point's: an overlap m with |m|^2 > 1/2 makes rank r the
unique best match (Parseval: the others' squared overlaps sum to less than
1/2), and any other point is decomposed by ``eigh`` and judged on every
rank's overlap, so the best overlap must stay at rank r, which also holds
when two untracked branches cross.  Each rank-r state is then
phase-rotated so that the overlap with its predecessor is real and
nonnegative — the discrete form of the parallel-transport gauge
<Psi'(s), Psi(s)> = 0; the rotations are one cumulative product of the
raw overlaps' phases.  ``gauge_residual`` certifies that gauge by the
imaginary parts of consecutive overlaps, and ``path_derivatives`` gives
Psi' exactly, by a bordered solve: the package takes no finite difference,
as gamma' and gamma'' are read off the zero-eigenvalue frame's spline.
The path carries its per-point gap: the distance from the tracked
eigenvalue to ranks r +- 1, which in a sorted spectrum is its distance to
the nearest other eigenvalue.  The tracker measures it once, for its
degeneracy check, and no gap is computed anywhere else.
The tracker evaluates and decomposes its chunks through ``chunk_map``, on
worker threads when the grid spans several chunks; its walk over the
results stays in grid order, in the calling thread.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass

import numpy as np

from ._linalg import branch_eigenpairs, chunk_map, chunk_ranges, eigh_batch
from .errors import DomainError, GapCollapseError, UnderResolvedGridError, require_count
from .hamiltonians import TimeDependentHamiltonian, _record, eval_batch

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


def _check_rank(rank: int, dim: int) -> int:
    """``rank`` as an int; ``DomainError`` unless an integer 0 <= rank < dim."""
    require_count(rank, "rank", 0)
    if rank >= dim:
        raise DomainError(f"rank must be below the dimension {dim}, got {rank}")
    return int(rank)


def check_branch(evals: np.ndarray, rank: int) -> int:
    """``rank`` as an int once checked as a branch of H(0)'s ascending
    eigenvalues ``evals``: ``DomainError`` unless an integer in 0..d-1,
    ``GapCollapseError`` if its level is degenerate (the tracker's rule)."""
    rank = _check_rank(rank, evals.size)
    margin = np.sort(np.abs(evals - evals[rank]))[1]
    if margin <= DEGENERACY_RTOL * np.abs(evals).max():
        raise GapCollapseError(f"branch picked at s=0 is degenerate (gap {margin:.3e})")
    return rank


def _ambiguous(overlaps: np.ndarray) -> np.ndarray:
    """Points whose overlap |m| with the previous state leaves the best rank
    open.  |m|^2 > 1/2 settles it: the squared overlaps of all ranks sum to
    1 (Parseval), so every other rank's is below 1/2 and r is the unique
    best, above MIN_BRANCH_OVERLAP."""
    return np.abs(overlaps) ** 2 <= 0.5


def _weyl_cells(
    h: TimeDependentHamiltonian, grid: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell floor and ceiling of a quantity that is Lipschitz in s with
    constant spread(D) = lambda_max(D) - lambda_min(D), from its ``values``
    at the ``grid`` points.  H moves by (s - s_j) D plus a multiple of I,
    so by Weyl every sorted eigenvalue moves within (s - s_j) [lambda_min(D),
    lambda_max(D)]: a gap between sorted ranks, and the spread of the
    spectrum, are such quantities.  On the cell [s_j, s_{j+1}] of width w
    they stay within (v_j + v_{j+1} -+ spread(D) w) / 2.  ``DomainError``
    unless ``h`` has an ``AffineRecord``."""
    levels = np.linalg.eigvalsh(_record(h, "the Weyl cell bounds").diff)
    middle = 0.5 * (values[:-1] + values[1:])
    reach = 0.5 * (levels[-1] - levels[0]) * np.diff(grid)
    return middle - reach, middle + reach


def _rank_change(
    h: TimeDependentHamiltonian, rank: int, best: int, cell: tuple, ends: np.ndarray
) -> GapCollapseError | UnderResolvedGridError:
    """The error for a best overlap at rank k = ``best`` on the cell
    (s_a, s_b) with spectra ``ends``.  With an ``AffineRecord``, the gap g
    from rank r to its neighbour on k's side stays above its Weyl floor
    (``_weyl_cells``).  Above 1e-8 max ||H|| the levels cannot meet:
    UnderResolvedGridError.  Else, and without a record, the branch
    crossed: GapCollapseError."""
    s_a, s_b = cell
    side = rank + 1 if best > rank else rank - 1
    where = f"between s={s_a:.6g} and s={s_b:.6g}"
    if h.affine is not None:
        gaps = np.abs(ends[:, side] - ends[:, rank])
        floor = _weyl_cells(h, np.array(cell), gaps)[0][0]
        if floor > DEGENERACY_RTOL * np.abs(ends).max():
            return UnderResolvedGridError(
                f"best overlap moves from rank {rank} to rank {best} {where}, but the "
                f"gap to rank {side} stays above {floor:.3e} there; refine the grid"
            )
    return GapCollapseError(
        f"tracked branch leaves sorted rank {rank} {where}: "
        f"it crosses rank {best} there"
    )


def track_eigenpath(
    h: TimeDependentHamiltonian,
    grid_size: int = DEFAULT_GRID,
    rank: int = 0,
) -> EigenPath:
    """Track the branch of sorted rank r = ``rank`` at s = 0 over a uniform
    grid, at rank r throughout.  ``check_branch`` refuses r on the first
    chunk's ``eigh`` at s = 0 (a non-integer, or one outside 0..d-1, before
    any chunk runs).  Each point's state is compared with the previous
    point's, and the first failing point raises:
    UnderResolvedGridError if the best overlap of any rank is below 0.5 in
    magnitude; GapCollapseError if a neighbouring rank r +- 1 comes within
    1e-8 * ||H(s)|| of the tracked eigenvalue; else, if the best overlap is
    at another rank, the error ``_rank_change`` picks.  That
    nearest-neighbour distance is kept as the path's ``gap_values``.

    Each chunk of the grid is evaluated by ``chunk_map``, so the instance's
    evaluator may be called from worker threads; it must be a pure function
    of s.  The chunk's rank-r column of one ``eigh`` at its first point is
    the start of ``branch_eigenpairs``, which gives every eigenvalue and
    the rank-r vector x_j, certified by its residual or else taken from
    ``eigh`` for the whole chunk.  The overlap m_j = <x_j, x_{j-1}> decides
    the rank test wherever |m_j|^2 > 1/2 (``_ambiguous``); at any other
    point one ``eigh`` of that matrix gives every rank's overlap, and the
    rule above is applied to them.  State j is x_j R_j with
    R_j = R_{j-1} m_j/|m_j|, and x_{-1} is the rank-r ``eigh`` column at
    s = 0, so state 0 is that column.  Results depend on the chunk
    boundaries only, never on the number of workers.
    ``grid_size`` must be an integer of at least 2 (``DomainError``).
    """
    require_count(grid_size, "grid_size", 2)
    dim = h.dim
    rank = _check_rank(rank, dim)
    grid = np.linspace(0.0, 1.0, grid_size)
    states = np.empty((grid_size, dim), dtype=complex)
    gammas = np.empty(grid_size)
    spectra = np.empty((grid_size, dim))
    gaps = np.empty(grid_size)
    overlaps = np.empty(grid_size, dtype=complex)
    neighbours = [k for k in (rank - 1, rank + 1) if 0 <= k < dim]

    def decompose(lo: int, hi: int):
        mats = eval_batch(h, grid[lo:hi])
        # offset -> eigh's (eigenvalues, eigenvectors): the chunk's first
        # point, and every inner point whose overlap leaves the rank open
        eigh_at = {0: eigh_batch(mats[0])}
        start = eigh_at[0][1][:, rank]
        # each chunk fills its own rows of the path's arrays, so no result
        # of a worker outlives its chunk in that worker's malloc arena
        spectra[lo:hi], states[lo:hi] = branch_eigenpairs(mats, rank, start)
        evals, column = spectra[lo:hi], states[lo:hi]
        # m_j at the inner points; m at lo needs the previous chunk's vector
        overlap = overlaps[lo:hi]
        overlap[1:] = np.einsum("ni,ni->n", column[1:].conj(), column[:-1])
        inner = np.flatnonzero(_ambiguous(overlap[1:])) + 1
        if inner.size:
            eigh_at.update(zip(inner, zip(*eigh_batch(mats[inner]))))
        return evals, column, overlap, eigh_at

    carried = 1.0
    previous = None
    # closing: a raise below cancels the chunks still queued and waits for
    # the running ones, so no evaluation outlives this call
    with closing(chunk_map(decompose, 0, grid_size, dim)) as batches:
        for lo, hi, (evals, column, overlap, eigh_at) in batches:
            if lo == 0:
                check_branch(eigh_at[0][0], rank)
                previous = eigh_at[0][1][:, rank]
            overlap[0] = np.vdot(column[0], previous)
            magnitude = np.abs(overlap)

            point_norm = np.abs(evals).max(axis=1)
            gammas[lo:hi] = evals[:, rank]
            margin = np.abs(evals[:, neighbours] - gammas[lo:hi, None]).min(
                axis=1, initial=np.inf, out=gaps[lo:hi]
            )
            ambiguous = _ambiguous(overlap)
            degenerate = (margin <= DEGENERACY_RTOL * point_norm) | (point_norm == 0.0)
            for r in np.flatnonzero(ambiguous | degenerate):
                s = grid[lo + r]
                best = rank
                if ambiguous[r]:
                    back = column[r - 1] if r else previous
                    magnitudes = np.abs(eigh_at[r][1].conj().T @ back)
                    best = int(magnitudes.argmax())
                    if magnitudes[best] < MIN_BRANCH_OVERLAP:
                        raise UnderResolvedGridError(
                            f"consecutive overlap {magnitudes[best]:.3f} < "
                            f"{MIN_BRANCH_OVERLAP} at s={s:.6g}; refine the grid"
                        )
                # in a degenerate eigenspace the best rank is LAPACK's choice
                if degenerate[r]:
                    raise GapCollapseError(
                        f"tracked eigenvalue degenerate at s={s:.6g}: "
                        f"nearest branch at distance {margin[r]:.3e} "
                        f"(tolerance {DEGENERACY_RTOL:.0e} * {point_norm[r]:.3e})"
                    )
                if best != rank:
                    ends = np.stack([evals[r - 1] if r else spectra[lo - 1], evals[r]])
                    raise _rank_change(h, rank, best, (grid[lo + r - 1], s), ends)

            # R_j = R_{j-1} m_j/|m_j| makes <state_{j-1}, state_j> real and
            # nonnegative; the cumulative product is renormalized to modulus 1
            # (``carried`` is the previous batch's last R, and 1 when lo = 0)
            phases = carried * np.cumprod(overlap / magnitude)
            rotation = phases / np.abs(phases)
            previous = column[-1].copy()
            column *= rotation[:, None]
            carried = rotation[-1]

    return EigenPath(
        grid=grid,
        states=states,
        gammas=gammas,
        eigenvalues=spectra,
        tracked_index=rank,
        gap_values=gaps,
    )


def path_derivatives(h: TimeDependentHamiltonian, path: EigenPath) -> np.ndarray:
    """Psi'(s_j) exactly, in the parallel-transport gauge through each state
    of ``path``, the branch that ``track_eigenpath`` gave on ``h``.

    x_j solves [[H - gamma, psi], [psi^H, 0]] [x; mu] = [-(D - gamma') psi;
    0], the derivative of (H - gamma) Psi = 0 with <psi, x> = 0, where D =
    H1 - H0, gamma' = Re<psi, D psi> and so mu = 0, in ``chunk_ranges``
    batches.  At d = 2, x = -<v, D psi>/(gamma_v - gamma) v, where v =
    (-conj(psi_1), conj(psi_0)) is the eigenvector of the other eigenvalue
    gamma_v.  ``DomainError`` unless ``h`` has an ``AffineRecord``.
    """
    psi, d = path.states, h.dim
    applied = psi @ _record(h, "path_derivatives").diff.T  # rows D psi_j
    if d == 2:
        v = np.stack([-psi[:, 1].conj(), psi[:, 0].conj()], axis=1)
        gaps = path.eigenvalues[:, 1 - path.tracked_index] - path.gammas
        return -(np.einsum("ni,ni->n", v.conj(), applied) / gaps)[:, None] * v
    rhs = np.einsum("ni,ni->n", psi.conj(), applied).real[:, None] * psi - applied
    diagonal, x = np.arange(d), np.empty_like(psi)
    for lo, hi in chunk_ranges(0, path.npoints, d + 1):
        bordered = np.zeros((hi - lo, d + 1, d + 1), dtype=complex)
        bordered[:, :d, :d] = eval_batch(h, path.grid[lo:hi])
        bordered[:, diagonal, diagonal] -= path.gammas[lo:hi, None]
        bordered[:, :d, d], bordered[:, d, :d] = psi[lo:hi], psi[lo:hi].conj()
        padded = np.pad(rhs[lo:hi], ((0, 0), (0, 1)))[..., None]  # mu's row: 0
        x[lo:hi] = np.linalg.solve(bordered, padded)[:, :d, 0]
    return x


def gauge_residual(path: EigenPath) -> float:
    """(npoints - 1) max_j |Im<g_{j-1}, g_j>|, in the units of <Psi', Psi>:
    rounding in the tracker's gauge, which makes each overlap real and
    nonnegative; states turned by e^{i theta(s)} read about max |theta'|."""
    overlaps = np.einsum("ij,ij->i", path.states[:-1].conj(), path.states[1:])
    return float((path.npoints - 1) * np.abs(overlaps.imag).max())


__all__ = [
    "EigenPath",
    "check_branch",
    "track_eigenpath",
    "path_derivatives",
    "gauge_residual",
    "DEFAULT_GRID",
    "DEGENERACY_RTOL",
]
