"""Runtime bound evaluation and end-to-end verification.

``required_time`` evaluates the sufficient evolution time

    T >= (C / delta^2) * max(||H'||^3 / lambda^4, ||H'|| ||H''|| / lambda^3)

with C = 1e5 from an instance's raw norms, or with C = 1000 in the
zero-eigenvalue frame H~(s) = H(s) - gamma(s) I that
``shift_to_zero_eigenvalue`` produces.  ``zero_frame`` builds every input
once: it tracks the branch, shifts it and measures the norms of H and H~;
its ``ZeroFrame`` holds them, with lambda the path's gap and the sup of
the spread of H's spectrum, the evolution's step floor.  ``verify``
evolves a frame adaptively for the prescribed time and compares against
the tracked endpoint in both the phase-invariant and the gauge-fixed
metric, so a sweep over T reuses one frame.

The evolution from the branch's state psi0 at s = 0 never leaves V, the
smallest subspace that holds psi0 and is invariant under H0 and D = H1 - H0.
It is the evolution under P^H H P for an orthonormal basis P of V, and the
theorem needs only that Hamiltonian's gap and norms.  ``zero_frame`` picks
the space and the branch's rank in it once: P^H H P when V is proper and
at least two-dimensional (for Grover, the textbook two-level subspace),
else H.  lambda is that space's gap, and nothing is lifted back.

Identity shifts commute with everything, so evolutions under H and H~
agree up to a global phase; the gauge-fixed l2 distance is therefore
only meaningful in the shifted frame, and the verdict gates on the
phase-invariant distance while reporting both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._linalg import dagger, opnorm, opnorm_hermitian
from .errors import (
    DomainError,
    FeasibilityError,
    IntegrityError,
    UnderResolvedGridError,
)
from .evolution import (
    DEFAULT_STEP_CEILING,
    distance_l2,
    distance_phase_invariant,
    evolve_adaptive,
)
from .hamiltonians import (
    AffineRecord,
    CubicHermiteSpline,
    NormBundle,
    TimeDependentHamiltonian,
    _record,
    _shift_by,
    norm_bundle,
)
from .spectral import (
    DEFAULT_GRID,
    DEGENERACY_RTOL,
    EigenPath,
    check_branch,
    track_eigenpath,
)

GENERAL_CONSTANT = 1.0e5
SPECIAL_CONSTANT = 1000.0
SHIFT_NORM_SLACK = 0.05
MAX_DELTA = math.sqrt(2.0)
# closure rank cut, relative to max(||H0||, ||D||)
CLOSURE_RTOL = 1e-10


def _check_delta(delta: float) -> None:
    """No phase-invariant distance exceeds sqrt(2), so neither may delta."""
    if not (0.0 < delta <= MAX_DELTA + 1e-12):
        raise DomainError(f"delta must lie in (0, sqrt(2)], got {delta}")


_CONSTANTS = {"general": GENERAL_CONSTANT, "special": SPECIAL_CONSTANT}


def required_time(delta: float, norms: NormBundle, lam: float, case: str) -> float:
    """The sufficient time, with C = 1e5 for case "general" and C = 1000
    for case "special"; delta, lambda and the case are checked."""
    _check_delta(delta)
    if not lam > 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    if case not in _CONSTANTS:
        raise DomainError(f"case must be 'general' or 'special', got {case!r}")
    h1, h2 = norms.norm_H1, norms.norm_H2
    return _CONSTANTS[case] / delta**2 * max(h1**3 / lam**4, h1 * h2 / lam**3)


def _null_residuals(shifted: TimeDependentHamiltonian, path: EigenPath) -> np.ndarray:
    """||H~(s_j) psi_j|| at every grid point, read off H~'s record: as rows,
    psi_j h0^T + s_j psi_j D^T - c(s_j) psi_j, with no matrix per point."""
    record, psi = shifted.affine, path.states
    applied = psi @ record.h0.T
    applied += path.grid[:, None] * (psi @ record.diff.T)
    applied -= record.shift(path.grid)[:, None] * psi
    return np.linalg.norm(applied, axis=1)


def _check_null_states(shifted: TimeDependentHamiltonian, path: EigenPath) -> None:
    """The tracked states must be null vectors of H~ at every grid point."""
    point_norms = np.maximum(np.abs(path.eigenvalues).max(axis=1), 1e-300)
    residual = _null_residuals(shifted, path)
    bad = np.flatnonzero(residual > DEGENERACY_RTOL * point_norms)
    if bad.size:
        raise IntegrityError(
            f"shifted Hamiltonian does not annihilate the tracked "
            f"state at s={path.grid[bad[0]]:.6g}"
        )


def shift_to_zero_eigenvalue(
    h: TimeDependentHamiltonian, path: EigenPath
) -> TimeDependentHamiltonian:
    """Subtract the tracked eigenvalue: H~(s) = H(s) - gamma(s) I.

    gamma is the cubic Hermite spline (``CubicHermiteSpline``) through the
    path's gammas with the exact Hellmann-Feynman slopes
    gamma'_j = Re<psi_j, D psi_j>, so it returns every tracked gamma and
    its slope exactly at its grid point.  The spline is C^1, not C^2:
    gamma'' is linear on each piece and may jump at a grid point, so H~' is
    Lipschitz with constant sup |gamma''|, the form every bound that reads
    ||H~''|| needs.  H~'s record carries the spline, from whose pieces H~'
    and H~'' follow.  An instance without an ``AffineRecord`` raises
    ``DomainError`` before anything is computed, and a shifted frame
    raises it too.  The tracked states must be null vectors of H~ at every
    grid point (``IntegrityError`` otherwise).
    """
    psi = path.states
    diff = _record(h, "the zero-eigenvalue shift").diff
    # psi D^T is not kept for the null-state check: held while the spline
    # is allocated, it raised verify-bound's peak memory by 2 MB at d = 32
    slopes = np.einsum("ni,ni->n", psi.conj(), psi @ diff.T).real
    name = (h.name + "_shifted") if h.name else "shifted"
    params = {**h.params, "shifted_by": "tracked_eigenvalue"}
    spline = CubicHermiteSpline(path.grid, path.gammas, slopes)
    shifted = _shift_by(h, spline, name, params)
    _check_null_states(shifted, path)
    return shifted


def _invariant_subspace(
    record: AffineRecord, psi0: np.ndarray
) -> tuple[np.ndarray, float]:
    """An orthonormal basis P (d, k) of V, the smallest subspace that holds
    psi0 and is invariant under h0 and D, and its invariance residual
    ||(I - PP^H) h0 P|| + ||(I - PP^H) D P||.

    Block-Krylov closure: each new block is the images of the last one
    under h0 and D, orthogonalized twice against P and cut at singular
    values below CLOSURE_RTOL * max(||h0||, ||D||).
    """
    ops = np.stack([record.h0, record.diff])
    cut = CLOSURE_RTOL * float(opnorm_hermitian(ops).max())
    basis = block = psi0[:, None] / np.linalg.norm(psi0)
    while block.shape[1] and basis.shape[1] < len(psi0):
        grown = np.hstack(ops @ block)
        for _ in range(2):
            grown -= basis @ (dagger(basis) @ grown)
        u, sigma, _ = np.linalg.svd(grown, full_matrices=False)
        block = u[:, sigma > cut]
        basis = np.concatenate([basis, block], axis=1)
    images = ops @ basis
    leak = images - basis @ (dagger(basis) @ images)
    return basis, float(opnorm(leak).sum())


def _projected(
    h: TimeDependentHamiltonian, basis: np.ndarray
) -> TimeDependentHamiltonian:
    """P^H H P: the instance's record on V, with its name and params."""
    h0, h1 = (dagger(basis) @ end @ basis for end in (h.affine.h0, h.affine.h1))
    reduced = replace(h.affine, h0=h0, h1=h1)
    return TimeDependentHamiltonian(basis.shape[1], reduced, h.name, h.params)


@dataclass(frozen=True)
class ZeroFrame:
    """An instance H, its tracked branch, its zero-eigenvalue frame H~ and
    the norms of both: every input of the bound, built by ``zero_frame``.

    ``h`` is the instance the state evolves under, P^H H P or H itself
    (see ``zero_frame``); its dimension is the verdict's ``evolved_dim``.
    ``invariance_residual`` is V's residual r when ``h`` is P^H H P, else 0:
    by Duhamel, T r bounds the distance from the full evolution.
    ``spread`` is sup_s lambda_max(H(s)) - lambda_min(H(s)) in that space,
    which H~ shares.  H is affine, so lambda_max is convex in s and
    lambda_min concave: it is the larger spread of the path's spectra at
    s = 0 and s = 1.  It is ``verify``'s step floor and is echoed nowhere.
    """

    h: TimeDependentHamiltonian
    path: EigenPath
    shifted: TimeDependentHamiltonian
    norms: NormBundle
    norms_shifted: NormBundle
    invariance_residual: float
    spread: float

    @property
    def lam(self) -> float:
        return self.path.gap

    def required_time(self, delta: float, case: str = "general") -> float:
        """``required_time`` with H's norms in the general case and H~'s in
        the special case."""
        norms = self.norms_shifted if case == "special" else self.norms
        return required_time(delta, norms, self.lam, case)

    def describe(self) -> dict:
        """The frame's echo in the verdict and the proof report: the
        instance, lambda, both norm bundles and ``evolved_dim``."""
        return {
            "instance": {"name": self.h.name, "params": dict(self.h.params)},
            "lambda": self.lam,
            "norms": self.norms.to_dict(),
            "norms_shifted": self.norms_shifted.to_dict(),
            "evolved_dim": self.h.dim,
        }


def zero_frame(
    h: TimeDependentHamiltonian,
    grid_size: int = DEFAULT_GRID,
    rank: int = 0,
) -> ZeroFrame:
    """Pick the space, track H's branch there, build H~(s) = H(s) - gamma(s) I
    and measure the norms of H and H~ on the path's grid.

    psi0 is H(0)'s eigenvector of sorted rank ``rank``, which
    ``check_branch`` refuses before V is built.  When psi0's invariant
    subspace V has 2 <= dim V < d, H becomes P^H H P, tracked at the rank
    of the eigenvector of P^H H(0) P that P^H psi0 overlaps most (V is
    invariant under H(0), so P^H psi0 is one).  An instance without an
    ``AffineRecord`` raises ``DomainError`` before anything is evaluated;
    a shifted frame is refused by ``shift_to_zero_eigenvalue``.  Both
    bundles come from ``norm_bundle``.  H's are exact.  H~'s ||H~'|| and
    ||H~''|| are closed-form sups over the pieces of gamma, the C^1 spline
    with exact knot slopes (``shift_to_zero_eigenvalue``): ||H~''|| reads
    gamma'' on both sides of every grid point, so it is the Lipschitz
    constant of H~'.  ||H~|| is a per-cell bound from its spectrum at the grid
    points: subtracting a real scalar times I only translates a spectrum,
    so that is the tracked path's minus gamma.  The frame's exact
    ``spread`` is read off the same spectra's endpoints.  No derivative
    matrix is formed.  Postconditions: the tracked states are null vectors
    of H~ at every path grid point (``IntegrityError`` otherwise), and the
    shifted norms obey ||H~'|| <= 2||H'|| and ||H~''|| <= 2||H''|| +
    4||H'||^2/lambda within 5% slack.  The true gamma obeys both; a spline
    on too few points overshoots them between its knots (grover(5) at 3
    points does), which raises ``UnderResolvedGridError`` naming
    ``grid_size``.
    """
    record = _record(h, "zero_frame")
    evals, evecs = np.linalg.eigh(record.h0)
    psi0 = evecs[:, check_branch(evals, rank)]
    basis, residual = _invariant_subspace(record, psi0)
    if 2 <= basis.shape[1] < h.dim:
        h, psi0 = _projected(h, basis), dagger(basis) @ psi0
        rank = int(np.abs(dagger(np.linalg.eigh(h.affine.h0)[1]) @ psi0).argmax())
    else:
        residual = 0.0
    path = track_eigenpath(h, grid_size, rank)
    shifted = shift_to_zero_eigenvalue(h, path)
    base_norms = norm_bundle(h)
    gammas = path.gammas  # the spline of gamma takes these values at its knots
    shifted_norms = norm_bundle(shifted, spectrum=path.eigenvalues - gammas[:, None])
    spread = float(np.ptp(path.eigenvalues[[0, -1]], axis=1).max())

    n1, n2 = base_norms.norm_H1, base_norms.norm_H2
    for label, measured, rule, bound in (
        ("||H'||", shifted_norms.norm_H1, "2||H'||", 2.0 * n1),
        ("||H''||", shifted_norms.norm_H2, "2||H''|| + 4||H'||^2/lambda",
         2.0 * n2 + 4.0 * n1**2 / path.gap),
    ):
        if measured > bound * (1.0 + SHIFT_NORM_SLACK) + 1e-12:
            raise UnderResolvedGridError(
                f"shifted {label} = {measured:.6g} exceeds {rule} = {bound:.6g} "
                f"beyond 5% slack: the spline of gamma overshoots on "
                f"grid_size={path.npoints} points; refine the grid"
            )
    return ZeroFrame(h, path, shifted, base_norms, shifted_norms, residual, spread)


@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of one verification run, with all inputs echoed, the
    frame's through ``ZeroFrame.describe``.  ``passed`` is derived, never
    stored: the phase-invariant distance is <= delta.  ``frame`` takes no
    part in ``==``, which its arrays would make ambiguous."""

    T_required: float
    T_used: float
    L_used: int
    distance_phase_invariant: float
    distance_gauge_fixed: float
    delta: float
    case: str
    disc_tol: float
    frame: ZeroFrame = field(compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return bool(self.distance_phase_invariant <= self.delta)

    @property
    def evolved_dim(self) -> int:
        return self.frame.h.dim

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "T_required": self.T_required,
            "T_used": self.T_used,
            "L_used": self.L_used,
            "distance_phase_invariant": self.distance_phase_invariant,
            "distance_gauge_fixed": self.distance_gauge_fixed,
            "delta": self.delta,
            "case": self.case,
            "grid_size": self.frame.path.npoints,
            "disc_tol": self.disc_tol,
            **self.frame.describe(),
        }


def verify(
    frame: ZeroFrame,
    delta: float = 0.5,
    *,
    case: str = "general",
    T_override: float | None = None,
    disc_tol: float | None = None,
    step_ceiling: int = DEFAULT_STEP_CEILING,
) -> TheoremVerdict:
    """Bound, evolve the frame for the prescribed time, and compare.

    The gap and the norms are the frame's, so one ``zero_frame`` serves
    any number of runs.  The evolution runs in the frame's space, from the
    gauge-fixed initial state, with the frame's ``spread`` as its step
    floor (``evolve_adaptive``: eigenphase differences within pi/2 per
    step, and within pi on the L/2-step comparison level, half the 2 pi at
    which they alias) and disc_tol = delta/100 unless overridden (positive
    and finite), so discretization noise stays two orders below the claim
    under test.  If T r exceeds disc_tol/100 for the frame's invariance
    residual r, or the required step count exceeds ``step_ceiling``, the
    run refuses up front (``FeasibilityError``) and reports the largest T
    it could take instead of silently truncating.
    """
    _check_delta(delta)
    if T_override is not None and not (0.0 <= T_override < math.inf):
        raise DomainError(f"T_override must be finite and >= 0, got {T_override}")
    if disc_tol is None:
        disc_tol = delta / 100.0
    if not 0.0 < disc_tol < math.inf:
        raise DomainError(f"disc_tol must be positive and finite, got {disc_tol}")

    t_required = frame.required_time(delta, case)
    t_used = float(T_override) if T_override is not None else t_required

    residual = frame.invariance_residual
    if t_used * residual > disc_tol / 100.0:
        raise FeasibilityError(
            f"T={t_used:.6g} times V's invariance residual {residual:.3e} "
            f"exceeds disc_tol/100; largest certified T is about "
            f"{disc_tol / (100.0 * residual):.6g}"
        )
    psi0, target = frame.path.states[[0, -1]]
    if t_used == 0.0:
        final, l_used = psi0, 0
    else:
        result = evolve_adaptive(
            frame.shifted,
            psi0,
            t_used,
            disc_tol,
            spread=frame.spread,
            step_ceiling=step_ceiling,
        )
        final, l_used = result.final_state, result.L_used

    return TheoremVerdict(
        T_required=t_required,
        T_used=t_used,
        L_used=l_used,
        distance_phase_invariant=distance_phase_invariant(final, target),
        distance_gauge_fixed=distance_l2(final, target),
        delta=delta,
        case=case,
        disc_tol=disc_tol,
        frame=frame,
    )


__all__ = [
    "TheoremVerdict",
    "ZeroFrame",
    "required_time",
    "shift_to_zero_eigenvalue",
    "verify",
    "zero_frame",
    "GENERAL_CONSTANT",
    "SPECIAL_CONSTANT",
]
