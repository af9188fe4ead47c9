"""Runtime bound evaluation and end-to-end verification.

``required_time`` evaluates the sufficient evolution time

    T >= (C / delta^2) * max(||H'||^3 / lambda^4, ||H'|| ||H''|| / lambda^3)

with C = 1e5 from an instance's raw norms, or with C = 1000 in the
zero-eigenvalue frame H~(s) = H(s) - gamma(s) I that
``shift_to_zero_eigenvalue`` produces.  ``zero_frame`` builds every input
once: it tracks the branch, shifts it and measures the norms of H and H~;
its ``ZeroFrame`` holds them, with lambda the path's gap.  ``verify``
evolves a frame adaptively for the prescribed time and compares against
the tracked endpoint in both the phase-invariant and the gauge-fixed
metric, so a sweep over T reuses one frame.

Identity shifts commute with everything, so evolutions under H and H~
agree up to a global phase; the gauge-fixed l2 distance is therefore
only meaningful in the shifted frame, and the verdict gates on the
phase-invariant distance while reporting both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DomainError, IntegrityError
from .evolution import (
    DEFAULT_STEP_CEILING,
    distance_l2,
    distance_phase_invariant,
    evolve_adaptive,
)
from .hamiltonians import (
    NormBundle,
    TimeDependentHamiltonian,
    _shift_by,
    norm_bundle,
)
from .spectral import (
    DEFAULT_GRID,
    DEGENERACY_RTOL,
    EigenPath,
    eigen_residuals,
    track_eigenpath,
)

GENERAL_CONSTANT = 1.0e5
SPECIAL_CONSTANT = 1000.0
SHIFT_NORM_SLACK = 0.05
MAX_DELTA = math.sqrt(2.0)


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


def _check_null_states(shifted: TimeDependentHamiltonian, path: EigenPath) -> None:
    """The tracked states must be null vectors of H~ at every grid point."""
    point_norms = np.maximum(np.abs(path.eigenvalues).max(axis=1), 1e-300)
    residual = eigen_residuals(shifted, path.grid, path.states, np.zeros(path.npoints))
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

    gamma between grid points is the cubic spline through the path's
    gammas (a C^2 interpolant, so H~'' exists).  H~'s record carries the
    spline, from whose pieces H~' and H~'' follow.  An instance without an
    ``AffineRecord``, or a frame that is shifted already, raises
    ``DomainError``.  The tracked states must be null vectors of H~ at
    every grid point (``IntegrityError`` otherwise).
    """
    name = (h.name + "_shifted") if h.name else "shifted"
    params = {**h.params, "shifted_by": "tracked_eigenvalue"}
    shifted = _shift_by(h, CubicSpline(path.grid, path.gammas), name, params)
    _check_null_states(shifted, path)
    return shifted


@dataclass(frozen=True)
class ZeroFrame:
    """An instance H, its tracked branch, its zero-eigenvalue frame H~ and
    the norms of both: every input of the bound, built by ``zero_frame``."""

    h: TimeDependentHamiltonian
    path: EigenPath
    shifted: TimeDependentHamiltonian
    norms: NormBundle
    norms_shifted: NormBundle

    @property
    def lam(self) -> float:
        return self.path.gap

    def required_time(self, delta: float, case: str = "general") -> float:
        """``required_time`` with H's norms in the general case and H~'s in
        the special case."""
        norms = self.norms_shifted if case == "special" else self.norms
        return required_time(delta, norms, self.lam, case)


def zero_frame(
    h: TimeDependentHamiltonian,
    grid_size: int = DEFAULT_GRID,
    selector="ground",
) -> ZeroFrame:
    """Track H's branch, build H~(s) = H(s) - gamma(s) I and measure the
    norms of H and H~ on the path's grid.

    Both bundles come from ``norm_bundle``, which raises ``DomainError``
    for an instance without an ``AffineRecord``; a shifted frame is refused
    by ``shift_to_zero_eigenvalue``.  H's are exact.  H~'s ||H~'|| and
    ||H~''|| are closed-form sups over the pieces of the spline gamma, and
    ||H~|| a per-cell bound from its spectrum at the grid points:
    subtracting a real scalar times I only translates a spectrum, so that
    is the tracked path's minus gamma.  No derivative matrix is formed.
    Postconditions: the tracked states are null vectors of H~ at every
    path grid point, and the shifted norms obey ||H~'|| <= 2||H'|| and
    ||H~''|| <= 2||H''|| + 4||H'||^2/lambda within 5% slack.
    """
    path = track_eigenpath(h, grid_size, selector)
    shifted = shift_to_zero_eigenvalue(h, path)
    base_norms = norm_bundle(h, path.npoints, spectrum=path.eigenvalues)
    gammas = shifted.affine.shift(path.grid)
    shifted_norms = norm_bundle(
        shifted, path.npoints, spectrum=path.eigenvalues - gammas[:, None]
    )

    slack = 1.0 + SHIFT_NORM_SLACK
    bound_h1 = 2.0 * base_norms.norm_H1
    bound_h2 = 2.0 * base_norms.norm_H2 + 4.0 * base_norms.norm_H1**2 / path.gap
    if shifted_norms.norm_H1 > bound_h1 * slack + 1e-12:
        raise IntegrityError(
            f"shifted ||H'|| = {shifted_norms.norm_H1:.6g} exceeds "
            f"2||H'|| = {bound_h1:.6g} beyond 5% slack"
        )
    if shifted_norms.norm_H2 > bound_h2 * slack + 1e-12:
        raise IntegrityError(
            f"shifted ||H''|| = {shifted_norms.norm_H2:.6g} exceeds "
            f"2||H''|| + 4||H'||^2/lambda = {bound_h2:.6g} beyond 5% slack"
        )
    return ZeroFrame(h, path, shifted, base_norms, shifted_norms)


@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of one verification run, with all inputs echoed."""

    passed: bool
    T_required: float
    T_used: float
    L_used: int
    distance_phase_invariant: float
    distance_gauge_fixed: float
    delta: float
    lam: float
    case: str
    norms: NormBundle
    norms_shifted: NormBundle
    grid_size: int
    disc_tol: float
    instance_name: str
    instance_params: dict

    def __post_init__(self) -> None:
        if self.passed != (self.distance_phase_invariant <= self.delta):
            raise IntegrityError("verdict pass flag inconsistent with distances")

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "T_required": self.T_required,
            "T_used": self.T_used,
            "L_used": self.L_used,
            "distance_phase_invariant": self.distance_phase_invariant,
            "distance_gauge_fixed": self.distance_gauge_fixed,
            "delta": self.delta,
            "lambda": self.lam,
            "case": self.case,
            "norms": self.norms.to_dict(),
            "norms_shifted": self.norms_shifted.to_dict(),
            "grid_size": self.grid_size,
            "disc_tol": self.disc_tol,
            "instance": {"name": self.instance_name, "params": self.instance_params},
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
    any number of runs.  The evolution runs in the shifted frame from the
    gauge-fixed initial state with disc_tol = delta/100 unless overridden
    (positive and finite), so discretization noise stays two orders below
    the claim under test.  If the required step count exceeds
    ``step_ceiling`` the run refuses up front and reports the largest
    feasible T instead of silently truncating.
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

    psi0, target = frame.path.states[[0, -1]]
    if t_used == 0.0:
        final, l_used = psi0, 0
    else:
        result = evolve_adaptive(
            frame.shifted,
            psi0,
            t_used,
            disc_tol,
            norm_H=frame.norms_shifted.norm_H,
            step_ceiling=step_ceiling,
        )
        final, l_used = result.final_state, result.L_used

    d_phase = distance_phase_invariant(final, target)
    d_gauge = distance_l2(final, target)
    return TheoremVerdict(
        passed=d_phase <= delta,
        T_required=t_required,
        T_used=t_used,
        L_used=l_used,
        distance_phase_invariant=d_phase,
        distance_gauge_fixed=d_gauge,
        delta=delta,
        lam=frame.lam,
        case=case,
        norms=frame.norms,
        norms_shifted=frame.norms_shifted,
        grid_size=frame.path.npoints,
        disc_tol=disc_tol,
        instance_name=frame.h.name,
        instance_params=dict(frame.h.params),
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
