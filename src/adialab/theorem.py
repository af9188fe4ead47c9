"""Runtime bound evaluation and end-to-end verification.

``required_time_general`` evaluates the sufficient evolution time

    T >= (1e5 / delta^2) * max(||H'||^3 / lambda^4, ||H'|| ||H''|| / lambda^3)

from an instance's raw norms; ``required_time_special`` evaluates the
same expression with constant 1000, valid when the tracked eigenvalue is
identically zero.  ``shift_to_zero_eigenvalue`` produces that zero-eigenvalue
frame, H~(s) = H(s) - gamma(s) I, and ``verify`` composes the whole
pipeline: track the branch, measure gap and norms, shift, evolve
adaptively for the prescribed time and compare against the tracked
endpoint in both the phase-invariant and the gauge-fixed metric.

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


@dataclass(frozen=True)
class TheoremInputs:
    """delta, measured norms, spectral gap and which bound applies."""

    delta: float
    norms: NormBundle
    lam: float
    case: str = "general"

    def __post_init__(self) -> None:
        _check_delta(self.delta)
        if not self.lam > 0.0:
            raise DomainError(f"lambda must be positive, got {self.lam}")
        if self.case not in ("general", "special"):
            raise DomainError(f"case must be 'general' or 'special', got {self.case!r}")


def _bound_kernel(norms: NormBundle, lam: float) -> float:
    h1, h2 = norms.norm_H1, norms.norm_H2
    return max(h1**3 / lam**4, h1 * h2 / lam**3)


def required_time_general(inputs: TheoremInputs) -> float:
    """Sufficient time with the general-case constant 1e5."""
    if inputs.case != "general":
        raise DomainError("required_time_general expects case='general'")
    return GENERAL_CONSTANT / inputs.delta**2 * _bound_kernel(inputs.norms, inputs.lam)


def required_time_special(inputs: TheoremInputs) -> float:
    """Sufficient time with constant 1000 for the zero-eigenvalue frame."""
    if inputs.case != "special":
        raise DomainError("required_time_special expects case='special'")
    return SPECIAL_CONSTANT / inputs.delta**2 * _bound_kernel(inputs.norms, inputs.lam)


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

    gamma between grid points is interpolated by a cubic spline (a C^2
    interpolant keeps the ||H~''|| estimate stable).  H~'s record carries
    the spline and its derivatives, from which H~' and H~'' follow; an
    instance without an ``AffineRecord`` raises ``DomainError``.  The
    tracked states must be null vectors of H~ at every grid point
    (``IntegrityError`` otherwise).
    """
    spline = CubicSpline(path.grid, path.gammas)
    rules = (spline, spline.derivative(1), spline.derivative(2))
    name = (h.name + "_shifted") if h.name else "shifted"
    params = {**h.params, "shifted_by": "tracked_eigenvalue"}
    shifted = _shift_by(h, rules, name, params)
    _check_null_states(shifted, path)
    return shifted


def _shift_and_measure(
    h: TimeDependentHamiltonian, path: EigenPath, lam: float
) -> tuple[TimeDependentHamiltonian, NormBundle, NormBundle]:
    """Build H~(s) = H(s) - gamma(s) I and measure the norms of H and H~
    on the path's grid.

    Both bundles come from ``norm_bundle``, which raises ``DomainError``
    for an instance without an ``AffineRecord``.  H's are exact, and H~'s
    are sups of scalar curves in gamma' and gamma'', apart from sup ||H~||:
    subtracting a real scalar times I only translates a spectrum, so H~'s
    grid spectrum is the tracked path's minus gamma.  No derivative matrix
    is formed.  Postconditions: the tracked states are null vectors of H~
    at every path grid point, and the shifted norms obey ||H~'|| <= 2||H'||
    and ||H~''|| <= 2||H''|| + 4||H'||^2/lambda within 5% slack.
    """
    base_norms = norm_bundle(h, path.npoints, spectrum=path.eigenvalues)
    shifted = shift_to_zero_eigenvalue(h, path)
    gammas = shifted.affine.shift[0](path.grid)
    if h.affine.shift is not None:
        # H is a shifted frame already: its record's shift is part of H~'s
        gammas = gammas - h.affine.shift[0](path.grid)
    shifted_norms = norm_bundle(
        shifted, path.npoints, spectrum=path.eigenvalues - gammas[:, None]
    )

    slack = 1.0 + SHIFT_NORM_SLACK
    bound_h1 = 2.0 * base_norms.norm_H1
    bound_h2 = 2.0 * base_norms.norm_H2 + 4.0 * base_norms.norm_H1**2 / lam
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
    return shifted, base_norms, shifted_norms


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
    h: TimeDependentHamiltonian,
    selector="ground",
    delta: float = 0.5,
    *,
    case: str = "general",
    T_override: float | None = None,
    grid_size: int = DEFAULT_GRID,
    disc_tol: float | None = None,
    step_ceiling: int = DEFAULT_STEP_CEILING,
) -> TheoremVerdict:
    """Track, bound, evolve for the prescribed time, and compare.

    The gap is the tracked path's grid minimum.  The norms of H and of the
    zero-eigenvalue frame H~ come from ``_shift_and_measure``, so an
    instance without an ``AffineRecord`` is refused with ``DomainError``.
    The evolution runs in the shifted frame from the gauge-fixed initial
    state with disc_tol = delta/100 unless overridden (positive and finite),
    so discretization noise stays two orders below the claim under test.
    If the required step count exceeds ``step_ceiling`` the run refuses up
    front and reports the largest feasible T instead of silently truncating.
    """
    _check_delta(delta)
    if T_override is not None and not (0.0 <= T_override < math.inf):
        raise DomainError(f"T_override must be finite and >= 0, got {T_override}")
    if disc_tol is None:
        disc_tol = delta / 100.0
    if not 0.0 < disc_tol < math.inf:
        raise DomainError(f"disc_tol must be positive and finite, got {disc_tol}")

    path = track_eigenpath(h, grid_size, selector)
    lam = path.gap
    shifted, norms, norms_shifted = _shift_and_measure(h, path, lam)

    if case == "general":
        t_required = required_time_general(TheoremInputs(delta, norms, lam, "general"))
    elif case == "special":
        t_required = required_time_special(
            TheoremInputs(delta, norms_shifted, lam, "special")
        )
    else:
        raise DomainError(f"case must be 'general' or 'special', got {case!r}")

    t_used = float(T_override) if T_override is not None else t_required

    psi0 = path.states[0]
    target = path.states[-1]
    if t_used == 0.0:
        final, l_used = psi0, 0
    else:
        result = evolve_adaptive(
            shifted,
            psi0,
            t_used,
            disc_tol,
            step_ceiling=step_ceiling,
            norm_H=norms_shifted.norm_H,
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
        lam=lam,
        case=case,
        norms=norms,
        norms_shifted=norms_shifted,
        grid_size=grid_size,
        disc_tol=disc_tol,
        instance_name=h.name,
        instance_params=dict(h.params),
    )


__all__ = [
    "TheoremInputs",
    "TheoremVerdict",
    "required_time_general",
    "required_time_special",
    "shift_to_zero_eigenvalue",
    "verify",
    "GENERAL_CONSTANT",
    "SPECIAL_CONSTANT",
]
