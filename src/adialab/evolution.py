"""Discretized adiabatic evolution.

The continuous evolution is represented only as the large-L limit of the
ordered product U_{L-1} ... U_1 U_0 of step unitaries
U_j = exp(i (T/L) H(j/L)), with the paper's +i in the exponent;
convergence is certified by step doubling: the L/2-step product on the
same grid must agree with the L-step product.  A step's scalar part only
turns the global phase, which the phase-invariant distance does not see,
so L starts where a step's eigenphase differences (T/L)(lambda_i -
lambda_k) are at most pi/2, from a bound on the spread lambda_max -
lambda_min of H(s); on the L/2-step level they are then at most pi, half
the 2 pi at which they alias.  After a failed level L jumps by the
power of two that the O(1/L) error of that level predicts.  The L/2-step
product comes at no extra exponential, because its step j is
exp(i (2T/L) H(2j/L)) = U_{2j}^2.  Step unitaries are exact spectral
exponentials, so the only error under study is the O(1/L)
discretization error itself.  ``_step_batch`` is the one place that
computes them; the proof instrumentation draws its U_j from it too.

The state lives in the instance's own dimension: ``theorem.verify`` hands
in its frame's, whose 2 x 2 Grover steps take ``expm_i_hermitian``'s closed form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._linalg import chunk_ranges, expm_i_hermitian, ordered_product, segment_products
from .errors import (
    DomainError,
    FeasibilityError,
    NonConvergenceError,
    NumericalInstabilityError,
    require_count,
)
from .hamiltonians import TimeDependentHamiltonian, eval_batch

NORM_DRIFT_GUARD = 1e-10
DEFAULT_STEP_CEILING = 2**30


@dataclass(frozen=True)
class EvolutionConfig:
    """Total time T, step count L and snapshot stride."""

    total_time: float
    steps: int
    snapshot_stride: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.total_time < math.inf:
            raise DomainError(
                f"total_time must be positive and finite, got {self.total_time}"
            )
        require_count(self.steps, "steps", 1)
        if self.snapshot_stride is not None:
            require_count(self.snapshot_stride, "snapshot_stride", 1)

    @property
    def epsilon(self) -> float:
        return self.total_time / self.steps


@dataclass(frozen=True)
class EvolutionResult:
    """Final state after L_used steps; ``half_state`` is the L_used/2-step
    final state on the same grid (even L only)."""

    final_state: np.ndarray
    L_used: int
    snapshots: tuple | None = None
    half_state: np.ndarray | None = None


def _check_state(psi: np.ndarray, dim: int) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (dim,):
        raise DomainError(f"state has shape {psi.shape}, expected ({dim},)")
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > 1e-8:
        raise DomainError(f"state is not unit norm: ||psi|| = {nrm:.12f}")
    return psi


def _guarded(psi: np.ndarray, L: int) -> np.ndarray:
    """psi renormalized, after checking the aggregate drift of L steps."""
    nrm = float(np.linalg.norm(psi))
    # aggregate of L per-step allowances: benign roundoff grows with L,
    # a non-unitary step would overshoot this by many orders
    guard = max(NORM_DRIFT_GUARD, 64.0 * np.finfo(float).eps * L)
    # written so that a NaN norm fails it too
    if not abs(nrm - 1.0) < guard:
        raise NumericalInstabilityError(
            f"accumulated norm drift {abs(nrm - 1.0):.3e} over {L} steps "
            f"exceeds the {guard:.1e} guard"
        )
    return psi / nrm


def _initial_steps(total_time: float, spread: float, step_ceiling: int) -> int:
    """ceil(2 T S / pi), at least 2, rounded up to even: the first L tried,
    for S >= sup_s lambda_max(H(s)) - lambda_min(H(s)).

    A step's eigenphase differences (T/L)(lambda_i - lambda_k) are then at
    most pi/2, so the L/2-step comparison's stay within pi: half the 2 pi
    at which two eigenphases alias, and a coarse product could agree with
    a fine one by accident.  Step doubling decides the rest.  ``verify``
    passes the sup itself, and S = 2 sup ||H|| always bounds it.  Raises
    FeasibilityError, naming the largest feasible T, if that L exceeds
    ``step_ceiling`` (at most the largest float) or 2 T S / pi overflows.
    """
    steps = 2.0 * total_time * spread / math.pi
    if steps < math.inf:
        steps = max(2, 2 * math.ceil(steps / 2.0))
    if steps > step_ceiling:
        # the largest T whose even-rounded initial step count fits, cut
        # (not rounded) to the six digits shown, so the T named fits too
        ceiling = min(step_ceiling - step_ceiling % 2, sys.float_info.max)
        feasible = ceiling / (2.0 * spread) * math.pi
        unit = 10.0 ** (math.floor(math.log10(feasible)) - 5)
        feasible = math.floor(feasible * (1.0 - 1e-12) / unit) * unit
        raise FeasibilityError(
            f"T={total_time:.6g} needs {steps} initial steps, beyond the "
            f"ceiling {step_ceiling}; largest feasible T is about "
            f"{feasible:.6g}"
        )
    return steps


def _step_batch(
    h: TimeDependentHamiltonian, lo: int, hi: int, cfg: EvolutionConfig
) -> np.ndarray:
    """U_j = exp(i (T/L) H(j/L)) for j = lo..hi-1."""
    s_values = np.arange(lo, hi, dtype=float) / cfg.steps
    mats = eval_batch(h, s_values)
    return expm_i_hermitian(mats, cfg.epsilon)


def evolve_discrete(
    h: TimeDependentHamiltonian, psi0: np.ndarray, cfg: EvolutionConfig
) -> EvolutionResult:
    """Apply U_0, then U_1, ..., then U_{L-1} to psi0.

    Each chunk of step unitaries is cut at the multiples of the snapshot
    stride (of L when none is set) and reduced by ``segment_products``;
    each run's product is composed into the running product, which is
    applied to psi0 where a state is reported.  With ``snapshot_stride``
    set, the state at each cut is recorded, with the initial and final
    states.  Every reported state passes the aggregate norm-drift guard of
    its step count.  For even L the same pass also multiplies the squared
    even-index unitaries U_{2j}^2 into ``half_state``, the L/2-step final
    state.
    """
    psi = _check_state(psi0, h.dim)
    L = cfg.steps
    stride = cfg.snapshot_stride or L
    snapshots = [(0, psi.copy())]

    product = half = None
    for lo, hi in chunk_ranges(0, L, h.dim):
        unitaries = _step_batch(h, lo, hi, cfg)
        # runs end at the multiples of the stride inside the chunk, then at its end
        stops = [*range(lo - lo % stride + stride, hi, stride), hi]
        for stop, partial in zip(stops, segment_products(unitaries, lo, stride)):
            product = partial if product is None else partial @ product
            if stop % stride == 0 or stop == L:
                snapshots.append((stop, _guarded(product @ psi, stop)))
        # a chunk may start at an odd index, and then hold no even one
        even = unitaries[lo % 2 :: 2]
        if L % 2 == 0 and len(even):
            partial = ordered_product(even @ even)
            half = partial if half is None else partial @ half
    half_state = _guarded(half @ psi, L) if L % 2 == 0 else None
    recorded = tuple(snapshots) if cfg.snapshot_stride is not None else None
    return EvolutionResult(snapshots[-1][1], L, recorded, half_state)


def evolve_adaptive(
    h: TimeDependentHamiltonian,
    psi0: np.ndarray,
    total_time: float,
    disc_tol: float,
    *,
    spread: float,
    step_ceiling: int = DEFAULT_STEP_CEILING,
) -> EvolutionResult:
    """Raise L from ceil(2 T S / pi), rounded up to even, until converged.

    S = ``spread`` is, or bounds, sup_s lambda_max(H(s)) - lambda_min(H(s))
    (``theorem.verify`` passes the exact sup), so the first level's
    eigenphase differences stay within pi/2 per step and within pi on its
    L/2-step comparison, half the 2 pi at which they alias
    (``_initial_steps``); a caller that knows only sup ||H(s)|| passes
    twice it.

    Each level runs one ``evolve_discrete`` pass at L, which also yields the
    L/2-step final state on the same grid.  The first L at which the
    phase-invariant distance d between the L/2-step and the L-step final
    states drops below ``disc_tol`` is returned, with its L-step result.
    d is an O(1/L) estimate, so a failed level predicts the jump: L grows
    by the smallest power of two k >= 2 with d/k < disc_tol, clamped to the
    largest power-of-two multiple of L within the step ceiling.  Raises
    FeasibilityError, naming the largest feasible T, if the first L already
    exceeds the ceiling, and NonConvergenceError once even 2L would.
    DomainError is raised for a non-finite T, for a disc_tol that is not
    positive and finite, and for a spread that is negative or not finite.
    """
    if not 0.0 < disc_tol < math.inf:
        raise DomainError(f"disc_tol must be positive and finite, got {disc_tol}")
    if not 0.0 < total_time < math.inf:
        raise DomainError(
            f"total_time must be positive and finite, got {total_time}"
        )
    require_count(step_ceiling, "step_ceiling", 2)  # the smallest level
    if not 0.0 <= spread < math.inf:
        raise DomainError(f"spread must be finite and >= 0, got {spread}")
    L = _initial_steps(total_time, spread, step_ceiling)
    while L <= step_ceiling:
        result = evolve_discrete(h, psi0, EvolutionConfig(total_time, L))
        distance = distance_phase_invariant(result.half_state, result.final_state)
        if distance < disc_tol:
            return result
        k = 2
        while distance / k >= disc_tol and 2 * k * L <= step_ceiling:
            k *= 2
        L *= k
    raise NonConvergenceError(
        f"step count {L} exceeds the ceiling {step_ceiling} before "
        f"reaching disc_tol={disc_tol:g}"
    )


def distance_phase_invariant(psi: np.ndarray, phi: np.ndarray) -> float:
    """sqrt(2 - 2|<psi, phi>|): the l2 distance minimized over global phase.

    Evaluated as ||psi - e^{i theta*} phi|| with the optimal rotation
    applied explicitly; the textbook square-root form loses half the
    significant digits near zero (floor ~sqrt(eps)), which would mask
    agreement at the 1e-8 level.
    """
    psi = np.asarray(psi, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    if psi.shape != phi.shape:
        raise DomainError(f"dimension mismatch: {psi.shape} vs {phi.shape}")
    overlap = np.vdot(psi, phi)
    magnitude = abs(overlap)
    rotation = np.conj(overlap) / magnitude if magnitude > 0.0 else 1.0
    return float(np.linalg.norm(psi - rotation * phi))


def distance_l2(psi: np.ndarray, phi: np.ndarray) -> float:
    """Plain Euclidean distance; meaningful only against gauge-fixed targets."""
    psi = np.asarray(psi, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    if psi.shape != phi.shape:
        raise DomainError(f"dimension mismatch: {psi.shape} vs {phi.shape}")
    return float(np.linalg.norm(psi - phi))


__all__ = [
    "EvolutionConfig",
    "EvolutionResult",
    "evolve_discrete",
    "evolve_adaptive",
    "distance_phase_invariant",
    "distance_l2",
    "DEFAULT_STEP_CEILING",
]
