"""Numerical instrumentation of the discrete-evolution error budget.

The discrete evolution leaks, at every step, an error vector

    w_{j+1} = P_{g_{j+1}^perp}(g_j - g_{j+1}),

the component of the eigenpath's step change orthogonal to the new
eigenvector.  In the zero-eigenvalue frame the final-state error is the
norm of sum_j U_{L-1}...U_j w_j, and the cancellation of that sum in
blocks of Delta consecutive terms is what makes slow evolution work.
Every intermediate inequality of that argument is turned here into a
measured value, a bound, a slack factor, and a pass flag.

Asymptotic O(...) remainders carry unspecified constants, so each
asymptotic claim is checked as a scaling-exponent fit over step-count
doublings plus an absolute check that reuses the fitted constant - never
as a bare inequality at a single L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ._linalg import chunk_ranges, grid_derivative, opnorm
from .errors import DomainError, FeasibilityError, IntegrityError, NumericalError
from .evolution import EvolutionConfig, _step_batch
from .hamiltonians import (
    DEFAULT_NORM_GRID,
    NormBundle,
    TimeDependentHamiltonian,
    norm_bundle,
    norm_spectra,
)
from .spectral import EigenPath, gauge_residual, path_derivatives, track_eigenpath
from .theorem import TheoremInputs, _shift_and_measure, required_time_special

LEMMA_SLACK = 0.05  # finite-difference noise allowance on lemma inequalities
BLOCK_SLACK = 0.10  # accumulated roundoff allowance on block bounds
GAUGE_RESIDUAL_LIMIT = 1e-4
TOTAL_SUM_MAX_L = 200_000
TOTAL_SUM_MAX_DIM = 16
DEFAULT_FIT_LENGTHS = (256, 512, 1024, 2048, 4096)
MIN_TAYLOR_EXPONENT = 1.7


@dataclass(frozen=True)
class CheckEntry:
    """One measured quantity against one bound.

    ``direction`` is "<=" for bound checks and ">=" for scaling exponents.
    """

    name: str
    measured: float
    bound: float
    slack: float
    passed: bool
    direction: str = "<="
    note: str = ""

    def to_dict(self) -> dict:
        # an infinite scaling exponent (residuals at roundoff) is not
        # representable in strict JSON; serialize it as null
        return {
            "name": self.name,
            "measured": self.measured if math.isfinite(self.measured) else None,
            "bound": self.bound,
            "slack": self.slack,
            "passed": self.passed,
            "direction": self.direction,
            "note": self.note,
        }


@dataclass(frozen=True)
class ProofReport:
    entries: tuple
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def failures(self) -> list[CheckEntry]:
        return [entry for entry in self.entries if not entry.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "metadata": self.metadata,
            "entries": [entry.to_dict() for entry in self.entries],
        }

    def csv_rows(self) -> list[str]:
        rows = ["name,measured,bound,slack,direction,passed,note"]
        for e in self.entries:
            note = e.note.replace(",", ";")
            rows.append(
                f"{e.name},{e.measured!r},{e.bound!r},{e.slack!r},"
                f"{e.direction},{str(e.passed).lower()},{note}"
            )
        return rows


@dataclass(frozen=True)
class ProofCheckConfig:
    """Discretization parameters plus the block length Delta.

    Delta = ceil((8/delta) * L * ||H'|| / (T * lambda^2)) is recomputed and
    cross-checked on construction; the block starts partition 1..L.
    """

    L: int
    T: float
    delta: float
    lam: float
    norm_h1: float
    Delta: int
    block_starts: tuple

    def __post_init__(self) -> None:
        if self.L < 1 or self.T <= 0.0 or self.delta <= 0.0 or self.lam <= 0.0:
            raise DomainError("L, T, delta and lambda must all be positive")
        expected = expected_block_length(
            self.L, self.T, self.delta, self.norm_h1, self.lam
        )
        if self.Delta != expected:
            raise IntegrityError(
                f"Delta={self.Delta} inconsistent with its defining formula "
                f"(expected {expected})"
            )
        if not (1 <= self.Delta <= self.L):
            raise DomainError(
                f"Delta={self.Delta} outside [1, L={self.L}]; "
                "the evolution time is too small for this step count"
            )
        if self.block_starts != tuple(range(1, self.L + 1, self.Delta)):
            raise IntegrityError("block_starts do not partition 1..L by Delta")

    @classmethod
    def from_bound(
        cls, L: int, T: float, delta: float, norm_h1: float, lam: float
    ) -> "ProofCheckConfig":
        delta_blocks = expected_block_length(L, T, delta, norm_h1, lam)
        if delta_blocks > L:
            raise DomainError(
                f"Delta={delta_blocks} exceeds L={L}: T={T:g} is too small "
                "for block cancellation at this step count"
            )
        return cls(
            L=L,
            T=T,
            delta=delta,
            lam=lam,
            norm_h1=norm_h1,
            Delta=delta_blocks,
            block_starts=tuple(range(1, L + 1, delta_blocks)),
        )


def expected_block_length(
    L: int, T: float, delta: float, norm_h1: float, lam: float
) -> int:
    return max(1, math.ceil((8.0 / delta) * L * norm_h1 / (T * lam**2)))


# ---------------------------------------------------------------------------
# error vectors


def error_vectors(path: EigenPath) -> np.ndarray:
    """All w_j = P_{g_j^perp}(g_{j-1} - g_j) for j = 1..L, as rows.

    Row j-1 holds w_j.  By construction <w_j, g_j> = 0.
    """
    g = path.states
    overlaps = np.einsum("ij,ij->i", g[1:].conj(), g[:-1])  # <g_j, g_{j-1}>
    return g[:-1] - overlaps[:, None] * g[1:]


# ---------------------------------------------------------------------------
# step-unitary provider


class _StepUnitaries:
    """U_j = exp(i (T/L) H(j/L)) for j = 0..L-1, cached when small.

    The unitaries come from evolution's ``_step_batch``; this class only
    caches them and hands them out in batches.
    """

    CACHE_BYTES = 192 * 2**20

    def __init__(self, h: TimeDependentHamiltonian, total_time: float, L: int):
        self.h = h
        self.L = L
        self._cfg = EvolutionConfig(total_time, L)
        self._cache: np.ndarray | None = None
        if L * h.dim * h.dim * 16 <= self.CACHE_BYTES:
            self._cache = np.concatenate(
                [self._compute(a, b) for a, b in chunk_ranges(0, L, h.dim)], axis=0
            )

    def _compute(self, lo: int, hi: int) -> np.ndarray:
        return _step_batch(self.h, lo, hi, self._cfg)

    def iter_batches(self, lo: int, hi: int) -> Iterator[tuple[int, np.ndarray]]:
        for a, b in chunk_ranges(lo, hi, self.h.dim):
            if self._cache is not None:
                yield a, self._cache[a:b]
            else:
                yield a, self._compute(a, b)

    def single(self, j: int) -> np.ndarray:
        if self._cache is not None:
            return self._cache[j]
        return self._compute(j, j + 1)[0]


# ---------------------------------------------------------------------------
# fits


def _fit_exponent(lengths, values) -> float:
    """Fitted p in values ~ C * L^-p (log-log least squares)."""
    lengths = np.asarray(lengths, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = values > 1e-14
    if mask.sum() < 2:
        return math.inf  # residuals at roundoff: decay is as fast as measurable
    slope, _ = np.polyfit(np.log(lengths[mask]), np.log(values[mask]), 1)
    return float(-slope)


def _fit_remainder(lengths, values, powers) -> np.ndarray:
    """Least-squares coefficients for values ~ sum_i c_i * L^-powers[i]."""
    lengths = np.asarray(lengths, dtype=float)
    design = np.stack([lengths**-p for p in powers], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, np.asarray(values, dtype=float), rcond=None)
    return coeffs


# ---------------------------------------------------------------------------
# individual checks


def check_gauge_residual(path: EigenPath) -> CheckEntry:
    """max_j |<Psi'(s_j), Psi(s_j)>| must sit at finite-difference noise."""
    measured = gauge_residual(path)
    return CheckEntry(
        name="gauge_residual",
        measured=measured,
        bound=GAUGE_RESIDUAL_LIMIT,
        slack=0.0,
        passed=measured <= GAUGE_RESIDUAL_LIMIT,
    )


def _taylor_residual(path: EigenPath) -> float:
    L = path.npoints - 1
    w = error_vectors(path)
    d1 = path_derivatives(path, 1)
    return float(np.linalg.norm(w + d1[1:] / L, axis=1).max())


def check_error_vector_taylor(path: EigenPath, fit_paths) -> CheckEntry:
    """w_{j+1} = -Psi'((j+1)/L)/L up to an O(1/L^2) remainder.

    The remainder's decay exponent is fitted over ``fit_paths``, the same
    branch tracked at doubling step counts L = npoints - 1; anything >= 1.7
    certifies the quadratic falloff.
    """
    exponent = _fit_exponent(
        [p.npoints - 1 for p in fit_paths], [_taylor_residual(p) for p in fit_paths]
    )
    target_residual = _taylor_residual(path)
    return CheckEntry(
        name="error_vector_taylor_exponent",
        measured=exponent,
        bound=MIN_TAYLOR_EXPONENT,
        slack=0.0,
        passed=exponent >= MIN_TAYLOR_EXPONENT,
        direction=">=",
        note=f"residual at target L: {target_residual:.3e}",
    )


def check_error_vector_norm(
    path: EigenPath, cfg: ProofCheckConfig, fit_paths
) -> CheckEntry:
    """max_j ||w_j|| <= ||H'|| / (lambda L), with a 1/L^2 remainder fitted
    over ``fit_paths`` (as in ``check_error_vector_taylor``)."""
    measured = float(np.linalg.norm(error_vectors(path), axis=1).max())
    bound = cfg.norm_h1 / (cfg.lam * cfg.L)
    values = [float(np.linalg.norm(error_vectors(p), axis=1).max()) for p in fit_paths]
    _, c2 = _fit_remainder([p.npoints - 1 for p in fit_paths], values, (1.0, 2.0))
    remainder = max(float(c2), 0.0) / cfg.L**2
    return CheckEntry(
        name="error_vector_norm",
        measured=measured,
        bound=bound,
        slack=LEMMA_SLACK,
        passed=measured <= bound * (1.0 + LEMMA_SLACK) + remainder,
        note=f"fitted remainder C/L^2 with C={max(float(c2), 0.0):.3e}",
    )


def check_error_vector_drift(
    path: EigenPath,
    cfg: ProofCheckConfig,
    norms_shifted: NormBundle,
    k_max: int | None = None,
) -> list[CheckEntry]:
    """||w_{j+k} - w_j|| <= (k/L^2)(||H''||/lambda + 3||H'||^2/lambda^2) + C/L^2.

    The mean-value bound is the slope in k; the k-independent remainder is
    the fitted intercept.  Both the slope comparison and the per-k absolute
    checks must pass.
    """
    L = cfg.L
    w = error_vectors(path)
    if k_max is None:
        k_max = min(cfg.Delta, 64)
    k_max = max(1, min(k_max, L - 1))
    ks = np.arange(1, k_max + 1)
    drifts = np.array(
        [float(np.linalg.norm(w[k:] - w[:-k], axis=1).max()) for k in ks]
    )
    beta = norms_shifted.norm_H2 / cfg.lam + 3.0 * norms_shifted.norm_H1**2 / cfg.lam**2

    scaled = drifts * L**2
    if k_max >= 2:
        design = np.stack([ks.astype(float), np.ones_like(ks, dtype=float)], axis=1)
        (alpha, intercept), *_ = np.linalg.lstsq(design, scaled, rcond=None)
    else:
        alpha, intercept = float(scaled[0]), 0.0
    intercept = max(float(intercept), 0.0)
    per_k_bounds = (ks / L**2) * beta * (1.0 + LEMMA_SLACK) + intercept / L**2
    all_k_pass = bool((drifts <= per_k_bounds).all())

    entries = [
        CheckEntry(
            name="error_vector_drift_slope",
            measured=float(alpha),
            bound=beta,
            slack=LEMMA_SLACK,
            passed=float(alpha) <= beta * (1.0 + LEMMA_SLACK),
            note=f"k-slope of L^2 * drift over k=1..{k_max}",
        ),
        CheckEntry(
            name="error_vector_drift_all_k",
            measured=float(drifts.max()),
            bound=float(per_k_bounds.max()),
            slack=LEMMA_SLACK,
            passed=all_k_pass,
            note=f"intercept C={intercept:.3e}; worst k={int(ks[np.argmax(drifts)])}",
        ),
    ]
    return entries


def _max_step_drift(provider: _StepUnitaries) -> float:
    worst = 0.0
    previous_last: np.ndarray | None = None
    for lo, batch in provider.iter_batches(0, provider.L):
        if previous_last is not None:
            worst = max(worst, float(opnorm(batch[0] - previous_last)))
        if batch.shape[0] > 1:
            worst = max(worst, float(opnorm(batch[1:] - batch[:-1]).max()))
        previous_last = batch[-1]
    return worst


def check_step_unitary_drift(
    h_shifted: TimeDependentHamiltonian,
    cfg: ProofCheckConfig,
    norms_shifted: NormBundle,
    fit_lengths=DEFAULT_FIT_LENGTHS,
) -> CheckEntry:
    """max_j ||U_{j+1} - U_j|| <= T ||H'|| / L^2, with fitted 1/L^3 remainder.

    Coarse fit lengths where the drift saturates near 2 (two arbitrary
    unitaries) carry no information about the asymptote and are dropped.
    """
    measured = _max_step_drift(_StepUnitaries(h_shifted, cfg.T, cfg.L))
    bound = cfg.T * norms_shifted.norm_H1 / cfg.L**2

    lengths, values = [], []
    for n in fit_lengths:
        value = _max_step_drift(_StepUnitaries(h_shifted, cfg.T, n))
        if value < 1.9:
            lengths.append(n)
            values.append(value)
    if len(lengths) >= 3:
        _, c3 = _fit_remainder(lengths, values, (2.0, 3.0))
        remainder_c = max(float(c3), 0.0)
        note = f"fitted remainder C/L^3 with C={remainder_c:.3e}"
    else:
        remainder_c = 0.0
        note = "remainder fit skipped (drift saturated at coarse L); C=0"
    return CheckEntry(
        name="step_unitary_drift",
        measured=measured,
        bound=bound,
        slack=LEMMA_SLACK,
        passed=measured <= bound * (1.0 + LEMMA_SLACK) + remainder_c / cfg.L**3,
        note=note,
    )


# ---------------------------------------------------------------------------
# geometric sums


@dataclass(frozen=True)
class GeometricSumEval:
    value: float
    direct: float
    closed_form: float
    resonant: bool
    theta: float


def _abs_sin(x: float) -> float:
    # |sin| has period pi; IEEE remainder keeps the reduction exact enough
    # for the 1e-10 cross-check even at large arguments.
    return abs(math.sin(math.remainder(x, math.pi)))


def geometric_sum_norm_detailed(
    alpha: float, total_time: float, L: int, delta_terms: int
) -> GeometricSumEval:
    """|sum_{j=0}^{Delta-1} e^{i alpha j T / L}| evaluated two ways.

    Direct summation and the closed-form ratio |e^{i theta Delta} - 1| /
    |e^{i theta} - 1| must agree within 1e-10; if theta is within 1e-12 of
    a multiple of 2 pi the closed form degenerates and the sum is exactly
    the number of terms, flagged as resonant.
    """
    if total_time <= 0.0 or L < 1:
        raise DomainError("total_time must be positive and L >= 1")
    if delta_terms < 1:
        raise DomainError("the sum needs at least one term")
    theta = alpha * total_time / L
    if abs(math.remainder(theta, 2.0 * math.pi)) < 1e-12:
        direct = float(delta_terms)
        return GeometricSumEval(direct, direct, math.nan, True, theta)

    total = 0.0 + 0.0j
    for lo, hi in chunk_ranges(0, delta_terms, 1):
        total += np.exp(1j * theta * np.arange(lo, hi)).sum()
    direct = float(abs(total))
    denominator = _abs_sin(theta / 2.0)
    closed = _abs_sin(delta_terms * theta / 2.0) / denominator
    tolerance = 1e-10 * max(1.0, delta_terms * 1e-5)
    if abs(direct - closed) > tolerance:
        raise NumericalError(
            f"geometric-sum evaluations disagree: direct {direct!r} vs "
            f"closed form {closed!r} (theta={theta!r}, Delta={delta_terms})"
        )
    return GeometricSumEval(direct, direct, closed, False, theta)


def geometric_sum_norm(
    alpha: float, total_time: float, L: int, delta_terms: int
) -> float:
    return geometric_sum_norm_detailed(alpha, total_time, L, delta_terms).value


# ---------------------------------------------------------------------------
# block cancellation and the total error vector


def check_block_cancellation(
    path: EigenPath,
    cfg: ProofCheckConfig,
    provider: _StepUnitaries,
    block_start: int,
    w: np.ndarray | None = None,
) -> list[CheckEntry]:
    """All four bounds for one Delta-block of the error sum.

    With K = block end, the block's own norm ||sum_j U_{K-1}..U_j w_j||
    must stay below delta*Delta_b/L; freezing w_j -> w_k and then
    U_j -> U_k each costs at most delta*Delta_b/(4L); and the remaining
    pure power sum ||sum_m U_k^m w_k|| cancels down to delta*Delta_b/(2L).
    A final short block is checked against proportionally scaled targets.
    """
    k = block_start
    L = cfg.L
    if not (1 <= k <= L):
        raise DomainError(f"block start {k} outside [1, {L}]")
    if w is None:
        w = error_vectors(path)
    block_len = min(cfg.Delta, L - k + 1)
    end = k + block_len - 1  # inclusive last j in the block
    trimmed = block_len < cfg.Delta
    note = f"block j={k}..{end}" + ("; trimmed" if trimmed else "")

    w_k = w[k - 1]
    total = w_k.copy()
    frozen_w = w_k.copy()
    for lo, batch in provider.iter_batches(k, end):
        for offset in range(batch.shape[0]):
            j = lo + offset
            u = batch[offset]
            total = u @ total + w[j]  # w[j] holds w_{j+1}
            frozen_w = u @ frozen_w + w_k

    u_k = provider.single(k)
    power_sum = w_k.copy()
    term = w_k
    for _ in range(block_len - 1):
        term = u_k @ term
        power_sum = power_sum + term

    scale = cfg.delta * block_len / L
    checks = [
        ("total", float(np.linalg.norm(total)), scale),
        (
            "freeze_w",
            float(np.linalg.norm(total - frozen_w)),
            scale / 4.0,
        ),
        (
            "freeze_u",
            float(np.linalg.norm(frozen_w - power_sum)),
            scale / 4.0,
        ),
        ("power_sum", float(np.linalg.norm(power_sum)), scale / 2.0),
    ]
    return [
        CheckEntry(
            name=f"block[{k}]:{label}",
            measured=value,
            bound=target,
            slack=BLOCK_SLACK,
            passed=value <= target * (1.0 + BLOCK_SLACK),
            note=note,
        )
        for label, value, target in checks
    ]


def total_error_vector(
    path: EigenPath, cfg: ProofCheckConfig, provider: _StepUnitaries
) -> np.ndarray:
    """sum_{j=1}^L U_{L-1}...U_j w_j, by the right-fold S <- U_k S + w_{k+1}."""
    if cfg.L > TOTAL_SUM_MAX_L or path.dim > TOTAL_SUM_MAX_DIM:
        raise FeasibilityError(
            f"total error sum limited to L <= {TOTAL_SUM_MAX_L} at "
            f"dim <= {TOTAL_SUM_MAX_DIM}; got L={cfg.L}, dim={path.dim}"
        )
    w = error_vectors(path)
    state = w[0].copy()
    for lo, batch in provider.iter_batches(1, cfg.L):
        for offset in range(batch.shape[0]):
            state = batch[offset] @ state + w[lo + offset]
    return state


def check_total_error_norm(
    path: EigenPath,
    cfg: ProofCheckConfig,
    provider: _StepUnitaries,
    norms_shifted: NormBundle,
) -> list[CheckEntry]:
    """The full error sum must land below delta and far below the
    triangle-inequality foil ||H'||/lambda that ignores cancellation."""
    measured = float(np.linalg.norm(total_error_vector(path, cfg, provider)))
    foil = norms_shifted.norm_H1 / cfg.lam
    return [
        CheckEntry(
            name="total_error_norm",
            measured=measured,
            bound=cfg.delta,
            slack=0.0,
            passed=measured <= cfg.delta,
        ),
        CheckEntry(
            name="total_error_vs_foil",
            measured=measured,
            bound=0.1 * foil,
            slack=0.0,
            passed=measured <= 0.1 * foil,
            note=f"triangle-inequality foil ||H'||/lambda = {foil:.6g}",
        ),
    ]


# ---------------------------------------------------------------------------
# eigenvalue derivative bounds


def check_eigenvalue_derivative_bounds(
    path: EigenPath, norms: NormBundle, lam: float
) -> list[CheckEntry]:
    """|gamma'| <= ||H'|| and |gamma''| <= ||H''|| + 4||H'||^2/lambda.

    The stated bound is on gamma' without absolute value; the absolute
    value is checked here since the underlying estimate is on a magnitude.
    """
    if path.npoints < 5:
        raise DomainError("need at least 5 grid points for derivative bounds")
    spacing = float(path.grid[1] - path.grid[0])
    d1 = float(np.abs(grid_derivative(path.gammas, spacing, 1)).max())
    d2 = float(np.abs(grid_derivative(path.gammas, spacing, 2)).max())
    bound1 = norms.norm_H1
    bound2 = norms.norm_H2 + 4.0 * norms.norm_H1**2 / lam
    return [
        CheckEntry(
            name="eigenvalue_derivative",
            measured=d1,
            bound=bound1,
            slack=LEMMA_SLACK,
            passed=d1 <= bound1 * (1.0 + LEMMA_SLACK),
        ),
        CheckEntry(
            name="eigenvalue_second_derivative",
            measured=d2,
            bound=bound2,
            slack=LEMMA_SLACK,
            passed=d2 <= bound2 * (1.0 + LEMMA_SLACK),
        ),
    ]


# ---------------------------------------------------------------------------
# orchestration


def run_proofcheck(
    h: TimeDependentHamiltonian,
    L: int,
    delta: float = 0.5,
    total_time: float | None = None,
    *,
    selector="ground",
    norm_grid: int = DEFAULT_NORM_GRID,
    k_max: int | None = None,
    fit_lengths=DEFAULT_FIT_LENGTHS,
) -> ProofReport:
    """Instrument every inequality for one instance and discretization.

    Tracks the branch on the j/L grid, shifts the tracked eigenvalue to
    zero, chooses T as the zero-frame required time when not given, and
    runs: gauge residual, the w Taylor form, the w norm bound, w drift,
    step-unitary drift, every Delta-block's four bounds, the total error
    sum with its foil comparison, and the eigenvalue derivative bounds.
    """
    if L < max(fit_lengths[0], 8):
        raise DomainError(f"L={L} too small for the doubling studies")
    if L > TOTAL_SUM_MAX_L or h.dim > TOTAL_SUM_MAX_DIM:
        raise FeasibilityError(
            f"proofcheck limited to L <= {TOTAL_SUM_MAX_L} at dim <= "
            f"{TOTAL_SUM_MAX_DIM}; got L={L}, dim={h.dim}"
        )

    path = track_eigenpath(h, L + 1, selector)
    lam = path.gap
    spectra = norm_spectra(h, norm_grid)
    norms = norm_bundle(h, norm_grid, spectra=spectra)
    shifted, norms_shifted = _shift_and_measure(h, path, spectra, norms, lam)

    if total_time is None:
        total_time = required_time_special(
            TheoremInputs(delta, norms_shifted, lam, "special")
        )

    # Largest per-step phase: all geometric-sum bounds assume
    # |alpha| T / L <= pi/2 on every branch.
    theta_max = total_time * norms_shifted.norm_H / L
    if theta_max > math.pi / 2.0:
        needed = math.ceil(2.0 * total_time * norms_shifted.norm_H / math.pi)
        raise FeasibilityError(
            f"per-step phase {theta_max:.3f} exceeds pi/2; increase L to at "
            f"least {needed} for T={total_time:.6g}"
        )

    cfg = ProofCheckConfig.from_bound(L, total_time, delta, norms_shifted.norm_H1, lam)
    provider = _StepUnitaries(shifted, total_time, L)
    w = error_vectors(path)

    fit_paths = [track_eigenpath(h, n + 1, selector) for n in fit_lengths]
    entries: list[CheckEntry] = [check_gauge_residual(path)]
    entries.append(check_error_vector_taylor(path, fit_paths))
    entries.append(check_error_vector_norm(path, cfg, fit_paths))
    del fit_paths  # keep them out of the block checks' peak memory
    entries.extend(check_error_vector_drift(path, cfg, norms_shifted, k_max))
    entries.append(check_step_unitary_drift(shifted, cfg, norms_shifted, fit_lengths))
    for start in cfg.block_starts:
        entries.extend(check_block_cancellation(path, cfg, provider, start, w))
    entries.extend(check_total_error_norm(path, cfg, provider, norms_shifted))
    entries.extend(check_eigenvalue_derivative_bounds(path, norms, lam))

    metadata = {
        "instance": {"name": h.name, "params": dict(h.params)},
        "L": L,
        "T": total_time,
        "delta": delta,
        "Delta": cfg.Delta,
        "n_blocks": len(cfg.block_starts),
        "lambda": lam,
        "norms": norms.to_dict(),
        "norms_shifted": norms_shifted.to_dict(),
        "norm_grid": norm_grid,
        "selector": selector if isinstance(selector, str) else "vector",
    }
    return ProofReport(entries=tuple(entries), metadata=metadata)


__all__ = [
    "CheckEntry",
    "ProofReport",
    "ProofCheckConfig",
    "GeometricSumEval",
    "error_vectors",
    "expected_block_length",
    "geometric_sum_norm",
    "geometric_sum_norm_detailed",
    "check_gauge_residual",
    "check_error_vector_taylor",
    "check_error_vector_norm",
    "check_error_vector_drift",
    "check_step_unitary_drift",
    "check_block_cancellation",
    "check_total_error_norm",
    "check_eigenvalue_derivative_bounds",
    "total_error_vector",
    "run_proofcheck",
    "TOTAL_SUM_MAX_L",
    "TOTAL_SUM_MAX_DIM",
]
