"""Numerical instrumentation of the discrete-evolution error budget.

The discrete evolution leaks, at every step, an error vector

    w_{j+1} = P_{g_{j+1}^perp}(g_j - g_{j+1}),

the component of the eigenpath's step change orthogonal to the new
eigenvector.  In the zero-eigenvalue frame the final-state error is the
norm of sum_j U_{L-1}...U_j w_j, and the cancellation of that sum in
blocks of Delta consecutive terms is what makes slow evolution work.
Every intermediate inequality of that argument is turned here into a
measured value, a bound, a slack factor, and a pass flag.

The error sum is the affine fold S <- U_j S + w_{j+1}, and affine maps
compose as matrices: with A_j = [[U_j, w_{j+1}], [0, 1]], the sum is
column d of the ordered product A_{L-1} ... A_0.  ``fold_blocks`` forms
that product block by block with ``ordered_product``, one extra column
carrying each block's frozen-w sum.  One pass over the step unitaries
thus yields the block checks, the total error vector and the step drift
max_j ||U_{j+1} - U_j||.

Asymptotic O(...) remainders carry unspecified constants, so each
asymptotic claim is checked as a scaling-exponent fit over step-count
doublings plus an absolute check that reuses the fitted constant - never
as a bare inequality at a single L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import chunk_ranges, chunk_size, grid_derivative, opnorm, ordered_product
from .errors import DomainError, FeasibilityError
from .evolution import EvolutionConfig, _step_batch
from .hamiltonians import NormBundle, TimeDependentHamiltonian
from .spectral import EigenPath, gauge_residual, path_derivatives, track_eigenpath
from .theorem import _check_delta, zero_frame

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
    """Discretization parameters; the block length Delta follows from them.

    Delta = ceil((8/delta) * L * ||H'|| / (T * lambda^2)), at least 1, and
    the block starts 1, 1 + Delta, ... partition 1..L.
    """

    L: int
    T: float
    delta: float
    norm_h1: float
    lam: float
    Delta: int = field(init=False)
    block_starts: tuple = field(init=False)

    def __post_init__(self) -> None:
        # written so that NaN, which fails every comparison, is rejected too
        positive = all(0.0 < x < math.inf for x in (self.T, self.delta, self.lam))
        if not (self.L >= 1 and positive and 0.0 <= self.norm_h1 < math.inf):
            raise DomainError(
                "L, T, delta and lambda must be positive and norm_h1 >= 0, all "
                f"finite: {self.L}, {self.T}, {self.delta}, {self.lam}, {self.norm_h1}"
            )
        _check_delta(self.delta)
        delta_blocks = expected_block_length(
            self.L, self.T, self.delta, self.norm_h1, self.lam
        )
        if delta_blocks > self.L:
            raise DomainError(
                f"Delta={delta_blocks} exceeds L={self.L}: T={self.T:g} is too "
                "small for block cancellation at this step count"
            )
        object.__setattr__(self, "Delta", delta_blocks)
        object.__setattr__(
            self, "block_starts", tuple(range(1, self.L + 1, delta_blocks))
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
    rows = w.view(float)  # real and imaginary parts side by side
    diffs = (rows[k:] - rows[:-k] for k in ks)
    drifts = np.sqrt([np.einsum("ij,ij->i", x, x).max() for x in diffs])
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


def _step_drift(batch: np.ndarray, previous: np.ndarray | None) -> float:
    """max ||U_{j+1} - U_j|| over ``batch``, led by ``previous`` unless None."""
    if previous is not None:
        batch = np.concatenate([previous[None], batch])
    return float(opnorm(batch[1:] - batch[:-1]).max(initial=0.0))


def _max_step_drift(h: TimeDependentHamiltonian, total_time: float, L: int) -> float:
    """max_j ||U_{j+1} - U_j|| over the L step unitaries, streamed in batches."""
    cfg = EvolutionConfig(total_time, L)
    worst, previous = 0.0, None
    for lo, hi in chunk_ranges(0, L, h.dim):
        batch = _step_batch(h, lo, hi, cfg)
        worst = max(worst, _step_drift(batch, previous))
        previous = batch[-1].copy()
    return worst


def check_step_unitary_drift(
    h_shifted: TimeDependentHamiltonian,
    cfg: ProofCheckConfig,
    norms_shifted: NormBundle,
    measured: float,
) -> CheckEntry:
    """max_j ||U_{j+1} - U_j|| <= T ||H'|| / L^2, with fitted 1/L^3 remainder.

    ``measured`` is the drift at cfg.L, from ``fold_blocks``.  Coarse fit
    lengths where the drift saturates near 2 (two arbitrary unitaries)
    carry no information about the asymptote and are dropped.
    """
    bound = cfg.T * norms_shifted.norm_H1 / cfg.L**2

    lengths, values = [], []
    for n in DEFAULT_FIT_LENGTHS:
        value = _max_step_drift(h_shifted, cfg.T, n)
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
# block cancellation and the total error vector


def fold_blocks(
    h_shifted: TimeDependentHamiltonian, cfg: ProofCheckConfig, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Every Delta-block's augmented ordered product and pure power sum.

    Step j = 0..L-1 becomes A_j = [[U_j, w_{j+1}, w_k], [0, I_2]], with k
    the start of the block holding step j; block k covers steps k-1 ..
    k+Delta-2.  As w_k enters in the column of step k-1, a block's product
    holds the block total sum_j U_{K-1}..U_j w_j in column d and the fold
    with w_j frozen at w_k in column d+1.  The blocks of a batch reduce
    together on a (Delta, blocks, d+2, d+2) array; a block longer than one
    batch composes its per-batch products, and a trimmed last block is
    padded with identities.  The power sum sum_{m<n} U_k^m w_k of an
    n-step block is column d of [[U_k, w_k], [0, 1]]^n.

    Returns the (blocks, d+2, d+2) products, the (blocks, d) power sums and
    max_j ||U_{j+1} - U_j||, as the batches list steps 0..L-1 once, in order.
    """
    d, L, delta_blocks = h_shifted.dim, cfg.L, cfg.Delta
    e = d + 2
    n_blocks = len(cfg.block_starts)
    step_cfg = EvolutionConfig(cfg.T, L)
    products = np.empty((n_blocks, e, e), dtype=complex)
    bases = np.zeros((n_blocks, d + 1, d + 1), dtype=complex)
    bases[:, d, d] = 1.0
    per_batch = max(1, chunk_size(e) // delta_blocks)
    drift, previous = 0.0, None
    for b0 in range(0, n_blocks, per_batch):
        b1 = min(b0 + per_batch, n_blocks)
        w_k = w[b0 * delta_blocks : b1 * delta_blocks : delta_blocks]
        product = None
        for r0, r1 in chunk_ranges(0, delta_blocks, e):
            lo, hi = b0 * delta_blocks + r0, min((b1 - 1) * delta_blocks + r1, L)
            if lo >= hi:  # the trimmed last block ended in an earlier batch
                break
            # one block per row, so the flat view lists steps lo..hi-1 in order
            aug = np.zeros((b1 - b0, r1 - r0, e, e), dtype=complex)
            flat = aug.reshape(-1, e, e)
            flat[: hi - lo, :d, :d] = _step_batch(h_shifted, lo, hi, step_cfg)
            drift = max(drift, _step_drift(flat[: hi - lo, :d, :d], previous))
            previous = flat[hi - lo - 1, :d, :d].copy()
            flat[: hi - lo, :d, d] = w[lo:hi]  # w[j] holds w_{j+1}
            aug[:, :, :d, d + 1] = w_k[:, None]
            flat[:, d, d] = flat[:, d + 1, d + 1] = 1.0
            flat[hi - lo :] = np.eye(e)
            if r0 == 0:
                # U_k is the block's second step; the power sum of a
                # one-step block is w_k, whatever stands in for U_k
                bases[b0:b1, :d, :d] = aug[:, min(1, r1 - 1), :d, :d]
                bases[b0:b1, :d, d] = w_k
            partial = ordered_product(aug.swapaxes(0, 1))
            product = partial if product is None else partial @ product
        products[b0:b1] = product

    lengths = np.minimum(delta_blocks, L + 1 - np.array(cfg.block_starts))
    power_sums = np.empty((n_blocks, d), dtype=complex)
    for n in np.unique(lengths):
        chosen = lengths == n
        power_sums[chosen] = np.linalg.matrix_power(bases[chosen], int(n))[:, :d, d]
    return products, power_sums, drift


def check_block_cancellation(
    products: np.ndarray, power_sums: np.ndarray, cfg: ProofCheckConfig
) -> list[CheckEntry]:
    """All four bounds for every Delta-block, from ``fold_blocks`` output.

    With K = block end, a block's own norm ||sum_j U_{K-1}..U_j w_j|| must
    stay below delta*Delta_b/L; freezing w_j -> w_k and then U_j -> U_k
    each costs at most delta*Delta_b/(4L); and the remaining pure power
    sum ||sum_m U_k^m w_k|| cancels down to delta*Delta_b/(2L).  A final
    short block is checked against proportionally scaled targets.
    """
    d = power_sums.shape[1]
    total, frozen_w = products[:, :d, d], products[:, :d, d + 1]
    values = np.linalg.norm(
        [total, total - frozen_w, frozen_w - power_sums, power_sums], axis=-1
    )
    labels = ("total", "freeze_w", "freeze_u", "power_sum")
    entries = []
    for k, measured in zip(cfg.block_starts, values.T.tolist()):
        block_len = min(cfg.Delta, cfg.L - k + 1)
        note = f"block j={k}..{k + block_len - 1}"
        note += "; trimmed" if block_len < cfg.Delta else ""
        scale = cfg.delta * block_len / cfg.L
        targets = (scale, scale / 4.0, scale / 4.0, scale / 2.0)
        entries.extend(
            CheckEntry(
                name=f"block[{k}]:{label}",
                measured=value,
                bound=target,
                slack=BLOCK_SLACK,
                passed=value <= target * (1.0 + BLOCK_SLACK),
                note=note,
            )
            for label, value, target in zip(labels, measured, targets)
        )
    return entries


def total_error_vector(products: np.ndarray) -> np.ndarray:
    """sum_{j=1}^L U_{L-1}...U_j w_j from the ``fold_blocks`` products.

    The leading (d+1) x (d+1) corner of a block's product is the product
    of its [[U_j, w_{j+1}], [0, 1]]; the ordered product of the blocks'
    corners holds the whole sum in column d.
    """
    d = products.shape[-1] - 2
    return ordered_product(products[:, : d + 1, : d + 1])[:d, d]


def check_total_error_norm(
    products: np.ndarray, cfg: ProofCheckConfig, norms_shifted: NormBundle
) -> list[CheckEntry]:
    """The full error sum must land below delta and far below the
    triangle-inequality foil ||H'||/lambda that ignores cancellation."""
    measured = float(np.linalg.norm(total_error_vector(products)))
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
    k_max: int | None = None,
) -> ProofReport:
    """Instrument every inequality for one instance and discretization.

    Builds the ``zero_frame`` on the j/L grid, takes T as its special-case
    required time when not given, and runs: gauge residual, the w Taylor
    form, the w norm bound, w drift, step-unitary drift, every
    Delta-block's four bounds, the total error sum with its foil
    comparison, and the eigenvalue derivative bounds.
    """
    if L < DEFAULT_FIT_LENGTHS[0]:
        raise DomainError(f"L={L} too small for the doubling studies")
    times = (delta,) if total_time is None else (delta, total_time)
    if not all(0.0 < x < math.inf for x in times):
        raise DomainError(f"need positive finite delta and T: {delta=}, {total_time=}")
    _check_delta(delta)
    if k_max is not None and k_max < 1:
        raise DomainError(f"k_max must be at least 1, got {k_max}")
    if L > TOTAL_SUM_MAX_L or h.dim > TOTAL_SUM_MAX_DIM:
        raise FeasibilityError(
            f"proofcheck limited to L <= {TOTAL_SUM_MAX_L} at dim <= "
            f"{TOTAL_SUM_MAX_DIM}; got L={L}, dim={h.dim}"
        )

    frame = zero_frame(h, L + 1, selector)
    path, shifted, lam = frame.path, frame.shifted, frame.lam
    norms, norms_shifted = frame.norms, frame.norms_shifted
    if total_time is None:
        total_time = frame.required_time(delta, "special")

    # Largest per-step phase: all geometric-sum bounds assume
    # |alpha| T / L <= pi/2 on every branch.
    theta_max = total_time * norms_shifted.norm_H / L
    if theta_max > math.pi / 2.0:
        needed = 2.0 * total_time * norms_shifted.norm_H / math.pi
        raise FeasibilityError(
            f"per-step phase {theta_max:.3f} exceeds pi/2; increase L to at "
            f"least {math.ceil(needed) if needed < math.inf else needed} for "
            f"T={total_time:.6g}"
        )

    cfg = ProofCheckConfig(L, total_time, delta, norms_shifted.norm_H1, lam)
    w = error_vectors(path)

    fit_paths = [track_eigenpath(h, n + 1, selector) for n in DEFAULT_FIT_LENGTHS]
    entries: list[CheckEntry] = [check_gauge_residual(path)]
    entries.append(check_error_vector_taylor(path, fit_paths))
    entries.append(check_error_vector_norm(path, cfg, fit_paths))
    del fit_paths  # keep them out of the block checks' peak memory
    entries.extend(check_error_vector_drift(path, cfg, norms_shifted, k_max))
    products, power_sums, step_drift = fold_blocks(shifted, cfg, w)
    entries.append(check_step_unitary_drift(shifted, cfg, norms_shifted, step_drift))
    entries.extend(check_block_cancellation(products, power_sums, cfg))
    entries.extend(check_total_error_norm(products, cfg, norms_shifted))
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
        "selector": selector if isinstance(selector, str) else "vector",
    }
    return ProofReport(entries=tuple(entries), metadata=metadata)


__all__ = [
    "CheckEntry",
    "ProofReport",
    "ProofCheckConfig",
    "error_vectors",
    "expected_block_length",
    "check_gauge_residual",
    "check_error_vector_taylor",
    "check_error_vector_norm",
    "check_error_vector_drift",
    "check_step_unitary_drift",
    "fold_blocks",
    "check_block_cancellation",
    "check_total_error_norm",
    "check_eigenvalue_derivative_bounds",
    "total_error_vector",
    "run_proofcheck",
    "TOTAL_SUM_MAX_L",
    "TOTAL_SUM_MAX_DIM",
]
