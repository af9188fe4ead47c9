"""Numerical instrumentation of the discrete-evolution error budget.

The discrete evolution leaks, at every step, an error vector

    w_{j+1} = P_{g_{j+1}^perp}(g_j - g_{j+1}),

the component of the eigenpath's step change orthogonal to the new
eigenvector, for the branch of one sorted rank at s = 0.  In the
zero-eigenvalue frame the final-state error is the norm of
sum_j U_{L-1}...U_j w_j, and the cancellation of that sum in blocks of
Delta consecutive terms is what makes slow evolution work.
Every intermediate inequality of that argument is turned here into a
``CheckEntry`` of a measured value, a bound and a slack factor.  The
entry derives its pass flag from one rule, measured <= bound * (1 +
slack), or measured >= bound for a scaling exponent; no check states a
flag.  The eigenvalue lemma is checked on the zero-eigenvalue frame's
spline gamma, whose gamma'' is the ||H~''|| that the special-case T uses.

The error sum is the affine fold S <- U_j S + w_{j+1}, and affine maps
compose as matrices: with A_j = [[U_j, w_{j+1}], [0, 1]], the sum is
column d of the ordered product A_{L-1} ... A_0.  ``fold_blocks`` forms
that product block by block, one extra column carrying each block's
frozen-w sum: it streams the steps in plain chunks, and
``segment_products`` cuts each chunk at the block boundaries, the same
fold ``evolve_discrete`` cuts at its snapshots.  One pass over the step
unitaries thus yields the block checks, the total error vector and the
step drift max_j ||U_{j+1} - U_j||.

Three lemmas hold at every L and are checked as bare inequalities at
cfg.L: the error-vector norm ||w_j|| <= ||H~'||/(lambda L), by arc
length; the step drift ||U_{j+1} - U_j|| <= T ||H~'||/L^2, by Duhamel;
and the error-vector drift ||w_{j+k} - w_j|| <= (k/L^2)(beta + eps_L),
from sup ||Psi''|| <= beta with an explicit finite-L term eps_L.  Only
the Taylor form of w_j, a claim with an O(1/L^2) remainder of unspecified
constant, is still fitted: by its decay exponent over step-count
doublings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import chunk_ranges, opnorm, ordered_product, segment_products
from .errors import DomainError, FeasibilityError, require_count
from .evolution import EvolutionConfig, _step_batch
from .hamiltonians import NormBundle, TimeDependentHamiltonian
from .spectral import EigenPath, gauge_residual, path_derivatives, track_eigenpath
from .theorem import ZeroFrame, _check_delta, zero_frame

LEMMA_SLACK = 0.05  # rounding margin on lemma inequalities, some nearly attained
BLOCK_SLACK = 0.10  # accumulated roundoff margin on block bounds
GAUGE_RESIDUAL_LIMIT = 1e-4
TOTAL_SUM_MAX_L = 200_000
TOTAL_SUM_MAX_DIM = 16
DEFAULT_FIT_LENGTHS = (256, 512, 1024, 2048, 4096)
MIN_TAYLOR_EXPONENT = 1.7


@dataclass(frozen=True)
class CheckEntry:
    """One measured quantity against one bound.

    A "<=" entry passes when measured <= bound * (1 + slack); a ">="
    entry, a scaling exponent, passes when measured >= bound.  No entry
    carries a fitted remainder.
    """

    name: str
    measured: float
    bound: float
    slack: float = 0.0
    note: str = ""
    direction: str = "<="

    @property
    def passed(self) -> bool:
        if self.direction == ">=":
            return bool(self.measured >= self.bound)
        return bool(self.measured <= self.bound * (1.0 + self.slack))

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
        require_count(self.L, "L", 1)
        # written so that NaN, which fails every comparison, is rejected too
        positive = all(0.0 < x < math.inf for x in (self.T, self.delta, self.lam))
        if not (positive and 0.0 <= self.norm_h1 < math.inf):
            raise DomainError(
                "T, delta and lambda must be positive and norm_h1 >= 0, all "
                f"finite: {self.T}, {self.delta}, {self.lam}, {self.norm_h1}"
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


# ---------------------------------------------------------------------------
# individual checks


def check_gauge_residual(path: EigenPath) -> CheckEntry:
    """max_j |<Psi'(s_j), Psi(s_j)>| must sit at finite-difference noise."""
    return CheckEntry("gauge_residual", gauge_residual(path), GAUGE_RESIDUAL_LIMIT)


def _taylor_residual(path: EigenPath) -> float:
    L = path.npoints - 1
    w = error_vectors(path)
    d1 = path_derivatives(path)
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
    note = f"residual at target L: {_taylor_residual(path):.3e}"
    return CheckEntry(
        "error_vector_taylor_exponent", exponent, MIN_TAYLOR_EXPONENT,
        note=note, direction=">=",
    )


def check_error_vector_norm(w: np.ndarray, cfg: ProofCheckConfig) -> CheckEntry:
    """max_j ||w_j|| <= ||H~'|| / (lambda L), at every L, for the rows ``w``
    of ``error_vectors``.

    ||w_j|| = sin of the angle between g_{j-1} and g_j, at most the cell's
    Fubini-Study length, (1/L) max ||P_perp Psi'||.  And ||P_perp Psi'|| <=
    ||P_perp D Psi|| / g <= spread(D) / (2g), where spread(D)/2 <= ||D - cI||
    for every scalar c, so spread(D)/2 <= ||H~'|| whatever the spline's
    gamma'.  The bound is exact once lambda lower-bounds the gap on every
    cell; lambda is still the grid minimum of the gap, so it rests on the
    gap not dipping below it between grid points.
    """
    measured = float(np.linalg.norm(w, axis=1).max())
    bound = cfg.norm_h1 / (cfg.lam * cfg.L)
    return CheckEntry("error_vector_norm", measured, bound, LEMMA_SLACK)


def check_error_vector_drift(
    w: np.ndarray, cfg: ProofCheckConfig, norms_shifted: NormBundle
) -> list[CheckEntry]:
    """||w_{j+k} - w_j|| <= (k/L^2)(beta + eps_L), k <= min(Delta, 64, L - 1),
    for the rows ``w`` of ``error_vectors``.

    B1 = ||H~'||/lambda, beta = ||H~''||/lambda + 3 B1^2, eps_L = 3 B1^3/(2L)
    + B1^2 beta/L^2 and h = 1/L; Psi is the branch in the continuous
    parallel-transport gauge and g(s) its gap.  beta bounds sup ||Psi''||
    with room to spare: for affine H, Psi' = -R D Psi and P_perp Psi'' =
    -2 R (D - E') Psi', with R the reduced resolvent (||R|| <= 1/g), E' =
    <Psi, D Psi> and <Psi, Psi''> = -||Psi'||^2.  With p = lambda_max(D) -
    E' and q = E' - lambda_min(D), D's variance in Psi is at most pq
    (Bhatia-Davis) and D - E' on Psi's complement has norm <= max(p, q)
    (interlacing), so ||Psi''|| g^2 <= (4 pq max(p, q)^2 + p^2 q^2)^(1/2)
    < 2.72 (spread(D)/2)^2.  As spread(D)/2 <= ||D - cI|| for every c,
    ||Psi'|| <= B1 and ||Psi''|| <= 3 B1^2 whatever the spline: beta's
    ||H~''||/lambda term is unused for affine H.

    The discrete gauge gives w_j = e^{i phi_{j-1}} f(s_j, h) with f(s, t)
    = P_perp(Psi(s)) Psi(s - t).  As f(s, 0) = 0, ||f(s_{j+k}, h) -
    f(s_j, h)|| <= (k/L) sup_s int_0^h ||d_t d_s f|| dt, where, with u =
    s - t, d_t d_s f = -P_perp(Psi(s)) Psi''(u) + <Psi'(s), Psi'(u)> Psi(s)
    + <Psi(s), Psi'(u)> Psi'(s), which is -Psi''(s) at t = 0.  For a =
    ||Psi'(u)||^2, the Psi(s) part is at most a + t beta sqrt(a), and the
    last term at most t B1^3.  If a >= t B1 beta, |<Psi(s), Psi''(u)>| >= a
    - t B1 beta trims P_perp Psi''(u) and the squares sum to at most (beta +
    3 t B1^3)^2; else the Psi(s) part is below 2 t B1 beta.  Either way
    ||d_t d_s f|| <= beta + 3 t B1^3 + 2 t^2 B1^2 beta, which integrates to
    (k/L^2)(beta + 3 B1^3/(2L) + 2 B1^2 beta/(3 L^2)); no Psi''' enters.
    The gauge phases add at most k h B1 max |arg <Psi(s - h), Psi(s)>|,
    and that overlap's imaginary part is at most B1 beta h^3/6 and its real
    part at least 1 - (h B1)^2/2: for h B1 < 2/3, below (k/L^2)(3/14) B1^2
    beta/L^2, and 2/3 + 3/14 < 1.  For h B1 >= 2/3, (k/L^2) beta >= 2 B1/L
    already bounds ||w_{j+k}|| + ||w_j|| by the norm lemma.

    Like the norm lemma it is exact once lambda lower-bounds the gap on
    every cell (lambda is still the grid minimum).  The slope entry is the
    fitted k-slope of L^2 * drift against beta; the all-k entry reports the
    lag whose drift most exceeds its limit, so it passes exactly when every
    lag does.  L < 2 leaves no lag (``DomainError``).
    """
    L = cfg.L
    if L < 2:
        raise DomainError(f"the error-vector drift check needs L >= 2, got L={L}")
    k_max = min(cfg.Delta, 64, L - 1)
    ks = np.arange(1, k_max + 1)
    rows = w.view(float)  # real and imaginary parts side by side
    diffs = (rows[k:] - rows[:-k] for k in ks)
    drifts = np.sqrt([np.einsum("ij,ij->i", x, x).max() for x in diffs])
    beta = norms_shifted.norm_H2 / cfg.lam + 3.0 * norms_shifted.norm_H1**2 / cfg.lam**2
    b1 = norms_shifted.norm_H1 / cfg.lam
    eps = 1.5 * b1**3 / L + b1**2 * beta / L**2

    scaled = drifts * L**2
    if k_max >= 2:
        alpha = np.linalg.lstsq(np.vander(ks, 2), scaled, rcond=None)[0][0]
    else:
        alpha = scaled[0]
    limits = (ks / L**2) * (beta + eps)
    worst = int(np.argmax(drifts - limits * (1.0 + LEMMA_SLACK)))
    return [
        CheckEntry(
            "error_vector_drift_slope", float(alpha), beta, LEMMA_SLACK,
            note=f"k-slope of L^2 * drift over k=1..{k_max}",
        ),
        CheckEntry(
            "error_vector_drift_all_k", float(drifts[worst]), float(limits[worst]),
            LEMMA_SLACK, f"worst k={int(ks[worst])}; eps_L={eps:.3e}",
        ),
    ]


def check_step_unitary_drift(
    cfg: ProofCheckConfig, norms_shifted: NormBundle, measured: float
) -> CheckEntry:
    """max_j ||U_{j+1} - U_j|| <= T ||H~'|| / L^2, at every L.

    ``measured`` is the drift at cfg.L, from ``fold_blocks``.  By Duhamel,
    ||e^{i eps A} - e^{i eps B}|| <= eps ||A - B||, and ||H~(s_{j+1}) -
    H~(s_j)|| <= sup ||H~'|| / L; H~ is the spline frame that is evolved, so
    the bound is exact and needs no lambda.  It is nearly attained, and
    ``LEMMA_SLACK`` is the rounding margin.
    """
    bound = cfg.T * norms_shifted.norm_H1 / cfg.L**2
    return CheckEntry("step_unitary_drift", measured, bound, LEMMA_SLACK)


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
    with w_j frozen at w_k in column d+1.  The steps stream in plain
    ``chunk_ranges`` chunks; ``segment_products`` cuts each chunk at the
    multiples of Delta, and one batched matmul multiplies its runs into
    the identity-initialised products of the blocks they belong to.  The
    power sum sum_{m<n} U_k^m w_k of an n-step block is column d of
    [[U_k, w_k], [0, 1]]^n.

    Returns the (blocks, d+2, d+2) products, the (blocks, d) power sums and
    max_j ||U_{j+1} - U_j||, as the chunks list steps 0..L-1 once, in order.
    """
    d, L, delta_blocks = h_shifted.dim, cfg.L, cfg.Delta
    e = d + 2
    n_blocks = len(cfg.block_starts)
    step_cfg = EvolutionConfig(cfg.T, L)
    products = np.broadcast_to(np.eye(e, dtype=complex), (n_blocks, e, e)).copy()
    w_k = w[::delta_blocks]  # w[j] holds w_{j+1}, and block k starts at step k-1
    bases = np.zeros((n_blocks, d + 1, d + 1), dtype=complex)
    bases[:, :d, d], bases[:, d, d] = w_k, 1.0
    drift, previous = 0.0, None
    for lo, hi in chunk_ranges(0, L, e):
        unitaries = _step_batch(h_shifted, lo, hi, step_cfg)
        # each chunk's drift is led by the previous chunk's last unitary
        led = unitaries if previous is None else np.concatenate([previous, unitaries])
        drift = max(drift, float(opnorm(np.diff(led, axis=0)).max(initial=0.0)))
        previous = unitaries[-1:].copy()
        block = np.arange(lo, hi) // delta_blocks
        aug = np.zeros((hi - lo, e, e), dtype=complex)
        aug[:, :d, :d] = unitaries
        aug[:, :d, d], aug[:, :d, d + 1] = w[lo:hi], w_k[block]
        aug[:, d, d] = aug[:, d + 1, d + 1] = 1.0
        # U_k is the block's second step, j = 1 mod Delta; the power sum of
        # a one-step block is w_k, whatever stands in for U_k
        seconds = slice((1 - lo) % delta_blocks, None, delta_blocks)
        bases[block[seconds], :d, :d] = unitaries[seconds]
        touched = slice(block[0], block[-1] + 1)
        products[touched] = segment_products(aug, lo, delta_blocks) @ products[touched]

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
            CheckEntry(f"block[{k}]:{label}", value, target, BLOCK_SLACK, note=note)
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
    note = f"triangle-inequality foil ||H'||/lambda = {foil:.6g}"
    return [
        CheckEntry("total_error_norm", measured, cfg.delta),
        CheckEntry("total_error_vs_foil", measured, 0.1 * foil, note=note),
    ]


# ---------------------------------------------------------------------------
# eigenvalue derivative bounds


def check_eigenvalue_derivative_bounds(frame: ZeroFrame) -> list[CheckEntry]:
    """|gamma'| <= ||H'|| and |gamma''| <= ||H''|| + 4||H'||^2/lambda.

    gamma is the frame's shift, the cubic Hermite spline through the
    tracked eigenvalues (``hamiltonians.CubicHermiteSpline``), so these are
    the derivatives the bound uses: H~'' = -gamma'' I makes
    sup |gamma''| the frame's ||H~''||, a closed-form sup over the spline's
    pieces that reads both one-sided gamma'' at every grid point (the
    spline is C^1, and gamma'' may jump there).  |gamma'| is read at the
    path's grid points, where the spline's slopes are the exact
    Hellmann-Feynman gamma'_j = Re<psi_j, D psi_j>.  The bounds
    take H's norms and the frame's lambda.  The stated bound is on gamma'
    without absolute value; the absolute value is checked here since the
    underlying estimate is on a magnitude.
    """
    gamma = frame.shifted.affine.shift
    d1 = float(np.abs(gamma(frame.path.grid, 1)).max())
    d2 = frame.norms_shifted.norm_H2
    norms = frame.norms
    bound2 = norms.norm_H2 + 4.0 * norms.norm_H1**2 / frame.lam
    return [
        CheckEntry("eigenvalue_derivative", d1, norms.norm_H1, LEMMA_SLACK),
        CheckEntry("eigenvalue_second_derivative", d2, bound2, LEMMA_SLACK),
    ]


# ---------------------------------------------------------------------------
# orchestration


def run_proofcheck(
    h: TimeDependentHamiltonian,
    L: int,
    delta: float = 0.5,
    total_time: float | None = None,
    *,
    rank: int = 0,
) -> ProofReport:
    """Instrument every inequality for one instance and discretization.

    Builds the ``zero_frame`` of the branch of sorted rank ``rank`` at
    s = 0 (``metadata.rank``) on the j/L grid and checks in its space, of
    dimension ``metadata.evolved_dim``, with T its special-case required
    time when not given: gauge residual, the w Taylor form, the w norm
    bound, w drift, step-unitary drift, every Delta-block's four bounds,
    the total error sum with its foil comparison, and the eigenvalue
    derivative bounds.  The Taylor exponent's fit paths track the frame's
    instance at its path's rank, which in V may differ from ``rank``, at
    ``DEFAULT_FIT_LENGTHS`` whatever L.  L must be an integer >= 2, the
    drift check's one lag (``DomainError``).
    ``FeasibilityError`` refuses L above ``TOTAL_SUM_MAX_L`` before the
    frame is built, and a frame space of dimension above
    ``TOTAL_SUM_MAX_DIM`` once it is.
    """
    require_count(L, "L", 2)  # the drift check's one lag
    times = (delta,) if total_time is None else (delta, total_time)
    if not all(0.0 < x < math.inf for x in times):
        raise DomainError(f"need positive finite delta and T: {delta=}, {total_time=}")
    _check_delta(delta)
    cap = f"proofcheck limited to L <= {TOTAL_SUM_MAX_L} at dim <= {TOTAL_SUM_MAX_DIM}"
    if L > TOTAL_SUM_MAX_L:
        raise FeasibilityError(f"{cap}; got L={L}")
    frame = zero_frame(h, L + 1, rank)
    if frame.h.dim > TOTAL_SUM_MAX_DIM:
        raise FeasibilityError(f"{cap}; got evolved dim={frame.h.dim}")
    path, shifted, norms_shifted = frame.path, frame.shifted, frame.norms_shifted
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

    cfg = ProofCheckConfig(L, total_time, delta, norms_shifted.norm_H1, frame.lam)
    w = error_vectors(path)

    entries: list[CheckEntry] = [check_gauge_residual(path)]
    entries.append(check_error_vector_taylor(path, [
        track_eigenpath(frame.h, n + 1, path.tracked_index)
        for n in DEFAULT_FIT_LENGTHS
    ]))
    entries.append(check_error_vector_norm(w, cfg))
    entries.extend(check_error_vector_drift(w, cfg, norms_shifted))
    products, power_sums, step_drift = fold_blocks(shifted, cfg, w)
    entries.append(check_step_unitary_drift(cfg, norms_shifted, step_drift))
    entries.extend(check_block_cancellation(products, power_sums, cfg))
    entries.extend(check_total_error_norm(products, cfg, norms_shifted))
    entries.extend(check_eigenvalue_derivative_bounds(frame))

    metadata = {
        **frame.describe(),
        "L": L,
        "T": total_time,
        "delta": delta,
        "Delta": cfg.Delta,
        "n_blocks": len(cfg.block_starts),
        "rank": int(rank),
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
