import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import adialab as al
from adialab import _linalg, proofcheck
from adialab.errors import (
    AdialabError,
    DomainError,
    FeasibilityError,
    UnderResolvedGridError,
)
from adialab.evolution import _step_batch
from adialab.problems import PAULI_X, PAULI_Z, InstanceSpec
from adialab.proofcheck import (
    ProofCheckConfig,
    check_block_cancellation,
    check_error_vector_drift,
    check_error_vector_norm,
    check_eigenvalue_derivative_bounds,
    check_gauge_residual,
    check_error_vector_taylor,
    check_step_unitary_drift,
    expected_block_length,
    fold_blocks,
    total_error_vector,
)


BLOCK_LABELS = ("total", "freeze_w", "freeze_u", "power_sum")
BENCHMARK_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
# landau_zener at L = 1025 and this T has Delta = 64, which divides L - 1
ONE_STEP_BLOCK_L = 1025
ONE_STEP_BLOCK_T = 311.75641506315304


def _shifted_context(inst, L, delta=1.0, total_time=None, Delta=None):
    """Track at j/L, shift, and assemble the pieces checks need.

    With ``Delta`` given, T is chosen so that the block length is Delta.
    """
    path = al.track_eigenpath(inst, L + 1)
    lam = path.gap
    norms = al.norm_bundle(inst)
    shifted = al.shift_to_zero_eigenvalue(inst, path)
    shifted_norms = al.norm_bundle(shifted)
    if Delta is not None:
        # ceil((8/delta) L ||H'|| / (T lambda^2)) = ceil(Delta - 1/2)
        total_time = (8.0 / delta) * L * shifted_norms.norm_H1
        total_time /= (Delta - 0.5) * lam**2
    if total_time is None:
        total_time = al.required_time(delta, shifted_norms, lam, "special")
    cfg = ProofCheckConfig(L, total_time, delta, shifted_norms.norm_H1, lam)
    return path, cfg, shifted, shifted_norms, norms, lam


def max_step_drift(h, total_time, L):
    """Oracle: max_j ||U_{j+1} - U_j|| over the L step unitaries, in one batch."""
    u = _step_batch(h, 0, L, al.EvolutionConfig(total_time, L))
    return float(_linalg.opnorm(np.diff(u, axis=0)).max(initial=0.0))


def lag_drifts(w, ks):
    """Oracle: max_j ||w_{j+k} - w_j|| for each lag k, one k at a time."""
    return np.array([np.linalg.norm(w[k:] - w[:-k], axis=1).max() for k in ks])


def _fold(path, cfg, shifted):
    """fold_blocks' products and power sums, without the step drift."""
    return fold_blocks(shifted, cfg, al.error_vectors(path))[:2]


def per_step_folds(shifted, cfg, w):
    """Oracle: the block folds and the total error sum one step at a time.

    Returns {block start: {label: measured}} for the four block checks and
    the total error vector sum_{j=1}^L U_{L-1}...U_j w_j.
    """
    u = _step_batch(shifted, 0, cfg.L, al.EvolutionConfig(cfg.T, cfg.L))
    blocks = {}
    for k in cfg.block_starts:
        block_len = min(cfg.Delta, cfg.L - k + 1)
        w_k = w[k - 1]
        total = w_k.copy()
        frozen_w = w_k.copy()
        for j in range(k, k + block_len - 1):
            total = u[j] @ total + w[j]  # w[j] holds w_{j+1}
            frozen_w = u[j] @ frozen_w + w_k
        power_sum = w_k.copy()
        term = w_k
        for _ in range(block_len - 1):
            term = u[k] @ term
            power_sum = power_sum + term
        values = (total, total - frozen_w, frozen_w - power_sum, power_sum)
        blocks[k] = {
            label: float(np.linalg.norm(v)) for label, v in zip(BLOCK_LABELS, values)
        }
    state = w[0].copy()
    for j in range(1, cfg.L):
        state = u[j] @ state + w[j]
    return blocks, state


def one_step_block_oracle(lz):
    """The per-step oracle's values for block 1025 of the landau_zener
    run at L = 1025, delta = 0.5 and T = ONE_STEP_BLOCK_T."""
    L = ONE_STEP_BLOCK_L
    path = al.track_eigenpath(lz, L + 1)
    shifted = al.shift_to_zero_eigenvalue(lz, path)
    norm_h1 = al.norm_bundle(shifted).norm_H1
    cfg = ProofCheckConfig(L, ONE_STEP_BLOCK_T, 0.5, norm_h1, path.gap)
    blocks, _ = per_step_folds(shifted, cfg, al.error_vectors(path))
    return blocks[L]


def assert_blocks_match_oracle(entries, oracle_blocks):
    """Every block entry within 1e-12 of its bound of the oracle's value."""
    assert len(entries) == 4 * len(oracle_blocks)
    for entry in entries:
        start, label = entry.name[len("block[") :].split("]:")
        want = oracle_blocks[int(start)][label]
        assert abs(entry.measured - want) <= 1e-12 * entry.bound, entry.name


class TestErrorVectors:
    def test_constant_path_zero(self, const_instance):
        path = al.track_eigenpath(const_instance, 65)
        assert np.abs(al.error_vectors(path)).max() < 1e-14

    def test_hand_computed_2d_projection(self):
        # g_j = (1,0), g_{j+1} = (cos e, sin e): w = sin(e) (sin e, -cos e)
        eps = 0.01
        grid = np.array([0.0, 1.0])
        states = np.array(
            [[1.0, 0.0], [math.cos(eps), math.sin(eps)]], dtype=complex
        )
        path = al.EigenPath(
            grid=grid,
            states=states,
            gammas=np.zeros(2),
            eigenvalues=np.zeros((2, 2)),
            tracked_index=0,
            gap_values=np.ones(2),
        )
        w = al.error_vectors(path)[0]  # w_1
        expected = math.sin(eps) * np.array([math.sin(eps), -math.cos(eps)])
        assert np.allclose(w, expected, atol=1e-15)
        assert np.linalg.norm(w) == pytest.approx(math.sin(eps), abs=1e-12)

    def test_orthogonality_invariant(self, lz):
        path = al.track_eigenpath(lz, 10_001)
        w = al.error_vectors(path)
        inner = np.einsum("ij,ij->i", path.states[1:].conj(), w)
        assert np.abs(inner).max() < 1e-12


class TestConfig:
    def test_block_length_formula(self):
        # Delta = ceil((8/delta) L ||H'|| / (T lambda^2))
        assert expected_block_length(1000, 50.0, 0.5, 2.0, 1.0) == math.ceil(
            16 * 1000 * 2.0 / 50.0
        )

    def test_delta_is_derived_not_passed(self):
        cfg = ProofCheckConfig(1000, 1000.0, 0.5, 1.0, 1.0)
        assert cfg.Delta == expected_block_length(1000, 1000.0, 0.5, 1.0, 1.0)
        with pytest.raises(TypeError):
            ProofCheckConfig(1000, 1000.0, 0.5, 1.0, 1.0, Delta=cfg.Delta)
        with pytest.raises(TypeError):
            ProofCheckConfig(
                1000, 1000.0, 0.5, 1.0, 1.0, block_starts=cfg.block_starts
            )

    def test_delta_exceeding_l_rejected(self):
        with pytest.raises(DomainError, match="too small"):
            ProofCheckConfig(100, 0.001, 0.5, 1.0, 1.0)

    def test_non_finite_or_negative_inputs_rejected(self):
        # (L, T, delta, norm_h1, lambda) with one bad value each
        good = (1000, 1000.0, 0.5, 1.0, 1.0)
        bad_values = {
            1: (math.nan, math.inf, 0.0),
            2: (math.nan, math.inf, -0.5),
            3: (math.nan, math.inf, -1.0),
            4: (math.nan, math.inf, 0.0),
        }
        for index, values in bad_values.items():
            for value in values:
                args = list(good)
                args[index] = value
                with pytest.raises(DomainError, match="finite"):
                    ProofCheckConfig(*args)

    def test_delta_above_sqrt2_rejected(self, lz, monkeypatch):
        # no phase-invariant distance exceeds sqrt(2); run_proofcheck
        # refuses before the frame is built
        with pytest.raises(DomainError, match="sqrt"):
            ProofCheckConfig(1000, 1000.0, 5.0, 1.0, 1.0)
        monkeypatch.setattr(proofcheck, "zero_frame", None)
        with pytest.raises(DomainError, match="sqrt"):
            al.run_proofcheck(lz, L=1024, delta=5.0, total_time=100.0)

    def test_block_starts_partition(self):
        cfg = ProofCheckConfig(1000, 1000.0, 0.5, 1.0, 1.0)
        assert cfg.block_starts[0] == 1
        assert all(
            b - a == cfg.Delta for a, b in zip(cfg.block_starts, cfg.block_starts[1:])
        )


class TestTaylorForm:
    def test_constant_path_trivially_passes(self, const_instance):
        path = al.track_eigenpath(const_instance, 513)
        entry = check_error_vector_taylor(
            path, [al.track_eigenpath(const_instance, n + 1) for n in (64, 128, 256)]
        )
        assert entry.passed
        assert entry.measured == math.inf  # residuals at roundoff

    def test_landau_zener_residual_quarters_on_doubling(self, lz):
        from adialab.proofcheck import _taylor_residual

        r1 = _taylor_residual(al.track_eigenpath(lz, 1025))
        r2 = _taylor_residual(al.track_eigenpath(lz, 2049))
        assert 3.0 <= r1 / r2 <= 5.0

    def test_rotation_path_remainder_closed_form(self):
        # constant-speed rotation: the chord and central-difference tangent
        # cancel exactly inside, leaving the one-sided boundary remainder
        # sin(d)(1 - cos(d)) with d the per-step angle; exponent 3 >= 1.7
        from adialab.proofcheck import _taylor_residual

        from conftest import rotating_two_level

        inst = rotating_two_level(np.pi / 2.0)
        path = al.track_eigenpath(inst, 1025)
        step_angle = (np.pi / 4.0) / 1024
        oracle = np.sin(step_angle) * (1.0 - np.cos(step_angle))
        assert _taylor_residual(path) == pytest.approx(oracle, rel=1e-3)
        entry = check_error_vector_taylor(
            path, [al.track_eigenpath(inst, n + 1) for n in (128, 256, 512, 1024)]
        )
        assert entry.passed
        assert entry.measured == pytest.approx(3.0, abs=0.3)


class TestDriftChecks:
    def test_constant_instance_zero_drift(self, const_instance):
        path, cfg, shifted, shifted_norms, norms, lam = _shifted_context(
            const_instance, 512, total_time=100.0
        )
        w = al.error_vectors(path)
        entries = check_error_vector_drift(w, cfg, shifted_norms)
        assert all(e.passed for e in entries)
        assert entries[1].measured < 1e-14

    def test_drift_entries_match_the_per_k_norm_loop(self, lz):
        # the check sums real squares where the oracle takes complex
        # norms, so they may differ by rounding only.
        # Norms shrunk by a tenth make some lags exceed their limits
        path, cfg, shifted, shifted_norms, *_ = _shifted_context(lz, 4096, Delta=100)
        L, k_max = cfg.L, 64
        w = al.error_vectors(path)
        ks = np.arange(1, k_max + 1)
        drifts = lag_drifts(w, ks)
        design = np.stack([ks.astype(float), np.ones(k_max)], axis=1)
        (alpha, _), *_ = np.linalg.lstsq(design, drifts * L**2, rcond=None)
        for scale, all_pass in ((1.0, True), (0.1, False)):
            norms = dataclasses.replace(
                shifted_norms,
                norm_H1=shifted_norms.norm_H1 * math.sqrt(scale),
                norm_H2=shifted_norms.norm_H2 * scale,
            )
            slope, all_k = check_error_vector_drift(w, cfg, norms)
            b1 = norms.norm_H1 / cfg.lam
            beta = norms.norm_H2 / cfg.lam + 3.0 * b1**2
            eps = 1.5 * b1**3 / L + b1**2 * beta / L**2
            bounds = (ks / L**2) * (beta + eps)
            limits = bounds * (1.0 + proofcheck.LEMMA_SLACK)
            k = int(ks[np.argmax(drifts - limits)])  # the lag of the largest excess
            assert all_k.note == f"worst k={k}; eps_L={eps:.3e}"
            assert all_k.measured == pytest.approx(drifts[k - 1], rel=1e-14)
            assert all_k.bound == pytest.approx(bounds[k - 1], rel=1e-14)
            assert all_k.slack == proofcheck.LEMMA_SLACK
            assert all_k.passed == bool((drifts <= limits).all()) == all_pass
            assert slope.measured == pytest.approx(alpha, rel=1e-12)
            assert slope.bound == pytest.approx(beta, rel=1e-14)
            assert slope.note == "k-slope of L^2 * drift over k=1..64"

    def test_lags_stop_at_delta_and_at_l_minus_one(self, lz):
        # k runs to min(Delta, 64, L - 1): Delta = 5 at L = 512, and at
        # L = 8 with Delta = L only L - 1 = 7 lags exist
        for L, Delta, k_max in ((512, 5, 5), (8, 8, 7)):
            path, cfg, _, shifted_norms, *_ = _shifted_context(lz, L, Delta=Delta)
            w = al.error_vectors(path)
            slope, _ = check_error_vector_drift(w, cfg, shifted_norms)
            assert slope.note == f"k-slope of L^2 * drift over k=1..{k_max}"

    def test_one_step_is_refused(self, lz):
        # L = 1 leaves no lag k <= L - 1: a typed error, where an empty
        # array of drifts was indexed (IndexError)
        path = al.track_eigenpath(lz, 2)
        norms = al.norm_bundle(lz)
        cfg = ProofCheckConfig(1, 1e6, 0.5, norms.norm_H1, path.gap)
        with pytest.raises(DomainError, match="needs L >= 2, got L=1"):
            check_error_vector_drift(al.error_vectors(path), cfg, norms)

    def test_landau_zener_drift_scales_linearly_in_k(self, lz):
        L = 8192
        path = al.track_eigenpath(lz, L + 1)
        w = al.error_vectors(path)
        drift = lambda k: float(np.linalg.norm(w[k:] - w[:-k], axis=1).max())
        for k in (1, 2, 4, 8):
            ratio = drift(2 * k) / drift(k)
            assert 1.5 <= ratio <= 2.5

    def test_landau_zener_k1_matches_second_derivative_scale(self, lz):
        L = 8192
        path = al.track_eigenpath(lz, L + 1)
        w = al.error_vectors(path)
        measured = float(np.linalg.norm(w[1:] - w[:-1], axis=1).max())
        accel = CubicSpline(path.grid, path.states)(path.grid, 2)
        accel = np.linalg.norm(accel, axis=1).max()
        # spline oracle: drift(k=1) ~ max ||Psi''|| / L^2
        assert measured == pytest.approx(accel / L**2, rel=0.2)


class TestStepUnitaryDrift:
    def test_constant_instance_zero(self, const_instance):
        assert max_step_drift(const_instance, 10.0, 256) < 1e-14

    def test_linear_ramp_closed_form(self):
        # H(s) = s Z: U_{j+1} - U_j has operator norm |e^{i T/L^2} - 1|,
        # just below the entry's bound T ||H'|| / L^2 with ||H'|| = 1
        inst = al.affine_hamiltonian(np.zeros((2, 2)), PAULI_Z)
        T, L = 7.0, 64
        measured = max_step_drift(inst, T, L)
        expected = abs(np.exp(1j * T / L**2) - 1.0)
        assert measured == pytest.approx(expected, rel=1e-10)
        cfg = ProofCheckConfig(L, T, 1.0, 1.0, 4.0)  # lambda here only sets Delta
        _, _, drift = fold_blocks(inst, cfg, np.zeros((L, 2), dtype=complex))
        entry = check_step_unitary_drift(cfg, al.norm_bundle(inst), drift)
        assert entry.measured == measured
        assert entry.bound == T / L**2
        assert measured <= entry.bound


    def test_fold_carries_the_drift_across_batches(self, monkeypatch):
        # H jumps from Z to X between steps 63 and 64, where 64-step chunks
        # meet inside the first 128-step block, so the only nonzero drift
        # sits on that seam
        monkeypatch.setattr(_linalg, "chunk_size", lambda dim: 64)
        L = 256
        jump = al.TimeDependentHamiltonian(
            dim=2,
            evaluator=lambda s: np.where((s < 64 / L)[:, None, None], PAULI_Z, PAULI_X),
        )
        cfg = ProofCheckConfig(L, 16.0, 1.0, 1.0, 1.0)
        assert cfg.Delta == 128
        _, _, drift = fold_blocks(jump, cfg, np.zeros((L, 2), dtype=complex))
        u = _step_batch(jump, 0, L, al.EvolutionConfig(cfg.T, L))
        assert drift == float(_linalg.opnorm(u[64] - u[63])) > 0.0
        assert max_step_drift(jump, cfg.T, L) == drift


SMALL_L = (2, 3, 4, 8, 16, 32, 64)
# (instance, the step counts whose L + 1 points zero_frame refuses)
FINITE_L_CASES = {
    "landau_zener": (al.landau_zener, ()),
    "grover(2)": (lambda: al.grover(2), ()),
    "grover(3)": (lambda: al.grover(3), ()),
    "grover(4)": (lambda: al.grover(4), (3,)),
    "grover(5)": (lambda: al.grover(5), (2, 3)),
    "random_interpolation(8,1)": (lambda: al.random_interpolation(8, seed=1), ()),
}


def small_frames(make, refused):
    """(L, zero_frame(h, L + 1)) for each L in SMALL_L not in ``refused``;
    each L in ``refused`` must raise UnderResolvedGridError."""
    h = make()
    for L in SMALL_L:
        if L in refused:
            with pytest.raises(UnderResolvedGridError):
                al.zero_frame(h, L + 1)
        else:
            yield L, al.zero_frame(h, L + 1)


@pytest.mark.parametrize("make, refused", FINITE_L_CASES.values(), ids=FINITE_L_CASES)
class TestFiniteLLemmas:
    """The error-vector norm, step drift and error-vector drift bounds hold
    at every L, down to the coarsest grids a frame accepts, with no fitted
    remainder."""

    def test_error_vector_norm_below_each_cells_floor(self, make, refused):
        # ||w_j|| <= ||H~'|| / (L f_j), with f_j = (g_{j-1} + g_j -
        # spread(D)/L)/2 the Weyl floor of the gap on cell j, which does not
        # rest on the grid lambda; cells with f_j <= 0 are skipped
        checked = 0
        for L, frame in small_frames(make, refused):
            n1 = frame.norms_shifted.norm_H1
            g = frame.path.gap_values
            evals = np.linalg.eigvalsh(frame.h.affine.diff)
            floor = (g[:-1] + g[1:] - (evals[-1] - evals[0]) / L) / 2.0
            w = al.error_vectors(frame.path)
            w_norms = np.linalg.norm(w, axis=1)
            kept = floor > 0.0
            assert (w_norms[kept] <= n1 / (L * floor[kept])).all(), L
            checked += int(kept.sum())
            # the reported entry, against the grid lambda, with no slack
            cfg = ProofCheckConfig(L, 1e12, 1.0, n1, frame.lam)
            entry = check_error_vector_norm(w, cfg)
            assert entry.measured == w_norms.max() <= entry.bound, L
        assert checked > 0

    def test_step_drift_below_duhamel_bound(self, make, refused):
        # ||U_{j+1} - U_j|| <= T ||H~'|| / L^2 at every T, up to rounding
        for L, frame in small_frames(make, refused):
            n1 = frame.norms_shifted.norm_H1
            for T in (1.0, L / 4, L, 10 * L, 100 * L):
                drift = max_step_drift(frame.shifted, T, L)
                assert drift <= T * n1 / L**2 * (1.0 + 1e-12), (L, T)

    def test_error_vector_drift_below_finite_l_bound(self, make, refused):
        # ||w_{j+k} - w_j|| <= (k/L^2)(beta + eps_L) for every k <= min(64,
        # L - 1), with lambda the least of the grid gap and every cell's
        # Weyl floor, so it rests on no gap between grid points; an L whose
        # floor is not positive bounds nothing and is skipped
        checked = 0
        for L, frame in small_frames(make, refused):
            n1 = frame.norms_shifted.norm_H1
            g = frame.path.gap_values
            evals = np.linalg.eigvalsh(frame.h.affine.diff)
            floor = (g[:-1] + g[1:] - (evals[-1] - evals[0]) / L) / 2.0
            lam = min(frame.lam, floor.min())
            if lam <= 0.0:
                continue
            # T sets Delta = L, so no lag is cut at Delta
            total_time = 8.0 * L * n1 / ((L - 0.5) * lam**2)
            cfg = ProofCheckConfig(L, total_time, 1.0, n1, lam)
            assert cfg.Delta == L
            w = al.error_vectors(frame.path)
            _, all_k = check_error_vector_drift(w, cfg, frame.norms_shifted)
            worst = int(all_k.note.split("worst k=")[1].split(";")[0])
            ks = np.arange(1, min(64, L - 1) + 1)
            drifts = lag_drifts(w, ks)
            bounds = ks * (all_k.bound / worst)  # the bound is linear in k
            assert (drifts <= bounds * (1.0 + 1e-12)).all(), L
            checked += 1
        assert checked > 0


class TestGeometricSums:
    def test_small_angle_lower_bound(self):
        # |e^{i theta} - 1| >= |theta| / 2 for all |theta| <= pi/2
        thetas = np.linspace(-np.pi / 2.0, np.pi / 2.0, 20001)
        values = np.abs(np.exp(1j * thetas) - 1.0)
        assert (values >= np.abs(thetas) / 2.0 - 1e-15).all()


class TestBlocks:
    def test_constant_instance_all_zero(self, const_instance):
        path, cfg, shifted, *_ = _shifted_context(
            const_instance, 512, total_time=100.0
        )
        entries = check_block_cancellation(*_fold(path, cfg, shifted), cfg)
        assert len(entries) == 4 * len(cfg.block_starts)
        assert all(e.passed for e in entries)
        assert all(e.measured < 1e-13 for e in entries)

    def test_landau_zener_blocks_pass(self, lz):
        path, cfg, shifted, *_ = _shifted_context(lz, 4096, delta=1.0)
        entries = check_block_cancellation(*_fold(path, cfg, shifted), cfg)
        first_three = [f"block[{k}]:{label}" for k in cfg.block_starts[:3]
                       for label in BLOCK_LABELS]
        assert [e.name for e in entries[:12]] == first_three
        assert all(e.passed for e in entries[:12])

    def test_trimmed_final_block_flagged(self, lz):
        path, cfg, shifted, *_ = _shifted_context(lz, 4096, delta=1.0)
        if (cfg.L - cfg.block_starts[-1] + 1) == cfg.Delta:
            pytest.skip("Delta divides L for this configuration")
        entries = check_block_cancellation(*_fold(path, cfg, shifted), cfg)
        assert all("trimmed" in e.note for e in entries[-4:])
        assert not any("trimmed" in e.note for e in entries[:-4])

    def test_folds_match_per_step_oracle(self, lz, grover2, rand4):
        # L - 1 = 1024: Delta = 48 leaves a trimmed 17-step last block,
        # Delta = 64 a one-step last block starting at k = L
        L = 1025
        for inst in (lz, grover2, rand4):
            for Delta, last_len in ((48, 17), (64, 1)):
                path, cfg, shifted, *_ = _shifted_context(inst, L, Delta=Delta)
                assert cfg.Delta == Delta
                assert cfg.L - cfg.block_starts[-1] + 1 == last_len
                w = al.error_vectors(path)
                products, power_sums, drift = fold_blocks(shifted, cfg, w)
                assert drift == max_step_drift(shifted, cfg.T, cfg.L)
                blocks, total = per_step_folds(shifted, cfg, w)
                entries = check_block_cancellation(products, power_sums, cfg)
                assert_blocks_match_oracle(entries, blocks)
                assert np.linalg.norm(total_error_vector(products) - total) <= (
                    1e-12 * cfg.delta
                )

    def test_batched_folds_match_per_step_oracle(self, lz, monkeypatch):
        # with 64-step chunks, Delta = 26 runs straddle chunk boundaries
        # (the block of steps 52..77 spans the first two chunks), and the
        # trimmed 11-step last block, steps 1014..1024, straddles the last
        # two; Delta = 128 spans every block over two chunks, and the
        # one-step last block is the last chunk, step 1024 alone
        monkeypatch.setattr(_linalg, "chunk_size", lambda dim: 64)
        for Delta, last_len in ((26, 11), (128, 1)):
            path, cfg, shifted, *_ = _shifted_context(lz, 1025, Delta=Delta)
            assert cfg.L - cfg.block_starts[-1] + 1 == last_len
            w = al.error_vectors(path)
            products, power_sums, drift = fold_blocks(shifted, cfg, w)
            # the per-step values do not depend on the chunking
            assert drift == max_step_drift(shifted, cfg.T, cfg.L)
            blocks, total = per_step_folds(shifted, cfg, w)
            entries = check_block_cancellation(products, power_sums, cfg)
            assert_blocks_match_oracle(entries, blocks)
            assert np.linalg.norm(total_error_vector(products) - total) <= (
                1e-12 * cfg.delta
            )

    def test_block_decomposition_reassembles_total(self, lz):
        # concatenating all block sums with their shared unitary suffixes
        # reapplied must reproduce the total error vector
        L = 2048
        path, cfg, shifted, *_ = _shifted_context(lz, L, delta=1.0)
        products, _ = _fold(path, cfg, shifted)
        total = total_error_vector(products)
        u = _step_batch(shifted, 0, L, al.EvolutionConfig(cfg.T, L))

        reassembled = np.zeros(path.dim, dtype=complex)
        suffix = np.eye(path.dim, dtype=complex)  # U_{L-1} ... U_{boundary}
        boundary = L
        for b, start in reversed(list(enumerate(cfg.block_starts))):
            end = min(start + cfg.Delta - 1, L)  # inclusive last j of the block
            for j in reversed(range(end, boundary)):  # extend down to U_{end}
                suffix = suffix @ u[j]
            reassembled = reassembled + suffix @ products[b, : path.dim, path.dim]
            boundary = end
        assert np.linalg.norm(reassembled - total) < 1e-9

    def test_power_sum_matches_direct_power_application(self, lz):
        path, cfg, shifted, *_ = _shifted_context(lz, 1024, delta=1.0)
        k = cfg.block_starts[1]
        entries = check_block_cancellation(*_fold(path, cfg, shifted), cfg)
        named = {e.name.split(":")[1]: e for e in entries[4:8]}
        u_k = _step_batch(shifted, k, k + 1, al.EvolutionConfig(cfg.T, cfg.L))[0]
        w_k = al.error_vectors(path)[k - 1]
        block_len = min(cfg.Delta, cfg.L - k + 1)
        direct = sum(
            np.linalg.matrix_power(u_k, m) @ w_k for m in range(block_len)
        )
        assert named["power_sum"].measured == pytest.approx(
            float(np.linalg.norm(direct)), rel=1e-10
        )


class TestTotalError:
    def test_constant_instance_zero(self, const_instance):
        path, cfg, shifted, *_ = _shifted_context(
            const_instance, 512, total_time=100.0
        )
        total = total_error_vector(_fold(path, cfg, shifted)[0])
        assert np.linalg.norm(total) < 1e-13

    def test_landau_zener_below_delta_and_foil(self, lz):
        delta = 1.0
        path, cfg, shifted, shifted_norms, norms, lam = _shifted_context(
            lz, 16384, delta=delta
        )
        total = float(np.linalg.norm(total_error_vector(_fold(path, cfg, shifted)[0])))
        foil = shifted_norms.norm_H1 / lam
        assert total <= delta
        assert total <= 0.1 * foil

    def test_fast_quench_approaches_foil(self, lz):
        # at T far below requirement the cancellation degrades and the
        # final distance (which the total sum tracks) grows toward O(1)
        delta = 1.0
        path, cfg, shifted, *_ = _shifted_context(
            lz, 16384, delta=delta, total_time=12.0
        )
        total_slow = float(
            np.linalg.norm(total_error_vector(_fold(path, cfg, shifted)[0]))
        )
        path2, cfg2, shifted2, *_ = _shifted_context(lz, 16384, delta=delta)
        total_adiabatic = float(
            np.linalg.norm(total_error_vector(_fold(path2, cfg2, shifted2)[0]))
        )
        assert total_slow > 10.0 * total_adiabatic

    def test_ceiling_enforced(self, lz):
        with pytest.raises(FeasibilityError):
            al.run_proofcheck(lz, L=300_000, delta=0.5)


class TestGammaBounds:
    def test_landau_zener_closed_form(self, lz):
        # with q = (1-s)^2 + s^2: gamma' = (1-2s)/sqrt(q) and gamma'' = -q^{-3/2};
        # max|gamma'| = 1 at s = 0, 1 and max|gamma''| = 2 sqrt 2 at s = 1/2,
        # against ||H'|| = sqrt(2)
        frame = al.zero_frame(lz, 1025)
        entries = check_eigenvalue_derivative_bounds(frame)
        assert all(e.passed for e in entries)
        named = {e.name: e for e in entries}
        assert named["eigenvalue_derivative"].measured == pytest.approx(1.0, abs=1e-5)
        assert named["eigenvalue_derivative"].bound == pytest.approx(np.sqrt(2.0))
        assert named["eigenvalue_second_derivative"].measured == pytest.approx(
            2.0 * np.sqrt(2.0), abs=1e-5
        )

    def test_second_derivative_is_the_frame_norm(self, lz):
        # one source of gamma'': the entry reads the frame's ||H~''||, the
        # number the special-case T uses, and gamma' comes off the same spline
        frame = al.zero_frame(lz, 1025)
        named = {e.name: e for e in check_eigenvalue_derivative_bounds(frame)}
        second = named["eigenvalue_second_derivative"]
        assert second.measured == frame.norms_shifted.norm_H2
        assert second.bound == pytest.approx(4.0 * 2.0 / frame.lam, rel=1e-12)
        assert abs(named["eigenvalue_derivative"].measured - 1.0) <= 1e-5

    def test_grover_against_fd_oracle(self, grover2):
        from adialab.problems import grover_ground_energy

        entries = check_eigenvalue_derivative_bounds(al.zero_frame(grover2, 1025))
        assert all(e.passed for e in entries)
        # finite differences on the exact closed-form gamma as oracle
        h = 1e-6
        fd = (
            grover_ground_energy(2, 0.0 + h) - grover_ground_energy(2, 0.0)
        ) / h
        assert abs(fd) <= entries[0].measured + 1e-3

    @pytest.mark.parametrize(
        "make, L, exact",
        [(al.landau_zener, 65536, 1.0), (lambda: al.grover(2), 32768, 0.75)],
        ids=["landau_zener", "grover(2)"],
    )
    def test_slope_entry_is_exact_on_the_benchmark_grids(self, make, L, exact):
        # the two proof-check jobs' grids: max|gamma'| is gamma'(0) = 1 for
        # landau_zener and 3/4 = <u|D|u> for grover(2), read off the exact
        # knot slopes, not a fitted spline's
        frame = al.zero_frame(make(), L + 1)
        named = {e.name: e for e in check_eigenvalue_derivative_bounds(frame)}
        measured = named["eigenvalue_derivative"].measured
        assert abs(measured - exact) <= 4.0 * np.spacing(exact)


class TestGaugeEntry:
    def test_tracked_path_passes(self, lz):
        path = al.track_eigenpath(lz, 1025)
        assert check_gauge_residual(path).passed

    def test_corrupted_gauge_fails(self, lz):
        path = al.track_eigenpath(lz, 1025)
        twisted = dataclasses.replace(
            path, states=path.states * np.exp(1j * path.grid)[:, None]
        )
        entry = check_gauge_residual(twisted)
        assert not entry.passed
        assert entry.measured == pytest.approx(1.0, abs=1e-3)


class TestCheckEntry:
    def test_the_rule_at_its_edges(self):
        # a "<=" entry's edge is bound (1 + slack); a ">=" entry compares
        # with the bound alone
        edge = 1.0 * (1.0 + 0.05)
        for measured, want in ((edge, True), (math.nextafter(edge, 2.0), False)):
            assert proofcheck.CheckEntry("x", measured, 1.0, 0.05).passed is want
        for measured in (1.0, math.nextafter(1.0, 0.0)):
            entry = proofcheck.CheckEntry("x", measured, 1.0, 0.5, direction=">=")
            assert entry.passed is (measured >= 1.0)
        # neither a flag nor a fitted remainder can be passed in
        for field_name in ("passed", "allowance"):
            with pytest.raises(TypeError, match=field_name):
                proofcheck.CheckEntry("x", 0.0, 1.0, **{field_name: 0.0})


class TestRunProofcheck:
    def test_landau_zener_moderate_scale_all_pass(self, lz):
        report = al.run_proofcheck(lz, L=16384, delta=1.0)
        assert report.passed
        names = {e.name for e in report.entries}
        assert "error_vector_norm" in names
        assert "step_unitary_drift" in names
        assert "total_error_norm" in names
        assert any(name.startswith("block[") for name in names)

    def test_report_serialization(self, lz):
        import json

        report = al.run_proofcheck(lz, L=8192, delta=1.0)
        payload = report.to_dict()
        json.dumps(payload)
        rows = report.csv_rows()
        assert rows[0] == "name,measured,bound,slack,direction,passed,note"
        assert len(rows) == len(report.entries) + 1

    def test_shifted_norms_match_per_matrix_path(self, lz, grover2):
        # norms_shifted are those of the frame's instance shifted along the
        # path's L + 1 points, and Delta follows them (grover(2)'s bound
        # time needs more steps, so it runs at T = 2000)
        L, delta = 8192, 1.0
        for inst, total_time in ((lz, None), (grover2, 2000.0)):
            report = al.run_proofcheck(inst, L=L, delta=delta, total_time=total_time)
            frame = al.zero_frame(inst, L + 1)
            assert report.metadata["evolved_dim"] == frame.h.dim == 2
            path = al.track_eigenpath(frame.h, L + 1, frame.path.tracked_index)
            shifted = al.shift_to_zero_eigenvalue(frame.h, path)
            want = al.norm_bundle(shifted)
            got = report.metadata["norms_shifted"]
            for key in ("norm_H", "norm_H1", "norm_H2"):
                assert got[key] == pytest.approx(getattr(want, key), rel=1e-12, abs=0.0)
            if total_time is None:
                total_time = al.required_time(delta, want, path.gap, "special")
            assert report.metadata["T"] == pytest.approx(total_time, rel=1e-12)
            cfg = ProofCheckConfig(L, total_time, delta, want.norm_H1, path.gap)
            assert report.metadata["Delta"] == cfg.Delta

    def test_excited_rank_is_tracked_at_every_fit_length(self, monkeypatch):
        # transverse_ising(3)'s top state, rank 7 of 8, is rank 2 of its
        # three-dimensional V: the report echoes the requested rank, and
        # the fit paths track V's
        inst = al.transverse_ising(3)
        ranks, track = [], proofcheck.track_eigenpath
        monkeypatch.setattr(
            proofcheck, "track_eigenpath",
            lambda h, n, rank: ranks.append((h.dim, rank)) or track(h, n, rank),
        )
        report = al.run_proofcheck(inst, L=1024, delta=1.0, total_time=100.0, rank=7)
        assert report.metadata["rank"] == 7
        assert report.metadata["evolved_dim"] == 3
        assert ranks == [(3, 2)] * len(proofcheck.DEFAULT_FIT_LENGTHS)
        assert report.metadata["lambda"] == al.zero_frame(inst, 1025, rank=7).lam

    def test_step_unitaries_stream_once(self, lz, monkeypatch):
        # the fold streams U_0..U_{L-1} once and yields the reported step
        # drift; no other check streams a step unitary
        L, streamed = 8192, []

        def counting_step_batch(h, lo, hi, cfg):
            streamed.append((cfg.steps, hi - lo))
            return _step_batch(h, lo, hi, cfg)

        monkeypatch.setattr(proofcheck, "_step_batch", counting_step_batch)
        report = al.run_proofcheck(lz, L=L, delta=1.0)
        counts = {}
        for steps, n in streamed:
            counts[steps] = counts.get(steps, 0) + n
        assert counts == {L: L}

        path = al.track_eigenpath(lz, L + 1)
        shifted = al.shift_to_zero_eigenvalue(lz, path)
        entry = next(e for e in report.entries if e.name == "step_unitary_drift")
        assert entry.measured == max_step_drift(shifted, report.metadata["T"], L)

    @pytest.mark.parametrize("inst, total_time", [("lz", None), ("grover2", 2000.0)])
    def test_every_flag_follows_the_one_rule(self, inst, total_time, request):
        # passed is measured <= bound (1 + slack), or measured >= bound for
        # an exponent; no entry carries a fitted remainder
        L = 8192
        report = al.run_proofcheck(
            request.getfixturevalue(inst), L=L, delta=1.0, total_time=total_time
        )
        for e in report.entries:
            if e.direction == ">=":
                rule = e.measured >= e.bound
            else:
                rule = e.measured <= e.bound * (1.0 + e.slack)
            assert e.passed == rule == e.to_dict()["passed"], e.name
            assert not hasattr(e, "allowance"), e.name

    def test_dimension_cap_reads_the_frame(self, monkeypatch):
        # grover(5) evolves in its two-dimensional V; random_interpolation's
        # V is the whole 32-dimensional space, refused once its frame is built
        report = al.run_proofcheck(al.grover(5), L=2048, delta=1.0, total_time=1000.0)
        assert report.metadata["evolved_dim"] == 2
        frames, build = [], proofcheck.zero_frame

        def spy(*args):
            frames.append(build(*args))
            return frames[-1]

        monkeypatch.setattr(proofcheck, "zero_frame", spy)
        with pytest.raises(FeasibilityError, match="got evolved dim=32"):
            al.run_proofcheck(
                al.random_interpolation(32, seed=1), L=256, delta=1.0, total_time=50.0
            )
        assert [f.h.dim for f in frames] == [32]

    def test_one_step_last_block(self, lz):
        # Delta = 64 divides L - 1 = 1024, so the last block starts at k = L
        # and holds the single term w_L
        report = al.run_proofcheck(
            lz, L=ONE_STEP_BLOCK_L, delta=0.5, total_time=ONE_STEP_BLOCK_T
        )
        assert report.metadata["Delta"] == 64
        last = [e for e in report.entries if e.name.startswith("block[1025]:")]
        assert [e.name.split(":")[1] for e in last] == list(BLOCK_LABELS)
        assert all(e.note == "block j=1025..1025; trimmed" for e in last)
        assert_blocks_match_oracle(last, {1025: one_step_block_oracle(lz)})

    def test_small_angle_regime_enforced(self, lz):
        # 2 T ||H~|| / pi overflows to infinity at the last T
        for total_time in (3.3e5, 1e308, 1.7e308):
            with pytest.raises(FeasibilityError, match="pi/2"):
                al.run_proofcheck(lz, L=1024, delta=1.0, total_time=total_time)

    def test_non_finite_inputs_are_domain_errors(self, lz, monkeypatch):
        # refused up front, before the frame is built
        monkeypatch.setattr(proofcheck, "zero_frame", None)
        for delta, total_time in (
            (math.nan, 100.0),
            (math.inf, 100.0),
            (math.nan, None),
            (1.0, math.nan),
            (1.0, math.inf),
            (1.0, -math.inf),
            (1.0, 0.0),
        ):
            with pytest.raises(DomainError, match="positive finite delta and T"):
                al.run_proofcheck(lz, L=1024, delta=delta, total_time=total_time)

    def test_broken_gap_instance_refused(self):
        # near-degenerate crossing (gap 0.01): the Delta-blocking premise
        # cannot be met at any healthy-instance T, and the checker says so
        broken = al.affine_hamiltonian(
            PAULI_Z, 0.01 * PAULI_X - PAULI_Z, name="near_degenerate"
        )
        assert al.track_eigenpath(broken, 4097).gap == pytest.approx(0.01, abs=1e-6)
        with pytest.raises((DomainError, FeasibilityError)):
            al.run_proofcheck(broken, L=4096, delta=0.5, total_time=14071.0)

    def test_small_step_counts_report_or_raise_typed_errors(self, lz, grover2):
        # L >= 2 is the drift check's domain; the Taylor fit paths do not
        # depend on L.  Below 256 each run gives a report or a typed error
        # (Delta > L, a per-step phase above pi/2, an under-resolved grid),
        # never an IndexError
        reported = set()
        for L in (2, 3, 8, 16, 64, 255):
            for inst in (lz, grover2):
                for total_time in (None, L / 2):
                    try:
                        report = al.run_proofcheck(inst, L, 1.0, total_time)
                    except AdialabError:
                        continue
                    assert report.metadata["L"] == L
                    reported.add((inst.name, L))
        assert {("landau_zener", 64), ("landau_zener", 255)} <= reported

    def test_entry_names_match_the_benchmark_reference(self):
        # the benchmark compares each proof-check job's non-block entry
        # names and flags with perfbench/reference.json; a renamed or
        # dropped entry fails here first, on the same instances at L = 1024
        jobs = json.loads(BENCHMARK_REFERENCE.read_text())["jobs"]
        checked = 0
        for key, want in jobs.items():
            if not key.startswith("proof-check:"):
                continue
            label = key.split(":", 1)[1].split("@")[0]  # e.g. grover(n=2)
            kind, _, args = label[:-1].partition("(")
            pairs = (a.split("=") for a in args.split(",") if a)
            params = {k: int(v) for k, v in pairs}
            inst = InstanceSpec(kind, params).build()
            report = al.run_proofcheck(inst, L=1024, delta=1.0, total_time=100.0)
            names = [e.name for e in report.entries if not e.name.startswith("block[")]
            assert sorted(names) == sorted(want["checks"]), key
            checked += 1
        assert checked == 2
