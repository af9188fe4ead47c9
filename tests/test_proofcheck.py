import dataclasses
import math

import numpy as np
import pytest

import adialab as al
from adialab import _linalg, proofcheck
from adialab.errors import DomainError, FeasibilityError
from adialab.evolution import _step_batch
from adialab.problems import PAULI_X, PAULI_Z
from adialab.proofcheck import (
    ProofCheckConfig,
    _max_step_drift,
    check_block_cancellation,
    check_error_vector_drift,
    check_eigenvalue_derivative_bounds,
    check_gauge_residual,
    check_error_vector_taylor,
    expected_block_length,
    fold_blocks,
    total_error_vector,
)


BLOCK_LABELS = ("total", "freeze_w", "freeze_u", "power_sum")
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
        entries = check_error_vector_drift(path, cfg, shifted_norms)
        assert all(e.passed for e in entries)
        assert entries[1].measured < 1e-14

    def test_drift_entries_match_the_per_k_norm_loop(self, lz):
        # oracle: the complex norm of every difference, one k at a time;
        # the check sums real squares, so it may differ by rounding only
        path, cfg, shifted, shifted_norms, *_ = _shifted_context(lz, 4096)
        slope, all_k = check_error_vector_drift(path, cfg, shifted_norms, k_max=32)
        w = al.error_vectors(path)
        ks = np.arange(1, 33)
        drifts = np.array([np.linalg.norm(w[k:] - w[:-k], axis=1).max() for k in ks])
        design = np.stack([ks.astype(float), np.ones(32)], axis=1)
        (alpha, _), *_ = np.linalg.lstsq(design, drifts * cfg.L**2, rcond=None)
        assert all_k.measured == pytest.approx(drifts.max(), rel=1e-14)
        assert f"worst k={int(ks[np.argmax(drifts)])}" in all_k.note
        assert slope.measured == pytest.approx(alpha, rel=1e-12)

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
        accel = np.linalg.norm(al.path_derivatives(path, 2), axis=1).max()
        # finite-difference oracle: drift(k=1) ~ max ||Psi''|| / L^2
        assert measured == pytest.approx(accel / L**2, rel=0.2)


class TestStepUnitaryDrift:
    def test_constant_instance_zero(self, const_instance):
        assert _max_step_drift(const_instance, 10.0, 256) < 1e-14

    def test_linear_ramp_closed_form(self):
        # H(s) = s Z: U_{j+1} - U_j has operator norm |e^{i T/L^2} - 1|
        inst = al.affine_hamiltonian(np.zeros((2, 2)), PAULI_Z)
        T, L = 7.0, 64
        measured = _max_step_drift(inst, T, L)
        expected = abs(np.exp(1j * T / L**2) - 1.0)
        assert measured == pytest.approx(expected, rel=1e-10)
        assert measured <= T * 1.0 / L**2  # bound with ||H'|| = 1


    def test_fold_carries_the_drift_across_batches(self, monkeypatch):
        # H jumps from Z to X between steps 63 and 64, where 64-matrix
        # batches meet, so the only nonzero drift sits on that seam
        for module in (_linalg, proofcheck):
            monkeypatch.setattr(module, "chunk_size", lambda dim: 64)
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
        assert _max_step_drift(jump, cfg.T, L) == drift


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
                assert drift == _max_step_drift(shifted, cfg.T, cfg.L)
                blocks, total = per_step_folds(shifted, cfg, w)
                entries = check_block_cancellation(products, power_sums, cfg)
                assert_blocks_match_oracle(entries, blocks)
                assert np.linalg.norm(total_error_vector(products) - total) <= (
                    1e-12 * cfg.delta
                )

    def test_batched_folds_match_per_step_oracle(self, lz, monkeypatch):
        # with 64-matrix batches, Delta = 26 puts two blocks in each batch
        # and pads the last batch's trimmed 11-step block with identities;
        # Delta = 128 splits every block over two batches, and the
        # one-step last block ends within its first
        for module in (_linalg, proofcheck):
            monkeypatch.setattr(module, "chunk_size", lambda dim: 64)
        for Delta, last_len in ((26, 11), (128, 1)):
            path, cfg, shifted, *_ = _shifted_context(lz, 1025, Delta=Delta)
            assert cfg.L - cfg.block_starts[-1] + 1 == last_len
            w = al.error_vectors(path)
            products, power_sums, drift = fold_blocks(shifted, cfg, w)
            # the fold's batches are blocks, _max_step_drift's plain runs
            assert drift == _max_step_drift(shifted, cfg.T, cfg.L)
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
        path = al.track_eigenpath(lz, 1025)
        norms = al.norm_bundle(lz)
        entries = check_eigenvalue_derivative_bounds(path, norms, path.gap)
        assert all(e.passed for e in entries)
        named = {e.name: e for e in entries}
        assert named["eigenvalue_derivative"].measured == pytest.approx(1.0, abs=1e-5)
        assert named["eigenvalue_derivative"].bound == pytest.approx(np.sqrt(2.0))
        assert named["eigenvalue_second_derivative"].measured == pytest.approx(
            2.0 * np.sqrt(2.0), abs=1e-5
        )

    def test_grover_against_fd_oracle(self, grover2):
        from adialab.problems import grover_ground_energy

        path = al.track_eigenpath(grover2, 1025)
        norms = al.norm_bundle(grover2)
        entries = check_eigenvalue_derivative_bounds(path, norms, path.gap)
        assert all(e.passed for e in entries)
        # finite differences on the exact closed-form gamma as oracle
        h = 1e-6
        fd = (
            grover_ground_energy(2, 0.0 + h) - grover_ground_energy(2, 0.0)
        ) / h
        assert abs(fd) <= entries[0].measured + 1e-3

    def test_shifted_frame_is_trivial(self, lz):
        path = al.track_eigenpath(lz, 1025)
        shifted = al.shift_to_zero_eigenvalue(lz, path)
        spath = al.track_eigenpath(shifted, 1025)
        norms = al.norm_bundle(shifted)
        entries = check_eigenvalue_derivative_bounds(spath, norms, spath.gap)
        assert entries[0].measured < 1e-6
        assert entries[1].measured < 1e-2


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
        # norms_shifted are those of the frame shifted along the path's
        # L + 1 points, and Delta follows them (grover(2)'s bound time
        # needs more steps, so it runs at T = 2000)
        L, delta = 8192, 1.0
        for inst, total_time in ((lz, None), (grover2, 2000.0)):
            report = al.run_proofcheck(inst, L=L, delta=delta, total_time=total_time)
            path = al.track_eigenpath(inst, L + 1)
            shifted = al.shift_to_zero_eigenvalue(inst, path)
            want = al.norm_bundle(shifted)
            got = report.metadata["norms_shifted"]
            assert got["grid_size"] == L + 1
            for key in ("norm_H", "norm_H1", "norm_H2"):
                assert got[key] == pytest.approx(getattr(want, key), rel=1e-12, abs=0.0)
            if total_time is None:
                total_time = al.required_time(delta, want, path.gap, "special")
            assert report.metadata["T"] == pytest.approx(total_time, rel=1e-12)
            cfg = ProofCheckConfig(L, total_time, delta, want.norm_H1, path.gap)
            assert report.metadata["Delta"] == cfg.Delta

    def test_step_unitaries_stream_once(self, lz, monkeypatch):
        # the fold streams U_0..U_{L-1} once and yields the reported step
        # drift; only the fit lengths stream their own unitaries
        L, streamed = 8192, []

        def counting_step_batch(h, lo, hi, cfg):
            streamed.append((cfg.steps, hi - lo))
            return _step_batch(h, lo, hi, cfg)

        monkeypatch.setattr(proofcheck, "_step_batch", counting_step_batch)
        report = al.run_proofcheck(lz, L=L, delta=1.0)
        counts = {}
        for steps, n in streamed:
            counts[steps] = counts.get(steps, 0) + n
        assert counts == {n: n for n in (L, *proofcheck.DEFAULT_FIT_LENGTHS)}

        path = al.track_eigenpath(lz, L + 1)
        shifted = al.shift_to_zero_eigenvalue(lz, path)
        entry = next(e for e in report.entries if e.name == "step_unitary_drift")
        assert entry.measured == _max_step_drift(shifted, report.metadata["T"], L)

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
