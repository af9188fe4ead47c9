import dataclasses
import math

import numpy as np
import pytest

import adialab as al
from adialab import evolution
from adialab._linalg import chunk_size, expm_i_hermitian, segment_products
from adialab.errors import (
    DomainError,
    FeasibilityError,
    NonConvergenceError,
    NumericalInstabilityError,
)
from adialab.evolution import _step_batch
from adialab.problems import PAULI_Z

from conftest import rotating_two_level


def _ground(h, s=0.0):
    return np.linalg.eigh(al.eval_batch(h, [s])[0])[1][:, 0].astype(complex)


def _spread(h):
    """2 sup_s ||H(s)||: a bound on H's spread, the one evolve_adaptive takes."""
    return 2.0 * al.norm_bundle(h).norm_H


def _step(h, j, cfg):
    return _step_batch(h, j, j + 1, cfg)[0]


def _logged_levels(monkeypatch):
    """Log the L of every evolve_discrete pass evolve_adaptive runs from now."""
    levels = []
    evolve = evolution.evolve_discrete

    def counted(h, psi0, cfg):
        levels.append(cfg.steps)
        return evolve(h, psi0, cfg)

    monkeypatch.setattr(evolution, "evolve_discrete", counted)
    return levels


def _per_step(h, psi0, cfg):
    """Oracle: psi <- U_j psi one step at a time, renormalized each step."""
    psi = psi0.copy()
    for u in _step_batch(h, 0, cfg.steps, cfg):
        psi = u @ psi
        psi = psi / np.linalg.norm(psi)
    return psi


class TestStepUnitary:
    def test_zero_hamiltonian_identity(self):
        zero = al.affine_hamiltonian(np.zeros((2, 2)), np.zeros((2, 2)), name="zero")
        u = _step(zero, 0, al.EvolutionConfig(1.0, 4))
        assert np.allclose(u, np.eye(2))

    def test_pauli_z_at_pi(self):
        inst = al.constant((1.0, -1.0))  # H = Z
        u = _step(inst, 0, al.EvolutionConfig(np.pi, 1))
        assert np.allclose(u, -np.eye(2), atol=1e-12)

    def test_unitarity_random_8x8(self):
        rng = np.random.default_rng(42)
        raw = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        mat = 0.5 * (raw + raw.conj().T)
        inst = al.affine_hamiltonian(mat, mat)
        unitaries = _step_batch(inst, 0, 11, al.EvolutionConfig(7.3, 11))
        for u in unitaries:
            assert np.abs(u.conj().T @ u - np.eye(8)).max() <= 1e-10

    def test_exponent_carries_plus_i(self):
        # the paper's convention: exp(i (pi/2) Z) = diag(i, -i)
        inst = al.constant((1.0, -1.0))
        u = _step(inst, 0, al.EvolutionConfig(np.pi / 2.0, 1))
        assert np.abs(u - np.diag([1j, -1j])).max() < 1e-15

    def test_two_level_closed_form_matches_eigh(self):
        # dual route: the analytic 2x2 exponential against the generic
        # eigendecomposition path
        rng = np.random.default_rng(7)
        for _ in range(50):
            raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            mat = 0.5 * (raw + raw.conj().T)
            t = float(rng.uniform(-5.0, 5.0))
            closed = expm_i_hermitian(mat, t)
            w, v = np.linalg.eigh(mat)
            reference = (v * np.exp(1j * t * w)) @ v.conj().T
            assert np.abs(closed - reference).max() < 1e-13


class TestEvolveDiscrete:
    def test_constant_eigenvector_acquires_phase_only(self, const_instance):
        psi0 = np.array([1.0, 0.0], dtype=complex)  # eigenvalue 0 branch
        result = al.evolve_discrete(const_instance, psi0, al.EvolutionConfig(5.0, 64))
        assert al.distance_phase_invariant(result.final_state, psi0) < 1e-12

    def test_zero_hamiltonian_exact_identity(self):
        zero = al.affine_hamiltonian(np.zeros((3, 3)), np.zeros((3, 3)))
        rng = np.random.default_rng(0)
        psi0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi0 /= np.linalg.norm(psi0)
        result = al.evolve_discrete(zero, psi0, al.EvolutionConfig(123.0, 37))
        assert np.allclose(result.final_state, psi0)

    def test_snapshots_match_independent_products(self, rand4):
        cfg = al.EvolutionConfig(2.0, 16, snapshot_stride=4)
        psi0 = _ground(rand4)
        result = al.evolve_discrete(rand4, psi0, cfg)
        for step, state in result.snapshots:
            rebuilt = psi0.copy()
            for j in range(step):
                rebuilt = _step(rand4, j, cfg) @ rebuilt
            assert np.linalg.norm(state - rebuilt) < 1e-9

    def test_fast_path_equals_sequential(self, grover2):
        # 10,000 steps at d = 16 span several batches of chunk_size(16);
        # the stride-L snapshot run must agree too
        assert chunk_size(16) < 10_000
        cases = ((grover2, 4.0, 256), (al.random_interpolation(16, 7), 20.0, 10_000))
        for inst, total_time, steps in cases:
            psi0 = _ground(inst)
            cfg = al.EvolutionConfig(total_time, steps)
            slow = _per_step(inst, psi0, cfg)
            for stride in (None, steps):
                fast = al.evolve_discrete(
                    inst, psi0, dataclasses.replace(cfg, snapshot_stride=stride)
                )
                assert np.linalg.norm(fast.final_state - slow) < 1e-11

    def test_half_state_equals_half_grid_evolution(self, lz, grover3):
        # d = 7 batches hold an odd b = chunk_size(7) steps, so later
        # batches start at odd indices; the last batch of 11 b + 1 steps
        # holds only step 11 b
        b = chunk_size(7)
        assert b % 2 == 1
        cases = (
            (lz, 300.0, 4096),
            (grover3, 200.0, 30_000),
            (al.random_interpolation(7, 3), 50.0, 11 * b + 1),
        )
        for inst, total_time, steps in cases:
            psi0 = _ground(inst)
            fine = al.evolve_discrete(inst, psi0, al.EvolutionConfig(total_time, steps))
            coarse = al.evolve_discrete(
                inst, psi0, al.EvolutionConfig(total_time, steps // 2)
            )
            assert np.linalg.norm(fine.half_state - coarse.final_state) < 1e-11

    def test_half_state_only_for_even_streamed_runs(self, lz):
        # odd L has no half grid; an even-L snapshot run forms its half
        # state per chunk exactly as the streamed run does
        psi0 = _ground(lz)
        odd = al.evolve_discrete(lz, psi0, al.EvolutionConfig(3.0, 127))
        streamed = al.evolve_discrete(lz, psi0, al.EvolutionConfig(3.0, 128))
        snapshots = al.evolve_discrete(
            lz, psi0, al.EvolutionConfig(3.0, 128, snapshot_stride=16)
        )
        assert odd.half_state is None
        assert np.array_equal(snapshots.half_state, streamed.half_state)

    def test_state_validation(self, lz):
        with pytest.raises(DomainError):
            al.evolve_discrete(lz, np.array([1.0, 1.0]), al.EvolutionConfig(1.0, 4))
        with pytest.raises(DomainError):
            al.evolve_discrete(lz, np.ones(3) / np.sqrt(3), al.EvolutionConfig(1.0, 4))

    def test_config_rejects_non_finite_time(self):
        # an infinite T would make every step NaN
        for total_time in (math.inf, math.nan, -math.inf, 0.0):
            with pytest.raises(DomainError, match="total_time"):
                al.EvolutionConfig(total_time, 4)


def _per_step_runs(mats, start, stride):
    """Oracle for ``segment_products``: one matmul per step, and a run
    closed at each multiple of the stride and at the chunk's end."""
    runs, product = [], np.eye(mats.shape[-1], dtype=complex)
    for i, u in enumerate(mats):
        product = u @ product
        if (start + i + 1) % stride == 0 or i == len(mats) - 1:
            runs.append(product)
            product = np.eye(mats.shape[-1], dtype=complex)
    return np.stack(runs)


class TestSegmentProducts:
    @pytest.mark.parametrize(
        "start, stride, runs",
        [
            (5, 4, 4),  # a start inside a run: head 5..7, 2 whole, tail 16..18
            (8, 4, 4),  # an aligned start: 3 whole runs, tail 20..21
            (3, 40, 1),  # a run longer than the chunk, on both sides of it
            (7, 1, 14),  # stride 1: every step is a run
            (0, 20, 1),  # stride > chunk length, from an aligned start
            (2, 4, 4),  # the chunk ends exactly on a cut, at step 16
        ],
    )
    def test_matches_per_step_products(self, start, stride, runs):
        rng = np.random.default_rng(start * 100 + stride)
        a = rng.standard_normal((14, 3, 3)) + 1j * rng.standard_normal((14, 3, 3))
        mats = expm_i_hermitian(a + np.conj(np.swapaxes(a, -1, -2)), 0.3)
        got = segment_products(mats, start, stride)
        expected = _per_step_runs(mats, start, stride)
        assert got.shape == expected.shape == (runs, 3, 3)
        assert np.abs(got - expected).max() < 1e-12


class TestEvolveAdaptive:
    def test_zero_hamiltonian_converges_immediately(self):
        zero = al.affine_hamiltonian(np.zeros((2, 2)), np.zeros((2, 2)))
        psi0 = np.array([1.0, 0.0], dtype=complex)
        result = al.evolve_adaptive(zero, psi0, 10.0, 1e-6, spread=_spread(zero))
        # L_start = 1 rounds up to 2, and the 1-step vs 2-step comparison
        # inside that one pass already agrees
        assert result.L_used == 2
        assert np.allclose(result.final_state, psi0)

    def test_constant_hamiltonian_first_comparison(self, const_instance):
        psi0 = np.array([1.0, 0.0], dtype=complex)
        spread = _spread(const_instance)
        result = al.evolve_adaptive(const_instance, psi0, 2.0, 1e-8, spread=spread)
        assert al.distance_phase_invariant(result.final_state, psi0) < 1e-12

    def test_landau_zener_t1000_step_budget(self, lz):
        psi0 = _ground(lz)
        result = al.evolve_adaptive(lz, psi0, 1000.0, 1e-4, spread=_spread(lz))
        assert result.L_used <= 2**22

    def test_returned_state_is_within_tolerance_of_finer_grid(
        self, lz, grover2, grover3, monkeypatch
    ):
        # (instance, psi0, T, disc_tol, spread bound): two raw frames, then
        # the five verify-evolve benchmark jobs in verify's shifted frame at
        # their pinned T with verify's disc_tol = delta/100 = 0.01
        cases = [
            (inst, _ground(inst), total_time, 1e-3, _spread(inst))
            for inst, total_time in ((lz, 1000.0), (grover3, 2000.0))
        ]
        for inst, total_time in (
            (lz, 3517.7669463760512),
            (grover2, 2e4),
            (grover3, 2e3),
            (al.random_interpolation(8, seed=1), 200.0),
            (al.random_interpolation(16, seed=1), 50.0),
        ):
            frame = al.zero_frame(inst, 1025)
            psi0, spread = frame.path.states[0], 2.0 * frame.norms_shifted.norm_H
            cases.append((frame.shifted, psi0, total_time, 1e-2, spread))

        levels = _logged_levels(monkeypatch)
        for inst, psi0, total_time, disc_tol, spread in cases:
            levels.clear()
            result = al.evolve_adaptive(inst, psi0, total_time, disc_tol, spread=spread)
            # the first level's eigenphase differences are within pi/2
            assert total_time * spread / levels[0] <= math.pi / 2.0
            finer = al.evolve_discrete(
                inst, psi0, al.EvolutionConfig(total_time, 4 * result.L_used)
            )
            distance = al.distance_phase_invariant(result.final_state, finer.final_state)
            assert distance < disc_tol

    def test_failed_level_jumps_to_predicted_step_count(self, lz, monkeypatch):
        # landau_zener at T = 1000 starts at L = 1,274 with d = 4.89e-4, and
        # d halves with every doubling: blind doubling needs 10 passes to
        # reach 652,288, the predicted jump d/k < 1e-6 (k = 512) needs 2
        levels = _logged_levels(monkeypatch)
        psi0 = _ground(lz)
        result = al.evolve_adaptive(lz, psi0, 1000.0, 1e-6, spread=_spread(lz))
        assert result.L_used == 652_288
        assert levels == [1_274, 652_288]

        # the jump is clamped to the largest power-of-two multiple of L
        # within the ceiling; failing there, the next doubling exceeds it
        levels.clear()
        with pytest.raises(NonConvergenceError, match="163072"):
            al.evolve_adaptive(
                lz, psi0, 1000.0, 1e-6, spread=_spread(lz), step_ceiling=100_000
            )
        assert levels == [1_274, 81_536]

    def test_ceiling_raises(self, lz):
        psi0 = _ground(lz)
        with pytest.raises(NonConvergenceError):
            al.evolve_adaptive(
                lz, psi0, 100.0, 1e-13, spread=_spread(lz), step_ceiling=4096
            )

    def test_first_level_beyond_ceiling_is_infeasible(self, lz, monkeypatch):
        # landau_zener at T = 1000 (spread bound 2) starts at L = 1,274: a
        # lower ceiling is refused before any level runs, naming
        # T = 1,272 pi / 4 = 999.02646 cut to six digits, not rounded up to
        # 999.027, whose first level would be 1,274 again
        monkeypatch.setattr(al.evolution, "evolve_discrete", None)
        with pytest.raises(FeasibilityError, match="1274 initial steps") as err:
            al.evolve_adaptive(
                lz, _ground(lz), 1000.0, 1e-4, spread=_spread(lz), step_ceiling=1_273
            )
        assert "largest feasible T is about 999.026" in str(err.value)
        assert evolution._initial_steps(999.026, _spread(lz), 1_273) == 1_272

    def test_overflowing_initial_step_count_is_infeasible(self, lz, monkeypatch):
        # 2 T S / pi overflows to infinity for this finite T: refused
        # before any level runs, naming the largest T the ceiling allows:
        # 2^30 pi / 40 = 84,331,485.65, cut to six digits
        monkeypatch.setattr(al.evolution, "evolve_discrete", None)
        with pytest.raises(FeasibilityError) as err:
            al.evolve_adaptive(lz, _ground(lz), 1e308, 1e-4, spread=20.0)
        assert "largest feasible T is about 8.43314e+07" in str(err.value)

    def test_tolerance_validation(self, lz):
        # an infinite disc_tol would accept the first level unchecked
        for disc_tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="positive and finite, got"):
                al.evolve_adaptive(lz, _ground(lz), 1.0, disc_tol, spread=_spread(lz))
        # every level has L >= 2; a zero Hamiltonian needs exactly 2 steps
        zero = al.affine_hamiltonian(np.zeros((2, 2)), np.zeros((2, 2)))
        psi0 = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(DomainError, match="step_ceiling"):
            al.evolve_adaptive(
                zero, psi0, 1.0, 1e-6, spread=_spread(zero), step_ceiling=1
            )

    def test_non_finite_inputs_are_domain_errors(self, lz):
        psi0 = _ground(lz)
        for total_time in (math.inf, math.nan):
            with pytest.raises(DomainError, match="total_time"):
                al.evolve_adaptive(lz, psi0, total_time, 1e-4, spread=_spread(lz))
        for spread in (math.nan, math.inf, -1.0):
            with pytest.raises(DomainError, match="spread"):
                al.evolve_adaptive(lz, psi0, 1.0, 1e-4, spread=spread)


class TestDistances:
    def test_identical_states(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        assert al.distance_phase_invariant(psi, psi) == 0.0
        assert al.distance_l2(psi, psi) == 0.0

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            theta = rng.uniform(0, 2 * np.pi)
            assert al.distance_phase_invariant(psi, np.exp(1j * theta) * psi) < 1e-7

    def test_orthogonal_states(self):
        a = np.array([1.0, 0.0], dtype=complex)
        b = np.array([0.0, 1.0], dtype=complex)
        assert al.distance_phase_invariant(a, b) == pytest.approx(np.sqrt(2.0))

    def test_antipodal_l2(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        assert al.distance_l2(psi, -psi) == pytest.approx(2.0)

    def test_chord_length(self):
        # (1,0) vs (cos e, sin e) at e=0.1: chord 2 sin(e/2)
        eps = 0.1
        a = np.array([1.0, 0.0])
        b = np.array([math.cos(eps), math.sin(eps)])
        assert al.distance_l2(a, b) == pytest.approx(2.0 * math.sin(eps / 2.0))
        assert al.distance_phase_invariant(a, b) == pytest.approx(
            math.sqrt(2.0 - 2.0 * math.cos(eps))
        )

    def test_phase_invariant_lower_bounds_l2(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            assert al.distance_phase_invariant(a, b) <= al.distance_l2(a, b) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            al.distance_phase_invariant(np.ones(2) / np.sqrt(2), np.ones(3) / np.sqrt(3))


class TestUnitarityInvariant:
    def test_per_step_norms(self):
        inst = rotating_two_level(3.0)
        path = al.track_eigenpath(inst, 65)
        cfg = al.EvolutionConfig(5.0, 64, snapshot_stride=1)
        result = al.evolve_discrete(inst, path.states[0], cfg)
        for _, state in result.snapshots:
            assert abs(np.linalg.norm(state) - 1.0) < 1e-10

    def test_non_unitary_steps_trip_the_norm_drift_guard(self, lz, monkeypatch):
        # steps scaled by 1 + 1e-6 drift the norm by about 1e-6 per step:
        # the aggregate guard on the final state (odd L), the final and
        # half states (even L) and the first snapshot must each raise
        monkeypatch.setattr(
            evolution,
            "expm_i_hermitian",
            lambda mats, t: (1.0 + 1e-6) * expm_i_hermitian(mats, t),
        )
        psi0 = _ground(lz)
        for steps in (127, 128):
            with pytest.raises(NumericalInstabilityError, match=f"over {steps} steps"):
                al.evolve_discrete(lz, psi0, al.EvolutionConfig(3.0, steps))
        snapshots = al.EvolutionConfig(3.0, 128, snapshot_stride=16)
        with pytest.raises(NumericalInstabilityError, match="over 16 steps"):
            al.evolve_discrete(lz, psi0, snapshots)

    def test_nan_steps_trip_the_norm_drift_guard(self, lz, monkeypatch):
        # a NaN norm compares False against any bound, so the guard must be
        # written to fail it
        monkeypatch.setattr(
            evolution,
            "expm_i_hermitian",
            lambda mats, t: np.full(mats.shape, np.nan, dtype=complex),
        )
        psi0 = _ground(lz)
        for steps in (127, 128):
            with pytest.raises(NumericalInstabilityError, match="drift nan"):
                al.evolve_discrete(lz, psi0, al.EvolutionConfig(3.0, steps))
