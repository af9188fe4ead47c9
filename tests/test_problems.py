import numpy as np
import pytest

import adialab as al
from adialab.errors import DomainError
from adialab.problems import (
    PAULI_X,
    PAULI_Z,
    InstanceSpec,
    grover_gap,
    grover_ground_energy,
    landau_zener_eigenvalue,
    landau_zener_gap,
)


class TestLandauZener:
    def test_endpoints(self, lz):
        assert np.allclose(al.eval_batch(lz, [0.0])[0], PAULI_Z)
        assert np.allclose(al.eval_batch(lz, [1.0])[0], PAULI_X)

    def test_gap_formula_against_decomposition(self, lz):
        for s in (0.0, 0.25, 0.5, 1.0):
            w, _ = np.linalg.eigh(al.eval_batch(lz, [s])[0])
            assert w[0] == pytest.approx(landau_zener_eigenvalue(s), abs=1e-12)
            spread = w[1] - w[0]
            assert spread == pytest.approx(landau_zener_gap(s), abs=1e-12)

    def test_final_ground_state(self, lz):
        # ground of X is (1, -1)/sqrt(2) up to phase
        vec = np.linalg.eigh(al.eval_batch(lz, [1.0])[0])[1][:, 0]
        target = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert abs(abs(np.vdot(vec, target)) - 1.0) < 1e-12


class TestGrover:
    def test_min_gap(self, grover2):
        assert grover_gap(2, 0.5) == pytest.approx(0.5)
        path = al.track_eigenpath(grover2, 513)
        assert path.gap == pytest.approx(0.5, abs=1e-9)

    def test_ground_energy_formula(self, grover2):
        path = al.track_eigenpath(grover2, 257)
        expected = grover_ground_energy(2, path.grid)
        assert np.abs(path.gammas - expected).max() < 1e-10

    def test_final_ground_is_marked_state(self):
        inst = al.grover(2, marked=3)
        vec = np.linalg.eigh(al.eval_batch(inst, [1.0])[0])[1][:, 0]
        target = np.zeros(4)
        target[3] = 1.0
        assert abs(abs(np.vdot(vec, target)) - 1.0) < 1e-12

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            al.grover(0)
        with pytest.raises(DomainError):
            al.grover(11)
        with pytest.raises(DomainError):
            al.grover(2, marked=4)


class TestTransverseIsing:
    def test_single_site_reduces_to_x_ramp(self):
        inst = al.transverse_ising(1)
        for s in (0.0, 0.5, 1.0):
            assert np.allclose(al.eval_batch(inst, [s])[0], -(1 - s) * PAULI_X)

    def test_final_classical_spectrum_degenerate(self):
        inst = al.transverse_ising(2, J=1.0)
        w, _ = np.linalg.eigh(al.eval_batch(inst, [1.0])[0])
        assert np.allclose(w, [-1.0, -1.0, 1.0, 1.0])

    def test_initial_uniform_ground_with_gap_two(self):
        inst = al.transverse_ising(2)
        w, v = np.linalg.eigh(al.eval_batch(inst, [0.0])[0])
        uniform = np.full(4, 0.5)
        assert abs(abs(np.vdot(v[:, 0], uniform)) - 1.0) < 1e-12
        assert w[1] - w[0] == pytest.approx(2.0)

    def test_range_validation(self):
        with pytest.raises(DomainError):
            al.transverse_ising(0)
        with pytest.raises(DomainError):
            al.transverse_ising(9)


class TestRandomInterpolation:
    def test_bit_identical_reproducibility(self):
        a = al.random_interpolation(6, seed=11)
        b = al.random_interpolation(6, seed=11)
        for s in (0.0, 0.37, 1.0):
            ma = al.eval_batch(a, [s])[0]
            mb = al.eval_batch(b, [s])[0]
            assert np.array_equal(ma, mb)

    def test_different_seeds_differ(self):
        a = al.random_interpolation(4, seed=1)
        b = al.random_interpolation(4, seed=2)
        assert not np.allclose(al.eval_batch(a, [0.5])[0], al.eval_batch(b, [0.5])[0])

    def test_second_derivative_zero(self):
        inst = al.random_interpolation(4, seed=7)
        assert np.allclose(al.derivative(inst, 0.3, 2).entries, 0.0)

    def test_dim2_gap_matches_closed_form(self):
        inst = al.random_interpolation(2, seed=5)
        path = al.track_eigenpath(inst, 257)
        # 2x2 closed form: eigenvalues (tr +/- sqrt((a-c)^2 + 4|b|^2))/2
        for j in (0, 128, 256):
            mat = al.eval_batch(inst, [float(path.grid[j])])[0]
            a, c = mat[0, 0].real, mat[1, 1].real
            spread = np.sqrt((a - c) ** 2 + 4.0 * abs(mat[0, 1]) ** 2)
            lo = 0.5 * (a + c) - 0.5 * spread
            assert path.gammas[j] == pytest.approx(lo, abs=1e-12)

    def test_range_validation(self):
        with pytest.raises(DomainError):
            al.random_interpolation(1, seed=0)
        with pytest.raises(DomainError):
            al.random_interpolation(65, seed=0)


class TestInstanceSpec:
    def test_build_dispatch(self):
        inst = InstanceSpec("grover", {"n": 2, "marked": 1}).build()
        assert inst.name == "grover"
        assert inst.dim == 4

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            InstanceSpec("does_not_exist").build()

    def test_unknown_parameter_named(self):
        with pytest.raises(DomainError, match="frobnicate"):
            InstanceSpec("landau_zener", {"frobnicate": 1}).build()

    def test_deterministic_rebuild(self):
        spec = InstanceSpec("random_interpolation", {"dim": 3, "seed": 9})
        m1 = al.eval_batch(spec.build(), [0.5])[0]
        m2 = al.eval_batch(spec.build(), [0.5])[0]
        assert np.array_equal(m1, m2)
