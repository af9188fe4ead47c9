import re
import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import adialab as al
from adialab.errors import DomainError, IntegrityError, NumericalError
from adialab import hamiltonians
from adialab._linalg import (
    chunk_ranges,
    dagger,
    grid_derivative,
    opnorm,
    opnorm_hermitian,
)
from adialab.evolution import _step_batch
from adialab.hamiltonians import HermitianOperator, eval_batch
from adialab.problems import PAULI_X, PAULI_Z

from conftest import (
    dense_derivative_norms,
    dense_norm,
    rotating_two_level,
    sampled_only,
    svd_norm,
)


def _sine_spline(knots: int = 9) -> CubicSpline:
    x = np.linspace(0.0, 1.0, knots)
    return CubicSpline(x, np.sin(x))


class TestHermitianOperator:
    def test_accepts_hermitian(self):
        op = HermitianOperator([[1.0, 1j], [-1j, 2.0]])
        assert op.dim == 2

    def test_rejects_non_hermitian(self):
        with pytest.raises(IntegrityError):
            HermitianOperator([[0.0, 1.0], [0.5, 0.0]])

    def test_rejects_tiny_asymmetry_relative_to_scale(self):
        mat = np.array([[1e6, 1.0], [1.0 + 1e-5, 1e6]], dtype=complex)
        with pytest.raises(IntegrityError):
            HermitianOperator(mat)

    def test_rejects_dim_one_and_nonsquare(self):
        with pytest.raises(DomainError):
            HermitianOperator([[1.0]])
        with pytest.raises(DomainError):
            HermitianOperator(np.ones((2, 3)))

    def test_entries_immutable(self):
        op = HermitianOperator(PAULI_X)
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0


class TestEval:
    def test_endpoints(self, lz):
        assert np.allclose(al.eval_batch(lz, [0.0])[0], PAULI_Z)
        assert np.allclose(al.eval_batch(lz, [1.0])[0], PAULI_X)

    def test_midpoint_convex_combination(self, lz):
        # by hand: 0.5*Z + 0.5*X
        expected = np.array([[0.5, 0.5], [0.5, -0.5]])
        assert np.allclose(al.eval_batch(lz, [0.5])[0], expected)

    def test_domain_error_outside_interval(self, lz):
        for s in (-0.01, 1.2, np.nan):
            with pytest.raises(DomainError):
                eval_batch(lz, np.array([0.5, s]))
            with pytest.raises(DomainError):
                al.derivative(lz, s, 1)

    def test_non_hermitian_evaluator_is_integrity_error(self):
        bad = sampled_only(lambda s: np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(IntegrityError):
            eval_batch(bad, np.array([0.5]))
        # each matrix of a batch is judged against its own scale: a 1e-9
        # asymmetry in an O(1) matrix fails even beside an O(1e6) one
        mixed = sampled_only(
            lambda s: np.array([[1e6, 0.0], [0.0, 1e6]])
            if s == 0.0
            else np.array([[1.0, 1.0], [1.0 + 1e-9, 1.0]])
        )
        with pytest.raises(IntegrityError):
            eval_batch(mixed, np.array([0.0, 1.0]))

    def test_evaluator_of_the_wrong_shape_is_integrity_error(self):
        # a per-point function returns one matrix whatever the s array
        per_point = al.TimeDependentHamiltonian(dim=2, evaluator=lambda s: PAULI_Z)
        wrong_dim = al.TimeDependentHamiltonian(
            dim=3, evaluator=lambda s: np.zeros((np.size(s), 2, 2))
        )
        for inst, shape in ((per_point, (2, 2)), (wrong_dim, (1, 2, 2))):
            with pytest.raises(IntegrityError, match=re.escape(f"shape {shape}")):
                eval_batch(inst, np.array([0.5]))
        with pytest.raises(IntegrityError, match=re.escape("expected (4, 3, 3)")):
            eval_batch(wrong_dim, np.linspace(0.0, 1.0, 4))

    def test_non_finite_batch_is_numerical_error(self):
        bad = sampled_only(lambda s: np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(NumericalError):
            eval_batch(bad, np.array([0.0, 0.5]))

    def test_batch_matches_pointwise(self, grover2):
        grid = np.linspace(0.0, 1.0, 17)
        mats = eval_batch(grover2, grid)
        for s, mat in zip(grid, mats):
            assert np.allclose(mat, al.eval_batch(grover2, [float(s)])[0])
        # an empty s array gives an empty batch, from a record or not
        empty = np.array([])
        for inst in (grover2, rotating_two_level(np.pi)):
            assert eval_batch(inst, empty).shape == (0, inst.dim, inst.dim)


class TestAffineRecord:
    def test_non_hermitian_endpoint_is_integrity_error_at_construction(self):
        upper = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(IntegrityError, match="endpoint h1"):
            al.affine_hamiltonian(PAULI_Z, upper)
        with pytest.raises(IntegrityError, match="endpoint h0"):
            al.affine_hamiltonian(PAULI_Z + 1e-9 * upper, PAULI_X)
        with pytest.raises(NumericalError):
            al.affine_hamiltonian(np.diag([np.inf, 1.0]), PAULI_X)
        with pytest.raises(DomainError, match="square"):
            al.affine_hamiltonian(PAULI_Z, np.eye(3))

    def test_library_endpoints_are_stored_bit_identical(self):
        from adialab.problems import _random_hermitian

        lz = al.landau_zener()
        assert np.array_equal(lz.affine.h0, PAULI_Z)
        assert np.array_equal(lz.affine.h1, PAULI_X)
        rng = np.random.default_rng(5)
        h0, h1 = _random_hermitian(rng, 8), _random_hermitian(rng, 8)
        record = al.random_interpolation(8, seed=5).affine
        assert np.array_equal(record.h0, h0) and np.array_equal(record.h1, h1)
        assert np.array_equal(record.diff, h1 - h0)

    def test_near_hermitian_endpoint_is_stored_as_its_hermitian_part(self):
        # within tolerance, so accepted; every sample is then exactly Hermitian
        skew = PAULI_Z + 1e-14 * np.array([[0.0, 1.0], [0.0, 0.0]])
        inst = al.affine_hamiltonian(skew, PAULI_X)
        assert np.array_equal(inst.affine.h0, inst.affine.h0.conj().T)
        mats = eval_batch(inst, np.linspace(0.0, 1.0, 7))
        assert np.array_equal(mats, np.conj(np.swapaxes(mats, 1, 2)))

    def test_the_record_is_the_evaluator(self, lz):
        assert lz.affine is lz.evaluator
        grid = np.linspace(0.0, 1.0, 5)
        s_col = grid[:, None, None]
        want = (1.0 - s_col) * PAULI_Z + s_col * PAULI_X
        assert np.array_equal(lz.affine(grid), want)
        inst = al.TimeDependentHamiltonian(dim=2, evaluator=lz.affine, name="again")
        assert inst.affine is lz.affine
        assert al.norm_bundle(inst) == al.norm_bundle(lz)
        with pytest.raises(DomainError, match="dimension 2"):
            al.TimeDependentHamiltonian(dim=3, evaluator=lz.affine)
        # affine is read-only: it is the evaluator or None
        with pytest.raises(AttributeError):
            inst.affine = None

    def test_shifted_samples_keep_two_batches_alive(self):
        # numpy reuses a temporary's buffer for the sum and the shift is
        # subtracted in place, so a batch costs at most two batch-sized
        # buffers; a third raised the d = 32 jobs' peak memory by 30 MB
        inst = al.random_interpolation(16, seed=1)
        shifted = hamiltonians._shift_by(inst, _sine_spline(), "shifted", {})
        grid = np.linspace(0.0, 1.0, 256)
        tracemalloc.start()
        try:
            mats = shifted.evaluator(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * mats.nbytes

    def test_record_cannot_be_passed_to_the_constructor(self, lz):
        with pytest.raises(TypeError):
            al.TimeDependentHamiltonian(dim=2, evaluator=lz.evaluator, affine=lz.affine)

    def test_only_affine_samples_skip_the_hermiticity_check(self, lz, monkeypatch):
        shift = _sine_spline()
        shifted = hamiltonians._shift_by(lz, shift, "shifted", {})
        assert shifted.affine.shift is shift
        # lz's evaluator wrapped in a function is a general instance
        plain = al.TimeDependentHamiltonian(dim=2, evaluator=lambda s: lz.evaluator(s))
        assert plain.affine is None

        checked = []
        original = hamiltonians._check_hermitian
        monkeypatch.setattr(
            hamiltonians,
            "_check_hermitian",
            lambda mats, what: checked.append(what) or original(mats, what),
        )
        grid = np.linspace(0.0, 1.0, 9)
        for inst in (lz, shifted):
            eval_batch(inst, grid)
        assert not checked
        eval_batch(plain, grid)
        assert checked == ["evaluator output"]


class TestDerivative:
    def test_affine_first_derivative_exact(self, lz):
        expected = PAULI_X - PAULI_Z
        for s in (0.0, 0.31, 1.0):
            assert np.allclose(al.derivative(lz, s, 1).entries, expected)

    def test_affine_second_derivative_zero(self, lz):
        assert np.allclose(al.derivative(lz, 0.4, 2).entries, 0.0)

    def test_invalid_order(self, lz):
        with pytest.raises(DomainError):
            al.derivative(lz, 0.5, 3)

    def test_shifted_frame_derivatives_match_a_stencil_of_the_evaluator(self, lz):
        # H~' = D - gamma' I and H~'' = -gamma'' I are the derivatives of
        # the sampled H~(s) = H(s) - gamma(s) I, whose gamma moves
        path = al.track_eigenpath(lz, 1025)
        shifted = al.shift_to_zero_eigenvalue(lz, path)
        spline = shifted.affine.shift
        samples = eval_batch(shifted, path.grid)
        for order in (1, 2):
            assert np.abs(spline(path.grid, order)).max() > 0.5
            stencil = grid_derivative(samples, 1.0 / 1024, order)
            closed_form = [al.derivative(shifted, s, order).entries for s in path.grid]
            assert np.abs(stencil - np.array(closed_form)).max() < 1e-3

    def test_one_sided_stencils_at_boundaries(self):
        # f = (e^{2x}, sin(3x + 1)) sampled along axis 0, whose third and
        # fourth derivatives vanish at neither end; the second-order
        # stencils are exact on a quadratic, and their error falls as
        # spacing**2 at the one-sided ends as well as in the interior
        def f(x):
            return np.stack([np.exp(2.0 * x), np.sin(3.0 * x + 1.0)], axis=1)

        def exact(x, order):
            if order == 1:
                columns = [2.0 * np.exp(2.0 * x), 3.0 * np.cos(3.0 * x + 1.0)]
            else:
                columns = [4.0 * np.exp(2.0 * x), -9.0 * np.sin(3.0 * x + 1.0)]
            return np.stack(columns, axis=1)

        x = np.linspace(0.0, 1.0, 9)
        quadratic = 1.0 + 2.0 * x - 3.0 * x**2
        assert np.allclose(grid_derivative(quadratic, 1 / 8, 1), 2.0 - 6.0 * x)
        assert np.allclose(grid_derivative(quadratic, 1 / 8, 2), -6.0)

        sizes = [33, 65, 129, 257]
        for order in (1, 2):
            errors = {"left": [], "interior": [], "right": []}
            for n in sizes:
                x = np.linspace(0.0, 1.0, n)
                got = grid_derivative(f(x), 1.0 / (n - 1), order)
                err = np.abs(got - exact(x, order))
                errors["left"].append(err[0].max())
                errors["interior"].append(err[1:-1].max())
                errors["right"].append(err[-1].max())
            for where, errs in errors.items():
                slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
                assert -2.2 <= slope <= -1.8, (order, where, slope)


class TestUncertifiedInstance:
    """An instance without an affine record is sampled, tracked and evolved,
    but it has no derivatives, norms or shifted frame, so nothing bounds
    with it."""

    def test_sampling_tracking_and_evolution_work(self):
        inst = rotating_two_level(np.pi)
        path = al.track_eigenpath(inst, 257)
        assert path.gap == pytest.approx(2.0, abs=1e-12)
        assert np.abs(path.gap_values - 2.0).max() <= 1e-12
        psi0 = path.states[0]
        stepped = al.evolve_discrete(inst, psi0, al.EvolutionConfig(50.0, 4096))
        # ||H(s)|| = 1 for every s
        adaptive = al.evolve_adaptive(inst, psi0, 50.0, 1e-4, norm_H=1.0)
        for state in (stepped.final_state, adaptive.final_state):
            assert al.distance_phase_invariant(state, path.states[-1]) < 0.05

    def test_norms_and_their_consumers_refuse(self):
        inst = rotating_two_level(np.pi)
        path = al.track_eigenpath(inst, 257)
        calls = (
            lambda: al.shift_to_zero_eigenvalue(inst, path),
            lambda: al.norm_bundle(inst),
            lambda: al.derivative(inst, 0.5, 1),
            lambda: al.derivative(inst, 0.5, 2),
            lambda: al.zero_frame(inst, 65),
            lambda: al.run_proofcheck(inst, L=1024, delta=1.0, total_time=100.0),
        )
        for call in calls:
            with pytest.raises(DomainError, match="affine_hamiltonian"):
                call()


class TestOperatorNorm:
    def test_zero_matrix(self):
        assert opnorm_hermitian(HermitianOperator(np.zeros((2, 2))).entries) == 0.0

    def test_pauli_x(self):
        op = HermitianOperator(PAULI_X)
        assert opnorm_hermitian(op.entries) == pytest.approx(1.0)

    def test_x_minus_z_closed_form(self):
        # 2x2 eigenvalues of X - Z are +/- sqrt(2)
        op = HermitianOperator(PAULI_X - PAULI_Z)
        assert opnorm_hermitian(op.entries) == pytest.approx(np.sqrt(2.0))


class TestNormRoutes:
    # the library's norms take no SVD; LAPACK's eigvalsh and SVD are the
    # oracles, within a few ulps relative.  The SVD's own error sets the
    # tolerance: on grover(3)'s step differences, whose top singular value
    # is doubly degenerate, it reads 23 ulps low against a 40-digit SVD
    RTOL = 32 * np.finfo(float).eps

    def assert_close(self, got, want):
        assert np.all(np.abs(got - want) <= self.RTOL * want)

    def test_two_level_closed_form_matches_eigvalsh(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4096, 2, 2)) + 1j * rng.normal(size=(4096, 2, 2))
        mats = (a + dagger(a)) * 10.0 ** rng.uniform(-8, 8, size=(4096, 1, 1))
        edges = [
            np.zeros((2, 2)),
            -3.5 * np.eye(2),
            np.diag([-2.0, 0.5]),
            np.diag([1e-300, -1e-300]),
            np.array([[1.0, 1e8], [1e8, 1.0 + 1e-9]]),  # |b| >> |a - d|
            np.array([[2e-6, 1e-6 - 3e-6j], [1e-6 + 3e-6j, -1e-6]]),
        ]
        for batch in (mats, np.array(edges, dtype=complex)):
            want = np.abs(np.linalg.eigvalsh(batch)).max(axis=-1)
            self.assert_close(opnorm_hermitian(batch), want)
        assert opnorm_hermitian(np.zeros((2, 2))) == 0.0
        assert opnorm_hermitian(-3.5 * np.eye(2)) == 3.5

    def test_opnorm_matches_svd(self):
        rng = np.random.default_rng(4)
        for d in (2, 3, 4, 8, 16):
            mats = rng.normal(size=(512, d, d)) + 1j * rng.normal(size=(512, d, d))
            self.assert_close(opnorm(mats), svd_norm(mats))

    def test_opnorm_of_neighbouring_step_differences_matches_svd(self):
        instances = (
            al.landau_zener(),
            al.random_interpolation(3, seed=2),
            al.grover(2),
            al.grover(3),
            al.random_interpolation(16, seed=1),
        )
        for inst in instances:
            u = _step_batch(inst, 0, 513, al.EvolutionConfig(50.0, 512))
            diffs = u[1:] - u[:-1]
            self.assert_close(opnorm(diffs), svd_norm(diffs))

    def test_a_nan_entry_gives_nan(self):
        # LAPACK can turn a NaN diagonal into finite eigenvalues
        for d in (2, 3, 4, 8):
            for i, j in ((0, 0), (d - 1, d - 1), (0, 1), (d - 1, 0)):
                mats = np.stack([np.eye(d, dtype=complex)] * 3)
                mats[1, i, j] = mats[1, j, i] = np.nan
                for norms in (opnorm_hermitian(mats), opnorm(mats)):
                    assert np.isnan(norms[1])
                    assert np.array_equal(norms[[0, 2]], [1.0, 1.0])


class TestNormBundle:
    def test_landau_zener_values(self, lz):
        nb = al.norm_bundle(lz)
        assert nb.norm_H1 == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert nb.norm_H2 == 0.0
        assert nb.norm_H == pytest.approx(1.0, rel=1e-9)

    def test_constant_instance(self, const_instance):
        nb = al.norm_bundle(const_instance)
        assert nb.norm_H1 == 0.0
        assert nb.norm_H2 == 0.0
        assert nb.norm_H == pytest.approx(2.0)

    def test_grover2_projector_difference_norm(self, grover2):
        # rank-2 projector difference with overlap 1/2: sqrt(1 - 1/4)
        nb = al.norm_bundle(grover2)
        assert nb.norm_H1 == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-9)

    def test_monotone_under_grid_refinement(self, lz, rand4, grover2):
        for inst in (lz, rand4, grover2):
            previous = None
            for grid_size in (257, 513, 1025):
                nb = al.norm_bundle(inst, grid_size)
                if previous is not None:
                    assert nb.norm_H >= previous.norm_H - 1e-9
                    assert nb.norm_H1 >= previous.norm_H1 - 1e-9
                    assert nb.norm_H2 >= previous.norm_H2 - 1e-9
                previous = nb

    def test_grid_size_validation(self, lz):
        with pytest.raises(DomainError):
            al.norm_bundle(lz, 1)
        with pytest.raises(DomainError, match="shape"):
            al.norm_bundle(lz, 65, spectrum=np.zeros((33, 2)))
        # a shifted frame is measured on its spline's knots and nowhere else
        shifted = hamiltonians._shift_by(lz, _sine_spline(), "shifted", {})
        assert al.norm_bundle(shifted).grid_size == 9
        for grid_size in (8, 10, 1025):
            with pytest.raises(DomainError, match="9 spline knots"):
                al.norm_bundle(shifted, grid_size)

    def test_spectra_match_whole_grid_batches(self, monkeypatch):
        # a shifted d = 32 frame with 2,049 knots: its spectrum is sampled
        # in two chunk_ranges batches, and eigvalsh works matrix by matrix,
        # so batching changes no bit
        inst = al.random_interpolation(32, seed=1)
        shifted = al.shift_to_zero_eigenvalue(inst, al.track_eigenpath(inst, 2049))
        knots = shifted.affine.shift.x
        whole = np.linalg.eigvalsh(eval_batch(shifted, knots))
        batches = []
        monkeypatch.setattr(
            hamiltonians,
            "eval_batch",
            lambda h, s: batches.append(s.size) or eval_batch(h, s),
        )
        sizes = [hi - lo for lo, hi in chunk_ranges(0, knots.size, inst.dim)]
        chunked = al.norm_bundle(shifted)
        assert len(sizes) == 2 and batches == sizes
        # a spectrum handed to norm_bundle is used as it is: nothing is
        # sampled, and only ||H~|| reads it
        batches.clear()
        assert al.norm_bundle(shifted, spectrum=whole) == chunked
        doubled = al.norm_bundle(shifted, spectrum=2.0 * whole)
        assert not batches
        assert (doubled.norm_H1, doubled.norm_H2) == (chunked.norm_H1, chunked.norm_H2)
        assert doubled.norm_H > chunked.norm_H

    def test_sups_bound_a_dense_sample_of_the_spline(self, const_instance):
        # c is a cubic spline through 17 random values: |c'| peaks inside a
        # piece, away from the knots, whose largest |c'| is 29.41 against a
        # sup of 51.179043
        x = np.linspace(0.0, 1.0, 17)
        spline = CubicSpline(x, np.random.default_rng(0).normal(size=17))
        shifted = hamiltonians._shift_by(const_instance, spline, "shifted", {})
        got = al.norm_bundle(shifted)
        want_h1, want_h2 = dense_derivative_norms(shifted, 4096)
        assert got.norm_H1 > 51.179
        # c' = c'(t*) + 3a (t - t*)^2 near an inner peak t*, and the sample
        # comes within half its spacing of it
        missed = 3.0 * np.abs(spline.c[0]).max() * (x[1] / 4096 / 2) ** 2
        assert want_h1 <= got.norm_H1 <= want_h1 + missed
        assert want_h2 * (1.0 - 1e-12) <= got.norm_H2 <= want_h2 * (1.0 + 1e-12)
        want_h = dense_norm(shifted, 512)
        assert want_h <= got.norm_H <= want_h + got.norm_H1 / 32

    def test_polynomial_pieces(self, lz, const_instance):
        # a = 0 on every piece of a constant spline, and nearly so on a
        # linear one: no vertex is divided out (warnings are errors here).
        # The spline through s^3 is s^3, whose c' and c'' peak at s = 1, the
        # right end of the last piece
        x = np.linspace(0.0, 1.0, 17)
        constant = hamiltonians._shift_by(lz, CubicSpline(x, 0.0 * x), "c", {})
        norms = al.norm_bundle(constant)
        assert (norms.norm_H1, norms.norm_H2) == (al.norm_bundle(lz).norm_H1, 0.0)
        slope_3 = CubicSpline(x, 3.0 * x)
        linear = hamiltonians._shift_by(const_instance, slope_3, "linear", {})
        assert al.norm_bundle(linear).norm_H1 == pytest.approx(3.0, rel=1e-14)
        cubic = hamiltonians._shift_by(const_instance, CubicSpline(x, x**3), "cubic", {})
        norms = al.norm_bundle(cubic)
        assert (norms.norm_H1, norms.norm_H2) == pytest.approx((3.0, 6.0), rel=1e-12)
        frame = al.zero_frame(const_instance, 65)
        assert frame.norms_shifted == al.NormBundle(2.0, 0.0, 0.0, 65)

    def test_outputs_stay_hermitian_on_samples(self, lz):
        # a non-affine evaluator's samples, and the derivatives of a
        # shifted affine frame
        inst = rotating_two_level(2.0)
        shifted = hamiltonians._shift_by(lz, _sine_spline(), "shifted", {})
        rng = np.random.default_rng(3)
        samples = rng.uniform(0.0, 1.0, size=25)
        for s, sample in zip(samples, eval_batch(inst, samples)):
            for mat in (
                sample,
                al.derivative(shifted, s, 1).entries,
                al.derivative(shifted, s, 2).entries,
            ):
                defect = np.abs(mat - mat.conj().T).max()
                assert defect <= 1e-12 * max(np.abs(mat).max(), 1e-300)
