import re
import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline as ScipyHermite

import adialab as al
from adialab.errors import DomainError, IntegrityError, NumericalError
from adialab import hamiltonians
from adialab._linalg import chunk_ranges, chunk_size, dagger, opnorm, opnorm_hermitian
from adialab.evolution import _step_batch
from adialab.hamiltonians import CubicHermiteSpline, eval_batch
from adialab.problems import PAULI_X, PAULI_Z

from conftest import (
    dense_derivative_norms,
    dense_norm,
    rotating_two_level,
    sampled_only,
    svd_norm,
)


def _sine_spline(knots: int = 9) -> CubicHermiteSpline:
    x = np.linspace(0.0, 1.0, knots)
    return CubicHermiteSpline(x, np.sin(x), np.cos(x))


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


def _smooth(x: np.ndarray) -> np.ndarray:
    return np.sin(7.0 * x) + np.cos(3.0 * x) ** 2


def _smooth_slopes(x: np.ndarray) -> np.ndarray:
    return 7.0 * np.cos(7.0 * x) - 3.0 * np.sin(6.0 * x)


EPS = np.finfo(float).eps


def _jittered(knots: int) -> np.ndarray:
    # each inner knot moved by up to 30% of the spacing, so every piece has
    # its own width
    x = np.linspace(0.0, 1.0, knots)
    x[1:-1] += np.random.default_rng(5).uniform(-0.3, 0.3, knots - 2) / (knots - 1)
    return x


class TestCubicHermiteSpline:
    """The library's spline against scipy's ``CubicHermiteSpline``, the
    test-only oracle, on the smooth data above with its exact slopes, at
    4n + 3 uniform points.

    Both build each piece from its ends' values and slopes, so the pieces
    agree bit for bit and the evaluations differ by rounding alone.
    Errors are relative to each order's largest value.  Measured relative
    to max|y| instead, the worst errors of orders 0 / 1 / 2 were
    3.1 / 15 / 40 eps at 2 to 5 knots and 0.6 / 4.7 / 19 eps from 9 on.
    """

    @staticmethod
    def _assert_matches_scipy(x):
        y, slopes = _smooth(x), _smooth_slopes(x)
        ours, oracle = CubicHermiteSpline(x, y, slopes), ScipyHermite(x, y, slopes)
        assert ours.c.shape == (4, x.size - 1)
        assert np.array_equal(ours.c, oracle.c)
        s = np.linspace(0.0, 1.0, 4 * x.size + 3)
        for nu in (0, 1, 2):
            want = oracle(s, nu)
            error = np.abs(ours(s, nu) - want).max() / np.abs(want).max()
            assert error <= 16.0 * EPS, (x.size, nu, error)

    @pytest.mark.parametrize("knots", [2, 3, 4, 5, 9, 1025, 4097, 65537])
    def test_matches_scipy_on_uniform_knots(self, knots):
        self._assert_matches_scipy(np.linspace(0.0, 1.0, knots))

    @pytest.mark.parametrize("knots", [17, 257])
    def test_matches_scipy_on_jittered_knots(self, knots):
        self._assert_matches_scipy(_jittered(knots))

    @pytest.mark.parametrize("knots", [2, 9, 1025])
    def test_knots_return_their_values_and_slopes_exactly(self, knots):
        # the last knot too, which reads the last piece re-expanded about it
        x = _jittered(knots)
        y, slopes = _smooth(x), _smooth_slopes(x)
        spline = CubicHermiteSpline(x, y, slopes)
        assert np.array_equal(spline(x), y)
        assert np.array_equal(spline(x, 1), slopes)

    def test_cubics_are_reproduced(self):
        # a cubic's values and slopes at both ends fix each piece to it
        x = _jittered(33)
        spline = CubicHermiteSpline(x, 1.0 - 2.0 * x + x**3, -2.0 + 3.0 * x**2)
        s = np.linspace(0.0, 1.0, 101)
        assert np.allclose(spline(s), 1.0 - 2.0 * s + s**3, rtol=0.0, atol=1e-14)
        assert np.allclose(spline(s, 1), -2.0 + 3.0 * s**2, rtol=0.0, atol=1e-12)
        assert np.allclose(spline(s, 2), 6.0 * s, rtol=0.0, atol=1e-10)

    def test_two_knots_give_the_line_and_three_the_parabola(self):
        # with the slopes of the line and of the parabola
        line = CubicHermiteSpline([0.0, 1.0], [1.0, 4.0], [3.0, 3.0])
        assert np.array_equal(line.c, [[0.0], [0.0], [3.0], [1.0]])
        x = np.array([0.0, 0.3, 1.0])
        parabola = CubicHermiteSpline(x, 2.0 - x + 3.0 * x**2, -1.0 + 6.0 * x)
        s = np.linspace(0.0, 1.0, 11)
        assert np.allclose(parabola(s), 2.0 - s + 3.0 * s**2, rtol=0.0, atol=1e-14)
        assert np.allclose(parabola(s, 2), 6.0, rtol=1e-13, atol=0.0)

    def test_second_derivative_may_jump_and_reads_the_right_piece(self):
        # zero values, and slope 1 at the middle knot: the pieces are
        # 4t^3 - 2t^2 and 4t^3 - 4t^2 + t, so c'' is 8 just left of the knot
        # and -8 at it, while c' is 1 on both sides
        spline = CubicHermiteSpline([0.0, 0.5, 1.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        left = np.nextafter(0.5, -np.inf)
        assert spline(left, 2) == pytest.approx(8.0, rel=1e-12)
        assert spline(0.5, 2) == -8.0
        assert spline(left, 1) == pytest.approx(1.0, rel=1e-12)
        assert spline(0.5, 1) == 1.0

    def test_scalar_points_and_refusals(self):
        x = np.linspace(0.0, 1.0, 9)
        y, slopes = _smooth(x), _smooth_slopes(x)
        spline = CubicHermiteSpline(x, y, slopes)
        for nu in (0, 1, 2):
            assert spline(0.37, nu) == spline(np.array([0.37]), nu)[0]
        with pytest.raises(DomainError, match="order"):
            spline(0.5, 3)
        with pytest.raises(DomainError, match="increasing"):
            CubicHermiteSpline([0.0, 0.5, 0.5, 1.0], [0.0, 1.0, 2.0, 3.0], np.zeros(4))
        # a non-finite knot, value or slope
        for bad in (np.inf, -np.inf, np.nan):
            for row in range(3):
                args = np.array([[0.0, 0.5, 1.0], [0.0, 1.0, 2.0], [1.0, 1.0, 1.0]])
                args[row, 1] = bad
                with pytest.raises(DomainError, match="finite"):
                    CubicHermiteSpline(*args)
        with pytest.raises(DomainError, match="2 knots"):
            CubicHermiteSpline([0.0], [1.0], [0.0])
        for args in ((x, y[:-1], slopes), (x, y, slopes[:-1]), (x, y, slopes[:, None])):
            with pytest.raises(DomainError, match="one slope per knot"):
                CubicHermiteSpline(*args)
        # the slopes are required: nothing is solved for in their place
        with pytest.raises(TypeError):
            CubicHermiteSpline(x, y)


class TestDerivative:
    def test_affine_first_derivative_exact(self, lz):
        expected = PAULI_X - PAULI_Z
        for s in (0.0, 0.31, 1.0):
            assert np.allclose(al.derivative(lz, s, 1), expected)

    def test_affine_second_derivative_zero(self, lz):
        assert np.allclose(al.derivative(lz, 0.4, 2), 0.0)

    def test_invalid_order(self, lz):
        with pytest.raises(DomainError):
            al.derivative(lz, 0.5, 3)

    def test_shifted_frame_derivatives_match_a_stencil_of_the_evaluator(self, lz):
        # H~' = D - gamma' I and H~'' = -gamma'' I are the derivatives of
        # the sampled H~(s) = H(s) - gamma(s) I, whose gamma moves; the
        # stencils are second-order central differences at the inner points
        path = al.track_eigenpath(lz, 1025)
        shifted = al.shift_to_zero_eigenvalue(lz, path)
        spline = shifted.affine.shift
        samples = eval_batch(shifted, path.grid)
        spacing = 1.0 / 1024
        stencils = (
            (samples[2:] - samples[:-2]) / (2.0 * spacing),
            (samples[2:] - 2.0 * samples[1:-1] + samples[:-2]) / spacing**2,
        )
        for order, stencil in zip((1, 2), stencils):
            assert np.abs(spline(path.grid, order)).max() > 0.5
            closed_form = [al.derivative(shifted, s, order) for s in path.grid[1:-1]]
            assert np.abs(stencil - np.array(closed_form)).max() < 1e-3


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
        # ||H(s)|| = 1 and spread(H(s)) = 2 for every s
        adaptive = al.evolve_adaptive(inst, psi0, 50.0, 1e-4, spread=2.0)
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
        assert opnorm_hermitian(np.zeros((2, 2), dtype=complex)) == 0.0

    def test_pauli_x(self):
        assert opnorm_hermitian(PAULI_X) == pytest.approx(1.0)

    def test_x_minus_z_closed_form(self):
        # 2x2 eigenvalues of X - Z are +/- sqrt(2)
        assert opnorm_hermitian(PAULI_X - PAULI_Z) == pytest.approx(np.sqrt(2.0))


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

    def test_monotone_under_grid_refinement(self, lz, grover2):
        # shifted frames are measured on their knots, so refining the grid
        # tightens the per-cell bound on ||H~|| (landau_zener: 2.000817,
        # 2.000406, 2.000203) and settles ||H~'||.  ||H~''|| is not
        # monotone: random_interpolation(4, 0) reads 31.4140, 31.4007, 31.4009
        for inst in (lz, al.random_interpolation(4, seed=0), grover2):
            bundles = [al.zero_frame(inst, n).norms_shifted for n in (257, 513, 1025)]
            for coarse, fine in zip(bundles, bundles[1:]):
                assert fine.norm_H <= coarse.norm_H
                assert fine.norm_H1 == pytest.approx(coarse.norm_H1, rel=1e-6)

    def test_grid_size_validation(self, lz):
        # a shifted frame is measured on its spline's knots and nowhere
        # else, and the exact unshifted route reads no spectrum
        shifted = hamiltonians._shift_by(lz, _sine_spline(), "shifted", {})
        for knots in (8, 10, 1025):
            with pytest.raises(DomainError, match="9 spline knots"):
                al.norm_bundle(shifted, spectrum=np.zeros((knots, 2)))
        with pytest.raises(DomainError, match="shape"):
            al.norm_bundle(shifted, spectrum=np.zeros((9, 3)))
        with pytest.raises(DomainError, match="no spectrum"):
            al.norm_bundle(lz, spectrum=np.zeros((9, 2)))

    def test_spectra_match_whole_grid_batches(self, monkeypatch):
        # a shifted d = 32 frame with 2,049 knots: its spectrum is sampled
        # in several chunk_ranges batches of chunk_size(32), and eigvalsh
        # works matrix by matrix, so batching changes no bit
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
        assert len(sizes) == -(-knots.size // chunk_size(inst.dim)) > 1
        assert batches == sizes
        # a spectrum handed to norm_bundle is used as it is: nothing is
        # sampled, and only ||H~|| reads it
        batches.clear()
        assert al.norm_bundle(shifted, spectrum=whole) == chunked
        doubled = al.norm_bundle(shifted, spectrum=2.0 * whole)
        assert not batches
        assert (doubled.norm_H1, doubled.norm_H2) == (chunked.norm_H1, chunked.norm_H2)
        assert doubled.norm_H > chunked.norm_H

    def test_sups_bound_a_dense_sample_of_the_spline(self, const_instance):
        # c is a cubic Hermite spline through 17 random values, with their
        # central-difference slopes: |c'| peaks inside a piece, away from
        # the knots, whose largest |c'| is 17.70 against a sup of 53.0535,
        # and c'' jumps at every inner knot
        x = np.linspace(0.0, 1.0, 17)
        values = np.random.default_rng(0).normal(size=17)
        spline = CubicHermiteSpline(x, values, np.gradient(values, x))
        shifted = hamiltonians._shift_by(const_instance, spline, "shifted", {})
        got = al.norm_bundle(shifted)
        want_h1, want_h2 = dense_derivative_norms(shifted, 4096)
        assert got.norm_H1 > 53.053
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
        # The spline through s^3 with slopes 3s^2 is s^3, whose c' and c''
        # peak at s = 1, the right end of the last piece
        x = np.linspace(0.0, 1.0, 17)
        zero = 0.0 * x
        constant = hamiltonians._shift_by(lz, CubicHermiteSpline(x, zero, zero), "c", {})
        norms = al.norm_bundle(constant)
        assert (norms.norm_H1, norms.norm_H2) == (al.norm_bundle(lz).norm_H1, 0.0)
        slope_3 = CubicHermiteSpline(x, 3.0 * x, zero + 3.0)
        linear = hamiltonians._shift_by(const_instance, slope_3, "linear", {})
        assert al.norm_bundle(linear).norm_H1 == pytest.approx(3.0, rel=1e-14)
        cube = CubicHermiteSpline(x, x**3, 3.0 * x**2)
        cubic = hamiltonians._shift_by(const_instance, cube, "cubic", {})
        norms = al.norm_bundle(cubic)
        assert (norms.norm_H1, norms.norm_H2) == pytest.approx((3.0, 6.0), rel=1e-12)
        frame = al.zero_frame(const_instance, 65)
        assert frame.norms_shifted == al.NormBundle(2.0, 0.0, 0.0)

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
                al.derivative(shifted, s, 1),
                al.derivative(shifted, s, 2),
            ):
                defect = np.abs(mat - mat.conj().T).max()
                assert defect <= 1e-12 * max(np.abs(mat).max(), 1e-300)
