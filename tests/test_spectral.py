import dataclasses
import tracemalloc

import numpy as np
import pytest

import adialab as al
from adialab import _linalg
from adialab._linalg import chunk_ranges, eigh_batch, opnorm_hermitian
from adialab.errors import DomainError, GapCollapseError, UnderResolvedGridError
from adialab.hamiltonians import HermitianOperator, eval_batch
from adialab.problems import (
    PAULI_X,
    PAULI_Z,
    grover_gap,
    landau_zener_eigenvalue,
    landau_zener_gap,
)
from adialab.spectral import DEGENERACY_RTOL, MIN_BRANCH_OVERLAP, eigen_residuals

from conftest import rotating_two_level


class TestDecompose:
    # eigh_batch takes a real fast path for complex input whose imaginary
    # part is zero (the first three cases and the round trip)
    def test_diag(self):
        w, v = eigh_batch(HermitianOperator(np.diag([1.0, -1.0])).entries)
        assert np.allclose(w, [-1.0, 1.0])
        assert abs(abs(v[1, 0]) - 1.0) < 1e-12

    def test_pauli_x(self):
        w, v = eigh_batch(HermitianOperator(PAULI_X).entries)
        assert np.allclose(w, [-1.0, 1.0])
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert abs(abs(np.vdot(v[:, 0], minus)) - 1.0) < 1e-12

    def test_landau_zener_midpoint(self, lz):
        w, _ = eigh_batch(al.eval_batch(lz, [0.5])[0])
        assert np.allclose(w, [-np.sqrt(2) / 2, np.sqrt(2) / 2])

    def test_invariants_random(self):
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        op = HermitianOperator(0.5 * (raw + raw.conj().T))
        w, v = eigh_batch(op.entries)
        assert np.abs(v.conj().T @ v - np.eye(6)).max() < 1e-10
        residual = op.entries @ v - v * w
        scale = opnorm_hermitian(op.entries)
        assert np.linalg.norm(residual, axis=0).max() <= 1e-9 * scale

    def test_coefficients_roundtrip(self):
        _, v = eigh_batch(HermitianOperator(PAULI_X).entries)
        vec = np.array([0.6, 0.8], dtype=complex)
        coeffs = v.conj().T @ vec
        assert np.allclose(v @ coeffs, vec)


def sequential_track(h, grid_size, selector="ground"):
    """Per-point fixed-rank walk: the oracle for ``track_eigenpath``.

    Same chunks, evaluation and eigh_batch calls as the library, then one
    point at a time: keep the sorted rank chosen at s = 0, match against
    the previous gauge-fixed state, check the best overlap, then the
    margin, then that the best overlap lies at that rank, and rotate the
    overlap to be real and nonnegative.
    Returns (states, gammas, eigenvalues, tracked_index, gaps), where
    gaps[j] is the distance from the tracked eigenvalue to the nearest of
    all the others at point j.
    """
    match_vector = None if isinstance(selector, str) else np.asarray(selector, complex)
    grid = np.linspace(0.0, 1.0, grid_size)
    states = np.empty((grid_size, h.dim), dtype=complex)
    gammas = np.empty(grid_size)
    spectra = np.empty((grid_size, h.dim))
    gaps = np.empty(grid_size)
    rank = previous = None
    for lo, hi in chunk_ranges(0, grid_size, h.dim):
        evals, evecs = eigh_batch(eval_batch(h, grid[lo:hi]))
        for offset in range(hi - lo):
            j = lo + offset
            w, v = evals[offset], evecs[offset]
            if j == 0:
                rank = 0
                if match_vector is not None:
                    rank = int(np.argmax(np.abs(v.conj().T @ match_vector)))
                state = v[:, rank]
            else:
                overlaps = v.conj().T @ previous
                best = int(np.argmax(np.abs(overlaps)))
                if abs(overlaps[best]) < MIN_BRANCH_OVERLAP:
                    raise UnderResolvedGridError(
                        f"consecutive overlap {abs(overlaps[best]):.3f} < "
                        f"{MIN_BRANCH_OVERLAP} at s={grid[j]:.6g}; "
                        "refine the grid"
                    )
            point_norm = float(np.abs(w).max())
            others = np.abs(np.delete(w, rank) - w[rank])
            margin = float(others.min()) if others.size else np.inf
            if margin <= DEGENERACY_RTOL * point_norm or point_norm == 0.0:
                raise GapCollapseError(
                    f"tracked eigenvalue degenerate at s={grid[j]:.6g}: "
                    f"nearest branch at distance {margin:.3e} "
                    f"(tolerance {DEGENERACY_RTOL:.0e} * {point_norm:.3e})"
                )
            if j > 0:
                if best != rank:
                    raise GapCollapseError(
                        f"tracked branch leaves sorted rank {rank} between "
                        f"s={grid[j - 1]:.6g} and s={grid[j]:.6g}: it crosses "
                        f"rank {best} there"
                    )
                rotation = overlaps[rank] / abs(overlaps[rank])
                state = v[:, rank] * rotation
            states[j], gammas[j], spectra[j], gaps[j] = state, w[rank], w, margin
            previous = state
    return states, gammas, spectra, rank, gaps


def dft(d):
    return np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)


def level_crossing(d, crossing):
    """diag(0, s - crossing, 2, 3, ..., d - 1): the initial ground branch
    crosses the zero level at s = crossing and leaves sorted rank 0."""
    h0 = np.diag([0.0, -crossing, *range(2, d)])
    h1 = np.diag([0.0, 1.0 - crossing, *range(2, d)])
    return al.affine_hamiltonian(h0, h1)


def three_point(mats):
    """H(0), H(1/2), H(1) = mats; meant for a three-point grid."""
    stack = np.asarray(mats)
    return al.TimeDependentHamiltonian(
        dim=stack.shape[1], evaluator=lambda s: stack[np.rint(2.0 * s).astype(int)]
    )


def assert_matches_oracle(h, grid_size, selector="ground"):
    states, gammas, spectra, tracked, gaps = sequential_track(
        h, grid_size, selector
    )
    path = al.track_eigenpath(h, grid_size, selector)
    assert np.array_equal(path.gammas, gammas)
    assert np.array_equal(path.eigenvalues, spectra)
    assert path.tracked_index == tracked
    # the tracker's r +- 1 margin equals the nearest of all others, bit for bit
    assert np.array_equal(path.gap_values, gaps)
    assert path.gap == gaps.min()
    assert np.abs(path.states - states).max() <= 1e-12
    return path


def assert_same_error_as_oracle(h, grid_size, error, where):
    """Same class and message as the oracle; ``where`` locates the point."""
    with pytest.raises(error) as expected:
        sequential_track(h, grid_size)
    with pytest.raises(error, match=where) as got:
        al.track_eigenpath(h, grid_size)
    assert str(got.value) == str(expected.value)


class TestTrackEigenpath:
    def test_constant_hamiltonian_constant_path(self, const_instance):
        path = al.track_eigenpath(const_instance, 65)
        e1 = np.zeros(2)
        e1[0] = 1.0
        for state in path.states:
            assert abs(abs(np.vdot(state, e1)) - 1.0) < 1e-12

    def test_landau_zener_gammas(self, lz):
        path = al.track_eigenpath(lz, 1025)
        for j, s in ((0, 0.0), (512, 0.5), (1024, 1.0)):
            assert path.gammas[j] == pytest.approx(
                landau_zener_eigenvalue(s), abs=1e-12
            )

    def test_unit_norm_and_gauge_invariants(self, suite):
        for inst in suite:
            path = al.track_eigenpath(inst, 257)
            norms = np.linalg.norm(path.states, axis=1)
            assert np.abs(norms - 1.0).max() < 1e-12
            overlaps = np.einsum("ij,ij->i", path.states[:-1].conj(), path.states[1:])
            assert np.abs(overlaps.imag).max() < 1e-12
            assert overlaps.real.min() >= 0.99  # default-density continuity

    def test_match_selector(self, const_instance):
        # select the eigenvalue-2 branch by initial vector
        e2 = np.array([0.0, 1.0], dtype=complex)
        path = al.track_eigenpath(const_instance, 33, selector=e2)
        assert np.allclose(path.gammas, 2.0)

    def test_zero_or_non_finite_selector_is_refused(self, grover2):
        # no overlap picks a branch, so no rank is taken by default
        for vector in (np.zeros(4), np.full(4, np.nan), np.array([1.0, np.inf, 0, 0])):
            with pytest.raises(DomainError, match="finite and nonzero"):
                al.track_eigenpath(grover2, 65, selector=vector)

    @pytest.mark.parametrize("grid_size", [65, 129, 257, 513, 1025, 2049, 4097])
    def test_degenerate_instance_collapses(self, grid_size):
        # transverse_ising(2)'s ground space at s = 1 is doubly degenerate;
        # which rank the previous state overlaps most there is LAPACK's
        # choice of basis, so the diagnosis must not depend on it
        assert_same_error_as_oracle(
            al.transverse_ising(2), grid_size, GapCollapseError,
            "tracked eigenvalue degenerate at s=1:",
        )

    def test_under_resolved_grid(self):
        # endpoints diagonal in mutually unbiased bases: with only two grid
        # points every candidate overlap is 1/sqrt(8) < 0.5
        d = 8
        diag = np.diag(np.arange(d, dtype=float))
        inst = al.affine_hamiltonian(diag, dft(d) @ diag @ dft(d).conj().T)
        assert_same_error_as_oracle(inst, 2, UnderResolvedGridError, "refine")
        al.track_eigenpath(inst, 1025)  # fine grid succeeds

    def test_grid_validation(self, lz):
        with pytest.raises(DomainError):
            al.track_eigenpath(lz, 1)
        with pytest.raises(DomainError):
            al.track_eigenpath(lz, 9, selector="excited")


class TestTrackerMatchesSequentialWalk:
    def test_suite_and_match_selector(self, suite, rand4):
        for inst in suite:
            assert_matches_oracle(inst, 1025)
        vector = np.random.default_rng(3).standard_normal(4).astype(complex)
        path = assert_matches_oracle(rand4, 1025, vector)
        assert path.tracked_index != 0  # a branch other than the ground

    def test_chunks_carry_the_previous_vector(self):
        # 4,097 points at d = 32 are three batches of 2,048, 2,048 and 1;
        # the complex random instance also carries the gauge rotation
        assert_matches_oracle(al.grover(5), 4097)
        assert_matches_oracle(al.random_interpolation(32, seed=1), 2049)

    def test_crossing_raises(self):
        # diag(0, 2s - 1): the ground branch crosses the zero level at s = 1/2,
        # which an even-sized grid never samples
        crossing = al.affine_hamiltonian(np.diag([0.0, -1.0]), np.diag([0.0, 1.0]))
        for grid_size in (1024, 4096, 16384):
            j = grid_size // 2
            where = f"between s={(j - 1) / (grid_size - 1):.6g} and s="
            assert_same_error_as_oracle(crossing, grid_size, GapCollapseError, where)
        # an odd grid samples the crossing itself, a degenerate point: the
        # margin check comes before the rank check and names it
        assert_same_error_as_oracle(
            crossing, 1025, GapCollapseError, "degenerate at s=0.5:"
        )

    def test_crossing_at_chunk_boundary_raises(self):
        # d = 32, 4,097 points: batches start at 2,048 and 4,096.  Crossings
        # just before point 2,048 (first point of a batch, matched against
        # the carried vector) and before 2,047 (last point of a batch)
        for j in (2048, 2047):
            h = level_crossing(32, (j - 0.5) / 4096)
            where = f"between s={(j - 1) / 4096:.6g} and s={j / 4096:.6g}:"
            assert_same_error_as_oracle(h, 4097, GapCollapseError, where)

    def test_untracked_crossing_keeps_rank(self):
        # diag(-2 + s, 0, 2s - 1, 3) in a random real basis: the untracked
        # levels 0 and 2s - 1 cross at s = 1/2 (sampled exactly on the odd
        # grid), while the ground level stays at least 1 below them
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))
        h0, h1 = np.diag([-2.0, 0.0, -1.0, 3.0]), np.diag([-1.0, 0.0, 1.0, 3.0])
        inst = al.affine_hamiltonian(q @ h0 @ q.T, q @ h1 @ q.T)
        for grid_size in (1024, 1025):
            path = assert_matches_oracle(inst, grid_size)
            assert path.tracked_index == 0
            assert path.gap == pytest.approx(1.0, abs=1e-9)

    def test_earlier_failure_wins(self):
        # d = 16 in the DFT basis: every column overlaps the standard basis
        # by 1/4 < 0.5, and pairing the eigenvalues leaves every column with
        # a partner at distance 0 (a pair's span overlaps e_0 by <= 0.354)
        d = 16
        f = dft(d)
        distinct = np.diag(np.arange(d, dtype=float))
        paired = np.diag(np.repeat(np.arange(0, d, 2), 2).astype(float))
        low_overlap, both = f @ distinct @ f.conj().T, f @ paired @ f.conj().T
        swapped = np.diag([1.0, 0.0, *range(2, d)])  # e_0 moves to rank 1
        cases = (
            ((distinct, low_overlap, both), UnderResolvedGridError, "s=0.5;"),
            ((distinct, paired, low_overlap), GapCollapseError, "s=0.5:"),
            ((distinct, both, distinct), UnderResolvedGridError, "s=0.5;"),
            ((distinct, swapped, low_overlap), GapCollapseError, "and s=0.5:"),
        )
        for mats, error, where in cases:
            assert_same_error_as_oracle(three_point(mats), 3, error, where)


def gap_minimum(path):
    """(lambda_min, argmin_s) of the path's gap curve."""
    j = int(np.argmin(path.gap_values))
    return path.gap, float(path.grid[j])


class TestSpectralGap:
    def test_constant_three_level(self):
        # the middle level 0 sits at distance 1 from both others
        inst = al.constant((0.0, 1.0, -1.0))
        e1 = np.array([1.0, 0.0, 0.0], dtype=complex)
        path = al.track_eigenpath(inst, 65, selector=e1)
        assert path.tracked_index == 1
        assert np.abs(path.gap_values - 1.0).max() <= 1e-15
        assert path.gap == pytest.approx(1.0)

    def test_landau_zener(self, lz):
        path = al.track_eigenpath(lz, 1025)
        want = landau_zener_gap(path.grid)
        assert np.abs(path.gap_values - want).max() <= 1e-12 * want.max()
        lambda_min, argmin_s = gap_minimum(path)
        assert lambda_min == pytest.approx(np.sqrt(2.0), abs=1e-9)
        assert argmin_s == pytest.approx(0.5, abs=1e-6)

    def test_grover(self, grover2):
        # grover(5) at 4097 points spans three batches of 2048 at d = 32
        for inst, grid_size in ((grover2, 1025), (al.grover(5), 4097)):
            path = al.track_eigenpath(inst, grid_size)
            n = inst.params["n"]
            want = grover_gap(n, path.grid)
            assert np.abs(path.gap_values - want).max() <= 1e-12
            lambda_min, argmin_s = gap_minimum(path)
            assert lambda_min == pytest.approx(grover_gap(n, 0.5), abs=1e-9)
            assert argmin_s == pytest.approx(0.5, abs=1e-6)

    def test_eigen_residuals_keep_two_batches_alive(self, monkeypatch):
        # each batch dies before the next is evaluated, and evaluation
        # itself costs at most two batch-sized buffers; holding the
        # previous batch made a third one and set verify's peak at d = 32
        # (1 MiB batches: numpy reuses temporaries only from 256 KiB on)
        monkeypatch.setattr(_linalg, "chunk_size", lambda dim: 256)
        inst = al.random_interpolation(16, seed=1)
        grid = np.linspace(0.0, 1.0, 1024)
        states = np.ones((1024, 16), dtype=complex)
        batch_nbytes = eval_batch(inst, grid[:256]).nbytes
        tracemalloc.start()
        try:
            eigen_residuals(inst, grid, states, np.zeros(1024))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * batch_nbytes

    def test_gap_stable_under_grid_refinement(self, suite):
        for inst in suite:
            norm_h = al.norm_bundle(inst, 129).norm_H
            gap_coarse = al.track_eigenpath(inst, 513).gap
            gap_fine = al.track_eigenpath(inst, 1025).gap
            assert abs(gap_fine - gap_coarse) < 1e-6 * norm_h


class TestPathDerivatives:
    def test_constant_path_zero(self, const_instance):
        path = al.track_eigenpath(const_instance, 65)
        assert np.abs(al.path_derivatives(path, 1)).max() < 1e-12
        assert np.abs(al.path_derivatives(path, 2)).max() < 1e-12

    def test_planar_rotation_speed(self):
        # ground state angle is rate*s/2; speed is rate/2 = pi/2 for rate pi
        path = al.track_eigenpath(rotating_two_level(np.pi), 1025)
        speeds = np.linalg.norm(al.path_derivatives(path, 1), axis=1)
        assert np.abs(speeds - np.pi / 2.0).max() < 1e-4

    def test_landau_zener_midpoint_speed(self, lz):
        # mixing angle theta with tan(2 theta) = s/(1-s):
        # ||Psi'(s)|| = d theta/ds = 1 / (2((1-s)^2 + s^2)) -> 1 at s=1/2
        path = al.track_eigenpath(lz, 2049)
        speeds = np.linalg.norm(al.path_derivatives(path, 1), axis=1)
        assert speeds[1024] == pytest.approx(1.0, abs=1e-4)

    def test_too_coarse(self, lz):
        path = al.track_eigenpath(lz, 4)
        with pytest.raises(DomainError):
            al.path_derivatives(path, 1)

    def test_invalid_order(self, lz):
        path = al.track_eigenpath(lz, 65)
        with pytest.raises(DomainError):
            al.path_derivatives(path, 3)


class TestGaugeResidual:
    def test_constant_path(self, const_instance):
        path = al.track_eigenpath(const_instance, 65)
        assert al.gauge_residual(path) < 1e-12

    def test_landau_zener_default_grid(self, lz):
        path = al.track_eigenpath(lz, 1025)
        assert al.gauge_residual(path) <= 1e-4

    def test_phase_twist_detected(self, lz):
        # Phi(s) = e^{is} Psi(s): <Phi', Phi> = i + <Psi', Psi>
        path = al.track_eigenpath(lz, 1025)
        twisted = dataclasses.replace(
            path, states=path.states * np.exp(1j * path.grid)[:, None]
        )
        assert al.gauge_residual(twisted) == pytest.approx(1.0, abs=1e-3)


class TestDerivativeBounds:
    def test_first_bound_raw_norms(self, suite):
        # max ||Psi'|| <= 1.05 ||H'|| / lambda on the default grid
        for inst in suite:
            path = al.track_eigenpath(inst, 1025)
            norms = al.norm_bundle(inst)
            speeds = np.linalg.norm(al.path_derivatives(path, 1), axis=1)
            assert speeds.max() <= 1.05 * norms.norm_H1 / path.gap

    def test_second_bound_shifted_frame(self, suite):
        # the second-derivative bound applies with the tracked eigenvalue
        # shifted to zero, using the shifted instance's norms
        for inst in suite:
            path = al.track_eigenpath(inst, 1025)
            shifted = al.shift_to_zero_eigenvalue(inst, path)
            nb = al.norm_bundle(shifted)
            lam = path.gap
            accel = np.linalg.norm(al.path_derivatives(path, 2), axis=1)
            bound = nb.norm_H2 / lam + 3.0 * nb.norm_H1**2 / lam**2
            assert accel.max() <= 1.05 * bound
