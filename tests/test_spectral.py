import dataclasses
import functools
import sys
import threading
import time

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import adialab as al
from adialab import _linalg, spectral
from adialab._linalg import (
    branch_eigenpairs,
    chunk_ranges,
    chunk_size,
    eigh_batch,
    opnorm_hermitian,
)
from adialab.errors import (
    DomainError,
    GapCollapseError,
    IntegrityError,
    UnderResolvedGridError,
)
from adialab.hamiltonians import eval_batch
from adialab.problems import (
    PAULI_X,
    PAULI_Z,
    grover_gap,
    landau_zener_eigenvalue,
    landau_zener_gap,
)
from adialab.spectral import DEGENERACY_RTOL, MIN_BRANCH_OVERLAP

from conftest import rotating_two_level


class TestDecompose:
    # eigh_batch takes a real fast path for complex input whose imaginary
    # part is zero (the first three cases and the round trip)
    def test_diag(self):
        w, v = eigh_batch(np.diag([1.0, -1.0]).astype(complex))
        assert np.allclose(w, [-1.0, 1.0])
        assert abs(abs(v[1, 0]) - 1.0) < 1e-12

    def test_pauli_x(self):
        w, v = eigh_batch(PAULI_X)
        assert np.allclose(w, [-1.0, 1.0])
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert abs(abs(np.vdot(v[:, 0], minus)) - 1.0) < 1e-12

    def test_landau_zener_midpoint(self, lz):
        w, _ = eigh_batch(al.eval_batch(lz, [0.5])[0])
        assert np.allclose(w, [-np.sqrt(2) / 2, np.sqrt(2) / 2])

    def test_invariants_random(self):
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        op = 0.5 * (raw + raw.conj().T)
        w, v = eigh_batch(op)
        assert np.abs(v.conj().T @ v - np.eye(6)).max() < 1e-10
        residual = op @ v - v * w
        scale = opnorm_hermitian(op)
        assert np.linalg.norm(residual, axis=0).max() <= 1e-9 * scale

    def test_coefficients_roundtrip(self):
        _, v = eigh_batch(PAULI_X)
        vec = np.array([0.6, 0.8], dtype=complex)
        coeffs = v.conj().T @ vec
        assert np.allclose(v @ coeffs, vec)


def phase_aligned_distance(got, want):
    """max_j min over phases |got_j - e^{i phi} want_j| for unit rows."""
    inner = np.einsum("ni,ni->n", want.conj(), got)
    return np.abs(got - want * (inner / np.abs(inner))[:, None]).max(initial=0.0)


def in_v(make):
    """The instance ``make()`` restricted to its start state's invariant
    subspace V, as ``zero_frame`` builds it."""
    return lambda: al.zero_frame(make(), 65).h


# the instances the tracker's eigenpair provider is checked on, by name
PROVIDER_CASES = {
    "landau_zener": al.landau_zener,
    **{f"grover({n})": functools.partial(al.grover, n) for n in (2, 3, 4, 5)},
    **{f"grover({n}) in V": in_v(functools.partial(al.grover, n)) for n in (2, 3, 4, 5)},
    **{
        f"random_interpolation({d}, 1)": functools.partial(al.random_interpolation, d, seed=1)
        for d in (8, 16, 32)
    },
    "transverse_ising(4) in V": in_v(functools.partial(al.transverse_ising, 4)),
}


class TestBranchEigenpairs:
    # eigvalsh and eigh are both backward stable; their eigenvalues differ
    # by up to 28 ulps of ||H|| on these instances (at d = 32)
    ULPS = 64

    @pytest.mark.parametrize("name", PROVIDER_CASES)
    def test_matches_eigh(self, name):
        inst = PROVIDER_CASES[name]()
        grid = np.linspace(0.0, 1.0, 1025)
        for lo, hi in chunk_ranges(0, grid.size, inst.dim):
            mats = eval_batch(inst, grid[lo:hi])
            w, v = np.linalg.eigh(mats)
            norms = np.abs(w).max(axis=1)
            for rank in range(min(inst.dim, 3)):
                # the tracker's start: the chunk's first rank-r column
                evals, column = branch_eigenpairs(mats, rank, v[0, :, rank])
                assert (np.abs(evals - w) <= self.ULPS * np.spacing(norms)[:, None]).all()
                assert np.abs(np.linalg.norm(column, axis=1) - 1.0).max() <= 1e-14
                # a vector is defined where its level is apart from the others:
                # grover's full space has degenerate levels, rank 1 included at
                # s = 0 and 1
                margin = np.abs(np.delete(w, rank, axis=1) - w[:, rank, None]).min(axis=1)
                apart = margin >= 1e-2 * norms
                distance = phase_aligned_distance(column[apart], v[apart, :, rank])
                if rank == 0:
                    # the branch every one of these instances tracks
                    assert apart.all() and distance <= 1e-13, name
                else:
                    # Davis-Kahan: sin(angle) <= residual / margin, and the
                    # certified residual is at most 1e-13 ||H||
                    bound = 2e-13 * (norms[apart] / margin[apart]).max(initial=0.0)
                    assert distance <= bound, (name, rank)

    def test_two_level_closed_form(self):
        # mu > 0, mu < 0 and b = 0 (both signs of mu), complex and real b
        mats = np.array(
            [
                [[1.5, 0.3 - 0.4j], [0.3 + 0.4j, -0.5]],
                [[-2.0, 1e-3j], [-1e-3j, 1.0]],
                [[0.25, 0.0], [0.0, -0.75]],
                [[-0.25, 0.0], [0.0, 0.75]],
                [[0.0, 2.0], [2.0, 0.0]],
                [[3.0, -1e-9], [-1e-9, 3.0 + 1e-12]],
            ]
        )
        w, v = np.linalg.eigh(mats)
        for rank in (0, 1):
            evals, column = branch_eigenpairs(mats, rank, None)
            ulp = np.spacing(np.abs(w).max(axis=1))[:, None]
            assert (np.abs(evals - w) <= 4 * ulp).all()
            assert phase_aligned_distance(column, v[..., rank]) <= 1e-15
        # b = 0: exact eigenvalues and basis vectors, in order
        evals, column = branch_eigenpairs(mats[2:4], 1, None)
        assert np.array_equal(evals, [[-0.75, 0.25], [-0.25, 0.75]])
        assert np.array_equal(np.abs(column), [[1.0, 0.0], [0.0, 1.0]])

    def test_two_level_multiple_of_identity(self):
        # r = 0: a degenerate pair and a unit vector, with no 0/0
        for rank in (0, 1):
            evals, column = branch_eigenpairs(2.0 * np.eye(2)[None], rank, None)
            assert np.array_equal(evals, [[2.0, 2.0]])
            assert np.linalg.norm(column) == 1.0


def sequential_track(h, grid_size, rank=0):
    """Per-point fixed-rank walk: the oracle for ``track_eigenpath``.

    Same chunks and evaluation as the library, and its eigenvalues from the
    library's provider (``branch_eigenpairs``: LAPACK's eigvalsh, or the
    2x2 closed form); every eigenvector and overlap is eigh_batch's.  Then
    one point at a time: keep the sorted rank ``rank`` of s = 0, match
    against the previous gauge-fixed state, check the best overlap, then
    the margin, then that the best overlap lies at that rank, and rotate
    the overlap to be real and nonnegative.  A best overlap at rank k is a
    crossing unless the instance's record bounds the gap to the neighbour
    on k's side away from zero over the cell (Weyl), which makes the grid
    under-resolved.
    Returns (states, gammas, eigenvalues, tracked_index, gaps), where
    gaps[j] is the distance from the tracked eigenvalue to the nearest of
    all the others at point j.
    """
    grid = np.linspace(0.0, 1.0, grid_size)
    states = np.empty((grid_size, h.dim), dtype=complex)
    gammas = np.empty(grid_size)
    spectra = np.empty((grid_size, h.dim))
    gaps = np.empty(grid_size)
    previous = None
    for lo, hi in chunk_ranges(0, grid_size, h.dim):
        mats = eval_batch(h, grid[lo:hi])
        _, evecs = eigh_batch(mats)
        evals = branch_eigenpairs(mats, rank, evecs[0, :, rank])[0]
        for offset in range(hi - lo):
            j = lo + offset
            w, v = evals[offset], evecs[offset]
            if j == 0:
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
                where = f"between s={grid[j - 1]:.6g} and s={grid[j]:.6g}"
                if best != rank and h.affine is not None:
                    side = rank + 1 if best > rank else rank - 1
                    spread = np.ptp(np.linalg.eigvalsh(h.affine.h1 - h.affine.h0))
                    before = spectra[j - 1]
                    floor = (
                        abs(before[side] - before[rank]) + abs(w[side] - w[rank])
                        - spread * (grid[j] - grid[j - 1])
                    ) / 2.0
                    point_norms = max(np.abs(before).max(), point_norm)
                    if floor > DEGENERACY_RTOL * point_norms:
                        raise UnderResolvedGridError(
                            f"best overlap moves from rank {rank} to rank {best} "
                            f"{where}, but the gap to rank {side} stays above "
                            f"{floor:.3e} there; refine the grid"
                        )
                if best != rank:
                    raise GapCollapseError(
                        f"tracked branch leaves sorted rank {rank} {where}: "
                        f"it crosses rank {best} there"
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


def assert_matches_oracle(h, grid_size, rank=0):
    states, gammas, spectra, tracked, gaps = sequential_track(h, grid_size, rank)
    path = al.track_eigenpath(h, grid_size, rank)
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

    def test_excited_rank(self, const_instance):
        # the eigenvalue-2 branch is sorted rank 1
        path = al.track_eigenpath(const_instance, 33, rank=1)
        assert path.tracked_index == 1
        assert np.allclose(path.gammas, 2.0)
        assert np.array_equal(np.abs(path.states), np.tile([0.0, 1.0], (33, 1)))

    def test_invalid_rank_is_refused(self, monkeypatch, grover2):
        # only an integer 0 <= rank < d names a branch, and the tracker
        # refuses any other before it evaluates H
        evaluated = []
        monkeypatch.setattr(
            spectral, "eval_batch", lambda h, s: evaluated.append(s) or eval_batch(h, s)
        )
        for rank in (-1, 4, 1.5, True, "0"):
            for build in (al.track_eigenpath, al.zero_frame):
                with pytest.raises(DomainError, match="rank must be"):
                    build(grover2, 65, rank)
            with pytest.raises(DomainError, match="rank must be"):
                al.run_proofcheck(grover2, 256, rank=rank)
        assert not evaluated

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
        # only an integer is a grid size: no float, string or bool
        for grid_size in (2.5, 1e3, "1025", True):
            for build in (al.track_eigenpath, al.zero_frame):
                with pytest.raises(DomainError, match="integer"):
                    build(lz, grid_size)
        assert al.track_eigenpath(lz, np.int64(3)).npoints == 3
        # the rank, like the grid size, is an integer of numpy's too
        assert al.track_eigenpath(lz, 9, np.int64(1)).tracked_index == 1
        with pytest.raises(DomainError, match="rank must be below the dimension 2"):
            al.track_eigenpath(lz, 9, 2)


class TestTrackerMatchesSequentialWalk:
    def test_suite_and_excited_ranks(self, suite, rand4):
        for inst in suite:
            assert_matches_oracle(inst, 1025)
        # every branch above the ground
        for rank in (1, 2, 3):
            assert assert_matches_oracle(rand4, 1025, rank).tracked_index == rank

    def test_chunks_carry_the_previous_vector(self):
        # 4,097 points at d = 32 are batches of chunk_size(32) points and a
        # last one of 1; the complex random instance also carries the gauge
        # rotation
        assert 4096 % chunk_size(32) == 0 and chunk_size(32) < 2049
        assert_matches_oracle(al.grover(5), 4097)
        for rank in (0, 1, 31):
            assert_matches_oracle(al.random_interpolation(32, seed=1), 2049, rank)

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
        # d = 32, 4,097 points: batches start at the multiples of b =
        # chunk_size(32).  Crossings just before point b (first point of a
        # batch, matched against the carried vector) and before b - 1 (last
        # point of a batch)
        b = chunk_size(32)
        assert b < 4097
        for j in (b, b - 1):
            h = level_crossing(32, (j - 0.5) / 4096)
            where = f"between s={(j - 1) / 4096:.6g} and s={j / 4096:.6g}:"
            assert_same_error_as_oracle(h, 4097, GapCollapseError, where)

    @pytest.mark.parametrize("grid_size", [4, 6])
    def test_coarse_grid_across_a_narrow_gap_is_under_resolved(self, grid_size):
        # grover(5)'s gap never falls below 1/sqrt(32), but across s = 1/2
        # its ground state turns by nearly 90 degrees between two samples,
        # so the best overlap is at rank 1.  Weyl's inequality bounds the
        # gap over that cell below by (g(s_a) + g(s_b) - spread(D) h) / 2,
        # 0.0446 (4 points) or 0.0677 (6 points) with spread(D) =
        # 2 sqrt(1 - 1/32): far above 1e-8 ||H||, so the levels cannot meet
        j = grid_size // 2  # the cell [s_a, s_b] holds s = 1/2
        s_a, s_b = (j - 1) / (grid_size - 1), j / (grid_size - 1)
        spread = 2.0 * np.sqrt(1.0 - 2.0**-5)
        floor = 0.5 * (grover_gap(5, s_a) + grover_gap(5, s_b) - spread * (s_b - s_a))
        assert floor > 0.04
        for inst in (al.grover(5), al.zero_frame(al.grover(5), 7).h):
            assert_same_error_as_oracle(
                inst, grid_size, UnderResolvedGridError,
                rf"to rank 1 between s={s_a:.6g} and s={s_b:.6g}, but the gap to "
                rf"rank 1 stays above {floor:.3e} there; refine the grid$",
            )
        with pytest.raises(UnderResolvedGridError, match="refine the grid$"):
            al.zero_frame(al.grover(5), grid_size)
        assert_matches_oracle(al.grover(5), 7)

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


def reflection_to(v):
    """The Householder reflection P = I - 2 w w^T with P e_0 = v, for a real
    unit v other than e_0; P is symmetric, so row 0 of P is v too."""
    w = np.eye(len(v))[0] - v
    w /= np.linalg.norm(w)
    return np.eye(len(v)) - 2.0 * np.outer(w, w)


def fault_one_chunk(monkeypatch, h, grid_size, lo, fault):
    """Make ``np.linalg.solve`` misbehave on the tracker's chunk of ``h``
    that starts at grid point ``lo``, recognised by its right-hand side
    (the ground column of eigh at that point): ``fault`` is "singular"
    (raises LinAlgError), "non-finite" (a NaN entry) or "uncertified"
    (returns the right-hand side, which fails the residual certificate
    away from the chunk's first point).  Returns the list of faulted calls."""
    first = eval_batch(h, np.linspace(0.0, 1.0, grid_size)[lo : lo + 1])[0]
    target = eigh_batch(first)[1][:, 0]
    solve, faulted = np.linalg.solve, []

    def faulty(a, b):
        if not np.array_equal(b[0, :, 0], target):
            return solve(a, b)
        faulted.append(len(a))
        if fault == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        if fault == "non-finite":
            x = solve(a, b)
            x[-1, 0, 0] = np.nan
            return x
        return np.array(b, dtype=a.dtype)

    monkeypatch.setattr(np.linalg, "solve", faulty)
    return faulted


class TestRareRoutes:
    """Routes the benchmark never takes: a chunk whose shifted solve fails
    or is not certified, and a point whose overlap leaves the best rank
    open.  Each must give the oracle's path."""

    @pytest.mark.parametrize("fault", ["singular", "non-finite", "uncertified"])
    @pytest.mark.parametrize(
        "make, lo",
        [
            (functools.partial(al.random_interpolation, 32, seed=1), 512),
            (functools.partial(al.grover, 5), 1024),
        ],
        ids=["random_interpolation(32,1)", "grover(5)"],
    )
    def test_failed_chunk_takes_eigh_columns(self, monkeypatch, make, lo, fault):
        inst = make()
        assert lo % chunk_size(32) == 0
        states, gammas, spectra, _, gaps = sequential_track(inst, 2049)
        faulted = fault_one_chunk(monkeypatch, inst, 2049, lo, fault)
        path = al.track_eigenpath(inst, 2049)
        assert faulted == [chunk_size(32)]
        assert np.array_equal(path.gammas, gammas)
        assert np.array_equal(path.eigenvalues, spectra)
        assert np.array_equal(path.gap_values, gaps)
        assert np.abs(path.states - states).max() <= 1e-12

    @pytest.mark.parametrize("chunk", [3, 1], ids=["inner point", "chunk start"])
    def test_open_overlap_that_keeps_the_rank(self, monkeypatch, chunk):
        # H(1/2) = P diag(0, 1, 2, 3) P has ground state v = P e_0 with
        # <v, e_0> = 0.6, in [0.5, 1/sqrt(2)): not decided by |m|^2 > 1/2,
        # but every other rank overlaps e_0 by 0.8/sqrt(3) = 0.46 < 0.6, so
        # the rank holds.  With one-point chunks the point starts a chunk
        monkeypatch.setattr(_linalg, "chunk_size", lambda dim: chunk)
        v = np.array([0.6, *np.full(3, 0.8 / np.sqrt(3.0))])
        levels = np.diag([0.0, 1.0, 2.0, 3.0])
        turned = reflection_to(v) @ levels @ reflection_to(v)
        path = assert_matches_oracle(three_point((levels, turned, turned)), 3)
        assert abs(np.vdot(path.states[0], path.states[1])) == pytest.approx(0.6)

    @pytest.mark.parametrize("chunk", [3, 1], ids=["inner point", "chunk start"])
    def test_open_overlap_that_loses_the_rank(self, monkeypatch, chunk):
        # the same overlap 0.6 at rank 0, but rotated in the (e_0, e_1)
        # plane: rank 1 overlaps e_0 by 0.8, so the branch crosses
        monkeypatch.setattr(_linalg, "chunk_size", lambda dim: chunk)
        rotation = np.eye(4)
        rotation[:2, :2] = [[0.6, -0.8], [0.8, 0.6]]
        levels = np.diag([0.0, 1.0, 2.0, 3.0])
        turned = rotation @ levels @ rotation.T
        assert_same_error_as_oracle(
            three_point((levels, turned, turned)), 3, GapCollapseError,
            "between s=0 and s=0.5: it crosses rank 1",
        )

    def test_eigh_only_at_chunk_starts(self, monkeypatch):
        # one eigh per chunk start, at any rank, and none more at s = 0:
        # the other 4,088 points take eigvalsh and one shifted solve
        inst = al.random_interpolation(32, seed=1)
        eigh, shapes = np.linalg.eigh, []
        monkeypatch.setattr(
            np.linalg, "eigh", lambda a: shapes.append(np.shape(a)[:-2]) or eigh(a)
        )
        chunks = len(list(chunk_ranges(0, 4097, 32)))
        assert chunks == 9
        for rank in (0, 5):
            shapes.clear()
            al.track_eigenpath(inst, 4097, rank)
            assert sum(int(np.prod(shape)) for shape in shapes) == chunks


def gap_minimum(path):
    """(lambda_min, argmin_s) of the path's gap curve."""
    j = int(np.argmin(path.gap_values))
    return path.gap, float(path.grid[j])


class TestSpectralGap:
    def test_constant_three_level(self):
        # the middle level 0 sits at distance 1 from both others
        inst = al.constant((0.0, 1.0, -1.0))
        path = al.track_eigenpath(inst, 65, rank=1)
        assert path.tracked_index == 1
        assert np.array_equal(path.gammas, np.zeros(65))
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
        # grover(5) at 4097 points spans several batches at d = 32
        assert chunk_size(32) < 4097
        for inst, grid_size in ((grover2, 1025), (al.grover(5), 4097)):
            path = al.track_eigenpath(inst, grid_size)
            n = inst.params["n"]
            want = grover_gap(n, path.grid)
            assert np.abs(path.gap_values - want).max() <= 1e-12
            lambda_min, argmin_s = gap_minimum(path)
            assert lambda_min == pytest.approx(grover_gap(n, 0.5), abs=1e-9)
            assert argmin_s == pytest.approx(0.5, abs=1e-6)

    def test_gap_stable_under_grid_refinement(self, suite):
        for inst in suite:
            norm_h = al.norm_bundle(inst).norm_H
            gap_coarse = al.track_eigenpath(inst, 513).gap
            gap_fine = al.track_eigenpath(inst, 1025).gap
            assert abs(gap_fine - gap_coarse) < 1e-6 * norm_h


def crossing_then_broken(spans=None, *, fails=True):
    """diag(0, 2s - 1) without an affine record: the ground branch crosses
    zero between points 511 and 512 of a 1,024-point grid, in the ninth of
    its 64-point chunks; from s = 0.5625, inside the tenth chunk, every
    sample is non-Hermitian.  With ``fails`` false it is diag(0, -1 - s),
    which tracks.  Each evaluation appends its (start, end) time to
    ``spans`` when given, after a short sleep."""

    def evaluator(s_values):
        start = time.perf_counter()
        mats = np.zeros((s_values.size, 2, 2), dtype=complex)
        if fails:
            mats[:, 1, 1] = 2.0 * s_values - 1.0
            mats[s_values >= 0.5625, 0, 1] = 1.0
        else:
            mats[:, 1, 1] = -1.0 - s_values
        if spans is not None:
            time.sleep(0.002)
            spans.append((start, time.perf_counter()))
        return mats

    return al.TimeDependentHamiltonian(dim=2, evaluator=evaluator)


class TestPooledChunks:
    """The chunk pool's worker count is patched, so the threaded path runs
    on any host; chunk boundaries never depend on it."""

    @pytest.mark.parametrize(
        "make, rank",
        [
            (functools.partial(al.random_interpolation, 32, seed=1), 0),
            (functools.partial(al.random_interpolation, 32, seed=1), 5),
            (functools.partial(al.grover, 5), 0),
        ],
        ids=["random_interpolation(32,1)", "random_interpolation(32,1) rank 5",
             "grover(5)"],
    )
    def test_one_and_two_workers_agree_bit_for_bit(self, monkeypatch, make, rank):
        # with two workers no evaluation, whatever the rank, runs in the
        # calling thread
        inst = make()
        threads = []
        monkeypatch.setattr(
            spectral,
            "eval_batch",
            lambda h, s: threads.append(threading.current_thread()) or eval_batch(h, s),
        )
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(_linalg, "_workers", lambda w=workers: w)
            threads.clear()
            path = al.track_eigenpath(inst, 4097, rank)
            pooled = {t is not threading.main_thread() for t in threads}
            runs.append((path, pooled))
        (one, pooled_one), (two, pooled_two) = runs
        assert pooled_one == {False} and pooled_two == {True}
        for name in ("states", "gammas", "eigenvalues", "gap_values"):
            assert np.array_equal(getattr(one, name), getattr(two, name))
        assert one.tracked_index == two.tracked_index == rank

    def test_crossing_raises_before_a_later_chunks_failure(self, monkeypatch):
        monkeypatch.setattr(_linalg, "chunk_size", lambda dim: 64)
        inst = crossing_then_broken()
        grid = np.linspace(0.0, 1.0, 1024)
        with pytest.raises(IntegrityError):
            eval_batch(inst, grid[576:640])  # the tenth chunk fails alone
        messages = []
        for workers in (1, 2):
            monkeypatch.setattr(_linalg, "_workers", lambda w=workers: w)
            with pytest.raises(GapCollapseError, match="between s=0.499511 and") as got:
                al.track_eigenpath(inst, 1024)
            messages.append(str(got.value))
        assert messages[0] == messages[1]

    def test_no_chunk_runs_after_the_tracker_raises_or_returns(self, monkeypatch):
        monkeypatch.setattr(_linalg, "chunk_size", lambda dim: 64)
        monkeypatch.setattr(_linalg, "_workers", lambda: 2)
        spans = []
        with pytest.raises(GapCollapseError):
            al.track_eigenpath(crossing_then_broken(spans), 1024)
        raised = time.perf_counter()
        # the first nine chunks ran; the pool held at most one more, and it
        # finished before the raise
        assert 9 <= len(spans) <= 10
        assert max(end for _, end in spans) < raised
        time.sleep(0.05)
        assert len(spans) <= 10 and max(end for _, end in spans) < raised

        spans.clear()
        al.track_eigenpath(crossing_then_broken(spans, fails=False), 1024)
        returned = time.perf_counter()
        assert len(spans) == 16 and max(end for _, end in spans) < returned

    def test_order_holds_under_fast_thread_switching(self, monkeypatch):
        # more workers than cores, and a thread switch every microsecond
        monkeypatch.setattr(_linalg, "chunk_size", lambda dim: 64)
        monkeypatch.setattr(_linalg, "_workers", lambda: 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            chunks = _linalg.chunk_map(lambda lo, hi: np.arange(lo, hi), 0, 5000, 2)
            got = [(lo, hi, int(part[0]), int(part.sum())) for lo, hi, part in chunks]
        finally:
            sys.setswitchinterval(interval)
        ranges = chunk_ranges(0, 5000, 2)
        assert got == [(lo, hi, lo, sum(range(lo, hi))) for lo, hi in ranges]

    def test_no_pool_thread_outlives_the_tracker(self, monkeypatch):
        monkeypatch.setattr(_linalg, "chunk_size", lambda dim: 64)
        monkeypatch.setattr(_linalg, "_workers", lambda: 2)
        names = []
        monkeypatch.setattr(
            spectral,
            "eval_batch",
            lambda h, s: names.append(threading.current_thread().name) or eval_batch(h, s),
        )

        def pool_threads():
            return [t for t in threading.enumerate() if t.name.startswith("adialab-chunk")]

        # both branches cross at s = 1/2; at either rank the chunks run on
        # the pool alone, and its threads are joined
        for rank in (0, 1):
            names.clear()
            with pytest.raises(GapCollapseError, match=f"leaves sorted rank {rank} "):
                al.track_eigenpath(crossing_then_broken(), 1024, rank)
            assert names and all(name.startswith("adialab-chunk") for name in names)
            assert pool_threads() == []

            names.clear()
            path = al.track_eigenpath(crossing_then_broken(fails=False), 1024, rank)
            assert path.tracked_index == rank
            assert len(names) == 16
            assert all(name.startswith("adialab-chunk") for name in names)
            assert pool_threads() == []

    @pytest.mark.parametrize("stop_early", [False, True])
    def test_closing_the_pool_trims_the_heap_once(self, monkeypatch, stop_early):
        # the trim runs after the pool's threads are joined; inline runs skip it
        def pool_threads():
            return [t for t in threading.enumerate() if t.name.startswith("adialab-chunk")]

        trims = []
        monkeypatch.setattr(
            _linalg, "_MALLOC_TRIM", lambda pad: trims.append((pad, pool_threads()))
        )
        monkeypatch.setattr(_linalg, "chunk_size", lambda dim: 64)
        monkeypatch.setattr(_linalg, "_workers", lambda: 2)
        chunks = _linalg.chunk_map(lambda lo, hi: hi - lo, 0, 640, 2)
        if stop_early:
            next(chunks)
            chunks.close()
        else:
            assert sum(part for _, _, part in chunks) == 640
        assert trims == [(0, [])]

        trims.clear()
        monkeypatch.setattr(_linalg, "_workers", lambda: 1)
        inline = _linalg.chunk_map(lambda lo, hi: hi - lo, 0, 640, 2)
        assert sum(part for _, _, part in inline) == 640
        assert trims == []


class TestPathDerivatives:
    def test_constant_path_zero(self, const_instance):
        path = al.track_eigenpath(const_instance, 65)
        assert np.abs(al.path_derivatives(path)).max() < 1e-12
        # Psi'' from a cubic spline of the states, as in the bound tests
        accel = CubicSpline(path.grid, path.states)(path.grid, 2)
        assert np.abs(accel).max() < 1e-12

    def test_planar_rotation_speed(self):
        # ground state angle is rate*s/2; speed is rate/2 = pi/2 for rate pi
        path = al.track_eigenpath(rotating_two_level(np.pi), 1025)
        speeds = np.linalg.norm(al.path_derivatives(path), axis=1)
        assert np.abs(speeds - np.pi / 2.0).max() < 1e-4

    def test_landau_zener_midpoint_speed(self, lz):
        # mixing angle theta with tan(2 theta) = s/(1-s):
        # ||Psi'(s)|| = d theta/ds = 1 / (2((1-s)^2 + s^2)) -> 1 at s=1/2
        path = al.track_eigenpath(lz, 2049)
        speeds = np.linalg.norm(al.path_derivatives(path), axis=1)
        assert speeds[1024] == pytest.approx(1.0, abs=1e-4)

    def test_one_sided_stencils_at_boundaries(self, lz):
        # states f = (e^{2x}, sin(3x + 1)), whose third derivatives vanish
        # at neither end; the second-order differences are exact on a
        # quadratic, and their error falls as spacing**2 at the one-sided
        # ends as well as in the interior
        def with_states(x, states):
            return dataclasses.replace(al.track_eigenpath(lz, x.size), states=states)

        def f(x):
            return np.stack([np.exp(2.0 * x), np.sin(3.0 * x + 1.0)], axis=1)

        def exact(x):
            return np.stack([2.0 * np.exp(2.0 * x), 3.0 * np.cos(3.0 * x + 1.0)], axis=1)

        x = np.linspace(0.0, 1.0, 9)
        quadratic = np.stack([1.0 + 2.0 * x - 3.0 * x**2, x**2], axis=1)
        got = al.path_derivatives(with_states(x, quadratic))
        assert np.allclose(got, np.stack([2.0 - 6.0 * x, 2.0 * x], axis=1))

        sizes = [33, 65, 129, 257]
        errors = {"left": [], "interior": [], "right": []}
        for n in sizes:
            x = np.linspace(0.0, 1.0, n)
            err = np.abs(al.path_derivatives(with_states(x, f(x))) - exact(x))
            errors["left"].append(err[0].max())
            errors["interior"].append(err[1:-1].max())
            errors["right"].append(err[-1].max())
        for where, errs in errors.items():
            slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
            assert -2.2 <= slope <= -1.8, (where, slope)

    def test_too_coarse(self, lz):
        path = al.track_eigenpath(lz, 2)
        with pytest.raises(DomainError):
            al.path_derivatives(path)


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
            speeds = np.linalg.norm(al.path_derivatives(path), axis=1)
            assert speeds.max() <= 1.05 * norms.norm_H1 / path.gap

    def test_second_bound_shifted_frame(self, suite):
        # the second-derivative bound applies with the tracked eigenvalue
        # shifted to zero, using the shifted instance's norms
        for inst in suite:
            path = al.track_eigenpath(inst, 1025)
            shifted = al.shift_to_zero_eigenvalue(inst, path)
            nb = al.norm_bundle(shifted)
            lam = path.gap
            accel = np.linalg.norm(
                CubicSpline(path.grid, path.states)(path.grid, 2), axis=1
            )
            bound = nb.norm_H2 / lam + 3.0 * nb.norm_H1**2 / lam**2
            assert accel.max() <= 1.05 * bound
