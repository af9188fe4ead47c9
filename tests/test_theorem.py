import dataclasses
import math
import re

import numpy as np
import pytest

import adialab as al
from adialab import hamiltonians, theorem
from adialab.errors import (
    DomainError,
    FeasibilityError,
    GapCollapseError,
    IntegrityError,
    UnderResolvedGridError,
)
from adialab.hamiltonians import NormBundle
from adialab.problems import landau_zener_eigenvalue

from conftest import dense_derivative_norms, dense_norm, sector_basis, svd_norm


def _required(delta, h1, h2, lam, case):
    return al.required_time(delta, NormBundle(1.0, h1, h2), lam, case)


@pytest.fixture(scope="module")
def lz_frame(lz):
    return al.zero_frame(lz)


def _assert_bundles_close(got, want, rtol):
    for key in ("norm_H", "norm_H1", "norm_H2"):
        assert getattr(got, key) == pytest.approx(getattr(want, key), rel=rtol, abs=0.0)


class TestRequiredTime:
    def test_zero_derivative_needs_no_time(self):
        assert _required(0.1, 0.0, 0.0, 1.0, "general") == 0.0
        assert _required(1.0, 0.0, 0.0, 1.0, "special") == 0.0

    def test_general_unit_inputs(self):
        # direct substitution: (1e5 / 0.01) * max(1, 1) = 1e7
        value = _required(0.1, 1.0, 1.0, 1.0, "general")
        assert value == pytest.approx(1.0e7)

    def test_special_unit_inputs(self):
        # direct substitution with constant 1000 and delta = 1
        value = _required(1.0, 1.0, 1.0, 1.0, "special")
        assert value == pytest.approx(1000.0)

    def test_landau_zener_closed_form(self):
        # ||H'|| = sqrt(2), ||H''|| = 0, lambda = sqrt(2), delta = 0.5:
        # (1e5/0.25) * (2 sqrt 2)/4 = 2.828e5
        value = _required(0.5, np.sqrt(2.0), 0.0, np.sqrt(2.0), "general")
        assert value == pytest.approx(4.0e5 * 2.0 * np.sqrt(2.0) / 4.0, rel=1e-12)

    def test_constant_ratio_is_100(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            delta = float(rng.uniform(0.05, 1.4))
            h1 = float(rng.uniform(0.0, 3.0))
            h2 = float(rng.uniform(0.0, 3.0))
            lam = float(rng.uniform(0.1, 2.0))
            general = _required(delta, h1, h2, lam, "general")
            special = _required(delta, h1, h2, lam, "special")
            assert general == pytest.approx(100.0 * special)

    def test_unknown_case(self):
        with pytest.raises(DomainError, match="case must be"):
            _required(0.5, 1.0, 1.0, 1.0, "adiabatic")

    def test_input_validation(self):
        with pytest.raises(DomainError):
            _required(0.0, 1.0, 1.0, 1.0, "general")
        with pytest.raises(DomainError):
            _required(2.0, 1.0, 1.0, 1.0, "general")
        with pytest.raises(DomainError):
            _required(0.5, 1.0, 1.0, -1.0, "general")

    def test_frame_picks_the_norms_of_its_case(self, grover2):
        # H's norms bound the general case and H~'s the special one; they
        # differ on grover(2), whose ||H~'|| is below ||H'||
        frame = al.zero_frame(grover2, 257)
        assert frame.norms.norm_H1 != frame.norms_shifted.norm_H1
        assert frame.lam == frame.path.gap
        for delta in (0.5, 1.0):
            assert frame.required_time(delta) == al.required_time(
                delta, frame.norms, frame.lam, "general"
            )
            assert frame.required_time(delta, "special") == al.required_time(
                delta, frame.norms_shifted, frame.lam, "special"
            )
        with pytest.raises(DomainError, match="case must be"):
            frame.required_time(1.0, "adiabatic")


class TestShift:
    def test_already_zero_is_identity(self):
        inst = al.constant((0.0, 2.0))
        path = al.track_eigenpath(inst, 65)
        shifted = al.shift_to_zero_eigenvalue(inst, path)
        for s in (0.0, 0.5, 1.0):
            assert np.allclose(
                al.eval_batch(shifted, [s])[0], al.eval_batch(inst, [s])[0], atol=1e-12
            )

    def test_constant_diag23(self):
        inst = al.constant((2.0, 3.0))
        path = al.track_eigenpath(inst, 65)
        shifted = al.shift_to_zero_eigenvalue(inst, path)
        assert np.allclose(
            al.eval_batch(shifted, [0.3])[0], np.diag([0.0, 1.0]), atol=1e-12
        )

    def test_landau_zener_spectrum(self, lz):
        path = al.track_eigenpath(lz, 1025)
        shifted = al.shift_to_zero_eigenvalue(lz, path)
        for s in (0.0, 0.25, 0.5, 1.0):
            w = np.linalg.eigvalsh(al.eval_batch(shifted, [s])[0])
            assert w[0] == pytest.approx(0.0, abs=1e-9)
            assert w[1] == pytest.approx(-2.0 * landau_zener_eigenvalue(s), abs=1e-9)

    def test_shift_norm_inequalities(self, suite):
        # ||H~'|| <= 2||H'|| and ||H~''|| <= 2||H''|| + 4||H'||^2/lambda
        for inst in suite:
            path = al.track_eigenpath(inst, 1025)
            norms = al.norm_bundle(inst)
            shifted = al.shift_to_zero_eigenvalue(inst, path)
            shifted_norms = al.norm_bundle(shifted)
            assert shifted_norms.norm_H1 <= 2.0 * norms.norm_H1 + 1e-6
            bound = 2.0 * norms.norm_H2 + 4.0 * norms.norm_H1**2 / path.gap
            assert shifted_norms.norm_H2 <= bound + 1e-6

    def test_shift_measures_no_norms(self, lz, monkeypatch):
        calls = []
        original = hamiltonians.derivative
        monkeypatch.setattr(
            hamiltonians,
            "derivative",
            lambda *args: calls.append(args) or original(*args),
        )
        al.shift_to_zero_eigenvalue(lz, al.track_eigenpath(lz, 257))
        # verify and run_proofcheck measure an affine instance's norms, and
        # its shifted frame's, without sampling a derivative matrix
        al.verify(al.zero_frame(lz, 257), delta=1.0, case="special", T_override=0.0)
        al.run_proofcheck(lz, L=1024, delta=1.0, total_time=100.0)
        assert not calls

    def test_shift_of_a_shifted_frame_is_refused(self, lz):
        # a frame's record holds one spline; the instance it was built from
        # is the one to shift
        shifted = al.shift_to_zero_eigenvalue(lz, al.track_eigenpath(lz, 257))
        calls = (
            lambda: al.shift_to_zero_eigenvalue(shifted, al.track_eigenpath(lz, 257)),
            lambda: al.zero_frame(shifted, 257),
            lambda: hamiltonians._shift_by(shifted, shifted.affine.shift, "twice", {}),
        )
        for call in calls:
            with pytest.raises(DomainError, match="shifted frame already"):
                call()

    def test_foreign_path_is_rejected(self, lz, const_instance):
        # the postcondition: H~ must annihilate the tracked states
        path = al.track_eigenpath(const_instance, 65)
        with pytest.raises(IntegrityError, match="annihilate"):
            al.shift_to_zero_eigenvalue(lz, path)

    def test_record_residual_matches_evaluated_matrices(self, suite):
        # the null-state check reads H~(s_j) psi_j off the record; each
        # H~(s_j) evaluated as a matrix gives the same residual up to rounding
        for inst in suite:
            path = al.track_eigenpath(inst, 1025)
            shifted = al.shift_to_zero_eigenvalue(inst, path)
            mats = al.eval_batch(shifted, path.grid)
            applied = np.einsum("nij,nj->ni", mats, path.states)
            want = np.linalg.norm(applied, axis=1)
            got = theorem._null_residuals(shifted, path)
            assert np.abs(got - want).max() <= 1e-14 * al.norm_bundle(inst).norm_H

    @pytest.mark.parametrize("n", [5])
    def test_coarse_grid_is_under_resolved(self, n):
        # the spline of gamma through 3 points overshoots |gamma'| <= ||H'||
        # between them; the grid is too coarse, no invariant is broken
        with pytest.raises(UnderResolvedGridError, match="grid_size=3 points; refine"):
            al.zero_frame(al.grover(n), 3)

    def test_knot_slopes_are_hellmann_feynman(self, suite):
        # gamma'_j = Re<psi_j, D psi_j> at every grid point, bit for bit,
        # and within rounding of the same product taken row by row
        for inst in suite:
            path = al.track_eigenpath(inst, 257)
            spline = al.shift_to_zero_eigenvalue(inst, path).affine.shift
            psi, diff = path.states, inst.affine.diff
            want = np.einsum("ni,ni->n", psi.conj(), psi @ diff.T).real
            assert np.array_equal(spline(path.grid, 1), want), inst.name
            assert np.array_equal(spline.c[2], want[:-1]), inst.name
            rows = np.array([np.vdot(v, diff @ v).real for v in psi])
            assert np.abs(rows - want).max() <= 1e-14 * np.abs(diff).max()

    @pytest.mark.parametrize("grid_size", [1025, 65537])
    def test_landau_zener_shifted_slope_norm_is_one_plus_sqrt2(self, lz, grid_size):
        # gamma' = (1 - 2s)/sqrt(1 - 2s + 2s^2) falls from 1 to -1 and D =
        # X - Z has eigenvalues +-sqrt(2), so sup ||H~'|| = 1 + sqrt(2),
        # reached at s = 0 and s = 1, both grid points
        exact = 1.0 + math.sqrt(2.0)
        got = al.zero_frame(lz, grid_size).norms_shifted.norm_H1
        assert abs(got - exact) <= 4.0 * np.spacing(exact)

    @pytest.mark.parametrize("grid_size", [3, 5, 1025])
    def test_grover2_shifted_slope_norm_on_coarse_grids(self, grid_size):
        # in grover(2)'s two-level space gamma' runs from 3/4 down and D has
        # eigenvalues +-sqrt(3)/2, so sup ||H~'|| = 3/4 + sqrt(3)/2 at s = 0;
        # the exact knot slopes give it on 3 points as on 1,025
        exact = 0.75 + math.sqrt(3.0) / 2.0
        got = al.zero_frame(al.grover(2), grid_size).norms_shifted.norm_H1
        fine = al.zero_frame(al.grover(2), 1025).norms_shifted.norm_H1
        assert got == fine
        assert abs(got - exact) <= 4.0 * np.spacing(exact)

    @pytest.mark.parametrize("n", [2, 3])
    def test_five_points_resolve_grover(self, n):
        frame = al.zero_frame(al.grover(n), 5)
        assert frame.norms_shifted.norm_H1 <= 2.0 * frame.norms.norm_H1 * 1.05

    def test_shift_invariance_of_evolution(self, suite):
        # identity shifts commute away: same evolution up to global phase
        for inst in suite:
            path = al.track_eigenpath(inst, 257)
            shifted = al.shift_to_zero_eigenvalue(inst, path)
            psi0 = path.states[0]
            cfg = al.EvolutionConfig(100.0, 4096)
            a = al.evolve_discrete(inst, psi0, cfg).final_state
            b = al.evolve_discrete(shifted, psi0, cfg).final_state
            assert al.distance_phase_invariant(a, b) <= 1e-8


@pytest.fixture(scope="module")
def library_verdicts():
    """verify at T = 0 on every library instance it accepts."""
    instances = [
        al.landau_zener(),
        *(al.grover(n) for n in range(2, 6)),
        *(al.random_interpolation(dim, seed=1) for dim in (4, 8, 16, 32)),
        al.constant((0.0, 2.0)),
    ]
    return [
        (inst, al.verify(al.zero_frame(inst), 1.0, case="special", T_override=0.0))
        for inst in instances
    ]


ORACLE_INSTANCES = (
    al.landau_zener(),
    *(al.grover(n) for n in range(2, 6)),
    *(al.random_interpolation(dim, seed=1) for dim in (8, 16, 32)),
)


class TestVerifyNorms:
    """verify's norms of an affine instance are exact, and those of its
    shifted frame are upper bounds; SVD norms of H, H' and H'' matrices,
    densely sampled for the shifted frame, are the oracle."""

    def test_analytic_instances_match_per_matrix_oracle(self, library_verdicts):
        for inst, verdict in library_verdicts:
            record = inst.affine
            ends = svd_norm(np.stack([record.h0, record.h1])).max()
            want = NormBundle(ends, svd_norm(record.diff), 0.0)
            _assert_bundles_close(verdict.frame.norms, want, 1e-12)
        # ||H~'|| and ||H~''|| bound a sample of 64 points per spline cell
        # and lie within 1e-9 of it; ||H~|| bounds its own sample from
        # above by at most half a cell's Lipschitz growth.  That sample
        # takes an SVD per point, so it runs at 257 points for d <= 16, and
        # at every grid for landau_zener
        for inst in ORACLE_INSTANCES:
            for grid_size in (257, 1025, 4097):
                frame = al.zero_frame(inst, grid_size)
                got, shifted = frame.norms_shifted, frame.shifted
                for norm, want in zip(
                    (got.norm_H1, got.norm_H2), dense_derivative_norms(shifted)
                ):
                    assert want * (1.0 - 1e-12) <= norm <= want * (1.0 + 1e-9)
                if (grid_size == 257 and inst.dim <= 16) or inst.dim == 2:
                    want = dense_norm(shifted)
                    slack = got.norm_H1 / (grid_size - 1) / 2.0
                    assert want <= got.norm_H <= want + slack, (inst.name, grid_size)

    def test_norm_grid_is_the_spline_knots(self, lz):
        # |gamma''| of landau_zener peaks at s = 1/2, a knot of the spline
        # tracked at 1025 points, where the C^1 spline's c'' may jump: the
        # closed form reads the larger one-sided value there, and no other
        # grid is taken for the frame
        path = al.track_eigenpath(lz, 1025)
        shifted = al.shift_to_zero_eigenvalue(lz, path)
        got = al.norm_bundle(shifted)
        spline = shifted.affine.shift
        sides = np.abs(spline(np.array([np.nextafter(0.5, -np.inf), 0.5]), 2))
        assert sides[0] != sides[1]
        assert got.norm_H2 == pytest.approx(sides.max(), rel=1e-15, abs=0.0)
        with pytest.raises(DomainError, match="1025 spline knots"):
            al.norm_bundle(shifted, spectrum=path.eigenvalues[:-1])

    def test_shifted_derivative_norm_within_spread(self, library_verdicts):
        # Hellmann-Feynman: gamma' = <psi|D|psi> lies in [lambda_min(D),
        # lambda_max(D)], so ||H~'|| <= spread(D) = lambda_max(D) - lambda_min(D)
        for inst, verdict in library_verdicts:
            d_eigenvalues = np.linalg.eigvalsh(inst.affine.diff)
            spread = d_eigenvalues[-1] - d_eigenvalues[0]
            assert verdict.frame.norms_shifted.norm_H1 <= spread * (1.0 + 1e-9), inst.name

    def test_non_hermitian_evaluator_is_integrity_error(self, lz):
        calls = []

        def evaluator(s_values):
            calls.append(len(s_values))
            upper = np.array([[0.0, 1.0], [0.0, 0.0]])
            return lz.evaluator(s_values) + (s_values == 0.5)[:, None, None] * upper

        bad = al.TimeDependentHamiltonian(dim=2, evaluator=evaluator)
        with pytest.raises(IntegrityError, match="evaluator output"):
            al.track_eigenpath(bad, 65)
        # an instance without a record has no norms, so no frame: refused
        # before anything is evaluated
        calls.clear()
        with pytest.raises(DomainError, match="zero_frame needs"):
            al.zero_frame(bad, 65)
        assert not calls


class TestVerify:
    def test_constant_instance_passes_with_zero_time(self, const_instance):
        verdict = al.verify(al.zero_frame(const_instance), delta=0.1)
        assert verdict.passed
        assert verdict.T_required == 0.0
        assert verdict.L_used == 0
        assert verdict.distance_phase_invariant < 1e-12

    def test_quench_fails(self, lz_frame):
        verdict = al.verify(lz_frame, delta=0.5, T_override=0.01)
        assert not verdict.passed
        # sudden quench leaves the state near Psi(0); closed form:
        # |<ground(0), ground(1)>| = 1/sqrt(2)
        expected = np.sqrt(2.0 - 2.0 / np.sqrt(2.0))
        assert verdict.distance_phase_invariant == pytest.approx(expected, abs=1e-3)

    def test_feasibility_refusal_reports_maximum(self, lz_frame):
        with pytest.raises(FeasibilityError, match="feasible"):
            al.verify(lz_frame, delta=0.5, T_override=1e12, step_ceiling=2**20)

    def test_feasibility_counts_the_even_rounded_step_count(self, lz_frame):
        # T = 200.03 gives an odd ceil(2 T S / pi) = 255 for the frame's
        # spread bound S, which evolution rounds up to 256: a ceiling of 255
        # must be refused up front
        total_time = 200.03
        l_start = math.ceil(2.0 * total_time * lz_frame.spread / math.pi)
        assert l_start % 2 == 1
        with pytest.raises(FeasibilityError, match="feasible"):
            al.verify(lz_frame, delta=0.5, T_override=total_time, step_ceiling=l_start)
        verdict = al.verify(
            lz_frame, delta=0.5, T_override=total_time, step_ceiling=l_start + 1
        )
        assert verdict.L_used == l_start + 1

    def test_overflowing_time_is_infeasible(self, lz):
        # 2 T S / pi overflows for T = 1e308 (spread bound S about 2)
        with pytest.raises(FeasibilityError, match="largest feasible T"):
            al.verify(al.zero_frame(lz, 65), delta=0.5, T_override=1e308)

    def test_disc_tol_validation(self, lz):
        # refused even where T = 0 evolves nothing
        frame = al.zero_frame(lz, 65)
        for disc_tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="disc_tol"):
                al.verify(frame, delta=0.5, T_override=0.0, disc_tol=disc_tol)

    def test_delta_validation(self, lz_frame):
        with pytest.raises(DomainError):
            al.verify(lz_frame, delta=0.0)
        with pytest.raises(DomainError):
            al.verify(lz_frame, delta=1.5)

    def test_time_validation(self, lz):
        frame = al.zero_frame(lz, 65)
        for total_time in (math.nan, math.inf, -math.inf, -1.0):
            with pytest.raises(DomainError, match="T_override"):
                al.verify(frame, delta=0.5, T_override=total_time)

    def test_verdict_serialization_roundtrip(self, lz):
        verdict = al.verify(al.zero_frame(lz, 257), delta=0.5, T_override=1.0)
        payload = verdict.to_dict()
        assert payload["grid_size"] == 257
        assert payload["passed"] == verdict.passed
        assert payload["norms"]["norm_H1"] == pytest.approx(np.sqrt(2.0))
        assert payload["instance"]["name"] == "landau_zener"
        import json

        json.dumps(payload)  # must be JSON-serializable as-is

    def test_pass_flag_follows_the_distance(self, lz_frame):
        # passed is derived from (distance, delta), never stored or accepted
        quench = al.verify(lz_frame, delta=0.5, T_override=0.01)
        d = quench.distance_phase_invariant
        for delta, want in ((d, True), (math.nextafter(d, 0.0), False), (1.4, True)):
            verdict = dataclasses.replace(quench, delta=delta)
            assert verdict.passed is want
            assert verdict.to_dict()["passed"] is want
        with pytest.raises(TypeError, match="passed"):
            dataclasses.replace(quench, passed=True)
        fields = {f.name: getattr(quench, f.name) for f in dataclasses.fields(quench)}
        assert "passed" not in fields
        with pytest.raises(TypeError, match="passed"):
            al.TheoremVerdict(passed=False, **fields)


SPREAD_CASES = [
    # (instance, ranks): grover's top level at s = 0 is (d-1)-fold degenerate
    pytest.param(al.landau_zener(), (0, 1), id="landau_zener"),
    *(pytest.param(al.grover(n), (0,), id=f"grover({n})") for n in range(2, 6)),
    *(
        pytest.param(
            al.random_interpolation(dim, seed=1), (0, dim - 1),
            id=f"random_interpolation({dim},1)",
        )
        for dim in (8, 16, 32)
    ),
    pytest.param(al.transverse_ising(4), (0, 15), id="transverse_ising(4)"),
]


def _sampled_spread(record, samples):
    """max over ``samples`` uniform points of lambda_max - lambda_min of
    record.h0 + s (record.h1 - record.h0), by ``eigvalsh`` in chunks."""
    s_values, widest = np.linspace(0.0, 1.0, samples), 0.0
    for chunk in np.array_split(s_values, -(-samples // 4096)):
        mats = record.h0 + chunk[:, None, None] * (record.h1 - record.h0)
        evals = np.linalg.eigvalsh(mats)
        widest = max(widest, float((evals[:, -1] - evals[:, 0]).max()))
    return widest


class TestSpreadFloor:
    """The frame's spread ceiling S, verify's step floor."""

    @pytest.mark.parametrize("inst, ranks", SPREAD_CASES)
    def test_ceiling_bounds_the_sampled_spread(self, inst, ranks):
        # S is at least the spread of 2^16 + 1 samples of the frame's H, and
        # above it by at most its Weyl reach spread(D) h / 2 plus the
        # samples' own spacing; S / 2 never exceeds ||H~||, so no branch's
        # first level rises above the old ceil(4 T ||H~|| / pi)
        samples = 2**16 + 1
        sampled = {}
        for rank in ranks:
            for grid_size in (257, 1025):
                frame = al.zero_frame(inst, grid_size, rank)
                record = frame.h.affine
                key = (record.h0.tobytes(), record.h1.tobytes())
                if key not in sampled:
                    sampled[key] = _sampled_spread(record, samples)
                widest = sampled[key]
                d_levels = np.linalg.eigvalsh(record.h1 - record.h0)
                reach = 0.5 * (d_levels[-1] - d_levels[0])
                slack = reach * (1.0 / (grid_size - 1) + 1.0 / (samples - 1))
                label = (inst.name, rank, grid_size)
                assert widest <= frame.spread <= widest + slack + 1e-12, label
                assert frame.spread / 2.0 <= frame.norms_shifted.norm_H, label

    def test_verify_evolve_distances_match_a_16x_product(self):
        # the five verify-evolve benchmark jobs (delta = 1, special case,
        # disc_tol 0.01): each distance at the spread floor's L_used is
        # within disc_tol of the same product at 16 L_used
        for inst, total_time in (
            (al.landau_zener(), 3517.7669463760512),
            (al.grover(2), 2e4),
            (al.grover(3), 2e3),
            (al.random_interpolation(8, seed=1), 200.0),
            (al.random_interpolation(16, seed=1), 50.0),
        ):
            frame = al.zero_frame(inst)
            verdict = al.verify(frame, 1.0, case="special", T_override=total_time)
            assert verdict.L_used >= 2.0 * total_time * frame.spread / math.pi
            psi0, target = frame.path.states[[0, -1]]
            finer = al.evolve_discrete(
                frame.shifted, psi0, al.EvolutionConfig(total_time, 16 * verdict.L_used)
            )
            fine = al.distance_phase_invariant(finer.final_state, target)
            assert abs(verdict.distance_phase_invariant - fine) <= verdict.disc_tol, (
                inst.name
            )

    @pytest.mark.parametrize("ceiling", [255, 1_273, 4_096])
    def test_named_feasible_time_is_feasible(self, lz_frame, grover3, ceiling):
        # the T that a refusal names passes the up-front ceiling check (its
        # first level is accepted at disc_tol 1), and 1.01 times it does not
        for frame in (lz_frame, al.zero_frame(grover3, 257)):
            with pytest.raises(FeasibilityError, match="initial steps") as info:
                al.verify(frame, 1.0, T_override=1e9, step_ceiling=ceiling)
            named = float(
                re.search(r"largest feasible T is about (\S+)$", str(info.value))[1]
            )
            verdict = al.verify(
                frame, 1.0, T_override=named, disc_tol=1.0, step_ceiling=ceiling
            )
            assert ceiling - 2 <= verdict.L_used <= ceiling
            with pytest.raises(FeasibilityError, match="initial steps"):
                al.verify(frame, 1.0, T_override=1.01 * named, step_ceiling=ceiling)


def _full_space_run(inst, total_time, steps):
    """The oracle: the instance's d x d evolution in its own full-space
    frame, at a given step count; the distance to the tracked endpoint."""
    path = al.track_eigenpath(inst)
    shifted = al.shift_to_zero_eigenvalue(inst, path)
    cfg = al.EvolutionConfig(total_time, steps)
    final = al.evolve_discrete(shifted, path.states[0], cfg).final_state
    return al.distance_phase_invariant(final, path.states[-1])


@pytest.fixture
def tracked_dims(monkeypatch):
    """The dimension of every instance ``zero_frame`` tracks."""
    dims, track = [], theorem.track_eigenpath

    def spy(h, *args):
        dims.append(h.dim)
        return track(h, *args)

    monkeypatch.setattr(theorem, "track_eigenpath", spy)
    return dims


class TestInvariantSubspace:
    """zero_frame runs in V, the smallest subspace holding psi0 and
    invariant under H0 and D, when V is proper and at least 2-dimensional,
    and in full space otherwise."""

    @pytest.mark.parametrize("inst,dim_v", [
        *((al.grover(n), 2) for n in range(2, 6)),
        (al.landau_zener(), 2),
        (al.random_interpolation(8, seed=1), 8),
    ], ids=["grover2", "grover3", "grover4", "grover5", "landau_zener", "random8"])
    def test_closure_dimensions(self, inst, dim_v):
        psi0 = np.linalg.eigh(inst.affine.h0)[1][:, 0]
        basis, residual = theorem._invariant_subspace(inst.affine, psi0)
        assert basis.shape == (inst.dim, dim_v)
        assert np.allclose(basis.conj().T @ basis, np.eye(dim_v), atol=1e-14)
        assert residual < 1e-13
        assert np.linalg.norm(psi0 - basis @ (basis.conj().T @ psi0)) < 1e-14
        assert al.zero_frame(inst, 65).h.dim == dim_v

    def test_transverse_ising_closure(self):
        # 6 of 16 dimensions: the parity- and reflection-even sector
        inst = al.transverse_ising(4)
        psi0 = np.linalg.eigh(inst.affine.h0)[1][:, 0]
        basis, residual = theorem._invariant_subspace(inst.affine, psi0)
        assert basis.shape == (16, 6)
        assert residual < 1e-13

    @pytest.mark.parametrize("n, rank, dim_v, lam", [
        (3, 7, 3, 1.394568),
        (4, 15, 6, 1.120208),
    ])
    def test_top_branch_of_transverse_ising(self, n, rank, dim_v, lam):
        # H(0)'s top state, all spins |->, is even under reflection and has
        # spin-flip parity (-1)^n; both symmetries commute with H(s), so it
        # evolves in that sector, built here from the symmetries alone
        inst = al.transverse_ising(n)
        frame = al.zero_frame(inst, rank=rank)
        assert frame.h.dim == dim_v
        assert frame.path.tracked_index == dim_v - 1  # the top of V too
        basis = sector_basis(n, (-1) ** n)
        assert basis.shape[1] == dim_v
        spectra = np.linalg.eigvalsh(
            basis.T @ inst.evaluator(frame.path.grid) @ basis
        )
        assert np.abs(frame.path.gammas - spectra[:, -1]).max() < 1e-12
        gaps = spectra[:, -1] - spectra[:, -2]
        assert frame.lam == pytest.approx(gaps.min(), rel=1e-12, abs=0.0)
        assert frame.lam == pytest.approx(lam, abs=1e-6)

    def test_projected_frame_is_the_compressed_frame(self, grover3):
        frame = al.zero_frame(grover3, 129)
        psi0 = np.linalg.eigh(grover3.affine.h0)[1][:, 0]
        basis, _ = theorem._invariant_subspace(grover3.affine, psi0)
        s_values = np.linspace(0.0, 1.0, 17)
        want = basis.conj().T @ grover3.evaluator(s_values) @ basis
        assert frame.h.dim == 2
        assert (frame.h.name, frame.h.params) == (grover3.name, grover3.params)
        assert np.abs(frame.h.evaluator(s_values) - want).max() < 1e-14

    @pytest.mark.parametrize("inst,total_time,evolved_dim", [
        (al.grover(2), 2e4, 2),
        (al.grover(3), 2e3, 2),
        (al.random_interpolation(8, seed=1), 200.0, 8),
    ], ids=["grover2", "grover3", "random8"])
    def test_matches_full_space(self, inst, total_time, evolved_dim):
        # the verify-evolve benchmark's settings: delta 1, special case
        frame = al.zero_frame(inst)
        verdict = al.verify(frame, 1.0, case="special", T_override=total_time)
        d_full = _full_space_run(inst, total_time, verdict.L_used)
        assert verdict.evolved_dim == evolved_dim
        assert verdict.distance_phase_invariant == pytest.approx(d_full, abs=1e-10)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_frame_in_v_matches_the_full_space_frame(self, n, tracked_dims):
        # lambda and T_required of grover's 2 x 2 frame against a frame
        # tracked, shifted and measured in full space
        inst = al.grover(n)
        frame = al.zero_frame(inst)
        assert tracked_dims == [2]
        path = al.track_eigenpath(inst)
        norms = al.norm_bundle(inst)
        norms_shifted = al.norm_bundle(al.shift_to_zero_eigenvalue(inst, path))
        assert frame.lam == pytest.approx(path.gap, rel=1e-11, abs=0.0)
        for delta in (0.5, 1.0):
            for case, bundle in (("general", norms), ("special", norms_shifted)):
                want = al.required_time(delta, bundle, path.gap, case)
                got = frame.required_time(delta, case)
                assert got == pytest.approx(want, rel=1e-11, abs=0.0), (case, delta)

    def test_perturbed_grover_falls_back(self, grover3, tracked_dims):
        # a 1e-6 Hermitian perturbation of h1 closes V on the whole space
        rng = np.random.default_rng(3)
        noise = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h1 = grover3.affine.h1 + 0.5e-6 * (noise + noise.conj().T)
        inst = al.affine_hamiltonian(grover3.affine.h0, h1, name="perturbed")
        frame = al.zero_frame(inst)
        verdict = al.verify(frame, 1.0, case="special", T_override=2e3)
        assert tracked_dims == [8]
        assert frame.h is inst and frame.invariance_residual == 0.0
        assert verdict.evolved_dim == 8
        assert verdict.passed

    def test_degenerate_start_is_refused(self, tracked_dims):
        # H(0)'s ground space is two-dimensional, so "ground" picks no state:
        # refused before V, which would hold LAPACK's choice of it, is built
        h1 = np.array([[1.0, 0.0, 1.0], [0.0, 0.5, 0.0], [1.0, 0.0, 1.0]])
        inst = al.affine_hamiltonian(np.diag([0.0, 0.0, 2.0]), h1)
        for call in (lambda: al.zero_frame(inst), lambda: al.track_eigenpath(inst)):
            with pytest.raises(GapCollapseError, match="s=0 is degenerate"):
                call()
        assert not tracked_dims

    def test_duhamel_gate_is_a_feasibility_error(self, grover3, monkeypatch):
        # T r must stay within disc_tol / 100 for V's invariance residual r;
        # past it the run is refused before any evolution
        frame = al.zero_frame(grover3, 129)
        residual = frame.invariance_residual
        assert 0.0 < residual < 1e-13
        monkeypatch.setattr(theorem, "evolve_adaptive", None)
        with pytest.raises(FeasibilityError, match="largest certified T") as info:
            al.verify(frame, 1.0, case="special", T_override=2e3, disc_tol=1e-12)
        assert f"about {1e-14 / residual:.6g}" in str(info.value)

    def test_unpinned_grover3(self, grover3):
        # the theorem's own T (3.8e5) needs 241,780 steps; in V they are 2 x 2
        verdict = al.verify(al.zero_frame(grover3), 1.0, case="special")
        assert verdict.T_used == verdict.T_required
        assert verdict.evolved_dim == 2
        assert verdict.passed


class TestMonotonicity:
    @pytest.mark.parametrize("kind,case", [("landau_zener", "general"),
                                           ("grover", "special")])
    def test_distance_nonincreasing_in_time(self, kind, case):
        # sampled at T*/100, T*/10, T*; noise tolerance 0.02
        inst = al.landau_zener() if kind == "landau_zener" else al.grover(2)
        t_star = al.zero_frame(inst, 257).required_time(1.0, case)
        frame = al.zero_frame(inst)
        distances = []
        for t in (t_star / 100.0, t_star / 10.0, t_star):
            verdict = al.verify(frame, delta=1.0, case=case, T_override=t)
            distances.append(verdict.distance_phase_invariant)
        assert distances[1] <= distances[0] + 0.02
        assert distances[2] <= distances[1] + 0.02
