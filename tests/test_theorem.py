import math

import numpy as np
import pytest

import adialab as al
from adialab import hamiltonians
from adialab.errors import DomainError, FeasibilityError, IntegrityError
from adialab.hamiltonians import NormBundle
from adialab.problems import landau_zener_eigenvalue

from conftest import per_matrix_curves, per_matrix_norms


def _required(delta, h1, h2, lam, case):
    return al.required_time(delta, NormBundle(1.0, h1, h2, 2), lam, case)


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
                al.eval_at(shifted, s).entries, al.eval_at(inst, s).entries, atol=1e-12
            )

    def test_constant_diag23(self):
        inst = al.constant((2.0, 3.0))
        path = al.track_eigenpath(inst, 65)
        shifted = al.shift_to_zero_eigenvalue(inst, path)
        assert np.allclose(
            al.eval_at(shifted, 0.3).entries, np.diag([0.0, 1.0]), atol=1e-12
        )

    def test_landau_zener_spectrum(self, lz):
        path = al.track_eigenpath(lz, 1025)
        shifted = al.shift_to_zero_eigenvalue(lz, path)
        for s in (0.0, 0.25, 0.5, 1.0):
            w = np.linalg.eigvalsh(al.eval_at(shifted, s).entries)
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

    def test_shift_of_a_shifted_frame_is_certified(self, lz):
        # the second shift adds to the record's first, so zero_frame
        # measures its norms exactly instead of refusing an uncertified frame
        shifted = al.shift_to_zero_eigenvalue(lz, al.track_eigenpath(lz, 257))
        frame = al.zero_frame(shifted, 257)
        twice = al.shift_to_zero_eigenvalue(shifted, al.track_eigenpath(shifted, 257))
        assert twice.affine is not None
        _assert_bundles_close(frame.norms, per_matrix_norms(shifted, 257), 1e-12)
        want = per_matrix_norms(twice, 257)
        _assert_bundles_close(frame.norms_shifted, want, 1e-12)

    def test_foreign_path_is_rejected(self, lz, const_instance):
        # the postcondition: H~ must annihilate the tracked states
        path = al.track_eigenpath(const_instance, 65)
        with pytest.raises(IntegrityError, match="annihilate"):
            al.shift_to_zero_eigenvalue(lz, path)

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


class TestVerifyNorms:
    """verify's norms of an affine instance and of its shifted frame are
    exact; ``per_matrix_norms``, which forms every matrix of H, H' and H''
    on the grid and takes its norm, is the oracle."""

    def test_analytic_instances_match_per_matrix_oracle(self, library_verdicts):
        for inst, verdict in library_verdicts:
            path = al.track_eigenpath(inst, 1025)
            shifted = al.shift_to_zero_eigenvalue(inst, path)
            rules = shifted.affine.shift
            _assert_bundles_close(verdict.norms, per_matrix_norms(inst, 1025), 1e-12)
            _assert_bundles_close(
                verdict.norms_shifted, per_matrix_norms(shifted, 1025), 1e-12
            )
            # the grid values too, which the refinement can mask in a bundle:
            # H's spectrum translated by gamma, and the scalar curves
            # max(lambda_max(D) - gamma', gamma' - lambda_min(D)) and |gamma''|
            d_min, d_max = np.linalg.eigvalsh(inst.affine.diff)[[0, -1]]
            slope = rules[1](path.grid)
            curves = (
                np.abs(path.eigenvalues - rules[0](path.grid)[:, None]).max(axis=1),
                np.maximum(d_max - slope, slope - d_min),
                np.abs(rules[2](path.grid)),
            )
            for got, want in zip(curves, per_matrix_curves(shifted, path.grid)):
                assert np.abs(got - want).max() <= 1e-12 * want.max(), inst.name

    def test_off_grid_maximum_is_refined(self, lz):
        # |gamma''| of landau_zener peaks at s = 1/2, a knot of the spline
        # tracked at 1025 points but not a point of a 1024-point norm grid:
        # the exact route's refinement must find it, as the oracle's does
        path = al.track_eigenpath(lz, 1025)
        shifted = al.shift_to_zero_eigenvalue(lz, path)
        rules = shifted.affine.shift
        got = al.norm_bundle(shifted, 1024)
        _assert_bundles_close(got, per_matrix_norms(shifted, 1024), 1e-12)
        grid = np.linspace(0.0, 1.0, 1024)
        assert got.norm_H2 > np.abs(rules[2](grid)).max() * (1.0 + 1e-9)

    def test_shifted_derivative_norm_within_spread(self, library_verdicts):
        # Hellmann-Feynman: gamma' = <psi|D|psi> lies in [lambda_min(D),
        # lambda_max(D)], so ||H~'|| <= spread(D) = lambda_max(D) - lambda_min(D)
        for inst, verdict in library_verdicts:
            d_eigenvalues = np.linalg.eigvalsh(inst.affine.diff)
            spread = d_eigenvalues[-1] - d_eigenvalues[0]
            assert verdict.norms_shifted.norm_H1 <= spread * (1.0 + 1e-9), inst.name

    def test_non_hermitian_evaluator_is_integrity_error(self, lz):
        def evaluator(s_values):
            upper = np.array([[0.0, 1.0], [0.0, 0.0]])
            return lz.evaluator(s_values) + (s_values == 0.5)[:, None, None] * upper

        bad = al.TimeDependentHamiltonian(dim=2, evaluator=evaluator)
        with pytest.raises(IntegrityError, match="evaluator output"):
            al.zero_frame(bad, 65)


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
        # T = 100.03 gives an odd ceil(4 T ||H~|| / pi) = 255, which evolution
        # rounds up to 256: a ceiling of 255 must be refused up front
        total_time = 100.03
        norm_H = lz_frame.norms_shifted.norm_H
        l_start = math.ceil(4.0 * total_time * norm_H / math.pi)
        assert l_start % 2 == 1
        with pytest.raises(FeasibilityError, match="feasible"):
            al.verify(lz_frame, delta=0.5, T_override=total_time, step_ceiling=l_start)
        verdict = al.verify(
            lz_frame, delta=0.5, T_override=total_time, step_ceiling=l_start + 1
        )
        assert verdict.L_used == l_start + 1

    def test_overflowing_time_is_infeasible(self, lz):
        # 4 T ||H~|| / pi overflows for T = 1e308 (||H~|| = 2)
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
