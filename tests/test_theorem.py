import math

import numpy as np
import pytest

import adialab as al
from adialab.errors import DomainError, FeasibilityError
from adialab.hamiltonians import NormBundle
from adialab.problems import landau_zener_eigenvalue
from adialab.theorem import TheoremInputs


def _inputs(delta, h1, h2, lam, case):
    return TheoremInputs(delta, NormBundle(1.0, h1, h2, 2), lam, case)


class TestRequiredTime:
    def test_zero_derivative_needs_no_time(self):
        assert al.required_time_general(_inputs(0.1, 0.0, 0.0, 1.0, "general")) == 0.0
        assert al.required_time_special(_inputs(1.0, 0.0, 0.0, 1.0, "special")) == 0.0

    def test_general_unit_inputs(self):
        # direct substitution: (1e5 / 0.01) * max(1, 1) = 1e7
        value = al.required_time_general(_inputs(0.1, 1.0, 1.0, 1.0, "general"))
        assert value == pytest.approx(1.0e7)

    def test_special_unit_inputs(self):
        # direct substitution with constant 1000 and delta = 1
        value = al.required_time_special(_inputs(1.0, 1.0, 1.0, 1.0, "special"))
        assert value == pytest.approx(1000.0)

    def test_landau_zener_closed_form(self):
        # ||H'|| = sqrt(2), ||H''|| = 0, lambda = sqrt(2), delta = 0.5:
        # (1e5/0.25) * (2 sqrt 2)/4 = 2.828e5
        value = al.required_time_general(
            _inputs(0.5, np.sqrt(2.0), 0.0, np.sqrt(2.0), "general")
        )
        assert value == pytest.approx(4.0e5 * 2.0 * np.sqrt(2.0) / 4.0, rel=1e-12)

    def test_constant_ratio_is_100(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            delta = float(rng.uniform(0.05, 1.4))
            h1 = float(rng.uniform(0.0, 3.0))
            h2 = float(rng.uniform(0.0, 3.0))
            lam = float(rng.uniform(0.1, 2.0))
            general = al.required_time_general(_inputs(delta, h1, h2, lam, "general"))
            special = al.required_time_special(_inputs(delta, h1, h2, lam, "special"))
            assert general == pytest.approx(100.0 * special)

    def test_case_mismatch(self):
        with pytest.raises(DomainError):
            al.required_time_general(_inputs(0.5, 1.0, 1.0, 1.0, "special"))

    def test_input_validation(self):
        with pytest.raises(DomainError):
            _inputs(0.0, 1.0, 1.0, 1.0, "general")
        with pytest.raises(DomainError):
            _inputs(2.0, 1.0, 1.0, 1.0, "general")
        with pytest.raises(DomainError):
            _inputs(0.5, 1.0, 1.0, -1.0, "general")


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


class TestVerify:
    def test_constant_instance_passes_with_zero_time(self, const_instance):
        verdict = al.verify(const_instance, delta=0.1)
        assert verdict.passed
        assert verdict.T_required == 0.0
        assert verdict.L_used == 0
        assert verdict.distance_phase_invariant < 1e-12

    def test_quench_fails(self, lz):
        verdict = al.verify(lz, delta=0.5, T_override=0.01)
        assert not verdict.passed
        # sudden quench leaves the state near Psi(0); closed form:
        # |<ground(0), ground(1)>| = 1/sqrt(2)
        expected = np.sqrt(2.0 - 2.0 / np.sqrt(2.0))
        assert verdict.distance_phase_invariant == pytest.approx(expected, abs=1e-3)

    def test_feasibility_refusal_reports_maximum(self, lz):
        with pytest.raises(FeasibilityError, match="feasible"):
            al.verify(lz, delta=0.5, T_override=1e12, step_ceiling=2**20)

    def test_feasibility_counts_the_even_rounded_step_count(self, lz):
        # T = 100.03 gives an odd ceil(8 T ||H~||) = 1,601, which evolution
        # rounds up to 1,602: a ceiling of 1,601 must be refused up front
        total_time = 100.03
        norm_H = al.verify(lz, delta=0.5, T_override=total_time).norms_shifted.norm_H
        l_start = math.ceil(8.0 * total_time * norm_H)
        assert l_start % 2 == 1
        with pytest.raises(FeasibilityError, match="feasible"):
            al.verify(lz, delta=0.5, T_override=total_time, step_ceiling=l_start)
        verdict = al.verify(lz, delta=0.5, T_override=total_time, step_ceiling=l_start + 1)
        assert verdict.L_used == l_start + 1

    def test_delta_validation(self, lz):
        with pytest.raises(DomainError):
            al.verify(lz, delta=0.0)
        with pytest.raises(DomainError):
            al.verify(lz, delta=1.5)

    def test_verdict_serialization_roundtrip(self, lz):
        verdict = al.verify(lz, delta=0.5, T_override=1.0, grid_size=257)
        payload = verdict.to_dict()
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
        inst = al.make_instance(kind) if kind == "landau_zener" else al.grover(2)
        base = al.verify(inst, delta=1.0, case=case, T_override=1.0, grid_size=257)
        t_star = base.T_required
        distances = []
        for t in (t_star / 100.0, t_star / 10.0, t_star):
            verdict = al.verify(inst, delta=1.0, case=case, T_override=t)
            distances.append(verdict.distance_phase_invariant)
        assert distances[1] <= distances[0] + 0.02
        assert distances[2] <= distances[1] + 0.02
