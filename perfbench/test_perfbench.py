"""Tests of the benchmark itself: the tracer, the oracle and BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench

They run small jobs, not the workloads, so they take a few seconds.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import jobs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

import adialab  # noqa: E402
from adialab import cli, spectral, theorem  # noqa: E402

COUNT_STATS = ("calls", "matrices", "steps", "points", "flops")
SMALL_JOBS = [
    jobs.verify_job(jobs.instance("landau_zener"), 100.0),
    jobs.verify_job(jobs.instance("random_interpolation", dim=4, seed=3), 20.0),
    jobs.proof_check_job(jobs.instance("grover", n=2), 2048, 1.0, 500.0),
]


@pytest.fixture(scope="module")
def small_paths():
    return jobs.prepare(SMALL_JOBS, run.WORK / "test-configs")


def _run_all(paths, tracer=None, pass_id=0):
    outputs = []
    for j, (job, path) in enumerate(zip(SMALL_JOBS, paths)):
        if tracer is not None:
            tracer.job = f"p{pass_id}:j{j}"
        outputs.append(jobs.run_job(job, path)[:2])
    return outputs


def test_every_layer_function_resolves_and_is_restored():
    with tracing.Tracer() as tracer:
        assert tracer.missing == []
        assert tracer.missing_stats == []
        bindings = tracer.bindings
        assert "adialab.theorem.track_eigenpath" in bindings["spectral.track_eigenpath"]
        assert "adialab.proofcheck.track_eigenpath" in bindings["spectral.track_eigenpath"]
        assert "adialab.cli.verify" in bindings["theorem.verify"]
        assert "adialab.evolution.expm_i_hermitian" in bindings["_linalg.expm_i_hermitian"]
        assert hasattr(theorem.track_eigenpath, "__wrapped__")
    assert theorem.track_eigenpath is spectral.track_eigenpath
    assert not hasattr(spectral.track_eigenpath, "__wrapped__")
    assert not hasattr(cli.main, "__wrapped__")


def test_traced_counts_repeat_and_outputs_match_untraced(small_paths):
    untraced = _run_all(small_paths)
    tracer = tracing.Tracer()
    with tracer:
        first = _run_all(small_paths, tracer, 0)
        second = _run_all(small_paths, tracer, 1)
    assert first == untraced
    assert second == untraced
    assert all(code in (0, 1) for code, _ in untraced)

    totals = [tracer.layer_totals("p0:"), tracer.layer_totals("p1:")]
    counts = [
        {k: v for k, v in t.items() if k.rsplit(".", 1)[1] in COUNT_STATS}
        for t in totals
    ]
    assert counts[0] == counts[1]
    assert counts[0]["evolution.evolve_adaptive.calls"] == 2
    assert counts[0]["proofcheck.run_proofcheck.calls"] == 1
    assert counts[0]["linalg.ordered_product.flops"] > 0
    assert all(v is not None for t in totals for v in t.values())


def test_missing_function_and_argument_are_null_not_zero(small_paths):
    functions = {
        "_linalg.no_such_function": {},
        "evolution.evolve_discrete": {"steps": ("no_such_argument", int)},
        "evolution.evolve_adaptive": {},
    }
    tracer = tracing.Tracer(functions)
    with tracer:
        _run_all(small_paths[:1], tracer)
    assert tracer.missing == ["_linalg.no_such_function"]
    totals = tracer.layer_totals()
    assert totals["linalg.no_such_function.calls"] is None
    assert totals["linalg.no_such_function.self_s"] is None
    assert totals["evolution.evolve_discrete.steps"] is None
    assert totals["evolution.evolve_discrete.calls"] > 0
    assert totals["evolution.evolve_adaptive.useful_step_ratio"] is None


def test_oracle_accepts_good_output_and_flags_bad(small_paths):
    job, path = SMALL_JOBS[0], small_paths[0]
    code, out, _ = jobs.run_job(job, path)
    payload = json.loads(out)
    reference = {job.key: oracle.reference_entry(job, code, payload)}
    checker = oracle.Oracle(reference)
    assert checker.check(job, code, out) == []

    def problems(mutate, exit_code=code):
        bad = copy.deepcopy(payload)
        mutate(bad)
        return checker.check(job, exit_code, json.dumps(bad))

    assert problems(lambda p: None, exit_code=3) == ["exit code 3"]
    assert problems(lambda p: p.pop("lambda"))[0].startswith("schema:")
    assert problems(lambda p: p.update(passed=not p["passed"]))
    assert problems(lambda p: p.update(T_used=1.0))
    moved = payload["distance_phase_invariant"] + 2 * payload["disc_tol"]
    assert problems(lambda p: p.update(
        distance_phase_invariant=moved, distance_gauge_fixed=moved
    ))
    assert checker.check(job, code, "not json")


def test_oracle_flags_a_changed_check_flag(small_paths):
    job, path = SMALL_JOBS[2], small_paths[2]
    code, out, _ = jobs.run_job(job, path)
    payload = json.loads(out)
    reference = {job.key: oracle.reference_entry(job, code, payload)}
    checker = oracle.Oracle(reference)
    assert checker.check(job, code, out) == []
    bad = copy.deepcopy(payload)
    entry = next(e for e in bad["entries"] if e["name"] == "gauge_residual")
    entry["passed"] = not entry["passed"]
    assert checker.check(job, code, json.dumps(bad))


def test_reference_covers_every_job_of_the_default_seed():
    reference = oracle.load_reference()
    for workload in jobs.WORKLOADS:
        for job in jobs.workload_jobs(workload, jobs.DEFAULT_SEED):
            assert job.key in reference


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((jobs.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert list(run.WORKLOADS) == list(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    per_layer = tracing.Tracer().layer_totals()
    for name in run.PER_LAYER:
        assert name == "trace.overhead_s" or name in per_layer


def test_pass_times_are_scaled_by_the_kernel_around_each_job(small_paths):
    record = run.run_pass(jobs, SMALL_JOBS, small_paths, 0)
    assert len(record["kernel_s"]) == len(SMALL_JOBS) + 1
    assert record["wall_s"] == sum(record["job_s"])
    factors = [
        calibrate.speed_factor(a, b)
        for a, b in zip(record["kernel_s"], record["kernel_s"][1:])
    ]
    assert record["pass_s"] == pytest.approx(
        sum(t / f for t, f in zip(record["job_s"], factors))
    )
    assert calibrate.speed_factor(calibrate.REFERENCE_S, calibrate.REFERENCE_S) == 1.0


def test_library_version_is_recorded():
    env = run.environment(5, jobs.workload_jobs("verify-bound", 5))
    assert env["adialab"] == adialab.__version__
    assert env["workload_seed"] == 5
    assert [j["grid"] for j in env["jobs"]] == [4097, 4097]
