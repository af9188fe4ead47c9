"""adialab benchmark: run one workload's CLI jobs, check them, print metrics.

    python3 perfbench/run.py --workload verify-evolve --seed 1 --seconds 35 --trace 0

Workloads (job lists in jobs.py, reasons in NOTES.md): verify-evolve,
verify-bound, proofcheck.  Every job is an `adialab.cli.main` call made in
this process.  Small warm-up jobs run once, untimed.  A pass runs the
workload's whole job list; passes repeat until `--seconds` would be
exceeded (at least one, two with tracing).  Every output is checked by
oracle.py.

The calibration kernel of calibrate.py runs before and after every job.
Each job time is divided by the host's speed factor measured around it,
so it reads as the time at the reference host speed; the set-up time is
divided by the run's median factor.  The raw wall times are printed
above the result and kept in the result record.

With `--trace 0` the last line reports the end-to-end metrics: `pass_s`
(median over passes of the scaled seconds per pass; quartiles and pass
count are printed above it), `setup_s` (median over fresh interpreters of
the scaled time from process start to the first job ready) and
`peak_rss_mb` (peak resident memory of this process).

With `--trace 1` passes alternate untraced and traced, and the last line
reports the per-layer metrics of tracer.py plus `trace.overhead_s`, the
median traced minus the median untraced scaled pass time.  The fail ratio
is `failed / attempted` of the last line.

BLAS and OpenMP are pinned to one thread before numpy loads.  Configs,
result records and span dumps go to perfbench/_work/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
WORKLOADS = ("verify-evolve", "verify-bound", "proofcheck")
SETUP_LAUNCHES = 5
WARMUP_KERNELS = 3  # the first calibration kernel runs pay numpy's lazy set-up
BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_TIMEOUT_S = 60

END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# name -> unit; the module `_linalg` is reported as `linalg`
PER_LAYER = {
    "linalg.expm_i_hermitian.self_s": "s",
    "linalg.expm_i_hermitian.matrices": "count",
    "linalg.ordered_product.self_s": "s",
    "linalg.ordered_product.matrices": "count",
    "linalg.ordered_product.flops": "flop",
    "hamiltonians.eval_batch.self_s": "s",
    "hamiltonians.eval_batch.calls": "count",
    "hamiltonians.eval_batch.matrices": "count",
    "evolution.evolve_discrete.self_s": "s",
    "evolution.evolve_discrete.steps": "count",
    "evolution.evolve_adaptive.calls": "count",
    "evolution.evolve_adaptive.useful_step_ratio": "ratio",
    "spectral.track_eigenpath.self_s": "s",
    "spectral.track_eigenpath.calls": "count",
    "spectral.track_eigenpath.points": "count",
    "hamiltonians.derivative.self_s": "s",
    "hamiltonians.derivative.calls": "count",
    "hamiltonians.norm_bundle.self_s": "s",
    "hamiltonians.norm_bundle.calls": "count",
    "linalg.opnorm_hermitian.self_s": "s",
    "linalg.opnorm_hermitian.matrices": "count",
    "linalg.opnorm.self_s": "s",
    "proofcheck.check_block_cancellation.self_s": "s",
    "proofcheck.check_block_cancellation.calls": "count",
    "proofcheck.total_error_vector.self_s": "s",
    "proofcheck.check_error_vector_taylor.self_s": "s",
    "proofcheck.check_error_vector_norm.self_s": "s",
    "proofcheck.check_error_vector_drift.self_s": "s",
    "proofcheck.check_step_unitary_drift.self_s": "s",
    "proofcheck.run_proofcheck.self_s": "s",
    "theorem.verify.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to first job ready, in fresh interpreters.

    Call it after this process has imported the same modules: that import
    compiles the bytecode and fills the file cache, which a user's repeated
    runs do not pay either.
    """
    launches = []
    for launch in range(SETUP_LAUNCHES):
        workdir = WORK / f"probe-{workload}-{launch}"
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(workdir)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        launches.append(float(proc.stdout.strip().splitlines()[-1]) - started)
    return launches


def _git_commit() -> str:
    """Commit checked out at ROOT, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int, job_list) -> dict:
    import numpy
    import scipy

    import adialab

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "adialab": adialab.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "workload_seed": seed,
        "jobs": [job.describe() for job in job_list],
    }


def run_pass(jobs, job_list, paths, pass_id, tracer=None) -> dict:
    """One pass over the job list; returns its times and raw results.

    The calibration kernel runs before the first job and after every job,
    outside the job times.  ``wall_s`` is the sum of the job times and
    ``pass_s`` the sum of each job time divided by the speed factor
    measured around it.
    """
    import calibrate  # loads numpy: only after pin_threads

    results, job_seconds, scaled = [], [], []
    kernel = [calibrate.kernel_seconds()]
    for j, (job, path) in enumerate(zip(job_list, paths)):
        if tracer is not None:
            tracer.job = f"p{pass_id}:j{j}"
        t0 = time.perf_counter()
        try:
            results.append(jobs.run_job(job, path))
        except (Exception, SystemExit):  # a raising job is a failed job
            results.append((None, "", traceback.format_exc()))
        job_seconds.append(time.perf_counter() - t0)
        kernel.append(calibrate.kernel_seconds())
        scaled.append(job_seconds[-1] / calibrate.speed_factor(kernel[-2], kernel[-1]))
    return {"pass": pass_id, "traced": tracer is not None,
            "wall_s": sum(job_seconds), "pass_s": sum(scaled),
            "job_s": job_seconds, "kernel_s": kernel, "results": results}


def run_passes(jobs, checker, job_list, paths, seconds, tracer=None):
    """Run and check passes while the next one should end within ``seconds``.

    With a tracer, odd passes are traced, and a traced job whose output
    differs from its output in pass 0 counts as failed.  Returns the pass
    records (without outputs) and the problems found.
    """
    min_passes = 1 if tracer is None else 2
    passes, problems, untraced_outputs = [], [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or (
        time.perf_counter() + statistics.median(p["elapsed_s"] for p in passes)
        <= deadline
    ):
        begun = time.perf_counter()
        pass_id = len(passes)
        traced = tracer is not None and pass_id % 2 == 1
        gc.collect()  # garbage of the previous pass is not this pass's cost
        if traced:
            with tracer:
                record = run_pass(jobs, job_list, paths, pass_id, tracer)
        else:
            record = run_pass(jobs, job_list, paths, pass_id)
        outputs = record.pop("results")
        if pass_id == 0 and tracer is not None:
            untraced_outputs = [out for _, out, _ in outputs]
        for j, (job, (code, out, err)) in enumerate(zip(job_list, outputs)):
            found = checker.check(job, code, out) if code is not None else ["raised"]
            if traced and out != untraced_outputs[j]:
                found.append("traced output differs from the untraced output")
            if found:
                problems.append({"pass": pass_id, "job": job.label,
                                 "problems": found, "stderr": err[-2000:]})
        record["failed"] = sum(1 for p in problems if p["pass"] == pass_id)
        record["elapsed_s"] = time.perf_counter() - begun
        passes.append(record)
    return passes, problems


def pin_threads() -> None:
    """Pin BLAS and OpenMP threads; takes effect only before numpy loads."""
    for variable in THREAD_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)


def main(argv=None) -> int:
    pin_threads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")

    if not (ROOT / "src" / "adialab" / "__init__.py").is_file():
        print(f"perfbench: no adialab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # imported only now: they load numpy, which reads the pinned threads
    import calibrate
    import jobs
    import oracle
    import tracer as tracing

    job_list = jobs.workload_jobs(args.workload, args.seed)
    paths = jobs.prepare(job_list, WORK / f"{args.workload}-s{args.seed}")
    for _ in range(WARMUP_KERNELS):
        calibrate.kernel_seconds()
    warmup = jobs.warmup_jobs()
    for job, path in zip(warmup, jobs.prepare(warmup, WORK / "warmup")):
        jobs.run_job(job, path)
    launches = [] if args.trace else measure_setup(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    passes, problems = run_passes(
        jobs, oracle.Oracle(), job_list, paths, args.seconds, tracer
    )

    attempted = len(passes) * len(job_list)
    failed = len(problems)
    untraced = [p for p in passes if not p["traced"]]
    pass_q = _quartiles([p["pass_s"] for p in untraced])
    wall_q = _quartiles([p["wall_s"] for p in untraced])
    # The run's host speed factor also scales the set-up time: a kernel run
    # right after a launch finds the caches cold and overstates the factor.
    run_factor = statistics.median(p["wall_s"] / p["pass_s"] for p in untraced)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} jobs/pass={len(job_list)}")
    print(f"pass_s {pass_q[1]:.4f} s at the reference host speed (median of "
          f"{len(untraced)} untraced passes; quartiles {pass_q[0]:.4f} .. {pass_q[2]:.4f})")
    print(f"  raw wall time {wall_q[1]:.4f} s (quartiles {wall_q[0]:.4f} .. {wall_q[2]:.4f}); "
          f"host speed factor {run_factor:.3f} (median over passes)")
    if launches:
        raw_q = _quartiles(launches)
        setup_s = raw_q[1] / run_factor
        print(f"setup_s {setup_s:.4f} s scaled by the same factor (median of {len(launches)} "
              f"launches; raw {raw_q[1]:.4f} s, quartiles {raw_q[0]:.4f} .. {raw_q[2]:.4f})")
    print(f"peak_rss_mb {rss_mb:.1f} MB")
    print(f"fail_ratio {failed / attempted:.4f} ratio ({failed} of {attempted} jobs)")
    for p in problems[:10]:
        print(f"FAILED pass {p['pass']} {p['job']}: {'; '.join(p['problems'][:3])}")

    if args.trace:
        metrics = layer_metrics(tracer, passes)
        tracer.dump(WORK / f"spans-{args.workload}-s{args.seed}.json")
        print_breakdown(metrics, passes)
    else:
        values = {"pass_s": pass_q[1], "setup_s": setup_s, "peak_rss_mb": rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    env = environment(args.seed, job_list)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env,
        "setup_launch_s": launches, "run_speed_factor": run_factor,
        "passes": passes,
        "problems": problems, "metrics": metrics,
    }
    WORK.mkdir(parents=True, exist_ok=True)
    result_path = WORK / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(tracer, passes) -> dict:
    """Per-layer metrics: median self time over traced passes, counts of one.

    Counts are the same in every traced pass of unchanged code; a pass
    that disagrees is reported on stdout.
    """
    traced = [p for p in passes if p["traced"]]
    totals = [tracer.layer_totals(f"p{p['pass']}:") for p in traced]
    values = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        column = [t[name] for t in totals]
        if column[0] is None:
            values[name] = None
        elif name.endswith("self_s"):
            values[name] = statistics.median(column)
        else:
            if any(c != column[0] for c in column):
                print(f"COUNT MISMATCH {name}: {column}")
            values[name] = column[0]
    values["trace.overhead_s"] = (
        statistics.median(p["pass_s"] for p in traced)
        - statistics.median(p["pass_s"] for p in passes if not p["traced"])
    )
    if tracer.missing or tracer.missing_stats:
        print(f"MISSING layer functions {tracer.missing} stats {tracer.missing_stats}")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def print_breakdown(metrics, passes) -> None:
    """Self-time share of each layer function in the median traced pass."""
    traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
    rows = [
        (name[: -len(".self_s")], m["value"])
        for name, m in metrics.items()
        if name.endswith(".self_s") and m["value"] is not None
    ]
    print(f"traced pass {traced_wall:.3f} s; self time by layer function:")
    for name, value in sorted(rows, key=lambda r: -r[1]):
        print(f"  {name:42s} {value:9.4f} s {100.0 * value / traced_wall:6.1f}%")


if __name__ == "__main__":
    sys.exit(main())
