"""Record perfbench/reference.json from the current library.

    python3 perfbench/record_reference.py

Runs every job of every workload once at the default workload seed and
keeps what oracle.reference_entry keeps.  Re-record only when a change is
meant to alter verdicts, and say so in the change.  Refuses to record an
output that fails the schema or consistency checks.
"""

import json
import sys

import run

run.pin_threads()

import jobs  # noqa: E402
import oracle  # noqa: E402


def main() -> int:
    checker = oracle.Oracle(reference={})
    entries = {}
    for workload in jobs.WORKLOADS:
        job_list = jobs.workload_jobs(workload, jobs.DEFAULT_SEED)
        paths = jobs.prepare(job_list, run.WORK / f"reference-{workload}")
        for job, path in zip(job_list, paths):
            code, out, err = jobs.run_job(job, path)
            problems = checker.check(job, code, out)
            if problems:
                print(f"{job.key}: {problems}\n{err}", file=sys.stderr)
                return 1
            entries[job.key] = oracle.reference_entry(job, code, json.loads(out))
            print(f"{job.key}: exit {code}", flush=True)
    env = run.environment(jobs.DEFAULT_SEED, [])
    del env["jobs"]
    payload = {"recorded_with": env, "jobs": entries}
    oracle.REFERENCE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
