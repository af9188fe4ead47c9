"""Every job of the benchmark's three workloads, run through ``cli.main``,
gives an output its correctness oracle accepts: the exit code, the schema,
the check flags other than the per-block ones, and the distances within
``disc_tol`` of ``perfbench/reference.json``.  A change that would make
the benchmark reject its outputs as incorrect fails here first.

Only ``perfbench/jobs.py`` and ``perfbench/oracle.py`` are imported, and
the configs are written under the test's temporary directory.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import jobs  # noqa: E402
import oracle  # noqa: E402

JOBS = [job for workload in jobs.WORKLOADS for job in jobs.workload_jobs(workload)]


@pytest.fixture(scope="module")
def checker():
    return oracle.Oracle()


@pytest.mark.parametrize("job", JOBS, ids=[job.key for job in JOBS])
def test_benchmark_output_passes_the_oracle(job, checker, tmp_path):
    assert job.key in checker.reference
    [config] = jobs.prepare([job], tmp_path)
    code, out, err = jobs.run_job(job, config)
    assert checker.check(job, code, out) == [], err
