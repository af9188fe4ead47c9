"""Set-up probe, run in a fresh interpreter by run.py.

Imports adialab (with numpy and scipy), writes the workload's job configs
and builds its instances, then prints `time.monotonic()`: the moment the
first job is ready.  The launcher subtracts the time it started this
process.

    python3 perfbench/probe.py <workload> <seed> <workdir>
"""

import sys
import time
from pathlib import Path


def main() -> None:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    import jobs

    jobs.prepare(jobs.workload_jobs(workload, seed), workdir)
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main()
