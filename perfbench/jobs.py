"""Workload definitions: the fixed job list of each workload.

Every job is one `adialab` CLI call (`verify` or `proof-check`) described by
the JSON config the CLI reads.  The evolution time T is pinned in every
config, so the amount of work does not move when a later change alters how
the gap or the bound is estimated.  The workload seed S only chooses the
seeds of the `random_interpolation` instances.

Importing this module imports `adialab.cli` (and with it numpy and scipy)
from the `src` directory next to this one; that import is part of the
set-up time the benchmark reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMAS = ROOT / "docs" / "schemas"

if not (SRC / "adialab" / "__init__.py").is_file():
    raise ImportError(f"adialab sources not found under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from adialab import cli  # noqa: E402
from adialab.problems import InstanceSpec  # noqa: E402

WORKLOADS = ("verify-evolve", "verify-bound", "proofcheck")
DEFAULT_SEED = 1

# verify(landau_zener, delta=1, case="special").T_required at the commit
# that defined this benchmark; pinned so a new gap estimate keeps the work.
LZ_SPECIAL_BOUND = 3517.7669463760512
# T chosen by run_proofcheck(landau_zener, L=65536, delta=0.5) at that commit.
LZ_PROOFCHECK_BOUND = 14071.067811862766

# defaults the CLI applies when a config leaves the field out
CLI_DEFAULT_GRID = 1025


@dataclass(frozen=True)
class Job:
    """One CLI call: subcommand plus the config it reads."""

    label: str
    command: str
    config: dict

    @property
    def key(self) -> str:
        """Identifier of the inputs, used to look the job up in the reference."""
        return f"{self.command}:{self.label}"

    def describe(self) -> dict:
        """T, L, delta and grid of the job, for the environment record."""
        c = self.config
        if self.command == "verify":
            T, L = c["T_override"], None
        else:
            T, L = c["T"], c["L"]
        return {
            "job": self.label,
            "command": self.command,
            "T": T,
            "L": L,
            "delta": c["delta"],
            "grid": c.get("grid_size", CLI_DEFAULT_GRID),
        }


def instance(kind: str, **params) -> dict:
    """The `instance` field of a config."""
    return {"kind": kind, "params": params}


def _label(spec: dict) -> str:
    params = ",".join(f"{k}={v}" for k, v in sorted(spec["params"].items()))
    return f"{spec['kind']}({params})"


def verify_job(spec: dict, T: float, **extra) -> Job:
    """`verify` at delta = 1 in the zero-eigenvalue frame, for time T."""
    config = {"instance": spec, "delta": 1, "case": "special", "T_override": T}
    config.update(extra)
    return Job(f"{_label(spec)}@T={T!r}", "verify", config)


def proof_check_job(spec: dict, L: int, delta: float, T: float) -> Job:
    """`proof-check` with L steps, delta and time T."""
    config = {"instance": spec, "delta": delta, "L": L, "T": T}
    return Job(f"{_label(spec)}@L={L},T={T!r}", "proof-check", config)


def workload_jobs(workload: str, seed: int = DEFAULT_SEED) -> list[Job]:
    """The fixed job list of ``workload`` for workload seed ``seed``."""
    if workload == "verify-evolve":
        return [
            verify_job(instance("landau_zener"), LZ_SPECIAL_BOUND),
            verify_job(instance("grover", n=2), 2e4),
            verify_job(instance("grover", n=3), 2e3),
            verify_job(instance("random_interpolation", dim=8, seed=seed), 200.0),
            verify_job(instance("random_interpolation", dim=16, seed=seed), 50.0),
        ]
    if workload == "verify-bound":
        return [
            verify_job(
                instance("random_interpolation", dim=32, seed=seed), 1.0,
                grid_size=4097,
            ),
            verify_job(instance("grover", n=5), 1.0, grid_size=4097),
        ]
    if workload == "proofcheck":
        return [
            proof_check_job(instance("landau_zener"), 65536, 0.5, LZ_PROOFCHECK_BOUND),
            proof_check_job(instance("grover", n=2), 32768, 1.0, 5000.0),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def warmup_jobs() -> list[Job]:
    """Small jobs of both subcommands, run once before timing starts.

    They load the code paths and library caches that the first timed
    pass would otherwise pay for; their outputs are not checked.
    """
    return [
        verify_job(instance("landau_zener"), 100.0),
        verify_job(instance("random_interpolation", dim=4, seed=0), 20.0),
        proof_check_job(instance("grover", n=2), 2048, 1.0, 500.0),
    ]


def prepare(jobs: list[Job], workdir: Path) -> list[Path]:
    """Write each job's config and build its instance; returns config paths."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, job in enumerate(jobs):
        path = workdir / f"job{i}-{job.command}.json"
        path.write_text(json.dumps(job.config, indent=2) + "\n")
        raw = job.config["instance"]
        InstanceSpec(raw["kind"], raw["params"]).build()
        paths.append(path)
    return paths


def run_job(job: Job, config_path: Path) -> tuple[int, str, str]:
    """Run one CLI call in this process; returns (exit code, stdout, stderr).

    ``cli.main`` is looked up at call time so an installed tracer sees it.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([job.command, "--config", str(config_path)])
    return code, out.getvalue(), err.getvalue()
