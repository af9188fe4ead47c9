"""Correctness oracle: decides whether one CLI job's output is right.

A job fails when it raises, returns an exit code other than 0 (pass) or
1 (claim failed), prints output that fails its schema under docs/schemas,
is inconsistent with itself or its config, or disagrees with the reference
recorded for the same inputs.  The reference holds the exit code, the
`passed` flag, the per-check pass flags by name (without the `block[k]:*`
checks, which depend on the block length Delta and so on the gap) and the
verdict distances, which must agree within the job's own `disc_tol`.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import jsonschema

from jobs import CLI_DEFAULT_GRID, SCHEMAS, Job

REFERENCE = Path(__file__).resolve().parent / "reference.json"
EXPECTED_EXIT_CODES = (0, 1)
_BLOCK_CHECK = re.compile(r"^block\[\d+\]:")
_SCHEMA_FILES = {"verify": "verdict.schema.json", "proof-check": "proof_report.schema.json"}
_DISTANCES = ("distance_phase_invariant", "distance_gauge_fixed")


def _validator(command: str) -> jsonschema.protocols.Validator:
    schema = json.loads((SCHEMAS / _SCHEMA_FILES[command]).read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def reference_entry(job: Job, code: int, payload: dict) -> dict:
    """What the reference keeps of one job's result."""
    entry = {"exit_code": code, "passed": payload["passed"]}
    if job.command == "verify":
        entry.update({name: payload[name] for name in _DISTANCES})
        entry["disc_tol"] = payload["disc_tol"]
    else:
        entry["checks"] = {
            e["name"]: e["passed"]
            for e in payload["entries"]
            if not _BLOCK_CHECK.match(e["name"])
        }
    return entry


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())["jobs"]


class Oracle:
    """Checks job outputs against the schemas and, where present, a reference."""

    def __init__(self, reference: dict | None = None):
        self.reference = load_reference() if reference is None else reference
        self.validators = {command: _validator(command) for command in _SCHEMA_FILES}

    def check(self, job: Job, code: int, stdout: str) -> list[str]:
        """Problems found in one job's result; empty when it is correct."""
        if code not in EXPECTED_EXIT_CODES:
            return [f"exit code {code}"]
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        problems = [
            f"schema: {error.message}"
            for error in self.validators[job.command].iter_errors(payload)
        ]
        if problems:
            return problems
        if (code == 0) != payload["passed"]:
            problems.append(f"exit code {code} disagrees with passed={payload['passed']}")
        if payload["config"] != job.config:
            problems.append("config echoed in the output differs from the input")
        if job.command == "verify":
            problems += _verify_consistency(job, payload)
        else:
            problems += _proof_consistency(job, payload)
        expected = self.reference.get(job.key)
        if expected is not None:
            problems += _compare(expected, reference_entry(job, code, payload))
        return problems


def _verify_consistency(job: Job, out: dict) -> list[str]:
    cfg = job.config
    problems = []
    if out["passed"] != (out["distance_phase_invariant"] <= out["delta"]):
        problems.append("passed flag disagrees with distance and delta")
    if out["distance_phase_invariant"] > out["distance_gauge_fixed"] + 1e-12:
        problems.append("phase-invariant distance exceeds the gauge-fixed distance")
    echoed = {
        "T_used": cfg["T_override"],
        "delta": cfg["delta"],
        "case": cfg["case"],
        "grid_size": cfg.get("grid_size", CLI_DEFAULT_GRID),
    }
    for name, value in echoed.items():
        if out[name] != value:
            problems.append(f"{name}={out[name]!r}, config asks for {value!r}")
    if out["L_used"] < 1:
        problems.append("no evolution step taken for a positive T")
    instance = cfg["instance"]
    if out["instance"]["name"] != instance["kind"] or any(
        out["instance"]["params"].get(k) != v for k, v in instance["params"].items()
    ):
        problems.append("instance echoed in the output differs from the config")
    return problems


def _proof_consistency(job: Job, out: dict) -> list[str]:
    cfg = job.config
    meta = out["metadata"]
    problems = []
    if out["passed"] != all(e["passed"] for e in out["entries"]):
        problems.append("passed flag disagrees with the entries")
    for name in ("L", "T", "delta"):
        if meta[name] != cfg[name]:
            problems.append(f"metadata {name}={meta[name]!r}, config asks for {cfg[name]!r}")
    n_blocks = math.ceil(meta["L"] / meta["Delta"])
    if meta["n_blocks"] != n_blocks:
        problems.append(f"n_blocks={meta['n_blocks']} but ceil(L/Delta)={n_blocks}")
    blocks = sum(bool(_BLOCK_CHECK.match(e["name"])) for e in out["entries"])
    if blocks != 4 * meta["n_blocks"]:
        problems.append(f"{blocks} block checks for {meta['n_blocks']} blocks")
    names = [e["name"] for e in out["entries"]]
    if len(set(names)) != len(names):
        problems.append("check names repeat")
    return problems


def _compare(expected: dict, got: dict) -> list[str]:
    problems = [
        f"{name}: got {got[name]!r}, reference {expected[name]!r}"
        for name in ("exit_code", "passed")
        if got[name] != expected[name]
    ]
    if "checks" in expected and got["checks"] != expected["checks"]:
        names = sorted(set(got["checks"]) | set(expected["checks"]))
        differ = [n for n in names if got["checks"].get(n) != expected["checks"].get(n)]
        problems.append(f"check flags differ from the reference: {differ}")
    for name in _DISTANCES:
        if name in expected and abs(got[name] - expected[name]) > expected["disc_tol"]:
            problems.append(
                f"{name}={got[name]!r} is more than disc_tol={expected['disc_tol']!r} "
                f"from the reference {expected[name]!r}"
            )
    return problems
