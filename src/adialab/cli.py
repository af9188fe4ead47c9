"""Batch experiment runner over the library.

Subcommands: verify, sweep, gap-scan, proof-check, simulate.  verify,
sweep and proof-check run in the space of the instance's ``zero_frame``
(its ``evolved_dim``); gap-scan and simulate track the full space.  Runs
are described by a JSON config file; unknown fields are rejected with the
offending field named, every field is type-checked (an integer is accepted
where a number is expected, never a string or a boolean), and syntax errors
carry line/column positions.

Exit codes: 0 = pass, 1 = claim failed, 2 = configuration error,
3 = numerical or feasibility error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import (
    AdialabError,
    ConfigError,
    DomainError,
    FeasibilityError,
    NumericalError,
)
from .evolution import (
    DEFAULT_STEP_CEILING,
    EvolutionConfig,
    distance_phase_invariant,
    evolve_discrete,
)
from .hamiltonians import TimeDependentHamiltonian
from .problems import InstanceSpec
from .proofcheck import run_proofcheck
from .spectral import DEFAULT_GRID, track_eigenpath
from .theorem import verify, zero_frame

EXIT_PASS = 0
EXIT_CLAIM_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_NUMBER = (int, float)

_ALLOWED_KEYS = {
    "verify": {"instance", "delta", "case", "T_override", "grid_size", "disc_tol",
               "step_ceiling"},
    "sweep": {"instance", "delta", "case", "T_values", "grid_size", "disc_tol",
              "step_ceiling"},
    "gap-scan": {"instance", "grid_size"},
    "proof-check": {"instance", "delta", "L", "T"},
    "simulate": {"instance", "T", "L", "snapshot_stride", "grid_size"},
}

_REQUIRED_KEYS = {
    "verify": {"instance", "delta"},
    "sweep": {"instance", "delta", "T_values"},
    "gap-scan": {"instance"},
    "proof-check": {"instance", "delta", "L"},
    "simulate": {"instance", "T", "L"},
}


def _load_config(path: str, command: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    allowed = _ALLOWED_KEYS[command]
    for key in data:
        if key not in allowed:
            raise ConfigError(
                f"{path}: unknown field {key!r} for command {command!r}; "
                f"allowed: {sorted(allowed)}"
            )
    missing = _REQUIRED_KEYS[command] - set(data)
    if missing:
        raise ConfigError(
            f"{path}: missing required field(s) {sorted(missing)} "
            f"for command {command!r}"
        )
    return data


def _expect(data: dict, key: str, kinds, default=None):
    if key not in data:
        return default
    value = data[key]
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ConfigError(
            f"field {key!r} has type {type(value).__name__}, "
            f"expected {'/'.join(k.__name__ for k in kinds)}"
        )
    return value


def _build_instance(data: dict) -> TimeDependentHamiltonian:
    raw = data["instance"]
    if not isinstance(raw, dict):
        raise ConfigError("field 'instance' must be an object")
    unknown = set(raw) - {"kind", "params"}
    if unknown:
        raise ConfigError(f"field 'instance': unknown sub-field(s) {sorted(unknown)}")
    if "kind" not in raw or not isinstance(raw["kind"], str):
        raise ConfigError("field 'instance.kind' must be a string")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("field 'instance.params' must be an object")
    try:
        return InstanceSpec(raw["kind"], params).build()
    except DomainError as exc:
        raise ConfigError(str(exc)) from None


def _dump_json(payload: dict) -> str:
    # compact, so json takes its C encoder
    return json.dumps(payload, sort_keys=True) + "\n"


def _write(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as handle:
            handle.write(text)


def _csv(header: str, rows: list[str]) -> str:
    return "\n".join([header] + rows) + "\n"


def cmd_verify(args) -> int:
    data = _load_config(args.config, "verify")
    if args.format == "csv":
        raise ConfigError("verify emits a JSON verdict; use --format json")
    h = _build_instance(data)
    t_override = _expect(data, "T_override", _NUMBER)
    options = _verify_options(data)
    frame = zero_frame(h, options.pop("grid_size"))
    verdict = verify(frame, T_override=t_override, **options)
    payload = verdict.to_dict()
    payload["config"] = data
    _write(args.out, _dump_json(payload))
    return EXIT_PASS if verdict.passed else EXIT_CLAIM_FAILED


def _verify_options(data: dict) -> dict:
    """The options that verify and sweep configs share: the frame's
    grid_size and the `verify` keyword arguments."""
    return {
        "delta": float(_expect(data, "delta", _NUMBER)),
        "case": _expect(data, "case", str, "general"),
        "grid_size": _expect(data, "grid_size", int, DEFAULT_GRID),
        "disc_tol": _expect(data, "disc_tol", _NUMBER),
        "step_ceiling": _expect(data, "step_ceiling", int, DEFAULT_STEP_CEILING),
    }


def cmd_sweep(args) -> int:
    data = _load_config(args.config, "sweep")
    t_values = data["T_values"]
    if not isinstance(t_values, list) or not t_values:
        raise ConfigError("field 'T_values' must be a nonempty list of numbers")
    for i, value in enumerate(t_values):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"field 'T_values[{i}]' must be a number")
    options = _verify_options(data)
    frame = zero_frame(_build_instance(data), options.pop("grid_size"))
    verdicts = [verify(frame, T_override=float(t), **options) for t in t_values]

    if args.format == "json":
        payload = {
            "config": data,
            "rows": [
                {
                    "T": v.T_used,
                    "L_used": v.L_used,
                    "evolved_dim": v.evolved_dim,
                    "dist_phase_inv": v.distance_phase_invariant,
                    "dist_gauge": v.distance_gauge_fixed,
                }
                for v in verdicts
            ],
        }
        _write(args.out, _dump_json(payload))
    else:
        rows = [
            f"{v.T_used!r},{v.L_used},{v.evolved_dim},"
            f"{v.distance_phase_invariant!r},{v.distance_gauge_fixed!r}"
            for v in verdicts
        ]
        _write(args.out, _csv("T,L_used,evolved_dim,dist_phase_inv,dist_gauge", rows))
    return EXIT_PASS


def cmd_gap_scan(args) -> int:
    data = _load_config(args.config, "gap-scan")
    h = _build_instance(data)
    grid_size = _expect(data, "grid_size", int, DEFAULT_GRID)
    path = track_eigenpath(h, grid_size)
    if args.format == "json":
        payload = {
            "grid": path.grid.tolist(),
            "gap_values": path.gap_values.tolist(),
            "lambda_min": path.gap,
            "argmin_s": float(path.grid[path.gap_values.argmin()]),
            "gammas": path.gammas.tolist(),
            "config": data,
        }
        _write(args.out, _dump_json(payload))
    else:
        rows = [
            f"{s!r},{g!r},{gap!r}"
            for s, g, gap in zip(
                path.grid.tolist(), path.gammas.tolist(), path.gap_values.tolist()
            )
        ]
        _write(args.out, _csv("s,gamma,gap", rows))
    return EXIT_PASS


def cmd_proof_check(args) -> int:
    data = _load_config(args.config, "proof-check")
    report = run_proofcheck(
        _build_instance(data),
        L=_expect(data, "L", int),
        delta=float(_expect(data, "delta", _NUMBER)),
        total_time=_expect(data, "T", _NUMBER),
    )
    payload = report.to_dict()
    payload["config"] = data
    json_text = _dump_json(payload)
    csv_text = "\n".join(report.csv_rows()) + "\n"
    if args.out is not None:
        # the full report ships as both JSON and a CSV table
        _write(args.out + ".json", json_text)
        _write(args.out + ".csv", csv_text)
        sys.stdout.write(f"wrote {args.out}.json and {args.out}.csv\n")
    else:
        _write(None, csv_text if args.format == "csv" else json_text)
    return EXIT_PASS if report.passed else EXIT_CLAIM_FAILED


def cmd_simulate(args) -> int:
    data = _load_config(args.config, "simulate")
    if args.format == "json":
        raise ConfigError("simulate emits CSV snapshots; use --format csv")
    h = _build_instance(data)
    total_time = float(_expect(data, "T", _NUMBER))
    steps = _expect(data, "L", int)
    stride = _expect(data, "snapshot_stride", int, max(1, steps // 100))
    cfg = EvolutionConfig(total_time, steps, snapshot_stride=stride)
    # the snapshots (multiples of the stride, and L) lie at s = step/L, all
    # of them points of a grid of N + 1 when L / gcd(L, stride) divides N
    period = steps // math.gcd(steps, stride)
    fitting = -(-(DEFAULT_GRID - 1) // period) * period
    grid_size = _expect(data, "grid_size", int, fitting + 1)
    cells = grid_size - 1
    if cells % period:
        fits = -(-max(cells, 1) // period) * period + 1
        raise ConfigError(f"grid_size {grid_size} misses a snapshot; {fits} holds all")

    path = track_eigenpath(h, grid_size)
    result = evolve_discrete(h, path.states[0], cfg)
    rows = []
    for step, state in result.snapshots:
        idx = step * cells // steps
        dist = distance_phase_invariant(state, path.states[idx])
        rows.append(f"{step},{step / steps!r},{dist!r},{float(path.gammas[idx])!r}")
    _write(args.out, _csv("step,s,distance_to_path,gamma", rows))
    return EXIT_PASS


_COMMANDS = {
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "gap-scan": cmd_gap_scan,
    "proof-check": cmd_proof_check,
    "simulate": cmd_simulate,
}

_DEFAULT_FORMAT = {
    "verify": "json",
    "sweep": "csv",
    "gap-scan": "csv",
    "proof-check": "json",
    "simulate": "csv",
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adialab",
        description="Adiabatic runtime-bound laboratory: batch experiment runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.format is None:
        args.format = _DEFAULT_FORMAT[args.command]
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FeasibilityError, NumericalError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except AdialabError as exc:  # residual library failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
