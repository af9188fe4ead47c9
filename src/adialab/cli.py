"""Batch experiment runner over the library.

Subcommands: verify, sweep, gap-scan, proof-check, simulate.  verify,
sweep and proof-check run in the space of the instance's ``zero_frame``
(its ``evolved_dim``); gap-scan and simulate track the full space.  Runs
are described by a JSON config file.  Each command's handler, default
``--format`` and config fields, with every field's accepted types and its
default, live in one table, ``_COMMANDS``.  Unknown fields are rejected
with the offending field named, every field is type-checked (an integer is
accepted where a number is expected, never a string or a boolean), and
syntax errors carry line/column positions.

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
from .problems import InstanceSpec
from .proofcheck import run_proofcheck
from .spectral import DEFAULT_GRID, track_eigenpath
from .theorem import verify, zero_frame

EXIT_PASS = 0
EXIT_CLAIM_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_NUMBER = (int, float)
_FLOAT_MAX = sys.float_info.max  # NaN, infinities and larger ints fail <= it
_REQUIRED = object()  # the default of a field every config must give


def _load_config(path: str, command: str) -> tuple[dict, dict]:
    """The config at ``path`` checked against ``command``'s fields: the raw
    config, echoed in every output, and each field's value with the
    defaults of the fields it leaves out filled in."""
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
    fields = _COMMANDS[command][2]
    for key in data:
        if key not in fields:
            raise ConfigError(
                f"{path}: unknown field {key!r} for command {command!r}; "
                f"allowed: {sorted(fields)}"
            )
    missing = [k for k, (_, default) in fields.items()
               if default is _REQUIRED and k not in data]
    if missing:
        raise ConfigError(
            f"{path}: missing required field(s) {sorted(missing)} "
            f"for command {command!r}"
        )
    for key, value in data.items():
        _check(key, value, fields[key][0])
    return data, {k: data.get(k, default) for k, (_, default) in fields.items()}


def _check(key: str, value, rule) -> None:
    """Refuse ``value`` unless it passes ``rule``: a tuple of accepted types,
    which no bool passes, or a function that checks the value itself.  A
    number must also be finite as a float (a JSON integer may overflow it)."""
    if not isinstance(rule, tuple):
        rule(value)
    elif not isinstance(value, rule) or isinstance(value, bool):
        raise ConfigError(
            f"field {key!r} has type {type(value).__name__}, "
            f"expected {'/'.join(k.__name__ for k in rule)}"
        )
    elif rule is _NUMBER and not abs(value) <= _FLOAT_MAX:
        raise ConfigError(f"field {key!r} must be a finite number, got {value!r}")


def _instance(raw) -> None:
    if not isinstance(raw, dict):
        raise ConfigError("field 'instance' must be an object")
    unknown = set(raw) - {"kind", "params"}
    if unknown:
        raise ConfigError(f"field 'instance': unknown sub-field(s) {sorted(unknown)}")
    if not isinstance(raw.get("kind"), str):
        raise ConfigError("field 'instance.kind' must be a string")
    if not isinstance(raw.get("params", {}), dict):
        raise ConfigError("field 'instance.params' must be an object")


def _times(values) -> None:
    if not isinstance(values, list) or not values:
        raise ConfigError("field 'T_values' must be a nonempty list of numbers")
    for i, t in enumerate(values):
        number = isinstance(t, _NUMBER) and not isinstance(t, bool)
        if not (number and 0 <= t <= _FLOAT_MAX):
            raise ConfigError(
                f"field 'T_values[{i}]' must be a finite number >= 0, got {t!r}"
            )


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


def cmd_verify(args, data: dict, cfg: dict) -> int:
    if args.format == "csv":
        raise ConfigError("verify emits a JSON verdict; use --format json")
    (verdict,) = _verdicts(cfg, [cfg["T_override"]])
    payload = verdict.to_dict()
    payload["config"] = data
    _write(args.out, _dump_json(payload))
    return EXIT_PASS if verdict.passed else EXIT_CLAIM_FAILED


def _verdicts(cfg: dict, t_values: list) -> list:
    """One frame for a verify or sweep config, and a verdict at each T
    (None: the frame's required time)."""
    frame = zero_frame(InstanceSpec(**cfg["instance"]).build(), cfg["grid_size"])
    return [
        verify(frame, float(cfg["delta"]), case=cfg["case"], T_override=t,
               disc_tol=cfg["disc_tol"], step_ceiling=cfg["step_ceiling"])
        for t in t_values
    ]


def cmd_sweep(args, data: dict, cfg: dict) -> int:
    rows = [
        {
            "T": v.T_used,
            "L_used": v.L_used,
            "evolved_dim": v.evolved_dim,
            "dist_phase_inv": v.distance_phase_invariant,
            "dist_gauge": v.distance_gauge_fixed,
        }
        for v in _verdicts(cfg, [float(t) for t in cfg["T_values"]])
    ]
    if args.format == "json":
        _write(args.out, _dump_json({"config": data, "rows": rows}))
    else:
        lines = [",".join(map(repr, row.values())) for row in rows]
        _write(args.out, _csv(",".join(rows[0]), lines))
    return EXIT_PASS


def cmd_gap_scan(args, data: dict, cfg: dict) -> int:
    path = track_eigenpath(InstanceSpec(**cfg["instance"]).build(), cfg["grid_size"])
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


def cmd_proof_check(args, data: dict, cfg: dict) -> int:
    h = InstanceSpec(**cfg["instance"]).build()
    report = run_proofcheck(h, cfg["L"], float(cfg["delta"]), total_time=cfg["T"])
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


def cmd_simulate(args, data: dict, cfg: dict) -> int:
    if args.format == "json":
        raise ConfigError("simulate emits CSV snapshots; use --format csv")
    h = InstanceSpec(**cfg["instance"]).build()
    steps, stride, grid_size = cfg["L"], cfg["snapshot_stride"], cfg["grid_size"]
    if stride is None:
        stride = max(1, steps // 100)
    evolution = EvolutionConfig(float(cfg["T"]), steps, snapshot_stride=stride)
    # the snapshots (multiples of the stride, and L) lie at s = step/L, all
    # of them points of a grid of N + 1 when L / gcd(L, stride) divides N
    period = steps // math.gcd(steps, stride)
    if grid_size is None:
        grid_size = -(-(DEFAULT_GRID - 1) // period) * period + 1
    cells = grid_size - 1
    if cells % period:
        fits = -(-max(cells, 1) // period) * period + 1
        raise ConfigError(f"grid_size {grid_size} misses a snapshot; {fits} holds all")

    path = track_eigenpath(h, grid_size)
    result = evolve_discrete(h, path.states[0], evolution)
    rows = []
    for step, state in result.snapshots:
        idx = step * cells // steps
        dist = distance_phase_invariant(state, path.states[idx])
        rows.append(f"{step},{step / steps!r},{dist!r},{float(path.gammas[idx])!r}")
    _write(args.out, _csv("step,s,distance_to_path,gamma", rows))
    return EXIT_PASS


# Each command's handler, default --format and config fields.  A field maps
# to (rule, default): the rule is a tuple of accepted types or a function
# that checks the value; the default is _REQUIRED, or what a config that
# leaves the field out gets, where None leaves the choice to the handler or
# the library.
_VERIFY_FIELDS = {
    "instance": (_instance, _REQUIRED),
    "delta": (_NUMBER, _REQUIRED),
    "case": ((str,), "general"),
    "grid_size": ((int,), DEFAULT_GRID),
    "disc_tol": (_NUMBER, None),
    "step_ceiling": ((int,), DEFAULT_STEP_CEILING),
}

_COMMANDS = {
    "verify": (cmd_verify, "json", {**_VERIFY_FIELDS, "T_override": (_NUMBER, None)}),
    "sweep": (cmd_sweep, "csv", {**_VERIFY_FIELDS, "T_values": (_times, _REQUIRED)}),
    "gap-scan": (cmd_gap_scan, "csv", {
        "instance": (_instance, _REQUIRED),
        "grid_size": ((int,), DEFAULT_GRID),
    }),
    "proof-check": (cmd_proof_check, "json", {
        "instance": (_instance, _REQUIRED),
        "delta": (_NUMBER, _REQUIRED),
        "L": ((int,), _REQUIRED),
        "T": (_NUMBER, None),
    }),
    "simulate": (cmd_simulate, "csv", {
        "instance": (_instance, _REQUIRED),
        "T": (_NUMBER, _REQUIRED),
        "L": ((int,), _REQUIRED),
        "snapshot_stride": ((int,), None),
        "grid_size": ((int,), None),
    }),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adialab",
        description="Adiabatic runtime-bound laboratory: batch experiment runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, default_format, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=default_format)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        data, cfg = _load_config(args.config, args.command)
        return _COMMANDS[args.command][0](args, data, cfg)
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
