import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import adialab
from adialab import cli, landau_zener, proofcheck, theorem, verify, zero_frame
from adialab.problems import InstanceSpec, transverse_ising
from conftest import sector_basis
from test_proofcheck import (
    BLOCK_LABELS,
    ONE_STEP_BLOCK_L,
    ONE_STEP_BLOCK_T,
    one_step_block_oracle,
)

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"
LZ = {"kind": "landau_zener"}


def _schema(name: str) -> dict:
    return json.loads((SCHEMAS / f"{name}.schema.json").read_text())


def _run(tmp_path, capsys, command: str, config: dict, *flags: str):
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(config))
    code = cli.main([command, "--config", str(path), *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv_rows(text: str) -> tuple[str, list[list[float]]]:
    header, *rows = text.strip().splitlines()
    return header, [[float(cell) for cell in row.split(",")] for row in rows]


def test_verify_output_matches_schema(tmp_path, capsys):
    config = {"instance": LZ, "delta": 1, "case": "special", "T_override": 50.0,
              "grid_size": 129}
    code, out, _ = _run(tmp_path, capsys, "verify", config)
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("verdict"))
    assert code == cli.EXIT_PASS and payload["passed"]
    assert payload["config"] == config
    assert payload["evolved_dim"] == 2


def test_sweep_output_matches_schema(tmp_path, capsys):
    config = {"instance": LZ, "delta": 1, "case": "special", "T_values": [5, 20.0],
              "grid_size": 129}
    code, out, _ = _run(tmp_path, capsys, "sweep", config, "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("sweep"))
    assert code == cli.EXIT_PASS
    assert [row["T"] for row in payload["rows"]] == [5.0, 20.0]


def test_sweep_tracks_once_and_matches_verify(tmp_path, capsys, monkeypatch):
    # one frame serves every T of the sweep
    calls = []
    track = theorem.track_eigenpath
    monkeypatch.setattr(
        theorem, "track_eigenpath", lambda *args: calls.append(args) or track(*args)
    )
    t_values = [2.0, 10.0, 50.0]
    config = {"instance": LZ, "delta": 1, "case": "special", "T_values": t_values,
              "grid_size": 129}
    code, out, _ = _run(tmp_path, capsys, "sweep", config, "--format", "json")
    assert code == cli.EXIT_PASS
    assert len(calls) == 1
    frame = zero_frame(landau_zener(), 129)
    want = [verify(frame, 1.0, case="special", T_override=t) for t in t_values]
    rows = [(r["T"], r["L_used"], r["evolved_dim"], r["dist_phase_inv"],
             r["dist_gauge"]) for r in json.loads(out)["rows"]]
    assert rows == [(v.T_used, v.L_used, v.evolved_dim, v.distance_phase_invariant,
                     v.distance_gauge_fixed) for v in want]


def test_verify_and_sweep_report_the_evolved_dimension(tmp_path, capsys):
    # grover(3) evolves in its two-level invariant subspace
    grover3 = {"kind": "grover", "params": {"n": 3}}
    config = {"instance": grover3, "delta": 1, "case": "special",
              "T_override": 50.0, "grid_size": 129}
    code, out, _ = _run(tmp_path, capsys, "verify", config)
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("verdict"))
    assert code == cli.EXIT_PASS and payload["evolved_dim"] == 2
    config = {"instance": grover3, "delta": 1, "case": "special",
              "T_values": [5.0, 50.0], "grid_size": 129}
    _, out, _ = _run(tmp_path, capsys, "sweep", config, "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("sweep"))
    assert [row["evolved_dim"] for row in payload["rows"]] == [2, 2]
    _, csv_text, _ = _run(tmp_path, capsys, "sweep", config)
    header, rows = _csv_rows(csv_text)
    assert header == "T,L_used,evolved_dim,dist_phase_inv,dist_gauge"
    assert [row[2] for row in rows] == [2.0, 2.0]


def test_gap_scan_json_and_csv(tmp_path, capsys):
    config = {"instance": {"kind": "grover", "params": {"n": 2}}, "grid_size": 129}
    code, out, _ = _run(tmp_path, capsys, "gap-scan", config, "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("gap_scan"))
    assert code == cli.EXIT_PASS
    assert payload["lambda_min"] == pytest.approx(0.5, abs=1e-9)
    assert payload["argmin_s"] == 0.5
    _, csv_text, _ = _run(tmp_path, capsys, "gap-scan", config)
    header, rows = _csv_rows(csv_text)
    assert header == "s,gamma,gap"
    assert [row[2] for row in rows] == payload["gap_values"]


@pytest.mark.parametrize("n", range(2, 7))
def test_transverse_ising_verifies_in_its_sector(tmp_path, capsys, n):
    # the full-space tracker meets the doubly degenerate ground space at
    # s = 1; the evolution from H0's ground state stays in the even sector,
    # whose gap stays open, and verify runs there
    instance = {"kind": "transverse_ising", "params": {"n": n}}
    config = {"instance": instance, "delta": 1, "case": "special", "T_override": 50.0}
    code, out, _ = _run(tmp_path, capsys, "verify", config)
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("verdict"))
    assert code == cli.EXIT_PASS and payload["passed"]
    basis = sector_basis(n)
    assert payload["evolved_dim"] == basis.shape[1]
    record = transverse_ising(n).affine
    grid = np.linspace(0.0, 1.0, 1025)[:, None, None]
    sector = basis.T @ (record.h0 + grid * record.diff) @ basis
    levels = np.linalg.eigvalsh(sector)
    assert abs(payload["lambda"] - (levels[:, 1] - levels[:, 0]).min()) <= 1e-10
    code, out, err = _run(tmp_path, capsys, "gap-scan", {"instance": instance})
    assert code == cli.EXIT_NUMERICAL
    assert out == "" and "degenerate" in err


def test_gap_scan_of_a_degenerate_endpoint_fails(tmp_path, capsys):
    # transverse_ising's classical end s = 1 has a doubly degenerate ground
    # space, and the tracker's per-point check is the scan's only one
    config = {"instance": {"kind": "transverse_ising", "params": {"n": 2}},
              "grid_size": 129}
    code, out, err = _run(tmp_path, capsys, "gap-scan", config)
    assert code == cli.EXIT_NUMERICAL
    assert out == ""
    assert "degenerate" in err


def test_proof_check_output_matches_schema(tmp_path, capsys):
    config = {"instance": LZ, "delta": 1, "L": 256, "T": 100.0}
    code, out, _ = _run(tmp_path, capsys, "proof-check", config)
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("proof_report"))
    assert code == (cli.EXIT_PASS if payload["passed"] else cli.EXIT_CLAIM_FAILED)
    assert payload["metadata"]["L"] == 256
    assert payload["metadata"]["evolved_dim"] == 2
    assert payload["metadata"]["rank"] == 0
    # grover(3)'s checks run in its two-level invariant subspace
    config = {"instance": {"kind": "grover", "params": {"n": 3}}, "delta": 1,
              "L": 1024, "T": 1000.0}
    code, out, _ = _run(tmp_path, capsys, "proof-check", config)
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("proof_report"))
    assert payload["metadata"]["evolved_dim"] == 2


@pytest.mark.parametrize(
    "extra, message",
    [({"grid_size": 1025}, "grid_size"), ({"delta": 5}, "sqrt(2)")],
)
def test_proof_check_config_errors(tmp_path, capsys, extra, message):
    # proof-check measures norms on its own path grid, so it takes no
    # grid_size, and a delta above sqrt(2) bounds nothing
    config = {"instance": LZ, "delta": 1, "L": 256, "T": 100.0, **extra}
    code, out, err = _run(tmp_path, capsys, "proof-check", config)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert message in err


@pytest.mark.parametrize("k_max", [-5, 0, 32])
def test_proof_check_refuses_the_k_max_field(tmp_path, capsys, monkeypatch, k_max):
    # the drift lags are min(Delta, 64, L - 1), not a knob: refused up
    # front, before the frame is built
    monkeypatch.setattr(proofcheck, "zero_frame", None)
    config = {"instance": LZ, "delta": 1, "L": 512, "T": 100.0, "k_max": k_max}
    code, out, err = _run(tmp_path, capsys, "proof-check", config)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert "unknown field 'k_max'" in err


def test_proof_check_one_step_last_block(tmp_path, capsys):
    # Delta = 64 divides L - 1, so the last block starts at k = L
    config = {"instance": LZ, "delta": 0.5, "L": ONE_STEP_BLOCK_L,
              "T": ONE_STEP_BLOCK_T}
    code, out, _ = _run(tmp_path, capsys, "proof-check", config)
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("proof_report"))
    assert code == (cli.EXIT_PASS if payload["passed"] else cli.EXIT_CLAIM_FAILED)
    assert payload["metadata"]["Delta"] == 64
    last = [e for e in payload["entries"] if e["name"].startswith("block[1025]:")]
    assert [e["name"].split(":")[1] for e in last] == list(BLOCK_LABELS)
    oracle = one_step_block_oracle(landau_zener())
    for entry in last:
        want = oracle[entry["name"].split(":")[1]]
        assert abs(entry["measured"] - want) <= 1e-12 * entry["bound"]


@pytest.mark.parametrize("command", ["verify", "sweep", "proof-check"])
@pytest.mark.parametrize("total_time", [math.nan, math.inf, -math.inf])
def test_non_finite_time_is_a_config_error(tmp_path, capsys, command, total_time):
    # refused at the CLI, naming the field
    config = {"instance": LZ, "delta": 1, "case": "special", "grid_size": 129}
    message = "field 'T_override' must be a finite number"
    if command == "verify":
        config["T_override"] = total_time
    elif command == "sweep":
        config["T_values"] = [5.0, total_time]
        message = "field 'T_values[1]' must be a finite number >= 0"
    else:
        config = {"instance": LZ, "delta": 1, "L": 256, "T": total_time}
        message = "field 'T' must be a finite number"
    code, out, err = _run(tmp_path, capsys, command, config)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "command, config, field",
    [
        ("verify", {"instance": LZ, "delta": 1, "T_override": 10**400}, "T_override"),
        ("sweep", {"instance": LZ, "delta": 1, "T_values": [5.0, 10**400]},
         "T_values[1]"),
        ("proof-check", {"instance": LZ, "delta": 1, "L": 256, "T": 10**400}, "T"),
        ("simulate", {"instance": LZ, "T": 10**400, "L": 256}, "T"),
    ],
)
def test_integer_too_large_for_a_float_is_a_config_error(
    tmp_path, capsys, monkeypatch, command, config, field
):
    # JSON integers are unbounded; one that overflows a float is refused
    # while the config is read, with no traceback
    monkeypatch.setattr(InstanceSpec, "build", None)
    code, out, err = _run(tmp_path, capsys, command, config)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith(f"config error: field '{field}' must be a finite number")


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("verify", {"instance": LZ, "delta": 1, "T_override": 1e308, "grid_size": 129},
         "largest feasible T"),
        ("proof-check", {"instance": LZ, "delta": 1, "L": 256, "T": 1.7e308}, "pi/2"),
    ],
)
def test_overflowing_time_is_infeasible(tmp_path, capsys, command, config, message):
    # the step count for this finite T overflows a float
    code, out, err = _run(tmp_path, capsys, command, config)
    assert code == cli.EXIT_NUMERICAL
    assert out == ""
    assert err.startswith("numerical error:") and message in err


@pytest.mark.parametrize(
    "command, config, flag, message",
    [
        ("verify", {"instance": LZ, "delta": 1, "T_override": 10.0}, "csv",
         "verify emits a JSON verdict; use --format json"),
        ("simulate", {"instance": LZ, "T": 10.0, "L": 200}, "json",
         "simulate emits CSV snapshots; use --format csv"),
    ],
)
def test_unsupported_format_is_a_config_error(
    tmp_path, capsys, command, config, flag, message
):
    code, out, err = _run(tmp_path, capsys, command, config, "--format", flag)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err == f"config error: {message}\n"


def test_simulate_csv_snapshots(tmp_path, capsys):
    config = {"instance": LZ, "T": 10.0, "L": 200, "grid_size": 201,
              "snapshot_stride": 50}
    code, out, _ = _run(tmp_path, capsys, "simulate", config)
    assert code == cli.EXIT_PASS
    header, rows = _csv_rows(out)
    assert header == "step,s,distance_to_path,gamma"
    assert [int(row[0]) for row in rows] == [0, 50, 100, 150, 200]
    assert rows[0][2] == 0.0 and rows[0][3] == pytest.approx(-1.0)


def test_simulate_compares_each_snapshot_with_the_path_at_its_s(tmp_path, capsys):
    # L = 1000 with stride 10: the default grid of 1,025 points holds no
    # s = 0.23, so the path is tracked on 1,101 points, which hold every
    # snapshot, and gives the rows a grid of 1,001 points gives
    config = {"instance": LZ, "T": 200.0, "L": 1000, "snapshot_stride": 10}
    code, out, _ = _run(tmp_path, capsys, "simulate", config)
    assert code == cli.EXIT_PASS
    _, rows = _csv_rows(out)
    code, out, _ = _run(tmp_path, capsys, "simulate", {**config, "grid_size": 1001})
    assert code == cli.EXIT_PASS
    _, fitted = _csv_rows(out)
    assert len(rows) == len(fitted) == 101
    for row, want in zip(rows, fitted):
        assert row[:2] == want[:2]
        assert row[2:] == pytest.approx(want[2:], rel=0.0, abs=1e-12)
    assert rows[23][0] == 230
    # a grid that misses a snapshot is refused, naming one that holds them
    code, out, err = _run(tmp_path, capsys, "simulate", {**config, "grid_size": 1025})
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert "grid_size 1025 misses a snapshot; 1101 holds all" in err


def test_simulate_has_no_sign_convention_field(tmp_path, capsys):
    # the step unitaries carry the paper's +i, with no switch
    config = {"instance": LZ, "T": 10.0, "L": 200, "sign_convention": "paper_plus"}
    code, out, err = _run(tmp_path, capsys, "simulate", config)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert "unknown field 'sign_convention'" in err


def test_each_command_builds_its_instance_once(tmp_path, capsys, monkeypatch):
    builds = []
    original = InstanceSpec.build
    monkeypatch.setattr(
        InstanceSpec, "build", lambda spec: builds.append(spec.kind) or original(spec)
    )
    configs = {
        "verify": {"instance": LZ, "delta": 1, "T_override": 5.0, "grid_size": 129},
        "sweep": {"instance": LZ, "delta": 1, "T_values": [5.0], "grid_size": 129},
        "gap-scan": {"instance": LZ, "grid_size": 129},
        "proof-check": {"instance": LZ, "delta": 1, "L": 256, "T": 100.0},
        "simulate": {"instance": LZ, "T": 10.0, "L": 200, "grid_size": 201},
    }
    for command, config in configs.items():
        builds.clear()
        code, _, err = _run(tmp_path, capsys, command, config)
        assert code in (cli.EXIT_PASS, cli.EXIT_CLAIM_FAILED), (command, err)
        assert builds == ["landau_zener"], command


def test_seed_flag_is_gone(tmp_path):
    # the instance's seed is set in its config's params, and only there
    path = tmp_path / "verify.json"
    path.write_text(json.dumps({"instance": LZ, "delta": 1}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--config", str(path), "--seed", "7"])
    assert exc.value.code == cli.EXIT_CONFIG


def test_invalid_instance_is_a_config_error(tmp_path, capsys):
    config = {"instance": {"kind": "grover", "params": {"n": 0}}, "grid_size": 129}
    code, out, err = _run(tmp_path, capsys, "gap-scan", config)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert "grover requires" in err


@pytest.mark.parametrize(
    "command, config, field",
    [
        ("simulate", {"instance": LZ, "T": "ten", "L": 200}, "T"),
        ("sweep", {"instance": LZ, "delta": 1, "T_values": [5.0], "disc_tol": "x"},
         "disc_tol"),
        ("proof-check", {"instance": LZ, "delta": 1, "L": "4096"}, "L"),
        ("sweep", {"instance": LZ, "delta": 1, "T_values": [5.0], "grid_size": "129"},
         "grid_size"),
        ("sweep", {"instance": LZ, "delta": 1, "T_values": [5.0], "grid_size": 129.9},
         "grid_size"),
        ("verify", {"instance": LZ, "delta": True}, "delta"),
        ("verify", {"instance": LZ, "delta": 1, "case": 5}, "case"),
    ],
)
def test_mistyped_field_is_a_config_error(tmp_path, capsys, command, config, field):
    code, out, err = _run(tmp_path, capsys, command, config)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert f"field {field!r} has type" in err
    assert "<class" not in err


_MINIMAL = {
    "verify": {"instance": LZ, "delta": 1},
    "sweep": {"instance": LZ, "delta": 1, "T_values": [5.0]},
    "gap-scan": {"instance": LZ},
    "proof-check": {"instance": LZ, "delta": 1, "L": 256},
    "simulate": {"instance": LZ, "T": 10.0, "L": 200},
}
_ALLOWED = {
    "verify": ["T_override", "case", "delta", "disc_tol", "grid_size", "instance",
               "step_ceiling"],
    "sweep": ["T_values", "case", "delta", "disc_tol", "grid_size", "instance",
              "step_ceiling"],
    "gap-scan": ["grid_size", "instance"],
    "proof-check": ["L", "T", "delta", "instance"],
    "simulate": ["L", "T", "grid_size", "instance", "snapshot_stride"],
}


@pytest.mark.parametrize("command", sorted(_MINIMAL))
def test_unknown_and_missing_fields_are_config_errors(tmp_path, capsys, command):
    # the allowed list is the command's table entry; every field a minimal
    # config gives is required
    fields = cli._COMMANDS[command][2]
    assert sorted(fields) == _ALLOWED[command]
    code, out, err = _run(tmp_path, capsys, command, {**_MINIMAL[command], "bogus": 1})
    assert code == cli.EXIT_CONFIG and out == ""
    assert f"unknown field 'bogus' for command {command!r}; " in err
    assert err.endswith(f"allowed: {_ALLOWED[command]}\n")
    for field in _MINIMAL[command]:
        config = {k: v for k, v in _MINIMAL[command].items() if k != field}
        code, out, err = _run(tmp_path, capsys, command, config)
        assert code == cli.EXIT_CONFIG and out == ""
        assert err.endswith(
            f"missing required field(s) [{field!r}] for command {command!r}\n"
        )


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("gap-scan", {"instance": [LZ]}, "field 'instance' must be an object"),
        ("gap-scan", {"instance": "landau_zener"}, "field 'instance' must be an object"),
        ("gap-scan", {"instance": {"kind": 3}}, "field 'instance.kind' must be a string"),
        ("gap-scan", {"instance": {"params": {}}},
         "field 'instance.kind' must be a string"),
        ("gap-scan", {"instance": {"kind": "grover", "params": [2]}},
         "field 'instance.params' must be an object"),
        ("gap-scan", {"instance": {"kind": "grover", "n": 2}},
         "field 'instance': unknown sub-field(s) ['n']"),
        ("sweep", {"instance": LZ, "delta": 1, "T_values": []},
         "field 'T_values' must be a nonempty list of numbers"),
        ("sweep", {"instance": LZ, "delta": 1, "T_values": 5.0},
         "field 'T_values' must be a nonempty list of numbers"),
        ("sweep", {"instance": LZ, "delta": 1, "T_values": [5.0, "20"]},
         "field 'T_values[1]' must be a finite number >= 0, got '20'"),
        ("sweep", {"instance": LZ, "delta": 1, "T_values": [True]},
         "field 'T_values[0]' must be a finite number >= 0, got True"),
        ("sweep", {"instance": LZ, "delta": 1, "T_values": [5.0, 0, -1.0]},
         "field 'T_values[2]' must be a finite number >= 0, got -1.0"),
    ],
)
def test_malformed_structured_field_is_a_config_error(
    tmp_path, capsys, monkeypatch, command, config, message
):
    # refused while the config is read, before any instance is built
    monkeypatch.setattr(InstanceSpec, "build", None)
    code, out, err = _run(tmp_path, capsys, command, config)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err == f"config error: {message}\n"


def test_command_table_matches_the_parser():
    # every command has a subparser with its table's default format, and
    # every default a config may omit passes its own field's rule (None
    # leaves the choice to the handler or the library)
    parser = cli._parser()
    for command, (_, default_format, fields) in cli._COMMANDS.items():
        args = parser.parse_args([command, "--config", "x.json"])
        assert (args.command, args.format) == (command, default_format)
        for field, (rule, default) in fields.items():
            if default is not cli._REQUIRED and default is not None:
                cli._check(field, default, rule)


def test_coarse_grid_exits_numerical_and_names_the_grid(tmp_path, capsys):
    config = {"instance": {"kind": "grover", "params": {"n": 5}}, "delta": 1,
              "case": "special", "grid_size": 3}
    code, _, err = _run(tmp_path, capsys, "verify", config)
    assert code == cli.EXIT_NUMERICAL
    assert "grid_size=3 points; refine the grid" in err


_NO_SCIPY_SCRIPT = """
import json, sys
from adialab import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {"import": scipy_modules()}
for command, config in json.loads(sys.argv[1]):
    code = cli.main([command, "--config", config, "--out", config + ".out"])
    loaded[command] = (code, scipy_modules())
print(json.dumps(loaded))
"""


def test_the_cli_runs_without_scipy(tmp_path):
    # a fresh interpreter, so no earlier import counts: importing the CLI and
    # running verify and proof-check load no scipy module, lazily or not
    runs = [
        ("verify", {"instance": LZ, "delta": 1, "case": "special", "T_override": 100}),
        ("proof-check", {"instance": {"kind": "grover", "params": {"n": 2}},
                         "delta": 1, "L": 2048, "T": 500}),
    ]
    configs = []
    for command, config in runs:
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(config))
        configs.append((command, str(path)))
    src = str(Path(adialab.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(configs)],
        capture_output=True, text=True, timeout=300, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    # proof-check reports the files it wrote on stdout first
    loaded = json.loads(result.stdout.splitlines()[-1])
    assert loaded == {"import": [], "verify": [cli.EXIT_PASS, []],
                      "proof-check": [cli.EXIT_PASS, []]}
