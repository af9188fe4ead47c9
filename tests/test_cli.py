import json
import math
from pathlib import Path

import jsonschema
import pytest

from adialab import cli, landau_zener, proofcheck, theorem, verify, zero_frame
from adialab.problems import InstanceSpec
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
    rows = [(r["T"], r["L_used"], r["dist_phase_inv"], r["dist_gauge"])
            for r in json.loads(out)["rows"]]
    assert rows == [(v.T_used, v.L_used, v.distance_phase_invariant,
                     v.distance_gauge_fixed) for v in want]


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


@pytest.mark.parametrize("k_max", [-5, 0])
def test_proof_check_refuses_k_max_below_one(tmp_path, capsys, monkeypatch, k_max):
    # refused up front, before the frame is built
    monkeypatch.setattr(proofcheck, "zero_frame", None)
    config = {"instance": LZ, "delta": 1, "L": 512, "T": 100.0, "k_max": k_max}
    code, out, err = _run(tmp_path, capsys, "proof-check", config)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert f"k_max must be at least 1, got {k_max}" in err


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
    config = {"instance": LZ, "delta": 1, "case": "special", "grid_size": 129}
    message = "T_override must be finite"
    if command == "verify":
        config["T_override"] = total_time
    elif command == "sweep":
        config["T_values"] = [5.0, total_time]
    else:
        config = {"instance": LZ, "delta": 1, "L": 256, "T": total_time}
        message = "positive finite delta and T"
    code, out, err = _run(tmp_path, capsys, command, config)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert message in err


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
