"""Tests for scenario loading, subcommands, output contracts and exit codes."""

import json
import os
import subprocess
import sys

import pytest

from dqsim import cli, protocol


def write_scenario(tmp_path, **overrides):
    scenario = {
        "protocol": {"variant": "entanglement", "direction": "one_way", "n": 1,
                     "T": 6000, "p_c": 0.5, "p_e": 0.5, "p_d": 0.0,
                     "epsilon_threshold": 0.251, "true_phi": 0.3, "seed": 777},
        "attack": {"name": "identity"},
        "output": {"transcript": str(tmp_path / "tr.tsv"),
                   "summary": str(tmp_path / "summary.json"),
                   "csv": str(tmp_path / "sweep.csv")},
    }
    scenario.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return path, scenario


# ---------------------------------------------------------------- schema

def test_unknown_top_level_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"protocol": {}, "attack": {}, "extra": 1}))
    assert cli.main(["run", str(path)]) == cli.EXIT_SCHEMA


def test_missing_protocol_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "protocol": {"variant": "entanglement"},
        "attack": {"name": "identity"}}))
    assert cli.main(["run", str(path)]) == cli.EXIT_SCHEMA


def test_unknown_attack_rejected(tmp_path):
    path, _ = write_scenario(tmp_path, attack={"name": "teleport"})
    assert cli.main(["run", str(path)]) == cli.EXIT_SCHEMA


def test_unknown_attack_param_rejected(tmp_path):
    path, _ = write_scenario(tmp_path,
                             attack={"name": "depolarizing", "params": {"q": 0.1}})
    assert cli.main(["run", str(path)]) == cli.EXIT_SCHEMA


def test_bad_sweep_variable_rejected(tmp_path):
    path, _ = write_scenario(
        tmp_path, sweep={"variable": "z", "start": 0, "stop": 1, "steps": 2})
    assert cli.main(["sweep", str(path)]) == cli.EXIT_SCHEMA


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["run", str(path)]) == cli.EXIT_SCHEMA


@pytest.mark.parametrize("field,value", [
    ("p_c", float("nan")), ("p_e", float("nan")), ("p_d", float("inf")),
    ("epsilon_threshold", float("nan")), ("epsilon_threshold", float("inf")),
    ("true_phi", float("nan")), ("true_phi", float("-inf")),
])
def test_non_finite_protocol_numbers_rejected(tmp_path, field, value):
    path, scenario = write_scenario(tmp_path)
    scenario["protocol"][field] = value
    path.write_text(json.dumps(scenario))
    with pytest.raises(cli.SchemaError):
        cli.build_config(cli.load_scenario(path))
    assert cli.main(["run", str(path)]) == cli.EXIT_SCHEMA


@pytest.mark.parametrize("command,protocol_edit,block_edit,code", [
    ("run", {"T": 2}, {}, cli.EXIT_INSUFFICIENT_ROUNDS),
    ("run", {"p_c": 0.0, "p_e": 0.5, "p_d": 0.5}, {}, cli.EXIT_INSUFFICIENT_ROUNDS),
    ("run", {"n": 2}, {"attack": {"name": "entangling_memory",
                                  "params": {"coupling_angle": 0.3}}}, cli.EXIT_SCHEMA),
    ("sweep", {}, {"sweep": {"variable": "phi", "start": 0.1, "stop": 0.5,
                             "steps": "x"}}, cli.EXIT_SCHEMA),
    ("sweep", {}, {"sweep": {"variable": 3, "start": 0.1, "stop": 0.5,
                             "steps": 2}}, cli.EXIT_SCHEMA),
], ids=["T2", "no_check_rounds", "memory_n2", "steps_string", "variable_number"])
def test_failures_exit_with_documented_code(tmp_path, command, protocol_edit,
                                            block_edit, code):
    path, scenario = write_scenario(tmp_path, **block_edit)
    scenario["protocol"].update(protocol_edit)
    path.write_text(json.dumps(scenario))
    proc = run_module(command, str(path))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


def run_module(*args):
    """``python -m dqsim.cli ARGS`` in a subprocess, importing this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "dqsim.cli", *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_module_entry_point_starts_without_warnings():
    proc = run_module("bounds", "--mode", "one_way_individual", "--variant", "mub",
                      "--epsilon", "0.1", "--phi", "0.5", "--N-e", "10")
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_missing_file_gives_io_exit():
    assert cli.main(["run", "/nonexistent/scenario.json"]) == cli.EXIT_IO


# ---------------------------------------------------------------- run

def test_run_writes_transcript_and_summary(tmp_path):
    path, scenario = write_scenario(tmp_path)
    assert cli.main(["run", str(path)]) == cli.EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["F_hat"] == 1.0
    assert abs(summary["phi_hat"] - 0.3) < 5 * summary["phi_hat_se"]
    header, rows = protocol.parse_transcript((tmp_path / "tr.tsv").read_text())
    assert len(rows) == scenario["protocol"]["T"]
    assert int(header["seed"]) == 777


def test_run_failed_check_emits_untrusted_estimate(tmp_path):
    path, _ = write_scenario(
        tmp_path,
        attack={"name": "depolarizing", "params": {"p": 0.5}})
    # permissive default: exit 0, aborted flagged, estimate still present
    assert cli.main(["run", str(path)]) == cli.EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["aborted"] is True
    assert summary["estimate_trusted"] is False
    assert summary["phi_hat"] is not None
    assert summary["F_hat"] < 0.937


def test_run_strict_abort_exit_code(tmp_path):
    path, _ = write_scenario(
        tmp_path, attack={"name": "depolarizing", "params": {"p": 0.5}})
    assert cli.main(["--strict-abort", "run", str(path)]) == cli.EXIT_ABORTED


def test_seed_override_changes_outputs(tmp_path):
    path, _ = write_scenario(tmp_path)
    cli.main(["--seed", "1", "run", str(path)])
    first = (tmp_path / "tr.tsv").read_text()
    cli.main(["--seed", "2", "run", str(path)])
    assert (tmp_path / "tr.tsv").read_text() != first


def test_run_unwritable_output_gives_io_exit(tmp_path):
    path, _ = write_scenario(
        tmp_path, output={"transcript": "/nonexistent-dir/tr.tsv"})
    assert cli.main(["run", str(path)]) == cli.EXIT_IO


# ---------------------------------------------------------------- sweep

def test_sweep_csv_contract_and_determinism(tmp_path):
    path, _ = write_scenario(
        tmp_path,
        attack={"name": "depolarizing", "params": {"p": 0.084}},
        sweep={"variable": "phi", "start": 0.2, "stop": 1.2, "steps": 3})
    assert cli.main(["sweep", str(path)]) == cli.EXIT_OK
    first = (tmp_path / "sweep.csv").read_bytes()
    lines = first.decode().splitlines()
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    assert len(lines) == 4
    row = dict(zip(cli.CSV_COLUMNS, lines[1].split(",")))
    assert float(row["theta"]) == pytest.approx(float(row["phi"]) / 2)
    assert row["passed"] in ("true", "false")
    assert row["mode"] == "one_way_individual"
    assert float(row["bias_bound"]) > float(row["bias_emp"])

    assert cli.main(["sweep", str(path)]) == cli.EXIT_OK
    assert (tmp_path / "sweep.csv").read_bytes() == first


def test_sweep_threads_match_serial(tmp_path):
    path, _ = write_scenario(
        tmp_path,
        attack={"name": "depolarizing", "params": {"p": 0.2}},
        sweep={"variable": "phi", "start": 0.3, "stop": 0.9, "steps": 3})
    cli.main(["sweep", str(path)])
    serial = (tmp_path / "sweep.csv").read_bytes()
    cli.main(["--threads", "3", "sweep", str(path)])
    assert (tmp_path / "sweep.csv").read_bytes() == serial


def test_sweep_over_attack_parameter(tmp_path):
    path, _ = write_scenario(
        tmp_path,
        attack={"name": "depolarizing", "params": {"p": 0.0}},
        sweep={"variable": "attack.p", "start": 0.0, "stop": 0.4, "steps": 3})
    assert cli.main(["sweep", str(path)]) == cli.EXIT_OK
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    f_hats = [float(line.split(",")[2]) for line in lines[1:]]
    assert f_hats[0] > f_hats[1] > f_hats[2]


def test_sweep_requires_sweep_block(tmp_path):
    path, _ = write_scenario(tmp_path)
    assert cli.main(["sweep", str(path)]) == cli.EXIT_SCHEMA


def test_zero_noise_sweep_bias_exactly_zero(tmp_path):
    # the attacked run IS the ideal twin when the attack is the identity,
    # so shared seeds make the empirical bias column identically zero
    path, _ = write_scenario(
        tmp_path, sweep={"variable": "phi", "start": 0.3, "stop": 1.1, "steps": 3})
    assert cli.main(["sweep", str(path)]) == cli.EXIT_OK
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    for line in lines[1:]:
        row = dict(zip(cli.CSV_COLUMNS, line.split(",")))
        assert float(row["bias_emp"]) == 0.0
        assert float(row["var_discrepancy"]) == 0.0
        assert row["passed"] == "true"


# ---------------------------------------------------------------- bounds

def test_bounds_values(tmp_path, capsys):
    rc = cli.main(["bounds", "--mode", "one_way_individual",
                   "--variant", "entanglement", "--epsilon", "0.251",
                   "--n", "1", "--phi", "0.7853981633974483", "--N-e", "100"])
    assert rc == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    row = payload["bounds"][0]
    assert row["bias_bound"] == pytest.approx(0.2049, abs=1e-4)
    assert row["f_value"] is None


def test_bounds_two_way_sine_only(tmp_path, capsys):
    rc = cli.main(["bounds", "--mode", "two_way_gc", "--variant", "entanglement",
                   "--epsilon", "0.0", "--n", "1", "--T", "10", "--N-d", "0",
                   "--phi", "1.5707963267948966"])
    assert rc == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["bounds"][0]["epsilon0"] == pytest.approx(1.0)


def test_bounds_gc_f_value(tmp_path, capsys):
    rc = cli.main(["bounds", "--mode", "one_way_gc", "--variant", "entanglement",
                   "--epsilon", "0.251", "--n", "1", "--T", "10000",
                   "--N-d", "9900", "--phi", "0.5"])
    assert rc == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["bounds"][0]["f_value"] == pytest.approx(0.70356236, abs=1e-6)


def test_bounds_requires_phi(capsys):
    rc = cli.main(["bounds", "--mode", "one_way_individual",
                   "--variant", "mub", "--epsilon", "0.1"])
    assert rc == cli.EXIT_SCHEMA


@pytest.mark.parametrize("args", [
    ["--mode", "two_way_gc", "--epsilon", "nan", "--T", "100", "--N-d", "10", "--phi", "0.5"],
    ["--mode", "one_way_individual", "--epsilon", "0.2", "--N-e", "10", "--phi", "inf"],
    ["--mode", "one_way_gc", "--epsilon", "0.2", "--T", "100", "--N-d", "10",
     "--phi-start", "0.1", "--phi-stop", "nan", "--phi-steps", "3"],
    ["--mode", "one_way_gc", "--epsilon", "0.2", "--phi", "0.5"],
    ["--mode", "two_way_gc", "--epsilon", "0.2", "--T", "100", "--phi", "0.5"],
    ["--mode", "one_way_individual", "--epsilon", "0.2", "--N-e", "10",
     "--phi-start", "0.1", "--phi-stop", "0.5", "--phi-steps", "-1"],
], ids=["epsilon_nan", "phi_inf", "grid_nan", "gc_without_T", "two_way_without_N_d",
        "negative_steps"])
def test_bounds_bad_inputs_exit_with_schema_code(args):
    proc = run_module("bounds", "--variant", "entanglement", *args)
    assert proc.returncode == cli.EXIT_SCHEMA, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "NaN" not in proc.stdout


def test_bounds_phi_grid(tmp_path, capsys):
    rc = cli.main(["bounds", "--mode", "one_way_gc", "--variant", "mub",
                   "--epsilon", "0.2", "--n", "2", "--T", "1000", "--N-d", "900",
                   "--phi-start", "0.1", "--phi-stop", "0.7", "--phi-steps", "4"])
    assert rc == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    rows = payload["bounds"]
    assert len(rows) == 4
    assert [r["phi"] for r in rows] == pytest.approx([0.1, 0.3, 0.5, 0.7])
    assert all(r["mode"] == "one_way_gc" and r["n"] == 2 for r in rows)


# ---------------------------------------------------------------- verify

def test_verify_passes_and_reports_counts(tmp_path):
    out = tmp_path / "verify.json"
    rc = cli.main(["verify", "--restarts", "2", "--output", str(out)])
    assert rc == cli.EXIT_OK
    payload = json.loads(out.read_text())
    names = {s["name"] for s in payload["suites"]}
    assert "fuchs_van_de_graaf" in names
    assert all(s["violations"] == 0 for s in payload["suites"])
    assert all(s["checks"] > 0 for s in payload["suites"])


def test_verify_injected_violation_fails(tmp_path):
    rc = cli.main(["verify", "--restarts", "2", "--inject-violation",
                   "--output", str(tmp_path / "v.json")])
    assert rc != 0


# ---------------------------------------------------------------- equivalence

def test_equivalence_subcommand(tmp_path):
    path, _ = write_scenario(
        tmp_path, attack={"name": "depolarizing", "params": {"p": 0.2}})
    out = tmp_path / "eq.json"
    rc = cli.main(["equivalence", str(path), "--output", str(out)])
    assert rc == cli.EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["identity_holds"] is True
    assert set(payload["mub_fidelities"]) == {"+X", "-X", "+Y", "-Y", "+Z", "-Z"}
