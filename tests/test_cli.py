"""Tests for scenario loading, subcommands, output contracts and exit codes."""

import csv
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqsim import adversary, cli, metrics, protocol, qcore
from test_protocol import parse_transcript


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


def test_bounds_block_without_mode_rejected(tmp_path):
    path, _ = write_scenario(tmp_path, bounds={})
    assert cli.main(["run", str(path)]) == cli.EXIT_SCHEMA
    assert not (tmp_path / "tr.tsv").exists()


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


def test_attack_keys_are_the_factory_parameters(tmp_path, monkeypatch):
    # an attack's keys are read from its constructor, with no second list to keep:
    # a new constructor's parameter is a key and a sweep variable at once, and an
    # unknown key, an unknown swept parameter or a missing argument exits 2
    monkeypatch.setitem(cli.ATTACKS, "scaled_noise",
                        lambda strength: adversary.DepolarizingAttack(strength / 2))
    sweep = {"variable": "attack.strength", "start": 0.0, "stop": 0.2, "steps": 2}
    cases = [({"strength": 0.2}, None, "run", cli.EXIT_OK),
             ({"strength": 0.2}, sweep, "sweep", cli.EXIT_OK),
             ({"strength": 0.2, "p": 0.1}, None, "run", cli.EXIT_SCHEMA),
             ({"strength": 0.2}, {**sweep, "variable": "attack.p"}, "sweep", cli.EXIT_SCHEMA),
             ({}, None, "run", cli.EXIT_SCHEMA)]
    for params, sweep_block, command, code in cases:
        blocks = {"sweep": sweep_block} if sweep_block else {}
        path, _ = write_scenario(tmp_path, attack={"name": "scaled_noise", "params": params},
                                 **blocks)
        assert cli.main([command, str(path)]) == code, (params, sweep_block)


def test_bad_sweep_variable_rejected(tmp_path):
    path, _ = write_scenario(
        tmp_path, sweep={"variable": "z", "start": 0, "stop": 1, "steps": 2})
    assert cli.main(["sweep", str(path)]) == cli.EXIT_SCHEMA


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["run", str(path)]) == cli.EXIT_SCHEMA
    # bytes that are not UTF-8 are no more a scenario than broken JSON is
    path.write_bytes(b'{"protocol": "\xff"}')
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


# The library refuses what load_scenario leaves to it: each owner of a value
# (ProtocolConfig, the attack classes, the bounds in metrics) raises a
# ValueError that names the argument.
_REFUSED_CONFIG = dict(variant="mub", direction="one_way", n=1, T=100, p_c=0.5, p_e=0.5,
                       p_d=0.0, epsilon_threshold=0.2, true_phi=0.3, seed=1)
_NOT_FINITE = {"inf": math.inf, "nan": math.nan, "beyond_float": 10 ** 400}
_NOT_REAL = {"true": True, "string": "0.5", "null": None, **_NOT_FINITE}
_ATTACK_CALLS = {
    "p": (adversary.DepolarizingAttack, {}),
    "angle": (adversary.UnitaryTamperAttack, {"axis": "X"}),
    "coupling_angle": (adversary.EntanglingMemoryAttack, {}),
    "block_length": (adversary.EntanglingMemoryAttack, {"coupling_angle": 0.3}),
}
_REFUSALS = (
    [pytest.param(protocol.ProtocolConfig, {**_REFUSED_CONFIG, field: value}, field,
                  id=f"ProtocolConfig-{field}-{label}")
     for field in ("p_c", "p_e", "p_d", "epsilon_threshold", "true_phi")
     for label, value in _NOT_REAL.items()]
    + [pytest.param(cls, {**kwargs, name: value}, name,
                    id=f"{cls.__name__}-{name}-{label}")
       for name, (cls, kwargs) in _ATTACK_CALLS.items()
       for label, value in _NOT_FINITE.items()]
    + [pytest.param(metrics.variance_bound, {"eps0": 0.1, "n": 1, "phi": 0.3,
                                             "mode": "one_way_individual", "N_e": value},
                    "N_e", id=f"variance_bound-N_e-{value}") for value in (1.5, True)]
    + [pytest.param(metrics.epsilon0, {"mode": "one_way_individual", "variant": "mub",
                                       "threshold": 0.1, name: value},
                    name, id=f"epsilon0-{name}-{value}")
       for name in ("T", "N_d", "n") for value in (1.5, True)]
    # a bool threshold or eps0 gave a bound, and a huge integer an OverflowError
    + [pytest.param(metrics.epsilon0, {"mode": mode, "variant": "mub", "threshold": 0.1,
                                       "T": 10, "N_d": 1, "n": 1, "phi": 0.3, name: value},
                    name, id=f"epsilon0-{mode}-{name}-{label}")
       for mode in metrics.MODES for name in ("threshold", "phi")
       if name == "threshold" or mode == "two_way_gc"
       for label, value in _NOT_REAL.items()]
    + [pytest.param(bound, {"eps0": 0.1, "n": 1, "phi": 0.3, **mode, name: value}, name,
                    id=f"{bound.__name__}-{name}-{label}")
       for bound, mode in ((metrics.bias_bound, {}),
                           (metrics.variance_bound, {"mode": "one_way_gc"}))
       for name in ("eps0", "phi") for label, value in _NOT_REAL.items()
       if (name, label) != ("eps0", "inf")]
    # a bool probability or target passed, and a string one raised a TypeError
    + [pytest.param(call, {**kwargs, name: value}, name, id=f"{call.__name__}-{name}-{label}")
       for call, kwargs, name in ((qcore.depolarizing_channel, {"n_qubits": 1}, "p"),
                                  (adversary.calibrate_depolarizing, {}, "target_fidelity"))
       for label, value in _NOT_REAL.items()]
    # a fractional qubit count raised a TypeError in np.zeros, and a bool one gave a
    # one-qubit channel (test_qcore pins the cap above MAX_QUBITS)
    + [pytest.param(qcore.depolarizing_channel, {"p": 0.1, "n_qubits": value}, "n_qubits",
                    id=f"depolarizing_channel-n_qubits-{value}") for value in (1.5, True)]
    # a NaN, infinite or non-square matrix raised LinAlgError from the eigensolver
    + [pytest.param(call, {"u": value}, "u", id=f"{call.__name__}-u-{label}")
       for call in (metrics.delta_arc, metrics.acin_min_fidelity)
       for label, value in (("nan", np.full((2, 2), np.nan)), ("inf", np.diag([np.inf, 1.0])),
                            ("isometry", [[1, 0, 0], [0, 1, 0]]))]
    # the logical frame owns its qubit count: a bool one gave a fidelity of 1 and a
    # fractional one a TypeError
    + [pytest.param(adversary.expected_check_fidelity,
                    {"attack": adversary.IdentityAttack(), "n": value}, "n",
                    id=f"expected_check_fidelity-n-{value}") for value in (True, 1.5)]
    # a bool qubit count gave a one-qubit rotation, a fractional one a TypeError
    + [pytest.param(qcore.encoding_unitary, {"n": value, "phi": 0.3}, "n",
                    id=f"encoding_unitary-n-{value}") for value in (True, 1.5)]
    + [pytest.param(adversary.EntanglingMemoryAttack,
                    {"coupling_angle": 0.3, "block_length": 2.5}, "block_length",
                    id="EntanglingMemoryAttack-block_length-2.5"),
       pytest.param(protocol.ProtocolConfig, {**_REFUSED_CONFIG, "epsilon_threshold": -0.1},
                    "epsilon_threshold", id="ProtocolConfig-epsilon_threshold--0.1"),
       pytest.param(metrics.definetti_inequality_check,
                    {"sigma": np.eye(4) / 4, "m": 2, "k": 1,
                     "mixture": [(-0.1, np.eye(2) / 2), (1.1, np.eye(2) / 2)]},
                    "mixture weight 0", id="definetti_inequality_check-mixture_weight--0.1")]
)


# A value of the wrong kind "must be" one of the right kind.
@pytest.mark.parametrize("call,kwargs,name,rule", [
    *(pytest.param(*row.values, "must be", id=row.id) for row in _REFUSALS),
    # zero qubits gave "poles are not orthogonal"; the range refuses them
    pytest.param(adversary.expected_check_fidelity,
                 {"attack": adversary.IdentityAttack(), "n": 0}, "n", r"must lie in \[",
                 id="expected_check_fidelity-n-0")])
def test_library_refuses_bad_inputs_naming_the_argument(call, kwargs, name, rule):
    with pytest.raises(ValueError, match=rf"(^| ){name} {rule}"):
        call(**kwargs)


# Values of the right type past a bound: the owner names the argument and its range.
_OUT_OF_RANGE = (
    [pytest.param(protocol.ProtocolConfig, {**_REFUSED_CONFIG, field: value}, field,
                  id=f"ProtocolConfig-{field}-{value}")
     for field, value in (("n", protocol.MAX_QUBITS + 1), ("T", protocol.MAX_ROUNDS + 1),
                          ("p_c", 1.5), ("p_e", -0.5), ("p_d", 1.5))]
    + [pytest.param(call, kwargs, name, id=f"{call.__name__}-{name}-{kwargs[name]}")
       for call, kwargs, name in (
           (adversary.DepolarizingAttack, {"p": 1.5}, "p"),
           (qcore.depolarizing_channel, {"p": 1.5, "n_qubits": 1}, "p"),
           (adversary.EntanglingMemoryAttack, {"coupling_angle": 0.3, "block_length": 4},
            "block_length"),
           (adversary.calibrate_depolarizing, {"target_fidelity": 0.1}, "target_fidelity"),
           (adversary.EntanglingMemoryAttack, {"coupling_angle": 0.3, "block_length": 0.5},
            "block_length"),
           (metrics.f_definetti, {"T": 10, "N_d": 10, "n": 1}, "N_d"),
           # an integer below its range reads as one above it; a negative qubit count
           # raised a TypeError in np.zeros
           (metrics.f_definetti, {"T": 10, "N_d": -1, "n": 1}, "N_d"),
           (qcore.depolarizing_channel, {"p": 0.1, "n_qubits": -1}, "n_qubits"),
           # zero or negative qubits gave a one-qubit rotation
           (qcore.encoding_unitary, {"n": 0, "phi": 0.3}, "n"),
           (qcore.encoding_unitary, {"n": -2, "phi": 0.3}, "n"),
           # the qubit count is checked before the 2^n-entry poles or rotations are built
           (qcore.encoding_unitary, {"n": protocol.MAX_QUBITS + 1, "phi": 0.3}, "n"),
           (qcore.LogicalFrame.standard, {"n": protocol.MAX_QUBITS + 1}, "n"),
           (adversary.expected_check_fidelity,
            {"attack": adversary.IdentityAttack(), "n": protocol.MAX_QUBITS + 1}, "n"))]
    # a count past metrics.MAX_COUNT = 2^53 raised OverflowError where float arithmetic met it
    + [pytest.param(call, kwargs, name, id=f"{call.__name__}-{name}-beyond_float")
       for call, kwargs, name in (
           (metrics.f_definetti, {"T": 10 ** 400, "N_d": 1, "n": 1}, "T"),
           (metrics.bias_bound, {"eps0": 0.1, "n": 10 ** 400, "phi": 0.3}, "n"),
           (metrics.variance_bound, {"eps0": 0.1, "n": 1, "phi": 0.3,
                                     "mode": "one_way_individual", "N_e": 10 ** 400}, "N_e"),
           (metrics.epsilon0, {"mode": "one_way_gc", "variant": "mub", "threshold": 0.1,
                               "T": 10 ** 400, "N_d": 5, "n": 1}, "T"))]
    # a count past Python's 4300-digit limit for str raised that limit's own
    # ValueError, which names no argument
    + [pytest.param(call, kwargs, name, id=f"{call.__name__}-{name}-beyond_str")
       for call, kwargs, name in (
           (metrics.f_definetti, {"T": 10 ** 5000, "N_d": 1, "n": 1}, "T"),
           (protocol.ProtocolConfig, {**_REFUSED_CONFIG, "T": 10 ** 5000}, "T"))]
)


@pytest.mark.parametrize("call,kwargs,name", _OUT_OF_RANGE)
def test_library_refuses_out_of_range_inputs_naming_the_argument(call, kwargs, name):
    with pytest.raises(ValueError, match=rf"(^| ){name} must lie in \["):
        call(**kwargs)


@pytest.mark.parametrize("command,protocol_edit,block_edit,code", [
    ("run", {"T": 2}, {}, cli.EXIT_INSUFFICIENT_ROUNDS),
    ("run", {"T": protocol.MAX_ROUNDS + 1}, {}, cli.EXIT_SCHEMA),
    ("run", {"p_c": 0.0, "p_e": 0.5, "p_d": 0.5}, {}, cli.EXIT_INSUFFICIENT_ROUNDS),
    ("run", {"n": 2}, {"attack": {"name": "entangling_memory",
                                  "params": {"coupling_angle": 0.3}}}, cli.EXIT_SCHEMA),
    ("sweep", {}, {"sweep": {"variable": "phi", "start": 0.1, "stop": 0.5,
                             "steps": "x"}}, cli.EXIT_SCHEMA),
    ("sweep", {}, {"sweep": {"variable": 3, "start": 0.1, "stop": 0.5,
                             "steps": 2}}, cli.EXIT_SCHEMA),
    ("run", {}, {"attack": {"name": "entangling_memory",
                            "params": {"coupling_angle": 0.3, "block_length": 2.5}}},
     cli.EXIT_SCHEMA),
    ("sweep", {}, {"sweep": {"variable": "phi", "start": 0.1, "stop": 0.5,
                             "steps": 10 ** 15}}, cli.EXIT_SCHEMA),
    ("run", {}, {"attack": {"name": "depolarizing", "params": {"p": True}}}, cli.EXIT_SCHEMA),
    ("run", {}, {"attack": {"name": "unitary_tamper",
                            "params": {"axis": "Y", "angle": True}}}, cli.EXIT_SCHEMA),
    ("run", {}, {"attack": {"name": "entangling_memory",
                            "params": {"coupling_angle": 0.3, "block_length": True}}},
     cli.EXIT_SCHEMA),
    ("run", {}, {"attack": {"name": "depolarizing", "params": {"p": "0.05"}}}, cli.EXIT_SCHEMA),
    ("run", {}, {"attack": {"name": "unitary_tamper",
                            "params": {"axis": "Y", "angle": None}}}, cli.EXIT_SCHEMA),
    ("run", {}, {"attack": {"name": "entangling_memory",
                            "params": {"coupling_angle": [0.3]}}}, cli.EXIT_SCHEMA),
    # finite ends whose difference overflows: linspace would make nan and inf
    ("sweep", {}, {"sweep": {"variable": "phi", "start": -1e308, "stop": 1e308,
                             "steps": 3}}, cli.EXIT_SCHEMA),
    # values only the library refuses: load_scenario checks keys, not values
    ("run", {"epsilon_threshold": True}, {}, cli.EXIT_SCHEMA),
    ("run", {"true_phi": "0.3"}, {}, cli.EXIT_SCHEMA),
    ("run", {}, {"attack": {"name": "unitary_tamper",
                            "params": {"axis": "Y", "angle": float("inf")}}}, cli.EXIT_SCHEMA),
    ("run", {}, {"attack": {"name": "entangling_memory",
                            "params": {"coupling_angle": float("nan")}}}, cli.EXIT_SCHEMA),
    # an attack refuses a configuration it cannot run under in on_run_start
    ("run", {}, {"attack": {"name": "two_way_swap_leak"}}, cli.EXIT_SCHEMA),
], ids=["T2", "T_past_MAX_ROUNDS", "no_check_rounds", "memory_n2", "steps_string",
        "variable_number", "block_length_fractional", "steps_past_MAX_GRID_STEPS",
        "p_boolean", "angle_boolean", "block_length_boolean", "p_string", "angle_null",
        "coupling_angle_list", "sweep_span_overflows", "threshold_boolean", "phi_string",
        "angle_inf", "coupling_angle_nan", "swap_leak_one_way"])
def test_failures_exit_with_documented_code(tmp_path, command, protocol_edit,
                                            block_edit, code):
    path, scenario = write_scenario(tmp_path, **block_edit)
    scenario["protocol"].update(protocol_edit)
    path.write_text(json.dumps(scenario))
    # an exception escaping main fails the test
    assert cli.main([command, str(path)]) == code


@pytest.mark.parametrize("name,params,key", [
    ("depolarizing", {"p": "0.05"}, "p"),
    ("unitary_tamper", {"axis": "Y", "angle": None}, "angle"),
    ("entangling_memory", {"coupling_angle": [0.3]}, "coupling_angle"),
    ("entangling_memory", {"coupling_angle": 0.3, "block_length": "2"}, "block_length"),
])
def test_attack_parameter_type_errors_name_the_parameter(tmp_path, capsys, name, params, key):
    # each value is checked to be a real number before the attack formats
    # its name with it, so the message names the parameter
    path, _ = write_scenario(tmp_path, attack={"name": name, "params": params})
    assert cli.main(["run", str(path)]) == cli.EXIT_SCHEMA
    assert f"{key} must be a real number, not {params[key]!r}" in capsys.readouterr().err


def test_successive_main_calls_parse_independently(tmp_path, capsys):
    # the parser is built once per process; no option of one call, global
    # or of a subcommand, carries over to the next
    assert cli.build_parser() is cli.build_parser()
    path, _ = write_scenario(tmp_path, attack={"name": "depolarizing", "params": {"p": 0.5}})
    summary = tmp_path / "summary.json"
    assert cli.main(["--seed", "5", "--strict-abort", "run", str(path)]) == cli.EXIT_ABORTED
    assert json.loads(summary.read_text())["seed"] == 5
    bounds = ["bounds", "--mode", "one_way_individual", "--variant", "mub",
              "--epsilon", "0.1", "--phi", "0.3", "--N-e", "100"]
    assert cli.main([*bounds, "--output", str(tmp_path / "bounds.json")]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(bounds) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["bounds"]
    assert cli.main(["run", str(path)]) == cli.EXIT_OK
    assert json.loads(summary.read_text())["seed"] == 777


def run_python(*args):
    """``python ARGS`` in a subprocess, importing this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=300)


def run_module(*args):
    """``python -m dqsim.cli ARGS`` in a subprocess, importing this checkout."""
    return run_python("-m", "dqsim.cli", *args)


class _Lossy(adversary.AttackModel):
    """A forward instrument that loses weight: one half-weight branch, or a
    depolarizing Kraus set without its identity operator."""

    name = "lossy"

    def __init__(self, kind):
        self.kind = kind

    def forward_branches(self, n, frame):
        if self.kind == "half_weight":
            return [("half", 0.5, [np.eye(2 ** n)])]
        return [("lossy", 1.0, qcore.depolarizing_channel(0.3, n)[1:])]


@pytest.mark.parametrize("kind", ["half_weight", "incomplete_kraus"])
def test_run_rejects_instrument_that_does_not_preserve_trace(tmp_path, monkeypatch, kind):
    monkeypatch.setitem(cli.ATTACKS, "lossy", _Lossy)
    path, _ = write_scenario(tmp_path, attack={"name": "lossy", "params": {"kind": kind}})
    assert cli.main(["run", str(path)]) == cli.EXIT_SCHEMA
    assert not (tmp_path / "tr.tsv").exists()


class _BadCoupling(adversary.EntanglingMemoryAttack):
    """Entangling memory whose coupling is scaled off unitary or holds a NaN."""

    def __init__(self, kind):
        super().__init__(0.3)
        self.kind = kind

    def block_coupling(self, n):
        coupling = super().block_coupling(n)
        if self.kind == "non_unitary":
            return 1.001 * coupling
        coupling[3, 3] = np.nan
        return coupling


@pytest.mark.parametrize("kind", ["non_unitary", "nan"])
def test_run_rejects_coupling_that_is_not_unitary(tmp_path, monkeypatch, capsys, kind):
    monkeypatch.setitem(cli.ATTACKS, "bad_coupling", _BadCoupling)
    path, _ = write_scenario(tmp_path, attack={"name": "bad_coupling", "params": {"kind": kind}})
    assert cli.main(["run", str(path)]) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "coupling is not unitary" in err and "Traceback" not in err
    assert not (tmp_path / "tr.tsv").exists()


class _BadSubstitute(adversary.TwoWaySwapLeakAttack):
    """Swap-leak whose substitute is off unit trace or not positive."""

    def __init__(self, kind):
        self.kind = kind

    def on_run_start(self, public_config, frame):
        super().on_run_start(public_config, frame)
        good = self._substitute.data
        self._substitute = (1.5 * good if self.kind == "not_unit_trace"
                            else np.diag([1.2, -0.2]).astype(complex))


@pytest.mark.parametrize("kind", ["not_unit_trace", "not_positive"])
def test_run_rejects_substitute_that_is_not_a_state(tmp_path, monkeypatch, capsys, kind):
    monkeypatch.setitem(cli.ATTACKS, "bad_substitute", _BadSubstitute)
    protocol = {"variant": "mub", "direction": "two_way", "n": 1, "T": 300, "p_c": 0.5,
                "p_e": 0.5, "p_d": 0.0, "epsilon_threshold": 0.251, "true_phi": 0.3,
                "seed": 7}
    path, _ = write_scenario(tmp_path, protocol=protocol,
                             attack={"name": "bad_substitute", "params": {"kind": kind}})
    assert cli.main(["run", str(path)]) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "density matrix" in err and "Traceback" not in err
    assert not (tmp_path / "tr.tsv").exists()


def test_module_entry_point_starts_without_warnings():
    proc = run_module("bounds", "--mode", "one_way_individual", "--variant", "mub",
                      "--epsilon", "0.1", "--phi", "0.5", "--N-e", "10")
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_runtime_imports_no_scipy():
    # scipy is a test-only dependency: the tests use it as an oracle
    proc = run_python("-c", "import sys, dqsim, dqsim.cli; "
                            "print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
    header, rows = parse_transcript((tmp_path / "tr.tsv").read_text())
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


@pytest.mark.parametrize("output", [
    {"transcript": "out.txt", "summary": "sub/../out.txt"},
    {"transcript": "./summary.json"},  # the summary's default
], ids=["explicit_pair", "default_summary"])
def test_run_rejects_one_file_for_both_outputs(tmp_path, monkeypatch, capsys, output):
    # the summary would silently overwrite the transcript
    monkeypatch.chdir(tmp_path)
    path, _ = write_scenario(tmp_path, output=output)
    assert cli.main(["run", str(path)]) == cli.EXIT_SCHEMA
    assert "one file" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["scenario.json"]


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


def test_sweep_threads_match_serial(tmp_path, monkeypatch):
    # --threads is accepted and changes nothing: no thread starts, same bytes
    def refuse(self):
        raise AssertionError("a sweep started a thread")

    path, _ = write_scenario(
        tmp_path,
        attack={"name": "depolarizing", "params": {"p": 0.2}},
        sweep={"variable": "phi", "start": 0.3, "stop": 0.9, "steps": 3})
    assert cli.main(["sweep", str(path)]) == cli.EXIT_OK
    serial = (tmp_path / "sweep.csv").read_bytes()
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert cli.main(["--threads", "3", "sweep", str(path)]) == cli.EXIT_OK
    assert (tmp_path / "sweep.csv").read_bytes() == serial


def reference_sweep_point(scenario, value, seed=None):
    """One sweep row from two per-round ``protocol.run`` calls under one seed:
    the sweep point as it was computed before its twins were drawn
    counts-first, kept as the oracle."""
    variable = scenario["sweep"]["variable"]
    if variable == "phi":
        config = replace(cli.build_config(scenario, seed), true_phi=float(value))
        attack = cli.build_attack(scenario)
    else:
        config = cli.build_config(scenario, seed)
        attack = cli.build_attack(scenario, {variable.split(".", 1)[1]: float(value)})
    tr_att = protocol.run(config, attack)
    tr_idl = protocol.run(config, adversary.IdentityAttack())
    chk = protocol.check_fidelity(tr_att)
    est_att = protocol.estimate_phase(tr_att)
    est_idl = protocol.estimate_phase(tr_idl)
    var_att, var_idl = (cli._batched_phi_variance(config, protocol.product_classes(
        tr.window_counts(cli.VARIANCE_WINDOWS))) for tr in (tr_att, tr_idl))
    mode = cli._bounds_mode(scenario, config)
    phi = config.true_phi
    eps0 = metrics.epsilon0(mode, config.variant, chk.epsilon_implied,
                            T=config.T, N_d=tr_att.N_d, n=config.n, phi=phi)
    f_hat = chk.fidelity_estimate
    if isinstance(f_hat, dict):
        f_hat = min(f_hat.values())
    return {
        "theta": phi / 2.0, "phi": phi, "F_hat": f_hat,
        "epsilon_implied": chk.epsilon_implied, "passed": chk.passed,
        "phi_hat": est_att.phi_hat, "phi_hat_se": est_att.standard_error,
        "bias_emp": abs(est_att.phi_hat - est_idl.phi_hat),
        "bias_bound": metrics.bias_bound(eps0, config.n, phi),
        "var_emp": var_att, "var_discrepancy": abs(var_att - var_idl),
        "var_bound": metrics.variance_bound(eps0, config.n, phi, mode, N_e=max(tr_att.N_e, 1)),
        "mode": mode, "variant": config.variant, "sweep_value": float(value),
    }


def formatted(row):
    """A sweep row's CSV cells."""
    return [cli._fmt(row[c]) for c in cli.CSV_COLUMNS]


def csv_rows(tmp_path):
    with open(tmp_path / "sweep.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == cli.CSV_COLUMNS
    return rows


def point_row(scenario, value, seed=None):
    """The row of ``cli.sweep_rows`` at one value: a one-step sweep there."""
    sweep = dict(scenario["sweep"], start=value, stop=value, steps=1)
    return cli.sweep_rows(dict(scenario, sweep=sweep), seed)[0]


def spy_attacked_pushes(monkeypatch):
    """Wrap ``protocol._push``; returns the list of the branch labels of
    every push it sees, identity twins' pushes left out."""
    pushed, push = [], protocol._push

    def spy(n, fwd):
        labels = None if fwd is None else tuple(branch[0] for branch in fwd)
        if labels not in (None, ("identity",)):
            pushed.append(labels)
        return push(n, fwd)

    monkeypatch.setattr(protocol, "_push", spy)
    return pushed


SWEEP_ORACLE_CASES = {
    "depolarizing_n1": (1, {"name": "depolarizing", "params": {"p": 0.1}}),
    "depolarizing_n4": (4, {"name": "depolarizing", "params": {"p": 0.1}}),
    "intercept_resend_n2": (2, {"name": "intercept_resend",
                                "params": {"basis_strategy": "random"}}),
    "y_tamper_n2": (2, {"name": "unitary_tamper", "params": {"axis": "Y", "angle": 0.2}}),
}

# The counts-first rows against the per-round oracle's, SWEEP_SEEDS seeds
# each (disjoint, so the samples are independent) at one sweep point: the
# means of phi_hat, F_hat and bias_emp must agree within Z_SWEEP Welch
# standard errors.  Under one law the statistic is Student t with about 78
# degrees of freedom, so a statistic fails falsely with probability 3.4e-6,
# a case with 1.0e-5, and the 16 cases together with 1.7e-4.
SWEEP_SEEDS = 40
Z_SWEEP = 5.0


def assert_rows_agree_in_law(scenario, value):
    new = [point_row(scenario, value, seed) for seed in range(SWEEP_SEEDS)]
    old = [reference_sweep_point(scenario, value, seed)
           for seed in range(SWEEP_SEEDS, 2 * SWEEP_SEEDS)]
    for column in ("phi_hat", "F_hat", "bias_emp"):
        a, b = (np.array([row[column] for row in rows]) for rows in (new, old))
        se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        assert abs(a.mean() - b.mean()) <= Z_SWEEP * se + 1e-12, (column, a.mean(), b.mean(), se)


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("direction", protocol.DIRECTIONS)
@pytest.mark.parametrize("variant", protocol.VARIANTS)
@pytest.mark.parametrize("case", sorted(SWEEP_ORACLE_CASES))
def test_phi_sweep_rows_match_fresh_twin_runs(tmp_path, monkeypatch, case, variant,
                                              direction, threads):
    # a phase sweep pushes the probes through the attack once; its rows are
    # those of one-step sweeps at its points, at any --threads (which
    # changes no row, so the law is compared once per case), and agree in law
    # with the rows of two per-round runs per point
    n, attack = SWEEP_ORACLE_CASES[case]
    path, scenario = write_scenario(tmp_path, attack=attack,
                                    sweep={"variable": "phi", "start": 0.1, "stop": 0.6,
                                           "steps": 3})
    scenario["protocol"].update(variant=variant, direction=direction, n=n, T=1500)
    path.write_text(json.dumps(scenario))
    pushed = spy_attacked_pushes(monkeypatch)
    assert cli.main(["--threads", threads, "sweep", str(path)]) == cli.EXIT_OK
    assert len(pushed) == 1
    monkeypatch.undo()
    values = cli.sweep_values(scenario)
    assert csv_rows(tmp_path) == [formatted(point_row(scenario, v)) for v in values]
    if threads == "1":
        assert_rows_agree_in_law(scenario, values[1])


@pytest.mark.parametrize("case", sorted(SWEEP_ORACLE_CASES))
def test_run_with_a_shared_push_is_the_fresh_run(tmp_path, case):
    # one twin_counts call starts the attack and pushes the probes once for
    # all its phases; each phase's counts are those of a one-phase call on a
    # fresh attack
    n, attack = SWEEP_ORACLE_CASES[case]
    _, scenario = write_scenario(tmp_path, attack=attack)
    phis = [0.1, 0.7, 1.3]
    for direction in protocol.DIRECTIONS:
        config = replace(cli.build_config(scenario), n=n, T=500, direction=direction)
        shared = protocol.twin_counts(config, cli.build_attack(scenario), 20, phis)
        assert shared[0].shape == (len(phis), 2, *protocol._CELL_SHAPE)
        assert shared[1].shape == (len(phis), 2, 20, 3)
        for i, phi in enumerate(phis):
            fresh = protocol.twin_counts(config, cli.build_attack(scenario), 20, [phi])
            for part, one in zip(shared, fresh):
                np.testing.assert_array_equal(part[i], one[0])


def test_counts_first_twins_keep_the_shared_seed_coupling():
    # criterion 05's scenario at phi = 0.6: the shared seed holds bias_emp's
    # spread near the per-round twins' and far below that of twins under
    # independent seeds.  Standard deviations over 40 seeds each; with the
    # ratios measured (new/per-round about 1.1, new/independent about 0.2)
    # each bound fails falsely with probability below 2e-8 (F test, 39 and 39
    # degrees of freedom).
    scenario = {
        "protocol": {"variant": "entanglement", "direction": "one_way", "n": 1,
                     "T": 30_000, "p_c": 0.5, "p_e": 0.5, "p_d": 0.0,
                     "epsilon_threshold": 0.251, "true_phi": 0.3, "seed": 20240105},
        "attack": {"name": "depolarizing", "params": {"p": 0.084}},
        "sweep": {"variable": "phi", "start": 0.6, "stop": 0.6, "steps": 1},
    }
    seeds = range(100, 140)
    new = [point_row(scenario, 0.6, seed) for seed in seeds]
    old = [reference_sweep_point(scenario, 0.6, seed) for seed in seeds]
    config = replace(cli.build_config(scenario), true_phi=0.6)
    independent = [abs(row["phi_hat"] - protocol.estimate_phase(protocol.run(
        replace(config, seed=seed + 1000), adversary.IdentityAttack())).phi_hat)
        for row, seed in zip(old, seeds)]
    spread_new, spread_old = (np.std([row["bias_emp"] for row in rows], ddof=1)
                              for rows in (new, old))
    assert spread_new <= 3.0 * spread_old
    assert spread_new <= 0.5 * np.std(independent, ddof=1)


MEMORY_SWEEPS = {
    "entangling_memory_phi": ("one_way", {"name": "entangling_memory", "params": {
        "coupling_angle": 0.3, "block_length": 3, "ancilla_mode": "measure"}}, "phi"),
    "entangling_memory_coupling": ("one_way", {"name": "entangling_memory", "params": {
        "coupling_angle": 0.3}}, "attack.coupling_angle"),
    "swap_leak_phi": ("two_way", {"name": "two_way_swap_leak"}, "phi"),
}


@pytest.mark.parametrize("case", sorted(MEMORY_SWEEPS))
def test_memory_sweep_rows_match_per_round_twins(tmp_path, case):
    # a memory attack's twins still run round by round, and their window
    # counts come from the cell columns
    direction, attack, variable = MEMORY_SWEEPS[case]
    path, scenario = write_scenario(tmp_path, attack=attack,
                                    sweep={"variable": variable, "start": 0.2, "stop": 0.6,
                                           "steps": 3})
    scenario["protocol"].update(direction=direction, T=600, p_c=0.4, p_e=0.4, p_d=0.2)
    path.write_text(json.dumps(scenario))
    assert cli.main(["sweep", str(path)]) == cli.EXIT_OK
    assert csv_rows(tmp_path) == [formatted(reference_sweep_point(scenario, v))
                                  for v in cli.sweep_values(scenario)]


@pytest.mark.parametrize("attack,sweep", [
    ({"name": "intercept_resend", "params": {"basis_strategy": "random"}},
     {"variable": "phi", "start": 0.1, "stop": 0.6, "steps": 3}),
    ({"name": "depolarizing", "params": {"p": 0.0}},
     {"variable": "attack.p", "start": 0.0, "stop": 0.4, "steps": 3}),
], ids=["intercept_resend_phi", "depolarizing_p"])
def test_counts_first_points_draw_no_rounds(tmp_path, monkeypatch, attack, sweep):
    def refuse(*args, **kwargs):
        raise AssertionError("a counts-first sweep point drew rounds one by one")

    path, _ = write_scenario(tmp_path, attack=attack, sweep=sweep)
    monkeypatch.setattr(protocol, "run", refuse)
    for cls in (adversary.AttackModel, adversary.InterceptResendAttack):
        monkeypatch.setattr(cls, "record_round", refuse)
    assert cli.main(["sweep", str(path)]) == cli.EXIT_OK
    assert len(csv_rows(tmp_path)) == 3


def test_attack_sweep_pushes_once_per_point(tmp_path, monkeypatch):
    path, scenario = write_scenario(
        tmp_path, attack={"name": "depolarizing", "params": {"p": 0.0}},
        sweep={"variable": "attack.p", "start": 0.0, "stop": 0.4, "steps": 3})
    scenario["protocol"].update(n=2, T=1500)
    path.write_text(json.dumps(scenario))
    pushed = spy_attacked_pushes(monkeypatch)
    assert cli.main(["sweep", str(path)]) == cli.EXIT_OK
    assert len(pushed) == 3
    monkeypatch.undo()
    assert csv_rows(tmp_path) == [formatted(point_row(scenario, v))
                                  for v in cli.sweep_values(scenario)]


def test_sweep_with_one_point_lacking_rounds_exits_insufficient(tmp_path, capsys):
    # seed 13 leaves the middle point's attacked twin no kept YY check round;
    # the points on either side analyse alone, and the whole sweep, analysed
    # in one stacked check, stops with the exit code of a row-by-row sweep
    path, scenario = write_scenario(
        tmp_path, attack={"name": "depolarizing", "params": {"p": 0.1}},
        sweep={"variable": "phi", "start": 0.2, "stop": 1.0, "steps": 3})
    scenario["protocol"].update(T=24, p_c=0.4, p_e=0.4, p_d=0.2, seed=13)
    path.write_text(json.dumps(scenario))
    assert cli.main(["sweep", str(path)]) == cli.EXIT_INSUFFICIENT_ROUNDS
    assert "no kept check rounds for correlator(s) YY" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()
    for value in (0.2, 1.0):
        assert point_row(scenario, value)["phi"] == value
    with pytest.raises(protocol.InsufficientRoundsError):
        point_row(scenario, 0.6)


@pytest.mark.parametrize("threads", ["0", "-1", "-100000"])
def test_sweep_rejects_threads_below_one(tmp_path, capsys, threads):
    path, _ = write_scenario(
        tmp_path, sweep={"variable": "phi", "start": 0.3, "stop": 0.9, "steps": 3})
    assert cli.main(["--threads", threads, "sweep", str(path)]) == cli.EXIT_SCHEMA
    assert "schema error: --threads must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_over_attack_parameter(tmp_path):
    path, _ = write_scenario(
        tmp_path,
        attack={"name": "depolarizing", "params": {"p": 0.0}},
        sweep={"variable": "attack.p", "start": 0.0, "stop": 0.4, "steps": 3})
    assert cli.main(["sweep", str(path)]) == cli.EXIT_OK
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    rows = [dict(zip(cli.CSV_COLUMNS, line.split(","))) for line in lines[1:]]
    f_hats = [float(row["F_hat"]) for row in rows]
    assert f_hats[0] > f_hats[1] > f_hats[2]
    assert [float(row["sweep_value"]) for row in rows] == [0.0, 0.2, 0.4]


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
    # N_d = T - 1 makes the symmetry term's prefactor, and so the term, zero
    rc = cli.main(["bounds", "--mode", "two_way_gc", "--variant", "entanglement",
                   "--epsilon", "0.0", "--n", "1", "--T", "10", "--N-d", "9",
                   "--phi", "1.5707963267948966"])
    assert rc == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["bounds"][0]["epsilon0"] == pytest.approx(1.0)


@pytest.mark.parametrize("mode", ["one_way_gc", "two_way_gc"])
def test_bounds_without_discarded_rounds_are_infinite(capsys, mode):
    # no discarded round bounds the symmetry term: it is the limit N_d -> 0, inf
    rc = cli.main(["bounds", "--mode", mode, "--variant", "mub", "--epsilon", "0.1",
                   "--n", "1", "--T", "1000", "--N-d", "0", "--phi", "0.3"])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "Infinity" in out
    row = json.loads(out)["bounds"][0]
    assert row["epsilon0"] == row["bias_bound"] == row["variance_bound"] == math.inf


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
    ["--mode", "one_way_individual", "--epsilon", "0.2", "--N-e", "10",
     "--phi-start", "0.1", "--phi-stop", "0.5", "--phi-steps", str(10 ** 15)],
    ["--mode", "one_way_gc", "--epsilon", "0.2", "--T", str(10 ** 400), "--N-d", "10",
     "--phi", "0.5"],
    ["--mode", "one_way_individual", "--epsilon", "0.2", "--N-e", str(10 ** 400),
     "--phi", "0.5"],
    ["--mode", "one_way_individual", "--epsilon", "0.2", "--N-e", "10",
     "--n", str(10 ** 400), "--phi", "0.5"],
    # a collective bound never reads N_e, but metrics checks any N_e it is given
    ["--mode", "one_way_gc", "--epsilon", "0.2", "--T", "100", "--N-d", "10",
     "--N-e", str(10 ** 400), "--phi", "0.5"],
    ["--mode", "one_way_gc", "--epsilon", "0.2", "--T", "100", "--N-d", "10",
     "--N-e", "-3", "--phi", "0.5"],
], ids=["epsilon_nan", "phi_inf", "grid_nan", "gc_without_T", "two_way_without_N_d",
        "negative_steps", "steps_past_MAX_GRID_STEPS", "T_beyond_float", "N_e_beyond_float",
        "n_beyond_float", "gc_N_e_beyond_float", "gc_N_e_negative"])
def test_bounds_bad_inputs_exit_with_schema_code(args, capsys):
    assert cli.main(["bounds", "--variant", "entanglement", *args]) == cli.EXIT_SCHEMA
    assert "NaN" not in capsys.readouterr().out


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


_SWEEP = {"variable": "phi", "start": 0.1, "stop": 0.5, "steps": 3}
_GRID = ["--phi-start", "0.1", "--phi-stop", "0.5", "--phi-steps", "3"]


@pytest.mark.parametrize("command,edit,message", [
    ("sweep", {"start": "0.1"}, "sweep.start must be a real number, not '0.1'"),
    ("sweep", {"stop": 10 ** 400}, "sweep.stop must be finite"),
    ("sweep", {"steps": 3.0}, "sweep.steps must be an integer >= 1, not 3.0"),
    ("sweep", {"steps": True}, "sweep.steps must be an integer >= 1, not True"),
    ("sweep", {"steps": 10 ** 15},
     f"sweep.steps must lie in [1, {cli.MAX_GRID_STEPS}], not {10 ** 15}"),
    ("sweep", {"start": -1e308, "stop": 1e308}, "sweep.stop - sweep.start must be finite"),
    ("bounds", ["--phi", "nan"], "--phi must be finite"),
    ("bounds", [*_GRID, "--phi-start", "inf"], "--phi-start must be finite"),
    ("bounds", [*_GRID, "--phi-steps", "0"],
     f"--phi-steps must lie in [1, {cli.MAX_GRID_STEPS}], not 0"),
    # finite ends whose difference overflows: linspace would warn and make nan and inf
    ("bounds", [*_GRID, "--phi-start=-1e308", "--phi-stop", "1e308"],
     "--phi-stop - --phi-start must be finite"),
], ids=["start_string", "stop_beyond_float", "steps_float", "steps_boolean",
        "steps_past_MAX_GRID_STEPS", "span_overflows", "phi_nan", "phi_start_inf",
        "phi_steps_zero", "phi_span_overflows"])
def test_grid_inputs_exit_with_a_message_naming_them(tmp_path, capsys, command, edit, message):
    # a sweep's and a bounds grid's numbers follow qcore's two rules, and their
    # ends' difference must be finite too
    if command == "sweep":
        path, _ = write_scenario(tmp_path, sweep={**_SWEEP, **edit})
        argv = ["sweep", str(path)]
    else:
        argv = ["bounds", "--mode", "one_way_individual", "--variant", "mub",
                "--epsilon", "0.1", "--N-e", "10", *edit]
    assert cli.main(argv) == cli.EXIT_SCHEMA
    assert capsys.readouterr().err == f"schema error: {message}\n"


def test_huge_threshold_passes_and_bounds_are_infinite(tmp_path, capsys):
    # epsilon^2 overflows a float: every check passes and the composed
    # bounds are infinite, with no OverflowError on the way
    path, scenario = write_scenario(
        tmp_path, attack={"name": "depolarizing", "params": {"p": 0.5}},
        sweep={"variable": "phi", "start": 0.3, "stop": 0.9, "steps": 2})
    scenario["protocol"]["epsilon_threshold"] = 1e200
    path.write_text(json.dumps(scenario))
    assert cli.main(["run", str(path)]) == cli.EXIT_OK
    assert json.loads((tmp_path / "summary.json").read_text())["passed"] is True
    assert cli.main(["sweep", str(path)]) == cli.EXIT_OK
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    eq = tmp_path / "eq.json"
    assert cli.main(["equivalence", str(path), "--output", str(eq)]) == cli.EXIT_OK
    report = json.loads(eq.read_text())
    assert report["entanglement_passed"] is True and report["mub_passed"] is True
    for mode in ("one_way_gc", "two_way_gc"):
        for variant in ("entanglement", "mub"):
            capsys.readouterr()
            assert cli.main(["bounds", "--mode", mode, "--variant", variant,
                             "--epsilon", "1e200", "--phi", "0.3", "--T", "100",
                             "--N-d", "10"]) == cli.EXIT_OK
            row = json.loads(capsys.readouterr().out)["bounds"][0]
            assert row["epsilon0"] == row["bias_bound"] == row["variance_bound"] == math.inf


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


@pytest.mark.parametrize("args", [
    ["--restarts", "0"],
    ["--restarts", "-1"],
    ["--verify-seed", "-1"],
], ids=["restarts_0", "restarts_negative", "verify_seed_negative"])
def test_bad_counts_exit_with_schema_code(tmp_path, args):
    # a zero restart count once exited 0 with 50 passing LOCC1 checks from
    # no search at all
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--output", str(out), *args]) == cli.EXIT_SCHEMA
    assert not out.exists()


def test_verify_output_does_not_depend_on_restarts(tmp_path):
    # every suite's LOCC1 search is two-party, which runs one start
    outputs = []
    for restarts in ("1", "6"):
        out = tmp_path / f"verify{restarts}.json"
        assert cli.main(["verify", "--restarts", restarts, "--output", str(out)]) == cli.EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


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


# ---------------------------------------------------------------- analysis outputs

# sha256 of the analysis outputs of one small scenario per variant and
# engine: the fast path under depolarizing noise at n = 2, where leak
# outcomes occur, and the stateful path under the entangling-memory attack.
# They pin the check, the estimator, the bounds and the equivalence report
# on top of the transcripts that STREAM_DIGESTS in test_protocol pins; the
# equivalence report analyses one run as both variants, so it does not
# depend on the scenario's variant.  The sweep entries moved when
# ``var_emp`` took windows of rounds and twins under memoryless attacks
# became counts-first; the fast ones moved again when the forward push went
# from densities to kets, which moves the pair law by at most 2.2e-16 but
# adds or drops a zero-width interval, and so a category of the multinomial;
# and again when each window came to draw the nine product classes of its
# pairs, and the whole run the pairs within each class.
ANALYSIS_DIGESTS = {
    ("entanglement", "fast"): {
        "run": "c1a474274f042b792c6c38657b03b1b6f708ff251a663bc09fd3a9f39f44aedf",
        "sweep": "da6031a2718343a9828a7c468d823c4d2bb3d5ef779423876917ed207fc571e8",
        "equivalence": "ec13cbadb5f29064c6f1bdb88c6df5db453c7addd77a260b77c6f1befe4489d8",
    },
    ("entanglement", "stateful"): {
        "run": "68fdfd446f3113debeaf9846012c68eaede326998965c41facb89a67d6663aa8",
        "sweep": "d3dbce719b341bdfb12150e7d6e0aa3fbda1e68c035072def8ec3640832ff359",
        "equivalence": "ede39b056e41cca1e70092e65016f427556479b91b5b8171e973e8943990bafb",
    },
    ("mub", "fast"): {
        "run": "b4b372211e3ee2950da21cf52f5296477262f3d5c2cbd392da35d13cab87068f",
        "sweep": "8edb25827dc907fecfaf63cc12824aa9a370ff25e0541d4506ec7fc9fa6dec41",
        "equivalence": "ec13cbadb5f29064c6f1bdb88c6df5db453c7addd77a260b77c6f1befe4489d8",
    },
    ("mub", "stateful"): {
        "run": "473fdb4af53942968431a6ead441a905b5d7b70df1830409a451d00dfe409587",
        "sweep": "6c296effa2bd21216b3f81a465d3614caaf8f7416a498d2ddbf54b51da8ea550",
        "equivalence": "ede39b056e41cca1e70092e65016f427556479b91b5b8171e973e8943990bafb",
    },
}
_ANALYSIS_ENGINES = {
    "fast": (dict(n=2, T=3000), {"name": "depolarizing", "params": {"p": 0.2}}),
    "stateful": (dict(n=1, T=600), {"name": "entangling_memory",
                                    "params": {"coupling_angle": 0.3}}),
}


@pytest.mark.parametrize("variant,engine", sorted(ANALYSIS_DIGESTS))
def test_analysis_output_digests(tmp_path, variant, engine):
    protocol_edit, attack = _ANALYSIS_ENGINES[engine]
    path, scenario = write_scenario(
        tmp_path, attack=attack,
        sweep={"variable": "phi", "start": 0.3, "stop": 0.9, "steps": 2})
    scenario["protocol"].update(variant=variant, p_c=0.4, p_e=0.4, p_d=0.2, seed=2024,
                                **protocol_edit)
    path.write_text(json.dumps(scenario))
    outputs = {"run": tmp_path / "summary.json", "sweep": tmp_path / "sweep.csv",
               "equivalence": tmp_path / "eq.json"}
    for command, out in outputs.items():
        extra = ["--output", str(out)] if command == "equivalence" else []
        assert cli.main([command, str(path), *extra]) == cli.EXIT_OK
    digests = {command: hashlib.sha256(out.read_bytes()).hexdigest()
               for command, out in outputs.items()}
    assert digests == ANALYSIS_DIGESTS[variant, engine]


# sha256 of the CSVs of sweeps no ANALYSIS_DIGESTS entry covers, with each
# scenario's protocol edit, attack and sweep: an attack-parameter sweep,
# whose points each build their own attack, at n = 2 on both variants, and
# a two-way phase sweep under intercept-resend, whose forward instrument
# has nine labelled branches.  All three moved for the reasons the fast
# sweep entries of ANALYSIS_DIGESTS did (the attack-parameter sweeps only
# with the class draw).
SWEEP_DIGESTS = {
    "depolarizing_p/entanglement": (
        dict(variant="entanglement", n=2), {"name": "depolarizing", "params": {"p": 0.0}},
        {"variable": "attack.p", "start": 0.0, "stop": 0.3, "steps": 3},
        "968a4379a0a7ec30f659d067d98b3e2b70441096aa62eb9cd00a9089ab04551a"),
    "depolarizing_p/mub": (
        dict(variant="mub", n=2), {"name": "depolarizing", "params": {"p": 0.0}},
        {"variable": "attack.p", "start": 0.0, "stop": 0.3, "steps": 3},
        "840cca8549060cc63f43d81d5dbe6612d5dadb4d34c61125b33ad3befbbda00d"),
    "intercept_resend_phi/two_way": (
        dict(direction="two_way", n=2),
        {"name": "intercept_resend", "params": {"basis_strategy": "random"}},
        {"variable": "phi", "start": 0.1, "stop": 0.7, "steps": 3},
        "851a5b063b772e066c48f4bbb4cf3c8fb3af963ef283b2f568cf7103698320ee"),
}


@pytest.mark.parametrize("case", sorted(SWEEP_DIGESTS))
def test_sweep_output_digests(tmp_path, case):
    protocol_edit, attack, sweep, digest = SWEEP_DIGESTS[case]
    path, scenario = write_scenario(tmp_path, attack=attack, sweep=sweep)
    scenario["protocol"].update(T=3000, p_c=0.4, p_e=0.4, p_d=0.2, seed=2024, **protocol_edit)
    path.write_text(json.dumps(scenario))
    assert cli.main(["sweep", str(path)]) == cli.EXIT_OK
    assert hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------- scenario fuzzing

# one valid attack block per attack; a fuzzed scenario starts from one
_FUZZ_ATTACKS = [
    {"name": "identity", "params": {}},
    {"name": "depolarizing", "params": {"p": 0.1}},
    {"name": "unitary_tamper", "params": {"axis": "X", "angle": 0.2}},
    {"name": "intercept_resend", "params": {"basis_strategy": "random"}},
    {"name": "entangling_memory",
     "params": {"coupling_angle": 0.3, "block_length": 2, "ancilla_mode": "measure"}},
    {"name": "two_way_swap_leak", "params": {}},
]
# where each fuzzed block sits in the scenario, and the keys an edit may set
# in it besides an unknown one
_FUZZ_BLOCKS = {
    "scenario": ((), ["protocol", "attack", "sweep", "output", "bounds"]),
    "protocol": (("protocol",), ["variant", "direction", "n", "p_c", "p_e", "p_d",
                                 "epsilon_threshold", "true_phi", "seed"]),
    "attack": (("attack",), ["name", "params"]),
    "params": (("attack", "params"),
               sorted({k for cls in cli.ATTACKS.values()
                    for k in inspect.signature(cls).parameters})),
    "sweep": (("sweep",), ["variable", "start", "stop", "steps"]),
    "output": (("output",), ["transcript", "summary", "csv"]),
}
_FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(2 ** 63, 2 ** 70),
    st.just(10 ** 400), st.floats(), st.text(max_size=3),
    st.sampled_from(["entanglement", "mub", "one_way", "two_way", "X", "random",
                     "trace", "measure", "phi", "attack.p", *cli.ATTACKS]),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["p", "mode", "variable"]), st.integers(0, 3),
                    max_size=2),
)
# T stays in [1, 200] so that every run is short; its bad values are types
_FUZZ_T = st.one_of(st.integers(1, 200), st.integers(-3, 0), st.none(),
                    st.floats(), st.text(max_size=2))


def _mutated(attack, T, edits):
    scenario = {
        "protocol": {"variant": "mub", "direction": "two_way", "n": 1, "T": T,
                     "p_c": 0.4, "p_e": 0.4, "p_d": 0.2, "epsilon_threshold": 0.3,
                     "true_phi": 0.3, "seed": 5},
        "attack": json.loads(json.dumps(_FUZZ_ATTACKS[attack])),
        "sweep": {"variable": "phi", "start": 0.1, "stop": 0.5, "steps": 3},
        "output": {"transcript": "tr.tsv", "summary": "summary.json"},
    }
    for block, index, value in edits:
        path, keys = _FUZZ_BLOCKS[block]
        target = scenario
        for key in path:
            target = target.get(key) if isinstance(target, dict) else None
        if isinstance(target, dict):
            keys = keys + ["unknown"]
            target[keys[index % len(keys)]] = value
    return scenario


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
# holes the fuzzing found: each escaped main with an exception before,
# except a huge n, which sized the probe register 2^n; a huge T ran out of
# memory allocating its per-round draws
@example(attack=0, T=100, edits=[("attack", 0, [])])            # unhashable name
@example(attack=0, T=200, edits=[("protocol", 0, "entanglement"),
                                 ("output", 0, None)])        # null output path
@example(attack=2, T=100, edits=[("params", 2, None)])          # tamper axis null
@example(attack=2, T=100, edits=[("params", 1, float("inf"))])  # tamper angle inf
@example(attack=4, T=100, edits=[("params", 5, float("inf"))])  # coupling inf
@example(attack=1, T=100, edits=[("params", 6, 10 ** 400)])     # p beyond float
@example(attack=0, T=100, edits=[("protocol", 3, 10 ** 400)])   # p_c beyond float
@example(attack=0, T=100, edits=[("sweep", 1, 10 ** 400)])      # start beyond float
@example(attack=0, T=100, edits=[("protocol", 2, 2 ** 63)])     # n past MAX_QUBITS
@example(attack=0, T=10 ** 13, edits=[])                         # T past MAX_ROUNDS
# values that only ProtocolConfig refuses, the scenario loader checking keys alone
@example(attack=0, T=100, edits=[("protocol", 6, 10 ** 400)])   # threshold beyond float
@example(attack=0, T=100, edits=[("protocol", 7, 10 ** 400)])   # true_phi beyond float
@example(attack=0, T=100, edits=[("protocol", 6, True)])        # threshold true
@example(attack=0, T=100, edits=[("protocol", 7, True)])        # true_phi true
@given(attack=st.integers(0, len(_FUZZ_ATTACKS) - 1), T=_FUZZ_T, edits=st.lists(
    st.tuples(st.sampled_from(sorted(_FUZZ_BLOCKS)), st.integers(0, 20), _FUZZ_VALUES),
    max_size=3))
def test_run_fuzzed_scenario_exits_with_documented_code(attack, T, edits):
    # any scenario ends with a documented exit code; an exception escaping
    # main fails the test
    scenario = _mutated(attack, T, edits)
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh)
        cwd = os.getcwd()
        os.chdir(folder)  # relative output paths land in the scratch folder
        try:
            code = cli.main(["run", path])
        finally:
            os.chdir(cwd)
    assert code in {cli.EXIT_OK, cli.EXIT_SCHEMA, cli.EXIT_ABORTED, cli.EXIT_IO,
                    cli.EXIT_INSUFFICIENT_ROUNDS}
