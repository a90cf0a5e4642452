"""Scenario runner: single executions, bound-versus-empirical sweeps,
bound tables, inequality verification and the variant-equivalence check.

Scenario files are JSON with five blocks: ``protocol`` (the run
configuration), ``attack`` (name plus parameters), optional ``sweep``
(variable, start, stop, steps), optional ``output`` (file paths) and
optional ``bounds`` (the sweep's bound ``mode``, required in the block).
Unknown keys anywhere are rejected.  Identical scenario and seed produce
byte-identical outputs.

Exit codes: 0 success, 2 schema error (including a scenario the attack
cannot run under), 3 check aborted under --strict-abort, 4 I/O failure,
5 too few kept rounds to estimate a required correlator.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import json
import math
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import adversary, metrics, protocol, qcore, stats

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_ABORTED = 3
EXIT_IO = 4
EXIT_INSUFFICIENT_ROUNDS = 5

# Most points in one sweep or bounds grid.  Every row is held in memory until
# written; at about 1 kB per bounds row with its JSON text, a grid stays near 100 MB.
MAX_GRID_STEPS = 10 ** 5

CSV_COLUMNS = [
    "theta", "phi", "F_hat", "epsilon_implied", "passed", "phi_hat",
    "phi_hat_se", "bias_emp", "bias_bound", "var_emp", "var_discrepancy",
    "var_bound", "mode", "variant", "sweep_value",
]


class SchemaError(ValueError):
    """Scenario file violates the expected schema."""


# ---------------------------------------------------------------- scenario schema

ATTACKS = {
    "identity": adversary.IdentityAttack,
    "depolarizing": adversary.DepolarizingAttack,
    "unitary_tamper": adversary.UnitaryTamperAttack,
    "intercept_resend": adversary.InterceptResendAttack,
    "entangling_memory": adversary.EntanglingMemoryAttack,
    "two_way_swap_leak": adversary.TwoWaySwapLeakAttack,
}


def _require_keys(block, allowed, required, where):
    if not isinstance(block, dict):
        raise SchemaError(f"{where} must be an object")
    unknown = set(block) - set(allowed)
    if unknown:
        raise SchemaError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = set(required) - set(block)
    if missing:
        raise SchemaError(f"missing key(s) {sorted(missing)} in {where}")


def _check_grid(start, stop, steps):
    """Check a grid's (name, value) pairs: finite real ends whose difference is
    finite too (``np.linspace`` would make nan and inf of it), and an integer
    count of points in [1, MAX_GRID_STEPS]."""
    try:
        low, high = qcore.real(*start), qcore.real(*stop)
        qcore.integer(*steps, 1, MAX_GRID_STEPS)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    if not math.isfinite(high - low):
        raise SchemaError(f"{stop[0]} - {start[0]} must be finite")


def load_scenario(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"scenario is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("scenario top level must be an object")
    _require_keys(raw, {"protocol", "attack", "sweep", "output", "bounds"},
                  {"protocol", "attack"}, "scenario")

    # the values are ``ProtocolConfig``'s to check, and the attack's parameters its class's
    names = {field.name for field in fields(protocol.ProtocolConfig)}
    _require_keys(raw["protocol"], names, names, "protocol block")

    attack = raw["attack"]
    _require_keys(attack, {"name", "params"}, {"name"}, "attack block")
    name = attack["name"]
    if not isinstance(name, str) or name not in ATTACKS:
        raise SchemaError(f"unknown attack {name!r}; known: {sorted(ATTACKS)}")
    params = attack.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("attack.params must be an object")
    allowed = inspect.signature(ATTACKS[name]).parameters
    _require_keys(params, allowed, set(), f"attack.params for {name!r}")

    if "sweep" in raw:
        sweep = raw["sweep"]
        _require_keys(sweep, {"variable", "start", "stop", "steps"},
                      {"variable", "start", "stop", "steps"}, "sweep block")
        variable = sweep["variable"]
        if not isinstance(variable, str) or (
                variable != "phi" and not variable.startswith("attack.")):
            raise SchemaError("sweep.variable must be 'phi' or 'attack.<param>'")
        if variable.startswith("attack.") and variable.split(".", 1)[1] not in allowed:
            raise SchemaError(f"swept parameter {variable!r} unknown for {name!r}")
        _check_grid(*((f"sweep.{key}", sweep[key]) for key in ("start", "stop", "steps")))
    if "output" in raw:
        _require_keys(raw["output"], {"transcript", "summary", "csv"}, set(),
                      "output block")
        for key, path in raw["output"].items():
            if not isinstance(path, str) or "\0" in path:
                raise SchemaError(f"output.{key} must be a file path")
    if "bounds" in raw:
        _require_keys(raw["bounds"], {"mode"}, {"mode"}, "bounds block")
        if raw["bounds"]["mode"] not in metrics.MODES:
            raise SchemaError(f"bounds.mode must be one of {metrics.MODES}")
    return raw


def build_config(scenario, seed_override=None) -> protocol.ProtocolConfig:
    proto = dict(scenario["protocol"])
    if seed_override is not None:
        proto["seed"] = seed_override
    try:
        return protocol.ProtocolConfig(**proto)
    except ValueError as exc:
        raise SchemaError(f"invalid protocol block: {exc}") from exc


def build_attack(scenario, override=None):
    name = scenario["attack"]["name"]
    params = dict(scenario["attack"].get("params", {}))
    if override:
        params.update(override)
    try:
        return ATTACKS[name](**params)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid attack parameters for {name!r}: {exc}") from exc


def _bounds_mode(scenario, config):
    return (scenario["bounds"]["mode"] if "bounds" in scenario
            else "two_way_gc" if config.direction == "two_way" else "one_way_individual")


# ---------------------------------------------------------------- run

def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _summary_payload(config, transcript, chk, est, attack):
    payload = {
        "config_hash": config.config_hash(),
        "seed": int(config.seed),
        "variant": config.variant,
        "direction": config.direction,
        "F_hat": chk.fidelity_estimate,
        "passed": chk.passed,
        "aborted": not chk.passed,
        "epsilon_implied": chk.epsilon_implied,
        "phi_hat": None if est is None else est.phi_hat,
        "phi_hat_se": None if est is None else est.standard_error,
        "estimate_trusted": chk.passed,
        "counts": {
            "N_c": transcript.N_c, "N_e": transcript.N_e, "N_d": transcript.N_d,
            "N_sifted_away": transcript.N_sifted_away, "N_leak": transcript.N_leak,
        },
        "leak_rate": transcript.leak_rate,
    }
    estimate = attack.eve_estimate()
    if estimate is not None:
        payload["eve_estimate"] = {
            "phi_hat_eve": estimate.phi_hat_eve,
            "samples_used": estimate.samples_used,
            "standard_error": estimate.standard_error,
        }
    return payload


def _dump_json(payload, path):
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=True)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def cmd_run(scenario, seed_override=None, strict_abort=False) -> int:
    out = {"transcript": "transcript.tsv", "summary": "summary.json", **scenario.get("output", {})}
    # one spelled path only: symlinks and hard links are not resolved
    if os.path.abspath(out["transcript"]) == os.path.abspath(out["summary"]):
        raise SchemaError(f"output.transcript and output.summary are one file: {out['summary']!r}")
    config = build_config(scenario, seed_override)
    attack = build_attack(scenario)
    transcript = protocol.run(config, attack)
    chk = protocol.check_fidelity(transcript)
    try:
        est = protocol.estimate_phase(transcript)
    except protocol.InsufficientRoundsError:
        est = None
    transcript.serialize(out["transcript"])
    _dump_json(_summary_payload(config, transcript, chk, est, attack), out["summary"])
    if strict_abort and not chk.passed:
        return EXIT_ABORTED
    return EXIT_OK


# ---------------------------------------------------------------- sweep

# Near-equal windows of rounds of the empirical variance estimate ``var_emp``.
VARIANCE_WINDOWS = 20


def _batched_phi_variance(config, classes):
    """Estimator-variance estimates from windows of rounds' ``protocol.product_classes``,
    shape (..., window, 3): ``stats.batch_statistics`` of each run's windows' pooled phase
    estimates, nested as the leading axes are.  A window with no kept non-leak estimation
    round gives no estimate."""
    sums, kept = classes[..., 2] - classes[..., 0], classes[..., 2] + classes[..., 0]
    phis = np.arccos(np.clip(sums / np.maximum(kept, 1), -1.0, 1.0)) / (2.0 * config.n)
    windows = classes.shape[-2]
    variances = [stats.batch_statistics(p[k > 0]) for p, k in
                 zip(phis.reshape(-1, windows), kept.reshape(-1, windows))]
    return np.reshape(variances, classes.shape[:-2]).tolist()


def sweep_values(scenario):
    block = scenario["sweep"]
    return np.linspace(float(block["start"]), float(block["stop"]),
                       int(block["steps"]))


def sweep_rows(scenario, seed_override=None):
    """The sweep's rows in order, from twin runs (attacked versus identity,
    shared seed): one ``protocol.twin_counts`` call over every phase of a
    ``phi`` sweep, one call per point of an ``attack.<param>`` sweep; one
    check, one estimate and one window pass analyse every point's twins."""
    config = build_config(scenario, seed_override)
    variable, values = scenario["sweep"]["variable"], sweep_values(scenario)
    if variable == "phi":
        phis = values.tolist()
        draws = [protocol.twin_counts(config, build_attack(scenario), VARIANCE_WINDOWS, values)]
    else:
        param, phis = variable.split(".", 1)[1], [config.true_phi] * len(values)
        draws = [protocol.twin_counts(config, build_attack(scenario, {param: float(value)}),
                                      VARIANCE_WINDOWS, [config.true_phi]) for value in values]
    counts, classes = (np.concatenate(part) for part in zip(*draws))
    attacked = protocol.CellCounts(config, counts[:, 0])
    chk = protocol.check_fidelity(attacked)
    est = protocol.estimate_phase(protocol.CellCounts(config, counts))
    variances = _batched_phi_variance(config, classes)
    mode = _bounds_mode(scenario, config)
    rows = []
    for i, (value, phi, N_d, N_e) in enumerate(zip(values, phis, attacked.N_d, attacked.N_e)):
        eps0 = metrics.epsilon0(mode, config.variant, chk.epsilon_implied[i],
                                T=config.T, N_d=N_d, n=config.n, phi=phi)
        f_hat = chk.fidelity_estimate[i]
        if isinstance(f_hat, dict):
            f_hat = min(f_hat.values())
        (phi_att, phi_idl), (var_att, var_idl) = est.phi_hat[i], variances[i]
        rows.append({
            "theta": phi / 2.0,
            "phi": phi,
            "F_hat": f_hat,
            "epsilon_implied": chk.epsilon_implied[i],
            "passed": chk.passed[i],
            "phi_hat": phi_att,
            "phi_hat_se": est.standard_error[i][0],
            "bias_emp": abs(phi_att - phi_idl),
            "bias_bound": metrics.bias_bound(eps0, config.n, phi),
            "var_emp": var_att,
            "var_discrepancy": abs(var_att - var_idl),
            "var_bound": metrics.variance_bound(eps0, config.n, phi, mode, N_e=max(N_e, 1)),
            "mode": mode,
            "variant": config.variant,
            "sweep_value": float(value),
        })
    return rows


def cmd_sweep(scenario, seed_override=None, threads=1) -> int:
    if "sweep" not in scenario:
        raise SchemaError("sweep command needs a sweep block")
    # no sweep reads ``threads``; existing command lines keep their exit codes
    if threads < 1:
        raise SchemaError("--threads must be at least 1")
    rows = sweep_rows(scenario, seed_override)
    path = scenario.get("output", {}).get("csv", "sweep.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])
    return EXIT_OK


# ---------------------------------------------------------------- bounds

def _bounds_phis(args):
    """The phi grid of a bounds request, once its phi inputs are checked."""
    if args.phi is not None:
        return [qcore.real("--phi", args.phi)]
    if None in (args.phi_start, args.phi_stop, args.phi_steps):
        raise SchemaError("bounds needs --phi or --phi-start/stop/steps")
    _check_grid(("--phi-start", args.phi_start), ("--phi-stop", args.phi_stop),
                ("--phi-steps", args.phi_steps))
    return list(np.linspace(args.phi_start, args.phi_stop, args.phi_steps))


def cmd_bounds(mode, variant, epsilon, n, phis, T=None, N_d=None, N_e=None,
               output=None) -> int:
    rows = [asdict(metrics.bound_report(mode, variant, epsilon, n, phi,
                                        T=T, N_d=N_d, N_e=N_e))
            for phi in phis]
    _dump_json({"bounds": rows}, output)
    return EXIT_OK


# ---------------------------------------------------------------- verify

def cmd_verify(seed, restarts=6, inject_violation=False, output=None) -> int:
    # no suite reads ``restarts``; existing command lines keep their exit codes
    if restarts < 1:
        raise SchemaError("--restarts must be at least 1")
    if seed < 0:
        raise SchemaError("--verify-seed must be nonnegative")
    results = metrics.run_inequality_suites(seed=seed, inject_violation=inject_violation)
    payload = {"suites": [{"name": r.name, "checks": r.checks,
                           "violations": r.violations} for r in results]}
    _dump_json(payload, output)
    for r in results:
        status = "ok" if r.passed else "VIOLATED"
        print(f"{r.name}: {r.checks} checks, {r.violations} violations [{status}]",
              file=sys.stderr)
    return EXIT_OK if all(r.passed for r in results) else 1


# ---------------------------------------------------------------- equivalence

def cmd_equivalence(scenario, seed_override=None, output=None) -> int:
    config = build_config(scenario, seed_override)
    attack = build_attack(scenario)
    _dump_json(asdict(protocol.run_mub_equivalence(config, attack)), output)
    return EXIT_OK


# ---------------------------------------------------------------- entry point

@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process; parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="dqsim",
        description="Distributed quantum sensing protocol simulator")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed (64-bit)")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and checked (at least 1) for existing "
                             "command lines, but it changes nothing: a sweep "
                             "runs its points one after the other")
    parser.add_argument("--strict-abort", action="store_true",
                        help="exit with code 3 when the fidelity check fails")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario")
    p_run.add_argument("scenario")

    p_sweep = sub.add_parser("sweep", help="bound-versus-empirical sweep")
    p_sweep.add_argument("scenario")

    p_bounds = sub.add_parser("bounds", help="evaluate the theoretical bounds")
    p_bounds.add_argument("--mode", choices=metrics.MODES, required=True)
    p_bounds.add_argument("--variant", choices=metrics.VARIANTS, required=True)
    p_bounds.add_argument("--epsilon", type=float, required=True)
    p_bounds.add_argument("--n", type=int, default=1)
    p_bounds.add_argument("--T", type=int, default=None)
    p_bounds.add_argument("--N-d", type=int, default=None)
    p_bounds.add_argument("--N-e", type=int, default=None)
    p_bounds.add_argument("--phi", type=float, default=None)
    p_bounds.add_argument("--phi-start", type=float, default=None)
    p_bounds.add_argument("--phi-stop", type=float, default=None)
    p_bounds.add_argument("--phi-steps", type=int, default=None)
    p_bounds.add_argument("--output", default=None)

    p_verify = sub.add_parser("verify", help="run the inequality property suites")
    p_verify.add_argument("--verify-seed", type=int, default=20240001)
    p_verify.add_argument("--restarts", type=int, default=6,
                          help="accepted and checked (at least 1) for existing "
                               "command lines, but no suite reads it: their LOCC1 "
                               "searches are two-party and run one start")
    p_verify.add_argument("--inject-violation", action="store_true",
                          help=argparse.SUPPRESS)
    p_verify.add_argument("--output", default=None)

    p_eq = sub.add_parser("equivalence",
                          help="one run analysed as both protocol variants")
    p_eq.add_argument("scenario")
    p_eq.add_argument("--output", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            scenario = load_scenario(args.scenario)
            return cmd_run(scenario, args.seed, args.strict_abort)
        if args.command == "sweep":
            scenario = load_scenario(args.scenario)
            return cmd_sweep(scenario, args.seed, args.threads)
        if args.command == "bounds":
            try:
                return cmd_bounds(args.mode, args.variant, args.epsilon, args.n,
                                  _bounds_phis(args), T=args.T, N_d=args.N_d, N_e=args.N_e,
                                  output=args.output)
            except ValueError as exc:
                raise SchemaError(str(exc)) from exc
        if args.command == "verify":
            return cmd_verify(args.verify_seed, args.restarts,
                              args.inject_violation, args.output)
        if args.command == "equivalence":
            scenario = load_scenario(args.scenario)
            return cmd_equivalence(scenario, args.seed, args.output)
        raise AssertionError("unreachable")
    except (SchemaError, protocol.UnsupportedAttackError) as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except protocol.InsufficientRoundsError as exc:
        print(f"insufficient rounds: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT_ROUNDS
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
