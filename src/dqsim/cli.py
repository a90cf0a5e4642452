"""Scenario runner: single executions, bound-versus-empirical sweeps,
bound tables, inequality verification and the variant-equivalence check.

Scenario files are JSON with four blocks: ``protocol`` (the run
configuration), ``attack`` (name plus parameters), optional ``sweep``
(variable, start, stop, steps) and optional ``output`` (file paths).
Unknown keys anywhere are rejected.  Identical scenario and seed produce
byte-identical outputs.

Exit codes: 0 success, 2 schema error (including a scenario the attack
cannot run under), 3 check aborted under --strict-abort, 4 I/O failure,
5 too few kept rounds to estimate a required correlator.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from . import adversary, metrics, protocol, stats

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_ABORTED = 3
EXIT_IO = 4
EXIT_INSUFFICIENT_ROUNDS = 5

CSV_COLUMNS = [
    "theta", "phi", "F_hat", "epsilon_implied", "passed", "phi_hat",
    "phi_hat_se", "bias_emp", "bias_bound", "var_emp", "var_discrepancy",
    "var_bound", "mode", "variant",
]


class SchemaError(ValueError):
    """Scenario file violates the expected schema."""


# ---------------------------------------------------------------- scenario schema

_PROTOCOL_FIELDS = {
    "variant": str, "direction": str, "n": int, "T": int, "p_c": (int, float),
    "p_e": (int, float), "p_d": (int, float), "epsilon_threshold": (int, float),
    "true_phi": (int, float), "seed": int,
}

ATTACKS = {
    "identity": (adversary.identity_attack, set()),
    "depolarizing": (adversary.depolarizing_attack, {"p"}),
    "unitary_tamper": (adversary.unitary_tamper, {"axis", "angle"}),
    "intercept_resend": (adversary.intercept_resend, {"basis_strategy"}),
    "entangling_memory": (adversary.entangling_memory_attack,
                          {"coupling_angle", "block_length", "ancilla_mode"}),
    "two_way_swap_leak": (adversary.two_way_swap_leak, set()),
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


def load_scenario(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("scenario top level must be an object")
    _require_keys(raw, {"protocol", "attack", "sweep", "output", "bounds"},
                  {"protocol", "attack"}, "scenario")

    proto = raw["protocol"]
    _require_keys(proto, _PROTOCOL_FIELDS, _PROTOCOL_FIELDS, "protocol block")
    for key, typ in _PROTOCOL_FIELDS.items():
        if not isinstance(proto[key], typ) or isinstance(proto[key], bool):
            raise SchemaError(f"protocol.{key} has the wrong type")

    attack = raw["attack"]
    _require_keys(attack, {"name", "params"}, {"name"}, "attack block")
    name = attack["name"]
    if name not in ATTACKS:
        raise SchemaError(f"unknown attack {name!r}; known: {sorted(ATTACKS)}")
    params = attack.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("attack.params must be an object")
    _, allowed = ATTACKS[name]
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
        for key, typ in (("start", (int, float)), ("stop", (int, float)), ("steps", int)):
            if not isinstance(sweep[key], typ) or isinstance(sweep[key], bool):
                raise SchemaError(f"sweep.{key} has the wrong type")
        if not (math.isfinite(sweep["start"]) and math.isfinite(sweep["stop"])):
            raise SchemaError("sweep.start and sweep.stop must be finite")
        if sweep["steps"] < 1:
            raise SchemaError("sweep.steps must be >= 1")
    if "output" in raw:
        _require_keys(raw["output"], {"transcript", "summary", "csv"}, set(),
                      "output block")
    if "bounds" in raw:
        _require_keys(raw["bounds"], {"mode"}, set(), "bounds block")
        if raw["bounds"].get("mode") not in metrics.MODES:
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
    factory, _allowed = ATTACKS[name]
    try:
        return factory(**params)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid attack parameters for {name!r}: {exc}") from exc


def _bounds_mode(scenario, config):
    if "bounds" in scenario and "mode" in scenario["bounds"]:
        return scenario["bounds"]["mode"]
    return "two_way_gc" if config.direction == "two_way" else "one_way_individual"


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
    config = build_config(scenario, seed_override)
    attack = build_attack(scenario)
    transcript = protocol.run(config, attack)
    chk = protocol.check_fidelity(transcript)
    try:
        est = protocol.estimate_phase(transcript)
    except protocol.InsufficientRoundsError:
        est = None
    out = scenario.get("output", {})
    transcript.serialize(out.get("transcript", "transcript.tsv"))
    _dump_json(_summary_payload(config, transcript, chk, est, attack),
               out.get("summary", "summary.json"))
    if strict_abort and not chk.passed:
        return EXIT_ABORTED
    return EXIT_OK


# ---------------------------------------------------------------- sweep

def _batched_phi_variance(transcript, batches):
    """Estimator-variance estimate: variance over per-window phase estimates
    divided by the window count."""
    values = protocol.estimation_products(transcript)
    n = transcript.config.n
    usable = min(batches, values.size)
    if usable < 2:
        return math.inf
    size = values.size // usable
    trimmed = values[: usable * size].reshape(usable, size)
    phis = np.arccos(np.clip(trimmed.mean(axis=1), -1.0, 1.0)) / (2.0 * n)
    summary = stats.batch_statistics(phis, usable)
    return summary.variance_of_mean


def run_sweep_point(scenario, value, seed_override=None, batches=20):
    """Twin runs (attacked versus identity, shared seed) at one sweep point."""
    variable = scenario["sweep"]["variable"]
    if variable == "phi":
        config = replace(build_config(scenario, seed_override), true_phi=float(value))
        attack = build_attack(scenario)
    else:
        config = build_config(scenario, seed_override)
        attack = build_attack(scenario, {variable.split(".", 1)[1]: float(value)})
    ideal = adversary.identity_attack()
    tr_att = protocol.run(config, attack)
    tr_idl = protocol.run(config, ideal)
    chk = protocol.check_fidelity(tr_att)
    est_att = protocol.estimate_phase(tr_att)
    est_idl = protocol.estimate_phase(tr_idl)

    var_att = _batched_phi_variance(tr_att, batches)
    var_idl = _batched_phi_variance(tr_idl, batches)
    mode = _bounds_mode(scenario, config)
    phi = config.true_phi
    eps0 = metrics.epsilon0(mode, config.variant, chk.epsilon_implied,
                            T=config.T, N_d=tr_att.N_d, n=config.n, phi=phi)
    f_hat = chk.fidelity_estimate
    if isinstance(f_hat, dict):
        f_hat = min(f_hat.values())
    return {
        "theta": phi / 2.0,
        "phi": phi,
        "F_hat": f_hat,
        "epsilon_implied": chk.epsilon_implied,
        "passed": chk.passed,
        "phi_hat": est_att.phi_hat,
        "phi_hat_se": est_att.standard_error,
        "bias_emp": abs(est_att.phi_hat - est_idl.phi_hat),
        "bias_bound": metrics.bias_bound(eps0, config.n, phi),
        "var_emp": var_att,
        "var_discrepancy": abs(var_att - var_idl),
        "var_bound": metrics.variance_bound(eps0, config.n, phi, mode,
                                            N_e=max(tr_att.N_e, 1)),
        "mode": mode,
        "variant": config.variant,
    }


def sweep_values(scenario):
    block = scenario["sweep"]
    return np.linspace(float(block["start"]), float(block["stop"]),
                       int(block["steps"]))


def cmd_sweep(scenario, seed_override=None, threads=1, batches=20) -> int:
    if "sweep" not in scenario:
        raise SchemaError("sweep command needs a sweep block")
    values = sweep_values(scenario)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(
                lambda v: run_sweep_point(scenario, v, seed_override, batches), values))
    else:
        rows = [run_sweep_point(scenario, v, seed_override, batches) for v in values]
    path = scenario.get("output", {}).get("csv", "sweep.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])
    return EXIT_OK


# ---------------------------------------------------------------- bounds

# the counts each bound mode needs, by argument name
_BOUNDS_COUNTS = {"one_way_individual": ("N_e",), "one_way_gc": ("T", "N_d"),
                  "two_way_gc": ("T", "N_d")}


def _bounds_phis(args):
    """The phi grid of a bounds request, once its inputs are checked."""
    if args.phi is not None:
        ends = [args.phi]
    elif None not in (args.phi_start, args.phi_stop, args.phi_steps):
        if args.phi_steps < 1:
            raise SchemaError("--phi-steps must be at least 1")
        ends = [args.phi_start, args.phi_stop]
    else:
        raise SchemaError("bounds needs --phi or --phi-start/stop/steps")
    if not all(math.isfinite(v) for v in [args.epsilon, *ends]):
        raise SchemaError("--epsilon and the phi values must be finite")
    missing = ["--" + name.replace("_", "-") for name in _BOUNDS_COUNTS[args.mode]
               if getattr(args, name) is None]
    if missing:
        raise SchemaError(f"bounds --mode {args.mode} needs {' and '.join(missing)}")
    if args.phi is not None:
        return ends
    return list(np.linspace(args.phi_start, args.phi_stop, args.phi_steps))


def cmd_bounds(mode, variant, epsilon, n, phis, T=None, N_d=None, N_e=None,
               output=None) -> int:
    rows = [metrics.bound_report(mode, variant, epsilon, n, phi,
                                 T=T, N_d=N_d, N_e=N_e).to_dict()
            for phi in phis]
    _dump_json({"bounds": rows}, output)
    return EXIT_OK


# ---------------------------------------------------------------- verify

def cmd_verify(seed, restarts=6, inject_violation=False, output=None) -> int:
    results = metrics.run_inequality_suites(seed=seed, restarts=restarts,
                                            inject_violation=inject_violation)
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
    report = protocol.run_mub_equivalence(config, attack)
    payload = {
        "entanglement_fidelity": report.entanglement_fidelity,
        "mub_fidelities": report.mub_fidelities,
        "combined_from_mub": report.combined_from_mub,
        "identity_sigma": report.identity_sigma,
        "identity_holds": report.identity_holds,
        "entanglement_passed": report.entanglement_passed,
        "mub_passed": report.mub_passed,
        "entanglement_phi_hat": report.entanglement_phi_hat,
        "mub_phi_hat": report.mub_phi_hat,
    }
    _dump_json(payload, output)
    return EXIT_OK


# ---------------------------------------------------------------- entry point

def build_parser():
    parser = argparse.ArgumentParser(
        prog="dqsim",
        description="Distributed quantum sensing protocol simulator")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed (64-bit)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for sweeps")
    parser.add_argument("--strict-abort", action="store_true",
                        help="exit with code 3 when the fidelity check fails")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario")
    p_run.add_argument("scenario")

    p_sweep = sub.add_parser("sweep", help="bound-versus-empirical sweep")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--batches", type=int, default=20,
                         help="windows for the empirical variance estimate")

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
    p_verify.add_argument("--restarts", type=int, default=6)
    p_verify.add_argument("--inject-violation", action="store_true",
                          help=argparse.SUPPRESS)
    p_verify.add_argument("--output", default=None)

    p_eq = sub.add_parser("equivalence",
                          help="paired run of both protocol variants")
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
            return cmd_sweep(scenario, args.seed, args.threads, args.batches)
        if args.command == "bounds":
            phis = _bounds_phis(args)
            try:
                return cmd_bounds(args.mode, args.variant, args.epsilon, args.n,
                                  phis, T=args.T, N_d=args.N_d, N_e=args.N_e,
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
