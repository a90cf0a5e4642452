"""Benchmark workloads: generated scenario files, the ops that run them, and
the correctness checks applied to every op's outputs.

Each workload is a closed loop of one client that calls ``dqsim.cli.main``
in-process, one op after the other, with ``--threads 1``.  Scenario files
are generated from the workload seed; dqsim sees only those files.

- ``run_io``: ``dqsim run`` over {entanglement, mub} x n in {1, 4} x
  {identity, depolarizing(0.05), intercept_resend(random)} at T = 1e5.
  Transcript serialization dominates; vectorized sampling is second.
- ``sweep_twin``: two 8-step phi sweeps of twin runs, (a) entanglement,
  n = 1, T = 2e5 (per-round sampling) and (b) mub, n = 4, T = 5e4 (about
  half outcome-table build).  No transcript is written.
- ``stateful_memory``: quantum-memory attacks on the round-by-round
  engine: entangling memory (block 2 traced out, block 3 measured) and
  two-way swap-leak on both variants at n = 1, T = 1000, plus swap-leak
  on the entanglement variant at n = 2 (T = 500) and n = 3 (T = 200).
  The cost per round does not depend on T; T = 1000 rather than 2000
  fits two passes into a run, whose per-op medians are steadier.
  The n = 2 and n = 3 runs use the entanglement variant because at
  T = 200 about 2 % of direct-probe runs end with a signed label that has
  no kept check round, and ``dqsim run`` then stops with an error.
- ``verify_suites``: ``dqsim verify`` at default restarts over three
  verify seeds; the only workload that exercises ``metrics``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from dqsim import adversary, cli, qcore

WORKLOADS = ("run_io", "sweep_twin", "stateful_memory", "verify_suites")

# |observed - exact| check fidelity must lie within Z_BOUND standard errors.
# Repeats of one scenario give the same transcript, so the false-failure
# rate is per distinct scenario: at most 6 statistics (one per signed probe
# label) times the two-sided normal tail.
Z_BOUND = 5.0
FALSE_FAILURE_PER_SCENARIO = 6 * math.erfc(Z_BOUND / math.sqrt(2.0))

CHECKS_PER_VERIFY = 851
_PROTOCOL = {"p_c": 0.5, "p_e": 0.4, "p_d": 0.1, "epsilon_threshold": 0.3}
_NON_NUMERIC_COLUMNS = {"passed", "mode", "variant"}


@dataclass
class Op:
    """One call of ``cli.main`` with the files it must write."""

    kind: str
    argv: list
    outputs: dict          # role -> path
    work: int              # protocol rounds, or inequality checks for verify
    check: str             # "run", "sweep" or "verify"
    expect: dict = field(default_factory=dict)


def _scenario(workdir, kind, rng, variant, direction, n, T, attack, params,
              sweep=None):
    folder = os.path.join(workdir, kind.replace("/", "_"))
    os.makedirs(folder, exist_ok=True)
    outputs = {"transcript": os.path.join(folder, "transcript.tsv"),
               "summary": os.path.join(folder, "summary.json")}
    if sweep is not None:
        outputs = {"csv": os.path.join(folder, "sweep.csv")}
    scenario = {
        "protocol": dict(_PROTOCOL, variant=variant, direction=direction, n=n, T=T,
                         true_phi=float(rng.uniform(0.15, 0.35)) / n,
                         seed=int(rng.integers(2 ** 63))),
        "attack": {"name": attack, "params": params},
        "output": outputs,
    }
    if sweep is not None:
        scenario["sweep"] = sweep
    path = os.path.join(folder, "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario, fh, indent=1)
    return scenario, path, outputs


def _run_op(workdir, kind, rng, variant, direction, n, T, attack, params):
    scenario, path, outputs = _scenario(workdir, kind, rng, variant, direction, n, T,
                                        attack, params)
    expect = {"T": T, "variant": variant, "swap_leak": attack == "two_way_swap_leak"}
    instrument = cli.build_attack(scenario)
    if instrument.forward_branches(n, qcore.LogicalFrame.standard(n)) is not None:
        expect["fidelity"] = adversary.expected_check_fidelity(instrument, n, variant)
    return Op(kind, ["--threads", "1", "run", path], outputs, T, "run", expect)


def build(workload, seed, workdir, toy=False):
    """Generate the workload's scenario files; returns its ops in loop order.

    The first op doubles as the untimed warm-up.  ``toy`` shrinks every
    op for the harness self-test.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops = []
    if workload == "run_io":
        T = 2000 if toy else 100_000
        attacks = (("identity", {}), ("depolarizing", {"p": 0.05}),
                   ("intercept_resend", {"basis_strategy": "random"}))
        for variant in ("entanglement", "mub"):
            for n in (1, 4):
                for attack, params in attacks:
                    ops.append(_run_op(workdir, f"run/{variant}/n{n}/{attack}", rng,
                                       variant, "one_way", n, T, attack, params))
    elif workload == "sweep_twin":
        steps = 3 if toy else 8
        twins = (("b", "mub", 4, 5_000 if toy else 50_000, (0.04, 0.06), (0.30, 0.34)),
                 ("a", "entanglement", 1, 5_000 if toy else 200_000, (0.1, 0.2), (1.2, 1.4)))
        for label, variant, n, T, start, stop in twins:
            sweep = {"variable": "phi", "start": float(rng.uniform(*start)),
                     "stop": float(rng.uniform(*stop)), "steps": steps}
            _, path, outputs = _scenario(workdir, f"sweep/{label}/{variant}/n{n}", rng,
                                         variant, "one_way", n, T, "depolarizing",
                                         {"p": 0.05}, sweep)
            ops.append(Op(f"sweep/{label}/{variant}/n{n}",
                          ["--threads", "1", "sweep", path], outputs, 2 * steps * T,
                          "sweep", {"steps": steps}))
    elif workload == "stateful_memory":
        T1, T2, T3 = (400, 300, 200) if toy else (1000, 500, 200)
        ops.append(_run_op(workdir, "swap_leak/entanglement/n2", rng, "entanglement",
                           "two_way", 2, T2, "two_way_swap_leak", {}))
        for variant in ("entanglement", "mub"):
            for block, mode in ((2, "trace"), (3, "measure")):
                params = {"coupling_angle": float(rng.uniform(0.2, 0.5)),
                          "block_length": block, "ancilla_mode": mode}
                ops.append(_run_op(workdir, f"memory/{variant}/block{block}_{mode}", rng,
                                   variant, "one_way", 1, T1, "entangling_memory",
                                   params))
            ops.append(_run_op(workdir, f"swap_leak/{variant}/n1", rng, variant,
                               "two_way", 1, T1, "two_way_swap_leak", {}))
        ops.append(_run_op(workdir, "swap_leak/entanglement/n3", rng, "entanglement",
                           "two_way", 3, T3, "two_way_swap_leak", {}))
    elif workload == "verify_suites":
        for i in range(2 if toy else 3):
            verify_seed = int(rng.integers(2 ** 31))
            out = os.path.join(workdir, f"verify_{i}.json")
            argv = ["--threads", "1", "verify", "--verify-seed", str(verify_seed),
                    "--output", out]
            if toy:
                argv += ["--restarts", "1"]
            ops.append(Op(f"verify/{i}", argv, {"verify": out}, CHECKS_PER_VERIFY,
                          "verify"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


# ---------------------------------------------------------------- running one op

def call(op):
    """Remove the op's old outputs, then run it; returns (exit code, wall s).

    Only the ``cli.main`` call is timed.  Its stdout and stderr are kept
    out of the benchmark's own output.
    """
    for path in op.outputs.values():
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except Exception as exc:  # an op that raises counts as failed
            rc = f"raised {type(exc).__name__}: {exc}"
        except SystemExit as exc:
            rc = f"exited {exc.code}"
        wall = time.perf_counter() - start
    return rc, wall


def digests(op):
    """sha256 of every output file the op wrote."""
    out = {}
    for role, path in op.outputs.items():
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[role] = hashlib.sha256(fh.read()).hexdigest()
    return out


def problems(op, rc):
    """Everything wrong with the op's exit code and outputs; empty if correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    missing = [p for p in op.outputs.values() if not os.path.exists(p)]
    if missing:
        return [f"missing output {p}" for p in missing]
    try:
        return _CHECKS[op.check](op)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _check_run(op):
    T = op.expect["T"]
    out = []
    with open(op.outputs["summary"], encoding="utf-8") as fh:
        summary = json.load(fh)
    counts = summary["counts"]
    total = counts["N_c"] + counts["N_e"] + counts["N_d"] + counts["N_sifted_away"]
    if total != T:
        out.append(f"summary counts sum to {total}, expected T = {T}")

    header, rows, leaks = {}, 0, 0
    # per correlator: [kept check rows, non-leak rows, sum of +-1 values]
    cells = defaultdict(lambda: [0, 0, 0])
    ent = op.expect["variant"] == "entanglement"
    with open(op.outputs["transcript"], encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                parts = line[1:].rstrip("\n").split("\t")
                header[parts[0]] = parts[1:]
                continue
            _i, _act, a_obs, a_out, probe, b_obs, b_out, status = line.rstrip("\n").split("\t")
            rows += 1
            if status == "discarded":
                continue
            if b_out == "0":
                leaks += 1
            if status != "kept_check":
                continue
            cell = cells[a_obs + b_obs if ent else probe]
            cell[0] += 1
            if b_out != "0":
                cell[1] += 1
                cell[2] += int(b_out) * (int(a_out) if ent else int(probe[0] + "1"))
    if rows != T or header.get("T") != [str(T)]:
        out.append(f"transcript has {rows} data rows and header T {header.get('T')}, "
                   f"expected {T}")
    if leaks != counts["N_leak"]:
        out.append(f"transcript has {leaks} leak outcomes, summary says {counts['N_leak']}")
    if not cells:
        return out + ["transcript has no kept check rounds"]

    # the summary's F_hat excludes leak outcomes
    cond = {k: c[2] / c[1] for k, c in cells.items() if c[1]}
    if ent:
        f_cond = (1.0 + sum(cond.values())) / 4.0
        if abs(f_cond - summary["F_hat"]) > 1e-9:
            out.append(f"summary F_hat {summary['F_hat']} != {f_cond} from the transcript")
    else:
        for label, m in cond.items():
            if abs((m + 1.0) / 2.0 - summary["F_hat"][label]) > 1e-9:
                out.append(f"summary F_hat[{label}] disagrees with the transcript")

    # the exact expectation counts a leak outcome as 0
    if "fidelity" in op.expect:
        expected = op.expect["fidelity"]
        stat = {}
        for key, (n_all, n_ok, s) in cells.items():
            mean = s / n_all
            var = (n_ok / n_all - mean ** 2 + 1.0 / n_all) / n_all
            stat[key] = (mean, var)
        if ent:
            observed = (1.0 + sum(m for m, _ in stat.values())) / 4.0
            sd = math.sqrt(sum(v for _, v in stat.values())) / 4.0
            tests = [("F", observed, expected, sd)]
        else:
            tests = [(k, (m + 1.0) / 2.0, expected[k], math.sqrt(v) / 2.0)
                     for k, (m, v) in stat.items()]
        for key, observed, exp, sd in tests:
            if abs(observed - exp) > Z_BOUND * sd + 1e-12:
                out.append(f"check fidelity {key} = {observed:.6f} lies beyond "
                           f"{Z_BOUND} sd ({sd:.2e}) of the exact {exp:.6f}")
    if op.expect.get("swap_leak"):
        if summary.get("passed") is not True:
            out.append("swap-leak run failed the fidelity check")
        if "eve_estimate" not in summary:
            out.append("swap-leak summary has no eve_estimate")
    return out


def _check_sweep(op):
    with open(op.outputs["csv"], encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    if not table or table[0] != list(cli.CSV_COLUMNS):
        return [f"sweep CSV header {table[:1]} != cli.CSV_COLUMNS"]
    rows = table[1:]
    out = []
    if len(rows) != op.expect["steps"]:
        out.append(f"sweep CSV has {len(rows)} rows, expected {op.expect['steps']}")
    for i, row in enumerate(rows):
        if len(row) != len(cli.CSV_COLUMNS):
            out.append(f"sweep row {i} has {len(row)} cells")
            continue
        for name, cell in zip(cli.CSV_COLUMNS, row):
            if name == "passed" and cell not in ("true", "false"):
                out.append(f"sweep row {i}: passed = {cell!r}")
            elif name not in _NON_NUMERIC_COLUMNS and not math.isfinite(float(cell)):
                out.append(f"sweep row {i}: {name} = {cell} is not finite")
    return out


def _check_verify(op):
    with open(op.outputs["verify"], encoding="utf-8") as fh:
        suites = json.load(fh)["suites"]
    checks = sum(s["checks"] for s in suites)
    violations = sum(s["violations"] for s in suites)
    out = []
    if checks != CHECKS_PER_VERIFY:
        out.append(f"verify ran {checks} checks, expected {CHECKS_PER_VERIFY}")
    if violations:
        out.append(f"verify reported {violations} violations")
    return out


_CHECKS = {"run": _check_run, "sweep": _check_sweep, "verify": _check_verify}
