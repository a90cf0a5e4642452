"""Self-test of the benchmark harness.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

import dqsim
import run_bench
import tracer
import workloads
from dqsim import adversary, cli, protocol

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args):
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run_bench.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_toy_workload_runs_clean(workload, trace):
    result = _bench("--workload", workload, "--seed", "7", "--seconds", "0",
                    "--trace", trace, "--toy")
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_declared_per_layer_metrics_match_the_tracer():
    assert [m["name"] for m in DECLARED["per_layer"]] == [n for n, _ in tracer.PER_LAYER]


def _op(tmp_path, workload, kind_prefix=""):
    ops = workloads.build(workload, 11, str(tmp_path), toy=True)
    return next(op for op in ops if op.kind.startswith(kind_prefix))


def test_truncated_transcript_counts_as_failed(tmp_path, monkeypatch):
    op = _op(tmp_path, "run_io", "run/mub/n4/depolarizing")
    runner = run_bench.Runner(workloads)
    assert runner.execute(op)["problems"] == []

    original = cli.cmd_run

    def truncating(scenario, *args, **kwargs):
        rc = original(scenario, *args, **kwargs)
        path = scenario["output"]["transcript"]
        lines = Path(path).read_text().splitlines(keepends=True)
        Path(path).write_text("".join(lines[:-5]))
        return rc

    monkeypatch.setattr(cli, "cmd_run", truncating)
    assert any("data rows" in p for p in runner.execute(op)["problems"])


def test_changed_outputs_for_the_same_op_count_as_failed(tmp_path, monkeypatch):
    op = _op(tmp_path, "run_io", "run/entanglement/n1/identity")
    runner = run_bench.Runner(workloads)
    assert runner.execute(op)["problems"] == []
    original = cli.cmd_run
    monkeypatch.setattr(cli, "cmd_run",
                        lambda scenario, seed, strict: original(scenario, 12345, strict))
    assert runner.execute(op)["problems"] == [
        "outputs differ from an earlier run of the same op"]


def test_wrong_check_fidelity_counts_as_failed(tmp_path):
    op = _op(tmp_path, "run_io", "run/entanglement/n1/depolarizing")
    op.expect["fidelity"] = op.expect["fidelity"] - 0.1
    problems = run_bench.Runner(workloads).execute(op)["problems"]
    assert any("beyond" in p for p in problems)


def test_sweep_csv_with_a_missing_column_counts_as_failed(tmp_path, monkeypatch):
    op = _op(tmp_path, "sweep_twin")
    original = cli.cmd_sweep

    def dropping(scenario, *args, **kwargs):
        rc = original(scenario, *args, **kwargs)
        path = scenario["output"]["csv"]
        with open(path, newline="") as fh:
            rows = [row[:-1] for row in csv.reader(fh)]
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return rc

    monkeypatch.setattr(cli, "cmd_sweep", dropping)
    problems = run_bench.Runner(workloads).execute(op)["problems"]
    assert any("header" in p for p in problems)


def test_verify_violation_counts_as_failed(tmp_path):
    op = _op(tmp_path, "verify_suites")
    op.argv.append("--inject-violation")
    assert run_bench.Runner(workloads).execute(op)["problems"] == ["exit code 1"]


def test_tracing_leaves_outputs_byte_identical(tmp_path):
    op = _op(tmp_path, "stateful_memory", "swap_leak/entanglement/n2")
    script = ("import sys; sys.path.insert(0, sys.argv[1]); from dqsim import cli; "
              "sys.exit(cli.main(sys.argv[2:]))")
    subprocess.run([sys.executable, "-c", script, str(ROOT / "src"), *op.argv],
                   check=True, capture_output=True, timeout=170)
    plain = workloads.digests(op)

    record_round = adversary.AttackModel.record_round
    original_run = protocol.run
    runner = run_bench.Runner(workloads)
    with tracer.Tracer() as spans:
        spans.install(dqsim)
        assert protocol.run is not original_run
        assert adversary.AttackModel.record_round is record_round
        sample = runner.execute(op, spans, 0)
    assert protocol.run is original_run
    assert sample["problems"] == []
    assert sample["digests"] == plain

    names = {s[0] for s in spans.spans}
    assert {"cli.main", "protocol.run", "qcore.embed_operator",
            "adversary.backward_state"} <= names
    residual, ok = tracer.reconcile(spans.spans, {0: sample["wall"]})
    assert ok, residual
