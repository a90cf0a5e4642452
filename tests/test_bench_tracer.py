"""The benchmark's tracer times dqsim by wrapping named attributes of the
live package, and its workloads call ``cli.main`` with fixed command lines;
renaming or removing a traced name, or a flag those lines pass, must fail
here, not only in a benchmark run."""

import importlib.util
import math
import pathlib
import sys

import pytest

import dqsim

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up by name
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_live_package():
    tracer_module = load_bench_module("tracer")
    targets = tracer_module._targets(dqsim)
    # the tracer reads each name from its owner's own namespace
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _name, _tag in targets]
    tracer = tracer_module.Tracer()
    try:
        tracer.install(dqsim)
        for owner, attr, original in originals:
            assert vars(owner)[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original


def test_names_the_benchmark_reads_untraced_exist():
    # the benchmark's workloads and self-test read these outside the tracer
    from dqsim import adversary, cli, qcore

    assert callable(adversary.AttackModel.record_round)
    assert callable(adversary.expected_check_fidelity)
    assert callable(cli.build_attack)
    assert isinstance(cli.CSV_COLUMNS, list) and cli.CSV_COLUMNS
    assert isinstance(qcore.LogicalFrame.standard(1), qcore.LogicalFrame)
    # the calls each ``run`` op makes to get its expected check fidelity:
    # a branch list and finite fidelities for the memoryless attacks, None
    # for the memory attacks
    memoryless = (("identity", {}), ("depolarizing", {"p": 0.05}),
                  ("intercept_resend", {"basis_strategy": "random"}))
    for n in (1, 4):
        for name, params in memoryless:
            attack = cli.build_attack({"attack": {"name": name, "params": params}})
            assert isinstance(attack.forward_branches(n, qcore.LogicalFrame.standard(n)), list)
            assert math.isfinite(adversary.expected_check_fidelity(attack, n, "entanglement"))
            per_label = adversary.expected_check_fidelity(attack, n, "mub")
            assert all(math.isfinite(f) for f in per_label.values())
    memory = (("entangling_memory", {"coupling_angle": 0.3, "block_length": 2}, 1),
              ("two_way_swap_leak", {}, 1), ("two_way_swap_leak", {}, 3))
    for name, params, n in memory:
        attack = cli.build_attack({"attack": {"name": name, "params": params}})
        assert attack.forward_branches(n, qcore.LogicalFrame.standard(n)) is None


def test_benchmark_command_lines_parse(tmp_path):
    # every op of every workload, full and toy, is a command line the parser
    # takes: a flag the benchmark passes cannot leave the parser unnoticed
    workloads = load_bench_module("workloads")
    parser = dqsim.cli.build_parser()
    argvs = [op.argv for workload in workloads.WORKLOADS for toy in (False, True)
             for op in workloads.build(workload, 7, str(tmp_path / f"{workload}_{toy}"), toy)]
    assert len(argvs) == 49
    for argv in argvs:
        assert parser.parse_args(argv).command in ("run", "sweep", "verify")


@pytest.mark.parametrize("workload", ["run_io", "sweep_twin", "stateful_memory",
                                      "verify_suites"])
def test_toy_ops_pass_the_benchmark_checks(tmp_path, workload):
    # the benchmark's own toy ops, run and checked by its own code: a break of
    # an interface that its checker rejects (an exit code, a summary count, a
    # check fidelity beyond its exact value, the CSV header, a non-finite
    # cell, a lost suite check) fails here, not only in a benchmark run; the
    # run ops go through load_scenario, build_attack and
    # expected_check_fidelity as well; a repeat writes the same bytes
    workloads = load_bench_module("workloads")
    ops = workloads.build(workload, 7, str(tmp_path), toy=True)
    assert ops
    for op in ops:
        rc, _wall = workloads.call(op)
        assert workloads.problems(op, rc) == [], op.kind
        first = workloads.digests(op)
        rc, _wall = workloads.call(op)
        assert rc == 0 and sorted(first) == sorted(op.outputs), op.kind
        assert workloads.digests(op) == first, op.kind


def test_traced_sweep_records_the_analysis_spans(tmp_path):
    # a traced sweep op records a span for each analysis name the tracer
    # wraps on its path; a name that the sweep stops reaching through its
    # module attribute reads 0 in the benchmark's per-layer rows, and fails here
    tracer_module = load_bench_module("tracer")
    workloads = load_bench_module("workloads")
    op = workloads.build("sweep_twin", 7, str(tmp_path), toy=True)[0]
    with tracer_module.Tracer() as tracer:
        tracer.install(dqsim)
        tracer.op = 0
        rc, _wall = workloads.call(op)
        tracer.op = None
    assert workloads.problems(op, rc) == []
    names = {span[0] for span in tracer.spans}
    assert {"stats.batch_statistics", "stats.phase_variance", "protocol.check_fidelity",
            "protocol.estimate_phase", "metrics.epsilon0", "metrics.bias_bound",
            "metrics.variance_bound"} <= names


def test_traced_run_records_the_run_path_spans(tmp_path):
    # the same guard for a ``run_io`` op: the run, its analysis and the
    # transcript writer each record a span, so their per-layer rows cannot
    # silently read 0
    tracer_module = load_bench_module("tracer")
    workloads = load_bench_module("workloads")
    op = workloads.build("run_io", 7, str(tmp_path), toy=True)[0]
    with tracer_module.Tracer() as tracer:
        tracer.install(dqsim)
        tracer.op = 0
        rc, _wall = workloads.call(op)
        tracer.op = None
    assert workloads.problems(op, rc) == []
    names = {span[0] for span in tracer.spans}
    assert {"protocol.run", "protocol.check_fidelity", "protocol.estimate_phase",
            "protocol.Transcript.serialize"} <= names
