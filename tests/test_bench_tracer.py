"""The benchmark's tracer times dqsim by wrapping named attributes of the
live package; renaming or removing a traced name must fail here, not only
in a traced benchmark run."""

import importlib.util
import math
import pathlib

import dqsim

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_live_package():
    tracer_module = load_tracer()
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
