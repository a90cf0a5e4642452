"""The benchmark's tracer times dqsim by wrapping named attributes of the
live package; renaming or removing a traced name must fail here, not only
in a traced benchmark run."""

import importlib.util
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
