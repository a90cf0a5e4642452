"""In-memory span tracer that times calls into dqsim's public functions.

The tracer installs timing shims on module and class attributes of the
dqsim package (``protocol.run``, ``qcore.RegisterState.measure``,
``metrics.locc1_lower_bound``, ...).  dqsim looks these names up at call
time, so its own calls go through the shims.  Nothing under ``src/`` is
edited, and the shims are removed again when the tracing context ends.

Each span records a name, start, end, parent span, op id and an optional
tag (probe size and round count for ``protocol.run``, bytes written for
``Transcript.serialize``).  Spans stay in memory; the caller writes them
out when the run ends.  Tracing assumes one thread, which holds because
every op runs with ``--threads 1``.

``AttackModel.record_round`` and its overrides are never wrapped:
``protocol._wants_records`` compares that method by identity, and a
shim would switch on a per-round Python loop and so change the program
being measured.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import time
from collections import defaultdict

_ADVERSARY_HOOKS = ("forward_branches", "begin_block", "forward_state",
                    "backward_state", "end_round")

# per-layer metrics computed from the spans of the traced passes; every
# value is per pass of the workload's op list unless its unit says otherwise
PER_LAYER = [
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.load_scenario.s", "s"),
    ("protocol.run.s", "s"),
    ("protocol.run.self_s", "s"),
    ("protocol.run.calls", "count"),
    ("protocol.rounds", "count"),
    ("protocol.run.us_per_round.n1", "us"),
    ("protocol.run.us_per_round.n2", "us"),
    ("protocol.run.us_per_round.n3", "us"),
    ("protocol.run.us_per_round.n4", "us"),
    ("protocol.Transcript.serialize.s", "s"),
    ("protocol.transcript_bytes", "B"),
    ("protocol.check_fidelity.s", "s"),
    ("protocol.estimate_phase.s", "s"),
    ("protocol.estimation_products.s", "s"),
    ("qcore.embed_operator.s", "s"),
    ("qcore.embed_operator.calls", "count"),
    ("qcore.RegisterState.apply_unitary.s", "s"),
    ("qcore.RegisterState.measure.s", "s"),
    ("qcore.RegisterState.attach.s", "s"),
    ("qcore.RegisterState.trace_out.s", "s"),
    ("qcore.partial_trace.s", "s"),
    ("qcore.depolarizing_channel.s", "s"),
    ("qcore.fidelity.s", "s"),
    ("qcore.trace_distance.s", "s"),
    ("qcore.random_density_matrix.s", "s"),
    ("adversary.forward_branches.s", "s"),
    ("adversary.begin_block.s", "s"),
    ("adversary.forward_state.s", "s"),
    ("adversary.backward_state.s", "s"),
    ("adversary.end_round.s", "s"),
    ("metrics.run_inequality_suites.self_s", "s"),
    ("metrics.locc1_lower_bound.s", "s"),
    ("metrics.locc1_lower_bound.calls", "count"),
    ("metrics.gentle_measurement_check.s", "s"),
    ("metrics.definetti_inequality_check.s", "s"),
    ("metrics.epsilon0.s", "s"),
    ("metrics.bias_bound.s", "s"),
    ("metrics.variance_bound.s", "s"),
    ("stats.batch_statistics.s", "s"),
    ("stats.phase_variance.s", "s"),
    ("trace_overhead_frac", "frac"),
    ("trace_self_residual_frac", "frac"),
]

# Self times of the spans under an op must sum to the op's traced wall time
# within this tolerance; the gap is the harness's own call into the root
# span, so anything larger means spans were lost or mis-nested.
RECONCILE_ABS_S = 0.002
RECONCILE_REL = 0.01


def _targets(dqsim):
    """(owner, attribute, span name, tagger) for every shim; a tagger maps
    the call's positional arguments, after the call, to the span's tag."""
    cli, protocol, qcore = dqsim.cli, dqsim.protocol, dqsim.qcore
    metrics, stats, adversary = dqsim.metrics, dqsim.stats, dqsim.adversary
    out = [
        (cli, "main", "cli.main", None),
        (cli, "load_scenario", "cli.load_scenario", None),
        (protocol, "run", "protocol.run", lambda args: (args[0].n, args[0].T)),
        (protocol.Transcript, "serialize", "protocol.Transcript.serialize",
         lambda args: os.path.getsize(args[1]) if isinstance(args[1], str) else 0),
        (protocol, "check_fidelity", "protocol.check_fidelity", None),
        (protocol, "estimate_phase", "protocol.estimate_phase", None),
        (protocol, "estimation_products", "protocol.estimation_products", None),
        (qcore, "embed_operator", "qcore.embed_operator", None),
        (qcore, "partial_trace", "qcore.partial_trace", None),
        (qcore, "depolarizing_channel", "qcore.depolarizing_channel", None),
        (qcore, "fidelity", "qcore.fidelity", None),
        (qcore, "trace_distance", "qcore.trace_distance", None),
        (qcore, "random_density_matrix", "qcore.random_density_matrix", None),
        (metrics, "run_inequality_suites", "metrics.run_inequality_suites", None),
        (metrics, "locc1_lower_bound", "metrics.locc1_lower_bound", None),
        (metrics, "gentle_measurement_check", "metrics.gentle_measurement_check", None),
        (metrics, "definetti_inequality_check", "metrics.definetti_inequality_check",
         None),
        (metrics, "epsilon0", "metrics.epsilon0", None),
        (metrics, "bias_bound", "metrics.bias_bound", None),
        (metrics, "variance_bound", "metrics.variance_bound", None),
        (stats, "batch_statistics", "stats.batch_statistics", None),
        (stats, "phase_variance", "stats.phase_variance", None),
    ]
    for method in ("apply_unitary", "measure", "attach", "trace_out"):
        out.append((qcore.RegisterState, method, f"qcore.RegisterState.{method}", None))
    for obj in vars(adversary).values():
        if isinstance(obj, type) and issubclass(obj, adversary.AttackModel):
            for method in _ADVERSARY_HOOKS:
                if method in vars(obj):
                    out.append((obj, method, f"adversary.{method}", None))
    return out


class Tracer:
    """Records spans for calls made while an op id is set."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent, op, tag]
        self.op = None
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, tagger):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if tagger is not None:
                span[5] = tagger(args)
            return result
        return shim

    def install(self, dqsim):
        for owner, attr, name, tagger in _targets(dqsim):
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, tagger))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def dump(self, path):
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for name, start, end, parent, op, tag in self.spans:
                fh.write(json.dumps([name, start, end, parent, op, tag]) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _op, _tag in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def reconcile(spans, op_walls):
    """Largest relative gap between an op's summed span self times and its
    traced wall time, and whether every op lies within the tolerance."""
    selfs = self_times(spans)
    per_op = defaultdict(float)
    for span, s in zip(spans, selfs):
        per_op[span[4]] += s
    worst, ok = 0.0, min(selfs, default=0.0) > -1e-6
    for op, wall in op_walls.items():
        gap = abs(wall - per_op.get(op, 0.0))
        worst = max(worst, gap / wall)
        ok = ok and gap <= RECONCILE_ABS_S + RECONCILE_REL * wall
    return worst, ok


def per_layer(spans, passes, factors, overhead_frac, residual_frac):
    """Per-layer metrics per traced pass, keyed as in ``PER_LAYER``.

    ``factors`` maps an op id to its host-speed factor; every span time is
    scaled by the factor of its op.
    """
    total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    rounds, run_time = defaultdict(int), defaultdict(float)
    transcript_bytes = 0
    for span, s in zip(spans, self_times(spans)):
        name, start, end, _parent, op, tag = span
        duration = (end - start) * factors[op]
        total[name] += duration
        own[name] += s * factors[op]
        calls[name] += 1
        if tag is None:
            continue
        if name == "protocol.run":
            n, T = tag
            rounds[n] += T
            run_time[n] += duration
        elif name == "protocol.Transcript.serialize":
            transcript_bytes += tag
    values = {}
    for name in total:
        values[f"{name}.s"] = total[name] / passes
        values[f"{name}.self_s"] = own[name] / passes
        values[f"{name}.calls"] = calls[name] / passes
    values["protocol.rounds"] = sum(rounds.values()) / passes
    for n in (1, 2, 3, 4):
        values[f"protocol.run.us_per_round.n{n}"] = (
            1e6 * run_time[n] / rounds[n] if rounds[n] else 0.0)
    values["protocol.transcript_bytes"] = transcript_bytes / passes
    values["trace_overhead_frac"] = overhead_frac
    values["trace_self_residual_frac"] = residual_frac
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER}
