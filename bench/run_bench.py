"""dqsim benchmark: one workload per process, closed loop, one client.

Run from the repository root:

    python3 bench/run_bench.py --workload run_io --seed 1 --seconds 15 --trace 0

The library is imported from ``src/`` next to this directory.  After
set-up the workload's op list runs in whole passes until ``--seconds``
is used up (the last pass is kept when it ends less than half a pass
late).  Every op's outputs are checked; an op that raises, exits nonzero
or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median over three fresh processes of the time from process
  start to ready (imports, scenario generation, one warm-up op);
- ``work_per_s``: protocol rounds per second (inequality checks per
  second on ``verify_suites``) over one pass, taking each op's median
  time;
- ``op_p50_s``: median time of one op;
- ``peak_rss_mb``: peak resident memory of the workload process.

``--trace 1`` runs every op of a pass twice, untraced and traced, and
reports the per-layer metrics from the traced runs (see
``tracer.PER_LAYER``), per pass, with the tracing overhead.

All op times are host-speed normalized: every op is bracketed by a fixed
reference kernel (``speed_kernel``), and its wall time is scaled by the
kernel's reference time over its measured time.  On a shared 2-vCPU KVM
guest the host's speed changed by up to 2x for tens of seconds at a time;
the kernel tracks much of that, while a change in dqsim's own speed shows
in full.  The unnormalized figures are in the info line.

The last line of stdout is the result object; the line before it holds
the machine facts and sample counts, which are also written, with every
op's wall time and output digests, to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 3
# Pinned before numpy loads so that the small matrix products of the round
# engine do not contend for the cores the measurement runs on.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _import_library():
    """Import dqsim from this checkout's ``src``; exit nonzero if it is absent."""
    src = ROOT / "src"
    if not (src / "dqsim" / "__init__.py").is_file():
        sys.exit(f"run_bench: no dqsim sources under {src}")
    sys.path.insert(0, str(src))
    import dqsim
    if Path(dqsim.__file__).resolve().parent != src / "dqsim":
        sys.exit(f"run_bench: dqsim was imported from {dqsim.__file__}, not {src}")
    return dqsim


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _high_percentile(values):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    for q in (0.999, 0.99, 0.9):
        if len(values) * (1.0 - q) >= 10:
            return f"p{q * 100:g}", _percentile(values, q)
    return None, None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_facts(seed):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload_seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# A fixed piece of host work whose time tracks how fast the host runs dqsim
# at the moment.  It imitates dqsim's hot paths without calling dqsim:
# lifting a 2x2 operator into an 8x8 register by kron and index permutation
# (qcore.embed_operator), a Born-rule draw with an eigendecomposition
# (RegisterState.measure), writing frozen per-round records as tab-separated
# lines (Transcript.serialize), a CDF lookup over 1e5 uniforms (vectorized
# sampling) and a plain integer loop.  Different host slowdowns hit these
# mixes differently, so the kernel holds all of them.  Its time on the
# reference machine, a 2-vCPU Xeon KVM guest with Python 3.11 and numpy
# 2.4, is about REFERENCE_KERNEL_S.
REFERENCE_KERNEL_S = 0.02


@dataclass(frozen=True)
class _Record:
    index: int
    action: str
    observable: object
    outcome: int


def speed_kernel():
    """Run the reference work once; returns its wall time in seconds."""
    import numpy as np
    u = np.array([[0.8, 0.6j], [0.6j, 0.8]])
    projector = np.kron(np.diag([1.0, 0.0]), np.eye(4))
    uniforms = np.random.default_rng(0).random(100_000)
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    rho = np.eye(8, dtype=complex) / 8
    dims = [2, 2, 2]
    for step in range(45):
        target = step % 3
        perm = [target] + [i for i in range(3) if i != target]
        multi = np.array(np.unravel_index(np.arange(8), dims))
        ridx = np.ravel_multi_index([multi[i] for i in perm], dims)
        full = np.kron(u, np.eye(4, dtype=complex))[np.ix_(ridx, ridx)]
        rho = full @ rho @ full.conj().T
        p = float(np.clip(np.trace(projector @ rho).real, 0.0, 1.0))
        np.linalg.eigvalsh(rho)
        rng.choice(2, p=[p, 1.0 - p])
    out = io.StringIO()
    for r in [_Record(i, "check", "X" if i % 2 else None, i % 3 - 1) for i in range(4000)]:
        out.write("\t".join([str(r.index), r.action,
                             "NA" if r.observable is None else r.observable,
                             str(r.outcome)]) + "\n")
    np.searchsorted(np.cumsum(uniforms[:64]), uniforms)
    total = 0
    for k in range(20_000):
        total += k * k
    return time.perf_counter() - start


class Runner:
    """Runs ops, checks them and keeps every sample.

    Each op is bracketed by runs of the speed kernel.  Its host-speed
    normalized time is its wall time times REFERENCE_KERNEL_S over the
    mean of the two kernel times, which takes out much of the host's own
    speed changes while a change in dqsim's speed shows in full.
    """

    def __init__(self, workloads):
        self.workloads = workloads
        self.samples = []       # dicts: kind, traced, wall, time, problems
        self.first_digest = {}  # kind -> digests of its first execution
        self._kernel = statistics.median(speed_kernel() for _ in range(3))

    def speed_factor(self):
        """REFERENCE_KERNEL_S over the mean of the last and a new kernel time.

        A kernel time is the median of three runs, which drops the
        single-run outliers of a shared host.
        """
        now = statistics.median(speed_kernel() for _ in range(3))
        factor = 2.0 * REFERENCE_KERNEL_S / (self._kernel + now)
        self._kernel = now
        return factor

    def execute(self, op, tracer=None, op_id=None):
        if tracer is not None:
            tracer.op = op_id
        try:
            rc, wall = self.workloads.call(op)
        finally:
            if tracer is not None:
                tracer.op = None
        factor = self.speed_factor()
        found = self.workloads.problems(op, rc)
        digest = self.workloads.digests(op)
        if self.first_digest.setdefault(op.kind, digest) != digest:
            found.append("outputs differ from an earlier run of the same op")
        sample = {"kind": op.kind, "traced": tracer is not None, "wall": wall,
                  "time": wall * factor, "problems": found, "digests": digest}
        self.samples.append(sample)
        return sample


def _passes(seconds, run_pass):
    """Run whole passes until ``seconds`` is used up; returns the count."""
    start, durations = time.perf_counter(), []
    while True:
        t = time.perf_counter()
        run_pass()
        durations.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.mean(durations) / 2 >= seconds:
            return len(durations)


def _setup_probes(args):
    """Time process start to ready in fresh processes; returns (times, errors).

    These times are not normalized: start-up is interpreter and import
    work, which the speed kernel does not imitate.
    """
    times, errors = [], []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
                args.workload, "--seed", str(args.seed), "--setup-probe"]
        if args.toy:
            argv.append("--toy")
        start = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            errors.append(f"setup probe exited {proc.returncode}: {proc.stderr[-500:]}")
            continue
        times.append(float(lines[-1]) - start)
    return times, errors


def _summary(samples, ops):
    """op_p50 and work per second over one pass, from per-op medians."""
    per_kind = {op.kind: statistics.median(s["time"] for s in samples
                                           if s["kind"] == op.kind) for op in ops}
    return (statistics.median(s["time"] for s in samples),
            sum(op.work for op in ops) / sum(per_kind.values()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="shrink every op (harness self-test)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    dqsim = _import_library()
    import tracer as tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, str(workdir), args.toy)
        if args.setup_probe:
            rc, _wall = workloads.call(ops[0])
            print(time.monotonic())
            return 0 if not workloads.problems(ops[0], rc) else 1

        setup_times, errors = [], []
        if not args.trace:
            setup_times, errors = _setup_probes(args)
        runner = Runner(workloads)
        runner.execute(ops[0])  # warm-up

        spans, reconciled = None, True
        if args.trace:
            with tracing.Tracer() as tracer:
                tracer.install(dqsim)

                def pair():
                    # each op runs plain and traced back to back, in
                    # alternating order, so drift cancels in the overhead
                    for i, op in enumerate(ops):
                        if i % 2:
                            runner.execute(op, tracer, len(runner.samples))
                        runner.execute(op)
                        if not i % 2:
                            runner.execute(op, tracer, len(runner.samples))
                passes = _passes(args.seconds, pair)
            spans = tracer.spans
            traced = {i: s for i, s in enumerate(runner.samples) if s["traced"]}
            plain = sum(s["time"] for s in runner.samples[1:] if not s["traced"])
            overhead = sum(s["time"] for s in traced.values()) / plain - 1.0
            residual, reconciled = tracing.reconcile(
                spans, {i: s["wall"] for i, s in traced.items()})
            metrics = tracing.per_layer(
                spans, passes, {i: s["time"] / s["wall"] for i, s in traced.items()},
                overhead, residual)
        else:
            passes = _passes(args.seconds, lambda: [runner.execute(op) for op in ops])
            op_p50, work_per_s = _summary(runner.samples[1:], ops)
            metrics = {
                # every probe failing is already an error that marks the
                # run incorrect; 0 then stands in for the missing value
                "setup_s": {"value": statistics.median(setup_times or [0.0]),
                            "unit": "s"},
                "work_per_s": {"value": work_per_s, "unit": "1/s"},
                "op_p50_s": {"value": op_p50, "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF)
                                .ru_maxrss / 1024.0, "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for s in runner.samples if s["problems"])
    timed = [s for s in runner.samples[1:] if not s["traced"]]
    high_name, high_value = _high_percentile([s["time"] for s in timed])
    raw = [dict(s, time=s["wall"]) for s in timed]
    info = {
        "workload": args.workload, "trace": args.trace, "passes": passes,
        "op_samples": len(timed), "op_high_percentile": high_name,
        "op_high_s": high_value,
        "unnormalized": dict(zip(("op_p50_s", "work_per_s"), _summary(raw, ops))),
        "setup_probe_s": setup_times,
        "trace_reconciled": reconciled,
        "trace_tolerance": {"abs_s": tracing.RECONCILE_ABS_S,
                            "rel": tracing.RECONCILE_REL},
        "false_failure_per_scenario": workloads.FALSE_FAILURE_PER_SCENARIO,
        "errors": errors + [f"{s['kind']}: {p}" for s in runner.samples
                            for p in s["problems"]],
        "machine": machine_facts(args.seed),
    }
    result = {"correct": failed == 0 and not errors and reconciled,
              "attempted": len(runner.samples), "failed": failed, "metrics": metrics}

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(out / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "info": info, "samples": runner.samples}, fh, indent=1)
    if spans is not None:
        tracer.dump(out / f"{stem}.spans.jsonl.gz")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
