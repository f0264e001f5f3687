"""vnpair benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload pair-decide --seed 1 --seconds 20 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file). The package is imported from ``src/`` of the same checkout; the
run exits with code 2 and prints no result when it is missing.

--trace 0 runs the closed loop for --seconds (and at least MIN_OPS ops)
with tracing off and reports the end-to-end metrics. --trace 1
runs TRACE_CYCLES cycles of the schedule, each once untraced and once
traced, and reports the per-layer metrics and the tracing overhead. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A record of the run
(machine facts, input digest, failures, and for traced runs the spans) is
written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

sys.path.insert(0, HERE)
import harness  # noqa: E402  (stdlib only; numpy is imported after the BLAS setup)

WORKLOAD_NAMES = ("pair-decide", "prodsys-horizon", "structure-large", "cli-scenes")
#: set-up (import, input generation, one warm-up op per kind) is repeated; the median is kept
SETUP_REPEATS = 3
#: ops a timed run holds at least: enough that a p90 of the raw samples would
#: have ten beyond it, and four or more samples behind each slot's median
MIN_OPS = harness.min_samples_for(harness.P90)
#: schedule cycles in each pass of a traced run
TRACE_CYCLES = 2
#: a run stops issuing ops after this many seconds since start, whatever happened
HARD_STOP_S = 150.0
#: BLAS threads at most, per workload (default 1). Only structure-large has
#: matrices large enough (a 1024² eigh at n = 32) to gain from a second
#: thread; elsewhere the second OpenBLAS thread mostly spin-waits between
#: small calls and keeps the other CPU busy for nothing.
BLAS_THREADS = {"structure-large": 2}

class Context:
    """What ops need from the run: paths, the child environment, the mode."""

    def __init__(self, workdir: str, in_process: bool):
        self.root = ROOT
        self.workdir = workdir
        self.in_process = in_process
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.env.pop("VNPAIR_TOL", None)
        self.report_bytes = 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def first_of_each_kind(ops) -> list:
    seen, out = set(), []
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            out.append(op)
    return out


def fresh_import_seconds(ctx: Context, module: str) -> float:
    """Time of `import <module>` (numpy included) in a fresh interpreter."""
    code = (f"import time; t = time.perf_counter(); import {module}; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=ctx.env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip())


def setup(workload, seed: int, ctx: Context, repeats: int):
    """Set up `repeats` times: a fresh-interpreter import of vnpair, input
    generation, schedule building and one warm-up op per op kind.

    Returns (median seconds, inputs, schedule, warm-up failures)."""
    times, state = [], None
    for _ in range(repeats):
        import_s = fresh_import_seconds(ctx, "vnpair")
        start = time.perf_counter()
        inputs = workload.generate(seed)
        ops = workload.ops(inputs, ctx)
        warm_ops = first_of_each_kind(ops)
        warm = harness.closed_loop(warm_ops, 0.0, len(warm_ops), math.inf, seed)
        times.append(import_s + time.perf_counter() - start)
        state = (inputs, ops, warm.failures)
    return statistics.median(times), *state


def timed_run(workload, args, ctx, started):
    setup_s, inputs, ops, warm_failures = setup(workload, args.seed, ctx, SETUP_REPEATS)
    print(f"setup: median of {SETUP_REPEATS} import+generate+warm-up passes = {setup_s:.3f}s")
    cap = HARD_STOP_S - (time.perf_counter() - started)
    loop = harness.closed_loop(ops, args.seconds, MIN_OPS, cap, args.seed)
    s = harness.summarize(loop, len(ops))
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-scenes" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    print(f"ops: {loop.attempted} attempted, {loop.failed} failed, "
          f"op_fail_ratio {s['op_fail_ratio']:.4f}")
    print(f"latency: p50 {s['op_p50_ms']:.2f} ms, p90 {s['op_p90_ms']:.2f} ms over "
          f"{len(ops)} slots, each the median of {s['cycles']}+ samples ({s['samples']} in all)")
    if s["samples"] < MIN_OPS:
        print(f"warning: only {s['samples']} samples; a run should hold {MIN_OPS}")
    metrics = {"setup_s": setup_s, "ops_per_s": s["ops_per_s"],
               "op_p50_ms": s["op_p50_ms"], "op_p90_ms": s["op_p90_ms"],
               "op_ok_ratio": 1.0 - s["op_fail_ratio"], "peak_rss_mb": peak_mb}
    record = {"op_fail_ratio": s["op_fail_ratio"], "samples": s["samples"],
              "cycles": s["cycles"], "latencies_s": loop.latencies}
    return inputs, loop, warm_failures, metrics, record


def traced_run(workload, args, ctx):
    import tracing

    _, inputs, ops, warm_failures = setup(workload, args.seed, ctx, 1)
    tracer = tracing.Tracer()
    untraced, traced = harness.LoopResult(), harness.LoopResult()
    report_bytes = 0

    def traced_cycle(base):
        nonlocal report_bytes
        wrapped = [harness.Op(op.kind, op.instance, op.prepare,
                              lambda *a, i=base + i, op=op: tracer.root(i, op.kind, op.call, a),
                              op.verify)
                   for i, op in enumerate(ops)]
        bytes_before = ctx.report_bytes
        uninstall = tracing.install(tracer)
        try:
            return harness.closed_loop(wrapped, 0.0, len(wrapped), math.inf, args.seed)
        finally:
            uninstall()
            report_bytes += ctx.report_bytes - bytes_before

    # alternate untraced and traced cycles, and which of the two goes first,
    # so that both see the same machine and neither always runs warmer
    for cycle in range(TRACE_CYCLES):
        if cycle % 2:
            seen = traced_cycle(cycle * len(ops))
            plain = harness.closed_loop(ops, 0.0, len(ops), math.inf, args.seed)
        else:
            plain = harness.closed_loop(ops, 0.0, len(ops), math.inf, args.seed)
            seen = traced_cycle(cycle * len(ops))
        for total, part in ((untraced, plain), (traced, seen)):
            total.latencies += part.latencies
            total.failures += part.failures
    unseen = tracing.unseen_call_sites()
    import_s = statistics.median(fresh_import_seconds(ctx, "vnpair.cli") for _ in range(3))
    in_cli = workload.name == "cli-scenes"
    metrics = tracing.per_layer_metrics(tracer, import_s, traced.attempted if in_cli else 0)
    metrics["cli.import_s"] = import_s
    metrics["cli.report_bytes"] = report_bytes
    rate = lambda loop: harness.summarize(loop, len(ops))["ops_per_s"]  # noqa: E731
    metrics["trace.overhead_ratio"] = rate(untraced) / rate(traced)
    print(f"traced: {traced.attempted} ops; untraced {rate(untraced):.3f} ops/s, "
          f"traced {rate(traced):.3f} ops/s")
    shares = {k[6:]: round(v, 4) for k, v in metrics.items() if k.startswith("share.")}
    print("self-time shares: " + json.dumps(shares))
    print("unseen call sites: " + (", ".join(unseen) if unseen else "none"))
    loop = harness.LoopResult(untraced.latencies + traced.latencies,
                              untraced.failures + traced.failures)
    record = {"unseen_call_sites": unseen, "spans": tracer.spans,
              "span_fields": ["name", "start", "end", "parent", "op"]}
    return inputs, loop, warm_failures, metrics, record


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vnpair", "__init__.py")):
        print(f"error: package source not found at {os.path.join(SRC, 'vnpair')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    with open(MANIFEST, encoding="utf-8") as fh:
        manifest = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in manifest["per_layer" if args.trace else "end_to_end"]}
    threads = str(harness.blas_threads(BLAS_THREADS.get(args.workload, 1)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, SRC)

    import gen
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    # a fixed name keeps file paths, and so CLI report sizes, the same per run
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(workdir, exist_ok=True)
    ctx = Context(workdir, in_process=bool(args.trace))
    facts = harness.machine_facts()
    print("machine: " + json.dumps(facts))
    try:
        if args.trace:
            inputs, loop, warm_failures, metrics, record = traced_run(workload, args, ctx)
        else:
            inputs, loop, warm_failures, metrics, record = timed_run(workload, args, ctx, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest = gen.digest(workloads.digest_view(inputs))
    print(f"inputs: workload {args.workload}, seed {args.seed}, sha256 {digest}")
    failures = warm_failures + loop.failures
    for f in failures:
        print("FAILED " + json.dumps(f))
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, machine=facts, inputs_sha256=digest,
                  failures=failures, metrics=metrics)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    result = {"correct": not failures, "attempted": loop.attempted,
              "failed": loop.failed + len(warm_failures),
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
