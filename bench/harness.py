"""Closed-loop runner, latency statistics and machine facts.

One client issues one op at a time; the next op starts only after the
previous one has returned and been checked. Only the call into vnpair is
timed: building fresh input objects before it and checking its output
after it are outside the latency.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

P90 = 0.9
#: a tail percentile needs at least this many samples beyond it
MIN_BEYOND = 10


class CheckFailed(Exception):
    """An op returned, but its output disagrees with the construction."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    """One scheduled operation.

    prepare() builds fresh program objects (untimed) and returns the
    argument tuple; call(*args) is the timed call into vnpair; verify(out)
    raises CheckFailed when the output is wrong.
    """

    kind: str
    instance: str
    prepare: Callable[[], tuple]
    call: Callable
    verify: Callable


@dataclass
class LoopResult:
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_op(op: Op) -> tuple[float, str | None]:
    """Run one op; returns (latency seconds, failure reason or None).

    Raising, returning a wrong answer and failing a check all count as a
    failure of the op; the latency is kept either way.
    """
    args = op.prepare()
    start = time.perf_counter()
    try:
        out = op.call(*args)
    except Exception as exc:  # the loop must keep running; the op failed
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    try:
        op.verify(out)
    except CheckFailed as exc:
        return latency, f"check failed: {exc}"
    except Exception as exc:
        tail = traceback.format_exc(limit=2).strip().splitlines()[-1]
        return latency, f"check raised {type(exc).__name__}: {exc} ({tail})"
    return latency, None


def closed_loop(schedule: list, seconds: float, min_ops: int,
                hard_cap: float, seed: int) -> LoopResult:
    """Cycle through the schedule until the time and the op floor are met.

    The last cycle may be partial: summarize() counts every slot once,
    whatever number of samples it holds. hard_cap stops the loop
    regardless, so a slow machine still exits.
    """
    result = LoopResult()
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        done = elapsed >= seconds and i >= min_ops
        if done or elapsed >= hard_cap:
            break
        op = schedule[i % len(schedule)]
        latency, reason = run_op(op)
        result.latencies.append(latency)
        if reason is not None:
            result.failures.append({"seed": seed, "op": i, "kind": op.kind,
                                    "instance": op.instance, "reason": reason})
        i += 1
    return result


# ---------------------------------------------------------------------------
# statistics


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics: the i-th smallest of n values
    weighs the mass that Beta(q(n+1), (1-q)(n+1)) puts on ((i-1)/n, i/n],
    integrated here with the midpoint rule. Unlike a single order statistic
    it does not jump when two neighbouring values trade places.
    """
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    per_value = 200  # midpoints per interval ((i-1)/n, i/n]
    mass = [0.0] * n
    for k in range(n * per_value):
        t = (k + 0.5) / (n * per_value)
        mass[k // per_value] += t ** (a - 1) * (1 - t) ** (b - 1)
    return sum(m * v for m, v in zip(mass, ordered)) / sum(mass)


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-percentile of n samples."""
    return n - max(1, math.ceil(q * n))


def min_samples_for(q: float, beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count that leaves `beyond` samples past the q-percentile."""
    n = 1
    while samples_beyond(n, q) < beyond:
        n += 1
    return n


def slot_latencies(latencies: list, slots: int) -> list:
    """Median latency of each schedule slot over the cycles of a run.

    Op i of a closed loop ran slot i % slots, so slot s holds the samples
    latencies[s::slots]. A burst of load from outside that hits one sample
    of a slot moves its median little, where it would move a percentile of
    the raw samples by a whole step between two kinds of op.
    """
    return [statistics.median(latencies[s::slots]) for s in range(min(slots, len(latencies)))]


def summarize(loop: LoopResult, slots: int) -> dict:
    """End-to-end figures of a run over a schedule of `slots` ops.

    Every slot counts once, at its median latency over the run's cycles:
    p50 and p90 are Harrell-Davis quantiles of those medians, and ops per
    second is the slot count over their sum (one cycle at typical speed),
    scaled by the share of ops that passed. The harness's own input building
    and checking between calls is not counted.
    """
    typical = slot_latencies(loop.latencies, slots)
    passed = 1.0 - loop.failed / loop.attempted
    return {
        "ops_per_s": passed * len(typical) / sum(typical) if sum(typical) > 0 else 0.0,
        "op_p50_ms": 1e3 * harrell_davis(typical, 0.5),
        "op_p90_ms": 1e3 * harrell_davis(typical, P90),
        "op_fail_ratio": loop.failed / loop.attempted,
        "samples": loop.attempted,
        "cycles": loop.attempted // slots,
    }


# ---------------------------------------------------------------------------
# machine facts


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = {"name": "unknown"}
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def blas_threads(cap: int = 2) -> int:
    """Threads for BLAS: the CPUs this process may use, at most `cap`."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return max(1, min(cap, nproc))
