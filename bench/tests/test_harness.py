"""Tests for the benchmark's own arithmetic and bookkeeping.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import json
import math
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from harness import CheckFailed, Op  # noqa: E402


# ---------------------------------------------------------------------------
# quantiles and the p90 sample rule


def test_harrell_davis_quantiles():
    values = list(range(1, 101))
    assert harness.harrell_davis(values, 0.5) == pytest.approx(50.5, rel=1e-3)
    assert harness.harrell_davis(list(reversed(values)), 0.5) == pytest.approx(50.5, rel=1e-3)
    assert harness.harrell_davis(values, 0.9) == pytest.approx(0.9 * 101, rel=1e-2)
    assert harness.harrell_davis([7.0] * 5, 0.9) == pytest.approx(7.0)
    assert harness.harrell_davis([7.0], 0.9) == pytest.approx(7.0)
    # continuous: two neighbours trading places do not move the estimate
    assert harness.harrell_davis([1, 2, 3.0, 3.0, 5], 0.5) == pytest.approx(
        harness.harrell_davis([1, 2, 3.0 - 1e-9, 3.0 + 1e-9, 5], 0.5))


def test_p90_needs_one_hundred_samples_for_ten_beyond():
    assert harness.samples_beyond(100, 0.9) == 10
    assert harness.samples_beyond(99, 0.9) == 9
    assert harness.samples_beyond(120, 0.9) == 12
    assert harness.min_samples_for(0.9) == 100
    assert harness.min_samples_for(0.5) == 20


def test_summary_counts_each_slot_once_at_its_median():
    # three cycles of a four-slot schedule; one sample of slot 1 is hit by a
    # burst of outside load, slot 3 is the slowest op
    latencies = [0.010, 0.020, 0.030, 0.100,
                 0.010, 0.020, 0.030, 0.100,
                 0.010, 0.900, 0.030, 0.100]
    loop = harness.LoopResult(latencies=latencies)
    assert harness.slot_latencies(latencies, 4) == pytest.approx([0.010, 0.020, 0.030, 0.100])
    s = harness.summarize(loop, 4)
    assert s["samples"] == 12 and s["cycles"] == 3
    typical = [0.010, 0.020, 0.030, 0.100]
    assert s["op_p50_ms"] == pytest.approx(1e3 * harness.harrell_davis(typical, 0.5))
    assert s["op_p90_ms"] == pytest.approx(1e3 * harness.harrell_davis(typical, 0.9))
    assert 20.0 < s["op_p50_ms"] < 40.0 < s["op_p90_ms"] < 100.0
    assert s["ops_per_s"] == pytest.approx(4 / 0.160)


# ---------------------------------------------------------------------------
# self time with nested spans


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["op.x", 0.0, 10.0, -1, 0],
        ["a.f", 1.0, 6.0, 0, 0],
        ["b.g", 2.0, 4.0, 1, 0],
        ["a.f", 7.0, 9.0, 0, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 2.0])
    agg = tracing.aggregate(spans)
    assert agg["a.f"] == {"calls": 2, "self_s": pytest.approx(5.0)}
    assert agg["b.g"]["calls"] == 1


def test_self_times_sum_to_root_duration():
    tracer = tracing.Tracer()

    def leaf():
        return sum(range(1000))

    def middle():
        leaf_w()
        return leaf_w()

    leaf_w = tracing._spanned(tracer, "numkernel.leaf", leaf)
    middle_w = tracing._spanned(tracer, "algebra.middle", middle)
    tracer.root(0, "demo", middle_w, ())
    names = [s[0] for s in tracer.spans]
    assert names == ["op.demo", "algebra.middle", "numkernel.leaf", "numkernel.leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]
    root = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(root)
    shares = {k: v for k, v in tracing.per_layer_metrics(tracer).items()
              if k.startswith("share.")}
    assert sum(shares.values()) == pytest.approx(1.0)


def test_wrappers_are_inert_outside_an_op():
    tracer = tracing.Tracer()
    wrapped = tracing._spanned(tracer, "x.f", lambda: 1)
    assert wrapped() == 1
    assert tracer.spans == []


def test_install_restores_originals_and_lists_unseen_bindings():
    from vnpair import algebra, correspondence

    before = (algebra.commutant, correspondence.Correspondence.__dict__["element_space"])
    uninstall = tracing.install(tracing.Tracer())
    try:
        assert algebra.commutant is not before[0]
    finally:
        uninstall()
    assert (algebra.commutant, correspondence.Correspondence.__dict__["element_space"]) == before
    assert "vnpair.endo.from_generators -> algebra.from_generators" in tracing.unseen_call_sites()


# ---------------------------------------------------------------------------
# digest determinism per seed


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_digest_is_a_function_of_the_seed(name):
    w = workloads.WORKLOADS[name]
    first = gen.digest(workloads.digest_view(w.generate(3)))
    again = gen.digest(workloads.digest_view(w.generate(3)))
    other = gen.digest(workloads.digest_view(w.generate(4)))
    assert first == again
    assert first != other


def test_digest_sees_every_array_entry():
    a = {"x": [gen.np.zeros((2, 2))], "s": {"k": [[1.0, 0.0]]}}
    b = {"x": [gen.np.zeros((2, 2))], "s": {"k": [[1.0, 0.0]]}}
    assert gen.digest(a) == gen.digest(b)
    b["x"][0][1, 1] = 1e-300
    assert gen.digest(a) != gen.digest(b)


# ---------------------------------------------------------------------------
# failure counting


def _op(kind, call, verify=lambda out: None):
    return Op(kind, f"{kind}-instance", tuple, call, verify)


def _boom():
    raise ValueError("no")


def _wrong(out):
    raise CheckFailed("wrong verdict")


def _broken_check(out):
    return out["missing"]


def test_every_kind_of_miss_counts_once():
    ops = [_op("ok", lambda: 1), _op("raises", _boom), _op("wrong", lambda: 1, _wrong),
           _op("bad-output", lambda: {}, _broken_check)]
    loop = harness.closed_loop(ops, 0.0, len(ops), math.inf, seed=9)
    assert loop.attempted == 4 and loop.failed == 3
    assert [f["kind"] for f in loop.failures] == ["raises", "wrong", "bad-output"]
    assert all(f["seed"] == 9 and f["instance"].endswith("-instance") for f in loop.failures)
    assert loop.failures[0]["reason"].startswith("raised ValueError")
    assert loop.failures[1]["reason"] == "check failed: wrong verdict"
    s = harness.summarize(loop, len(ops))
    assert s["op_fail_ratio"] == pytest.approx(0.75)
    assert s["ops_per_s"] == pytest.approx(0.25 * 4 / sum(loop.latencies))


def test_closed_loop_meets_the_op_floor_and_cycles_the_schedule():
    ops = [_op("a", lambda: 1), _op("b", _boom)]
    loop = harness.closed_loop(ops, seconds=0.0, min_ops=7, hard_cap=60.0, seed=1)
    assert loop.attempted == 7  # the floor; the last cycle is partial
    assert loop.failed == 3
    assert [f["op"] for f in loop.failures] == [1, 3, 5]
    loop = harness.closed_loop(ops, seconds=0.0, min_ops=7, hard_cap=0.0, seed=1)
    assert loop.attempted == 0


# ---------------------------------------------------------------------------
# the manifest matches what the runner prints


def test_manifest_lists_exactly_the_metrics_the_runner_reports():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["paths"] == ["bench"]
    assert {w["name"] for w in manifest["workloads"]} == set(run.WORKLOAD_NAMES)
    assert {m["name"] for m in manifest["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "op_ok_ratio", "peak_rss_mb"}
    reported = set(tracing.per_layer_metrics(tracing.Tracer())) | {
        "cli.import_s", "cli.report_bytes", "trace.overhead_ratio"}
    assert {m["name"] for m in manifest["per_layer"]} == reported
