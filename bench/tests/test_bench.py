"""Self-tests of the benchmark harness (tiny world; not part of tier-1).

    python -m pytest bench/tests -q
"""

import json
import math

import numpy as np
import pytest

from bench import gateway, report, serve, train
from bench.measure import LoopResult, end_to_end_metrics
from bench.stats import quartile_spread
from bench.streams import (
    MAX_DAY_OFFSET, PINNED_DAY_SHARE, STREAM, request_stream,
)
from bench.trace import SpanRecorder
from bench.world import Scale, build_dataset
from repro.resilience import FaultInjector, use_fault_injector

TINY = Scale(
    users=150, cities=30, train_users=80, setup_repeats=1,
    warmup_direct=10, warmup_gateway=5, check_sample=4, stream_length=200,
)
ROOT = __import__("pathlib").Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _units(result):
    return {name: unit for name, (_, unit) in result["metrics"].items()}


def _green(result, declared):
    assert result["failed"] == 0, result["problems"]
    assert result["attempted"] >= 1
    assert _units(result).items() <= declared.items()
    assert all(math.isfinite(v) for v, _ in result["metrics"].values())


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def test_points():
    return build_dataset(5, TINY.users, TINY.cities).source.test_points


def test_same_seed_same_stream(test_points):
    first = request_stream(test_points, 11, "measured", 500)
    again = request_stream(test_points, 11, "measured", 500)
    assert first == again


def test_other_seed_or_salt_other_stream(test_points):
    base = request_stream(test_points, 11, "measured", 500)
    assert base != request_stream(test_points, 12, "measured", 500)
    assert base != request_stream(test_points, 11, "check", 500)


def test_stream_shape(test_points):
    stream = request_stream(test_points, 11, "measured", 4000)
    day_of = {p.history.user_id: p.day for p in test_points}
    offsets = np.array([day - day_of[user] for user, day in stream])
    assert offsets.min() == 0 and offsets.max() <= MAX_DAY_OFFSET
    assert abs(np.mean(offsets == 0) - PINNED_DAY_SHARE) < 0.05
    # Zipf: the heaviest user alone takes a visible share of the traffic.
    _, counts = np.unique([user for user, _ in stream], return_counts=True)
    assert counts.max() / len(stream) > 0.05


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def test_figures_are_quiet_quartiles_over_rounds():
    rng = np.random.default_rng(0)
    rounds = [rng.lognormal(size=n).tolist() for n in (40, 70, 300, 90, 50)]
    loop = LoopResult(
        latencies_ms=rounds, rates=[10.0, 30.0, 20.0, 50.0, 40.0],
        cpu_s=[0.4, 0.7, 6.0, 2.7, 2.0], attempted=550,
    )
    metrics = end_to_end_metrics(loop, [3.0, 1.0, 2.0])
    for name, q in (("latency_p50_ms", 50), ("latency_p99_ms", 99)):
        assert metrics[name][0] == pytest.approx(
            np.percentile([np.percentile(r, q) for r in rounds], 25)
        )
    assert metrics["throughput_ops_s"][0] == 40.0      # upper quartile
    # CPU per operation by round: 10, 10, 20, 30, 40 ms.
    assert metrics["cpu_ms_per_op"][0] == pytest.approx(10.0)
    assert metrics["setup_s"][0] == 2.0
    # Slow rounds move a pooled p99, not the quiet quartile's.
    pooled = np.percentile(np.concatenate(rounds), 99)
    assert metrics["latency_p99_ms"][0] < pooled


def test_training_steps_are_cut_into_rounds_of_about_a_second():
    loop = LoopResult()
    steps = np.array([[0.4, 0.3]] * 6 + [[0.3, 0.2]])   # (wall, CPU) seconds
    train._cut_into_rounds(loop, steps)
    # 3 steps reach a second; the seventh, left over, joins the last round.
    assert [len(r) for r in loop.latencies_ms] == [3, 4]
    assert loop.rates == pytest.approx([3 / 1.2, 4 / 1.5])
    assert loop.cpu_s == pytest.approx([0.9, 1.1])


def test_quartile_spread():
    stats = quartile_spread([10.0, 11.0, 12.0, 13.0, 14.0])
    assert stats["median"] == 12.0
    assert stats["spread"] == pytest.approx(
        (stats["q3"] - stats["q1"]) / 12.0
    )


def test_span_self_time():
    recorder = SpanRecorder()
    with recorder.span("parent", request_id=7) as parent:
        with recorder.span("child"):
            with recorder.span("grandchild"):
                pass
        with recorder.span("child"):
            pass
    spans = {s.span_id: s for s in recorder.spans}
    children = recorder.named("child")
    assert [c.parent_id for c in children] == [parent.span_id] * 2
    assert all(s.request_id == 7 for s in spans.values())
    self_ms = recorder.self_times_ms()
    assert self_ms[parent.span_id] == pytest.approx(
        parent.duration_ms - sum(c.duration_ms for c in children)
    )
    grandchild, = recorder.named("grandchild")
    assert self_ms[grandchild.span_id] == pytest.approx(
        grandchild.duration_ms
    )


def test_overlapping_children_are_subtracted_once():
    recorder = SpanRecorder()
    recorder.add("parent", 0.0, 10.0)
    parent, = recorder.spans
    for start, end in ((1.0, 5.0), (3.0, 7.0), (9.0, 12.0)):
        recorder.add("child", start, end)
        recorder.spans[-1].parent_id = parent.span_id
    # Covered: [1, 7] and [9, 10] -> 7 s of the parent's 10 s.
    assert recorder.self_times_ms()[parent.span_id] == pytest.approx(3000.0)


def test_no_success_is_an_error_not_a_zero():
    loop = LoopResult(
        latencies_ms=[[]], rates=[0.0], cpu_s=[0.0], attempted=3, failed=3,
    )
    with pytest.raises(RuntimeError):
        end_to_end_metrics(loop, [1.0])


# ----------------------------------------------------------------------
# Workloads, end to end on a tiny world
# ----------------------------------------------------------------------
def test_serve_direct_runs_green_and_echoes_its_parameters():
    result = serve.run_direct(5, 0.5, TINY)
    _green(result, END_TO_END)
    assert _units(result) == END_TO_END
    assert result["correct"], result["problems"]
    assert result["extras"]["stream"] == STREAM


def test_injected_rank_faults_are_failed_operations():
    # Set-up (1 call) and warm-up (10) pass; the site then fails for good.
    chaos = FaultInjector(seed=0).add(
        "rank.score", error_rate=1.0, after_calls=15
    )
    with use_fault_injector(chaos):
        result = serve.run_direct(5, 0.5, TINY)
    assert result["failed"] > 0
    assert not result["correct"]
    assert result["attempted"] > result["failed"]   # the first few succeeded


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Each workload's traced run, once: name -> (result, recorder, dir)."""
    runs = {}
    for name, run in (
        ("serve_direct", lambda r, d: serve.trace_direct(5, 1.0, r, TINY)),
        ("serve_swap", lambda r, d: serve.trace_swap(5, 1.0, d, r, TINY)),
        ("gateway", lambda r, d: gateway.trace(5, 0.8, r, TINY)),
        ("train", lambda r, d: train.trace(5, 0.3, r, TINY)),
    ):
        recorder = SpanRecorder()
        directory = tmp_path_factory.mktemp(name)
        runs[name] = (run(recorder, directory), recorder, directory)
    return runs


def test_traced_runs_are_green(traced):
    for result, _, _ in traced.values():
        _green(result, PER_LAYER)


def test_per_layer_list_is_what_the_traced_runs_produce(traced):
    produced = {}
    for result, _, _ in traced.values():
        produced.update(_units(result))
    assert produced == PER_LAYER


def test_serve_direct_waterfall(traced):
    result, recorder, _ = traced["serve_direct"]
    assert report.waterfall_problems(result["metrics"]) == []
    assert "platform.self_ms" in report.waterfall(result["metrics"])
    staged = recorder.named("staged")
    assert staged and all(s.request_id is not None for s in staged)


def test_serve_swap_swaps_and_cleans_up(traced):
    result, _, directory = traced["serve_swap"]
    assert result["correct"], result["problems"]
    assert result["metrics"]["online.swaps"][0] >= 2
    assert list(directory.iterdir()) == []      # no leaked snapshot dirs


def test_gateway_hop_peel_reports_every_difference(traced):
    result, _, _ = traced["gateway"]
    peel = report.hop_peel(result["metrics"])
    for name in ("wire.client_gateway_ms", "gateway.route_self_ms",
                 "wire.gateway_worker_ms", "worker.serialize_self_ms"):
        assert name in peel


def test_gateway_runs_green_and_leaves_no_workers():
    import multiprocessing

    result = gateway.run(5, 0.5, TINY)
    _green(result, END_TO_END)
    assert result["correct"], result["problems"]
    assert multiprocessing.active_children() == []


def test_train_runs_green():
    _green(train.run(5, 0.3, TINY), END_TO_END)
