#!/usr/bin/env python
"""Validate BENCH_*.json files produced by ``python -m repro bench``.

CI runs this after the bench smoke; a malformed or structurally
incomplete report fails the build.  Usage::

    python tools/check_bench.py BENCH_serving.json BENCH_training.json
"""

from __future__ import annotations

import json
import math
import sys

REQUIRED = {
    "serving": {
        "uncached": ("mean_ms", "p50_ms", "p99_ms", "requests_per_sec"),
        "cached": ("mean_ms", "p50_ms", "p99_ms", "requests_per_sec",
                   "speedup_vs_uncached"),
        "concurrent_direct": ("requests_per_sec",),
        "microbatched": ("requests_per_sec", "speedup_vs_uncached",
                         "speedup_vs_concurrent_direct",
                         "batches", "occupancy_mean"),
        "microbatched_uncached": ("requests_per_sec",
                                  "speedup_vs_uncached", "batches"),
        "cache": ("hits", "misses"),
        # Assembly-vs-forward split of the serial cached phase; keeps a
        # regression back to per-candidate Python visible in the report.
        "spans": ("rank.batch", "rank.score"),
    },
    "training": {},
    "cluster": {
        "concurrent_direct": ("requests_per_sec",),
        "cluster": ("requests_per_sec", "speedup_vs_concurrent_direct",
                    "scaling_efficiency", "per_worker_served"),
        "rolling_drain": ("requests", "failed", "drained"),
    },
    "overload": {
        "admitted_latency_ms": ("count", "p50_ms", "p99_ms", "max_ms"),
        "shed_latency_ms": ("count", "p50_ms", "p99_ms", "max_ms"),
        "per_priority": (),
        "guard_counters": ("admitted", "shed", "drains"),
    },
    "chaos": {
        "traffic": ("requests", "ok", "degraded", "lost"),
        "supervisor": ("restarts", "abandoned", "budget_used"),
        "gateway": ("routed", "retried", "hedged", "hedge_wins",
                    "breaker_forced", "rejected"),
        "deaths": (),
    },
    "online": {
        "happy": ("bookings", "steps", "publishes", "swaps",
                  "scored", "serving_errors", "torn_reads",
                  "store_version"),
        "crash_matrix": (),
        "crash_loop": ("crashes", "trainer_restarts", "abandoned",
                       "store_version", "serving_errors"),
        "update_lag_ms": ("count", "p50", "p99", "max"),
        "swap_pause_ms": ("count", "p50", "p99", "max"),
    },
}
TOP_LEVEL = ("benchmark", "schema_version", "config")
TRAINING_SCALARS = ("examples_per_sec", "elapsed_s", "epochs")
OVERLOAD_SCALARS = ("offered", "admitted", "shed", "drained",
                    "empty_responses")


def _fail(path: str, message: str) -> None:
    raise SystemExit(f"check_bench: {path}: {message}")


def _positive(path: str, where: str, value) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _fail(path, f"{where} is not a number: {value!r}")
    if math.isnan(value) or value <= 0:
        _fail(path, f"{where} must be > 0, got {value}")


def check(path: str) -> str:
    try:
        report = json.loads(open(path).read())
    except OSError as exc:
        _fail(path, f"cannot read: {exc}")
    except json.JSONDecodeError as exc:
        _fail(path, f"not valid JSON: {exc}")
    for key in TOP_LEVEL:
        if key not in report:
            _fail(path, f"missing top-level key {key!r}")
    kind = report["benchmark"]
    if kind not in REQUIRED:
        _fail(path, f"unknown benchmark kind {kind!r}")
    for section, keys in REQUIRED[kind].items():
        if section not in report:
            _fail(path, f"missing section {section!r}")
        for key in keys:
            if key not in report[section]:
                _fail(path, f"missing {section}.{key}")
    if kind == "serving":
        for section in ("uncached", "cached", "concurrent_direct",
                        "microbatched", "microbatched_uncached"):
            _positive(path, f"{section}.requests_per_sec",
                      report[section]["requests_per_sec"])
        _positive(path, "cache.misses", report["cache"]["misses"])
        for span in ("rank.batch", "rank.score"):
            _positive(path, f"spans.{span}.total_ms",
                      report["spans"][span]["total_ms"])
        # microbatched.speedup_vs_concurrent_direct is recorded, not
        # gated: it swings with the host's cores and load (1.0-13x over
        # five 4-request runs on one 2-CPU box), so no threshold holds.
    elif kind == "cluster":
        if "workers" not in report:
            _fail(path, "missing 'workers'")
        workers = report["workers"]
        if not isinstance(workers, int) or workers < 2:
            _fail(path, f"cluster bench needs >= 2 workers, got {workers!r}")
        direct = report["concurrent_direct"]["requests_per_sec"]
        aggregate = report["cluster"]["requests_per_sec"]
        _positive(path, "concurrent_direct.requests_per_sec", direct)
        _positive(path, "cluster.requests_per_sec", aggregate)
        # cluster.speedup_vs_concurrent_direct is recorded, not gated:
        # on a 2-CPU host two workers plus a gateway do not beat one
        # process (0.19-0.46x measured), and ROADMAP item 3 owns making
        # scale-out true.  The drain invariants below are held everywhere.
        drain = report["rolling_drain"]
        _positive(path, "rolling_drain.requests", drain["requests"])
        if drain["drained"] is not True:
            _fail(path, f"rolling drain did not complete: "
                        f"drained={drain['drained']!r}")
        if drain["failed"] != 0:
            _fail(path, f"rolling drain lost {drain['failed']} request(s) "
                        f"out of {drain['requests']}")
    elif kind == "chaos":
        traffic = report["traffic"]
        _positive(path, "traffic.requests", traffic["requests"])
        # The contract of the self-healing drill: under SIGKILL + SIGSTOP
        # every request still gets an answer.  Degraded 200s are within
        # contract; client-visible errors are not.
        if traffic["lost"] != 0:
            _fail(path, f"chaos drill lost {traffic['lost']} request(s) "
                        f"out of {traffic['requests']}: "
                        f"{traffic.get('errors', [])[:3]}")
        restarts = report.get("worker_restarts", 0)
        _positive(path, "worker_restarts", restarts)
        if report["supervisor"]["restarts"] < 1:
            _fail(path, "chaos drill recorded no automatic replacement "
                        f"(supervisor.restarts="
                        f"{report['supervisor']['restarts']})")
        if not report["deaths"]:
            _fail(path, "chaos drill recorded no worker deaths — "
                        "nothing was drilled")
        for counter in ("hedged", "hedge_wins"):
            value = report["gateway"][counter]
            if not isinstance(value, (int, float)) or value < 0:
                _fail(path, f"gateway.{counter} is not a valid counter: "
                            f"{value!r}")
    elif kind == "online":
        happy = report["happy"]
        _positive(path, "happy.bookings", happy["bookings"])
        _positive(path, "happy.scored", happy["scored"])
        _positive(path, "happy.publishes", happy["publishes"])
        _positive(path, "happy.swaps", happy["swaps"])
        # The torn-read contract is exact and hardware-independent:
        # every score any concurrent thread observed must be
        # bit-identical to some *published* version's scores — a single
        # mixed-version score fails the build.
        if report.get("torn_reads_total", happy["torn_reads"]) != 0:
            _fail(path, f"online drill observed "
                        f"{report.get('torn_reads_total')} torn read(s) — "
                        f"a scoring thread saw a half-swapped table")
        if report.get("serving_errors_total", 0) != 0:
            _fail(path, f"online drill saw "
                        f"{report['serving_errors_total']} serving "
                        f"error(s) under hot-swap traffic")
        if report.get("versions_monotonic") is not True:
            _fail(path, "served version moved backwards during the drill")
        # The crash matrix: one entry per publish stage; each must have
        # actually crashed, left serving on the old consistent version
        # (post_flip legitimately lands on the new one — the entry's own
        # flag encodes the stage-specific expectation), and recovered
        # with a fresh shadow-approved publish after restart.
        stages = {entry["stage"] for entry in report["crash_matrix"]}
        expected = {"pre_write", "mid_write", "pre_flip", "post_flip"}
        if stages != expected:
            _fail(path, f"crash matrix covered {sorted(stages)}, "
                        f"expected {sorted(expected)}")
        for entry in report["crash_matrix"]:
            stage = entry["stage"]
            if not entry.get("crashed"):
                _fail(path, f"crash stage {stage!r} never crashed — "
                            f"nothing was drilled")
            if not entry.get("old_version_preserved"):
                _fail(path, f"crash at {stage!r} left the pointer on an "
                            f"unexpected version "
                            f"(v{entry.get('version_at_crash')})")
            if not entry.get("recovered"):
                _fail(path, f"trainer did not recover after the "
                            f"{stage!r} crash (final "
                            f"v{entry.get('version_final')}, restarts="
                            f"{entry.get('trainer_restarts')})")
            if entry.get("serving_errors", 0) != 0:
                _fail(path, f"crash at {stage!r} caused "
                            f"{entry['serving_errors']} serving error(s)")
        loop = report["crash_loop"]
        if loop["abandoned"] is not True:
            _fail(path, "crash-looping trainer was not abandoned within "
                        f"its restart budget (crashes={loop['crashes']})")
        _positive(path, "crash_loop.crashes", loop["crashes"])
        # Update lag p99 within the configured budget: the freshness
        # claim the whole loop exists for.  Wall-clock, so held only
        # where the host can time it meaningfully.
        budget = report.get("update_lag_budget_ms")
        if budget is None:
            _fail(path, "missing 'update_lag_budget_ms'")
        _positive(path, "update_lag_ms.count",
                  report["update_lag_ms"]["count"])
        cpus = report.get("available_cpus", 2)
        if cpus >= 2 and report["update_lag_ms"]["p99"] > budget:
            _fail(path, f"update lag p99 "
                        f"({report['update_lag_ms']['p99']} ms) exceeds "
                        f"the {budget} ms budget")
    elif kind == "overload":
        for key in OVERLOAD_SCALARS:
            if key not in report:
                _fail(path, f"missing {key!r}")
        _positive(path, "offered", report["offered"])
        _positive(path, "admitted", report["admitted"])
        _positive(path, "admitted_latency_ms.p99_ms",
                  report["admitted_latency_ms"]["p99_ms"])
        if report["drained"] is not True:
            _fail(path, f"drain did not complete: drained="
                        f"{report['drained']!r}")
        if report["empty_responses"] != 0:
            _fail(path, f"overload run produced "
                        f"{report['empty_responses']} empty responses")
    else:
        for key in TRAINING_SCALARS:
            if key not in report:
                _fail(path, f"missing {key!r}")
            _positive(path, key, report[key])
    note = ""
    if kind == "online" and report.get("available_cpus", 2) < 2:
        note = "; single-CPU host, update-lag gate skipped"
    return (
        f"{path}: ok ({kind}, schema v{report['schema_version']}{note})"
    )


def main(argv: list[str]) -> int:
    if not argv:
        raise SystemExit(
            "usage: check_bench.py BENCH_serving.json [BENCH_training.json ...]"
        )
    for path in argv:
        print(check(path))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
