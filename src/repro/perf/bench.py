"""The repo's reproducible perf baseline (``python -m repro bench``).

Measures what the fast path actually buys:

- **Serving** — single-request ``RankingService.rank`` latency (p50 /
  p99 / mean) and requests/sec for the *uncached* baseline (full HSGC
  re-propagation per request), the *cached*
  :class:`~repro.perf.InferenceSession` fast path, and the
  *micro-batched* path (concurrent clients pooled through a
  :class:`~repro.perf.MicroBatcher` into shared forwards).  Cache
  hit/miss and batch-occupancy counters are reported through
  :mod:`repro.obs` and echoed into the JSON output.
- **Training** — ``Trainer`` examples/sec over a small fixed dataset.
- **Overload** — the guard's admission-control scenario: offered load at
  4x a deliberately small concurrency limit, mixed priorities, graceful
  drain.  The headline numbers are the bounded p99 for *admitted*
  traffic and the shed count (typed degradations, never errors).

Results land in ``BENCH_serving.json`` / ``BENCH_training.json`` /
``BENCH_overload.json`` so the numbers are diffable across PRs.  The bench dataset is deliberately
user-heavy (graph propagation scales with the node count, per-request
work with the candidate count) — the production shape the cache exists
for: millions of users, ~a hundred candidates per request.

Heavy imports stay inside the functions: ``repro.serving`` imports this
package for the session/micro-batch classes, so the bench must not
import serving at module level.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..obs.registry import Histogram, MetricsRegistry, set_registry
from ..obs.tracing import Tracer, use_tracer

__all__ = [
    "BenchConfig",
    "available_cpus",
    "quick_bench_config",
    "run_serving_bench",
    "run_training_bench",
    "run_overload_bench",
    "run_cluster_bench",
    "run_chaos_bench",
    "run_online_bench",
    "run_bench",
    "BENCH_PHASES",
]

#: bump when the JSON layout changes (CI validates against this).
SCHEMA_VERSION = 1


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    Benchmarks whose headline number is a *parallelism* claim (cluster
    scale-out, micro-batch coalescing under concurrent load) record this
    so ``tools/check_bench.py`` can skip hardware-dependent gates on
    single-CPU hosts while still validating the report structure.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux: no affinity API
        return os.cpu_count() or 1


@dataclass(frozen=True)
class BenchConfig:
    """Sizes for the serving and training benchmarks."""

    # --- serving ------------------------------------------------------
    num_users: int = 4000
    num_cities: int = 100
    requests: int = 40
    warmup: int = 3
    k: int = 5
    microbatch_size: int = 8
    concurrency: int = 8
    microbatch_wait_ms: float = 25.0
    repeats: int = 5
    # --- training -----------------------------------------------------
    train_users: int = 400
    train_cities: int = 50
    train_epochs: int = 2
    # --- overload -----------------------------------------------------
    overload_capacity: int = 2
    overload_multiplier: int = 4
    overload_requests_per_client: int = 6
    # --- cluster ------------------------------------------------------
    cluster_workers: int = 4
    cluster_requests: int = 96
    cluster_concurrency: int = 8
    cluster_repeats: int = 3
    cluster_users: int = 1200
    cluster_cities: int = 60
    # --- online (streaming-update chaos drill) --------------------------
    online_users: int = 200
    online_cities: int = 40
    online_events: int = 96
    online_crash_events: int = 48
    online_lag_budget_ms: float = 5000.0
    # --- shared -------------------------------------------------------
    seed: int = 0

    def __post_init__(self):
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")


def quick_bench_config(seed: int = 0) -> BenchConfig:
    """A CI-smoke sized bench (seconds, not minutes)."""
    return BenchConfig(
        num_users=1200, num_cities=60, requests=10, warmup=2,
        microbatch_size=5, concurrency=5, repeats=2,
        train_users=150, train_cities=30, train_epochs=1,
        overload_requests_per_client=3,
        cluster_workers=2, cluster_requests=24, cluster_concurrency=4,
        cluster_repeats=2, cluster_users=600, cluster_cities=40,
        online_users=60, online_cities=20, online_events=40,
        online_crash_events=24,
        seed=seed,
    )


# ----------------------------------------------------------------------
def _bench_dataset(num_users: int, num_cities: int, seed: int):
    from ..data import ODDataset, generate_fliggy_dataset
    from ..data.synthetic import FliggyConfig
    from ..data.world import WorldConfig

    return ODDataset(generate_fliggy_dataset(FliggyConfig(
        num_users=num_users,
        world=WorldConfig(num_cities=num_cities),
        train_points_per_user=1,
        seed=seed,
    )))


def _latency_stats(histogram: Histogram, total_s: float) -> dict:
    return {
        "requests": histogram.count,
        "mean_ms": round(histogram.mean, 4),
        "p50_ms": round(histogram.percentile(50), 4),
        "p99_ms": round(histogram.percentile(99), 4),
        "max_ms": round(histogram.max, 4),
        "requests_per_sec": round(histogram.count / total_s, 4)
        if total_s > 0 else 0.0,
    }


def run_serving_bench(config: BenchConfig | None = None) -> dict:
    """Measure uncached vs cached vs micro-batched serving throughput."""
    from ..core import ODNETConfig, build_odnet
    from ..serving.ranking_service import RankingService
    from ..serving.recall import CandidateRecall
    from .microbatch import MicroBatchConfig, MicroBatcher

    config = config or BenchConfig()
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        dataset = _bench_dataset(
            config.num_users, config.num_cities, config.seed
        )
        model = build_odnet(dataset, ODNETConfig(seed=config.seed))
        recall = CandidateRecall(
            dataset.source.world, dataset.route_popularity
        )
        # A fixed request stream, candidates assembled once so every
        # phase scores identical work.
        points = dataset.source.test_points
        total = config.requests + config.warmup
        stream = [
            points[i % len(points)] for i in range(total)
        ]
        requests = [
            (p.history, recall.candidate_pairs(p.history), p.day)
            for p in stream
        ]

        def measure(service: RankingService) -> tuple[Histogram, float]:
            histogram = Histogram("bench.rank_ms")
            measured_s = 0.0
            for index, (history, candidates, day) in enumerate(requests):
                start = time.perf_counter()
                service.rank(history, candidates, day=day, k=config.k)
                elapsed = time.perf_counter() - start
                if index >= config.warmup:
                    histogram.observe(elapsed * 1000.0)
                    measured_s += elapsed
            return histogram, measured_s

        uncached_service = RankingService(model, dataset, use_cache=False)
        uncached_hist, uncached_s = measure(uncached_service)

        # The serial cached phase runs under a real tracer so the report
        # records where the time goes: batch assembly (``rank.batch``)
        # vs model forward (``rank.score``).  Tracer is not thread-safe,
        # so the concurrent phases below run without one.
        cached_service = RankingService(model, dataset, use_cache=True)
        with use_tracer(Tracer()) as tracer:
            cached_hist, cached_s = measure(cached_service)
        span_stats = tracer.aggregate()
        spans = {
            name: {
                "count": int(stats["count"]),
                "total_ms": round(stats["total_ms"], 4),
                "mean_ms": round(stats["mean_ms"], 4),
                "max_ms": round(stats["max_ms"], 4),
            }
            for name, stats in span_stats.items()
            if name in ("rank.batch", "rank.score")
        }

        measured = requests[config.warmup:]

        def run_concurrent(submit_one) -> float:
            """Median requests/sec over ``config.repeats`` runs.

            Concurrent phases are noisy (GIL scheduling, neighbours on a
            shared box); a single spiked run would mis-state the
            coalescing layer either way, so each phase runs several
            times and reports the median.
            """
            rates = []
            for _ in range(config.repeats):
                start = time.perf_counter()
                with ThreadPoolExecutor(
                    max_workers=config.concurrency
                ) as pool:
                    futures = [
                        pool.submit(submit_one, item) for item in measured
                    ]
                    for future in futures:
                        future.result()
                elapsed = time.perf_counter() - start
                rates.append(len(measured) / elapsed if elapsed > 0 else 0.0)
            return float(np.median(rates))

        # Concurrent-direct phase: the same thread pool hammering rank()
        # with no coalescing — the fair baseline for micro-batching
        # (concurrency vs concurrency, not concurrency vs serial).
        direct_rps = run_concurrent(
            lambda item: cached_service.rank(
                item[0], item[1], day=item[2], k=config.k
            )
        )

        # Micro-batched phase: concurrent clients pooled into shared
        # rank_many forwards through the real coalescing layer.
        batch_config = MicroBatchConfig(
            max_batch=config.microbatch_size,
            max_wait_ms=config.microbatch_wait_ms,
        )
        batcher = MicroBatcher(
            lambda items: cached_service.rank_many(items, k=config.k),
            batch_config,
        )
        micro_rps = run_concurrent(batcher.submit)

        # Micro-batching WITHOUT the cache isolates the amortisation win:
        # each coalesced forward runs the HSGC propagation once for the
        # whole batch instead of once per request — a systematic speedup
        # over the uncached serial baseline even on a noisy box.
        uncached_batcher = MicroBatcher(
            lambda items: uncached_service.rank_many(items, k=config.k),
            batch_config,
        )
        micro_uncached_rps = run_concurrent(uncached_batcher.submit)

        occupancy = registry.histogram("perf.microbatch.occupancy")
        uncached = _latency_stats(uncached_hist, uncached_s)
        cached = _latency_stats(cached_hist, cached_s)
        cached["speedup_vs_uncached"] = round(
            uncached["mean_ms"] / cached["mean_ms"], 3
        ) if cached["mean_ms"] > 0 else 0.0
        return {
            "benchmark": "serving",
            "schema_version": SCHEMA_VERSION,
            "config": dataclasses.asdict(config),
            "available_cpus": available_cpus(),
            "spans": spans,
            "dataset": {
                "num_users": dataset.num_users,
                "num_cities": dataset.num_cities,
                "mean_candidates_per_request": round(float(np.mean(
                    [len(candidates) for _, candidates, _ in requests]
                )), 2),
            },
            "uncached": uncached,
            "cached": cached,
            "concurrent_direct": {
                "requests": len(measured),
                "concurrency": config.concurrency,
                "repeats": config.repeats,
                "requests_per_sec": round(direct_rps, 4),
            },
            "microbatched": {
                "requests": len(measured),
                "repeats": config.repeats,
                "requests_per_sec": round(micro_rps, 4),
                "speedup_vs_uncached": round(
                    micro_rps / uncached["requests_per_sec"], 3
                ) if uncached["requests_per_sec"] > 0 else 0.0,
                "speedup_vs_concurrent_direct": round(
                    micro_rps / direct_rps, 3
                ) if direct_rps > 0 else 0.0,
                "batches": batcher.batches,
                "occupancy_mean": round(occupancy.mean, 3)
                if occupancy.count else 0.0,
                "occupancy_max": occupancy.max if occupancy.count else 0,
            },
            "microbatched_uncached": {
                "requests": len(measured),
                "repeats": config.repeats,
                "requests_per_sec": round(micro_uncached_rps, 4),
                "speedup_vs_uncached": round(
                    micro_uncached_rps / uncached["requests_per_sec"], 3
                ) if uncached["requests_per_sec"] > 0 else 0.0,
                "batches": uncached_batcher.batches,
            },
            "cache": {
                "hits": cached_service.session.hits,
                "misses": cached_service.session.misses,
                "obs_hits": registry.counter("perf.cache_hits").value,
                "obs_misses": registry.counter("perf.cache_misses").value,
            },
        }
    finally:
        set_registry(previous)


def run_training_bench(config: BenchConfig | None = None) -> dict:
    """Measure Trainer throughput (examples/sec) on a fixed dataset."""
    from ..core import ODNETConfig, build_odnet
    from ..train import TrainConfig, Trainer

    config = config or BenchConfig()
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        dataset = _bench_dataset(
            config.train_users, config.train_cities, config.seed
        )
        model = build_odnet(dataset, ODNETConfig(seed=config.seed))
        start = time.perf_counter()
        history = Trainer(
            TrainConfig(epochs=config.train_epochs, seed=config.seed)
        ).fit(model, dataset)
        elapsed_s = time.perf_counter() - start
        return {
            "benchmark": "training",
            "schema_version": SCHEMA_VERSION,
            "config": dataclasses.asdict(config),
            "dataset": {
                "num_users": dataset.num_users,
                "num_cities": dataset.num_cities,
                "train_samples": len(dataset.samples("train")),
            },
            "epochs": config.train_epochs,
            "elapsed_s": round(elapsed_s, 3),
            "examples_per_sec": round(
                float(np.mean(history.examples_per_sec)), 2
            ) if history.examples_per_sec else 0.0,
            "examples_per_sec_per_epoch": [
                round(v, 2) for v in history.examples_per_sec
            ],
            "epoch_losses": [round(v, 6) for v in history.epoch_losses],
            "batches": registry.counter("train.batches").value,
        }
    finally:
        set_registry(previous)


def run_overload_bench(config: BenchConfig | None = None) -> dict:
    """Run the guard's overload scenario as a diffable bench phase.

    The scenario itself lives in :mod:`repro.guard.overload` (shared with
    ``python -m repro chaos --overload``); this wrapper runs it under a
    fresh registry and stamps the bench schema on the report.  The
    contract the numbers witness: admitted p99 stays bounded at
    ``overload_multiplier``x capacity because the wait queue is bounded,
    shed traffic is counted (typed degradations, never raw errors), and
    the drain completed.
    """
    from ..guard.overload import OverloadConfig, run_overload

    config = config or BenchConfig()
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        report = run_overload(OverloadConfig(
            num_users=config.num_users,
            num_cities=config.num_cities,
            capacity=config.overload_capacity,
            offered_multiplier=config.overload_multiplier,
            requests_per_client=config.overload_requests_per_client,
            seed=config.seed,
        ))
        report.update({
            "benchmark": "overload",
            "schema_version": SCHEMA_VERSION,
            "config": dataclasses.asdict(config),
            "guard_counters": {
                "admitted": registry.counter("guard.admitted").value,
                "shed": registry.counter("guard.shed").value,
                "drains": registry.counter("guard.drains").value,
            },
        })
        return report
    finally:
        set_registry(previous)


def run_cluster_bench(config: BenchConfig | None = None) -> dict:
    """Multi-process scale-out vs the single-process GIL-bound baseline.

    Spawns ``cluster_workers`` worker processes behind the
    :mod:`repro.cluster` gateway, pushes the same offered load through
    both paths, and rolls one worker mid-traffic.  The two gates the
    JSON witnesses: aggregate cluster rps beats ``concurrent_direct``
    (processes escape the GIL even after paying two localhost HTTP hops
    per request), and the rolling drain loses **zero** requests.
    """
    from ..cluster.bench import ClusterBenchConfig, run_cluster_bench_report
    from ..cluster.config import ClusterConfig

    config = config or BenchConfig()
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        report = run_cluster_bench_report(ClusterBenchConfig(
            cluster=ClusterConfig(
                num_workers=config.cluster_workers,
                num_users=config.cluster_users,
                num_cities=config.cluster_cities,
                max_concurrent=config.cluster_concurrency,
                seed=config.seed,
            ),
            requests=config.cluster_requests,
            client_concurrency=config.cluster_concurrency,
            repeats=config.cluster_repeats,
            k=config.k,
        ))
        report.update({
            "schema_version": SCHEMA_VERSION,
            "config": dataclasses.asdict(config),
        })
        return report
    finally:
        set_registry(previous)


def run_chaos_bench(config: BenchConfig | None = None) -> dict:
    """The self-healing chaos drill as a diffable bench phase.

    Runs :func:`repro.cluster.chaos.run_chaos_drill` — continuous
    gateway traffic while one worker is SIGKILLed and another SIGSTOP'd
    — under a fresh registry.  The gates ``tools/check_bench.py``
    enforces on the JSON: **zero lost requests** (degraded 200s are
    fine; client-visible errors are not), at least one automatic
    replacement in ``cluster.worker_restarts``, and the hedging
    counters present (the mechanism that keeps the frozen worker's tail
    out of the client's latency).
    """
    from ..cluster.chaos import chaos_cluster_config, run_chaos_drill

    config = config or BenchConfig()
    registry = MetricsRegistry(default_labels={"process": "gateway"})
    previous = set_registry(registry)
    try:
        report = dict(run_chaos_drill(chaos_cluster_config(
            seed=config.seed
        )))
        report.update({
            "schema_version": SCHEMA_VERSION,
            "config": dataclasses.asdict(config),
        })
        return report
    finally:
        set_registry(previous)


def run_online_bench(config: BenchConfig | None = None) -> dict:
    """The online-learning chaos drill as a diffable bench phase.

    Runs :func:`repro.online.run_online_drill` — streaming updates with
    shadow-gated two-phase publishes, hot-swapped into a serving session
    under concurrent scoring threads, with the publisher crashed at
    every protocol stage — under a fresh registry.  The gates
    ``tools/check_bench.py`` enforces: **zero torn reads** (every
    observed score vector is bit-identical to some published version),
    zero serving errors, old-version fallback at every pre-flip crash
    stage plus recovery after restart, the crash-looping publisher
    abandoned within its budget, and ``update_lag_ms`` p99 within
    ``online_lag_budget_ms``.
    """
    from ..online import OnlineDrillConfig, run_online_drill

    config = config or BenchConfig()
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        report = run_online_drill(OnlineDrillConfig(
            num_users=config.online_users,
            num_cities=config.online_cities,
            events=config.online_events,
            crash_events=config.online_crash_events,
            update_lag_budget_ms=config.online_lag_budget_ms,
            seed=config.seed,
        ))
        report.update({
            "schema_version": SCHEMA_VERSION,
            "config": dataclasses.asdict(config),
            "available_cpus": available_cpus(),
        })
        return report
    finally:
        set_registry(previous)


#: Phase name -> runner, in default execution order.
BENCH_PHASES = {
    "serving": run_serving_bench,
    "training": run_training_bench,
    "overload": run_overload_bench,
    "cluster": run_cluster_bench,
    "chaos": run_chaos_bench,
    "online": run_online_bench,
}


def run_bench(
    config: BenchConfig | None = None,
    output_dir: str | pathlib.Path = ".",
    phases: list[str] | None = None,
) -> dict[str, pathlib.Path]:
    """Run bench phases; write one ``BENCH_<name>.json`` per phase.

    ``phases`` selects a subset (e.g. ``["cluster"]`` so CI can re-run
    one phase without paying for the rest); the default runs all of
    :data:`BENCH_PHASES`.  Returns the written paths keyed by name.
    """
    if phases is None:
        selected = list(BENCH_PHASES)
    else:
        unknown = [name for name in phases if name not in BENCH_PHASES]
        if unknown:
            raise ValueError(
                f"unknown bench phase(s) {unknown}; "
                f"choose from {sorted(BENCH_PHASES)}"
            )
        selected = [name for name in BENCH_PHASES if name in set(phases)]
    output_dir = pathlib.Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, pathlib.Path] = {}
    for name in selected:
        report = BENCH_PHASES[name](config)
        report["generated_unix"] = round(time.time(), 1)
        path = output_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        written[name] = path
    return written
