"""The ``cluster`` bench phase: does multi-process scale-out actually pay?

Two measured phases plus one correctness drill, all on identical
request streams:

1. **concurrent_direct** — one in-process guarded ``FlightRecommender``
   hammered by ``client_concurrency`` threads: the GIL-bound baseline
   every earlier bench tops out at.
2. **cluster** — the same offered load pushed through the gateway's
   front into ``num_workers`` worker processes.  Each request pays two
   localhost frame hops, and wins when there are cores to win with,
   because the model math runs on ``num_workers`` GILs instead of one.
3. **rolling_drain** — with client traffic running continuously, one
   worker is excluded, drained, reloaded (model-version bump) and
   readmitted.  The report records how many requests flew during the
   roll and how many failed; the gate is **zero**.

The report lands in ``BENCH_cluster.json`` (see
:mod:`repro.perf.bench`); ``tools/check_bench.py`` enforces
``cluster rps > concurrent_direct rps`` and the zero-loss drain.

The report records ``available_cpus`` because the throughput claim is a
*parallelism* claim: on a single-CPU host the worker processes
time-slice one core, there is no speedup to demonstrate, and the
validator only enforces the hardware-independent invariants (positive
throughput on both paths, zero lost requests, completed drain).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..perf.bench import available_cpus
from .config import ClusterConfig
from .manager import ServingCluster

__all__ = ["ClusterBenchConfig", "available_cpus", "run_cluster_bench_report"]


class ClusterBenchConfig:
    """Sizes for the cluster phase (kept plain so perf.bench owns the
    frozen dataclass surface)."""

    def __init__(
        self,
        cluster: ClusterConfig,
        requests: int = 120,
        client_concurrency: int = 8,
        repeats: int = 3,
        k: int = 5,
        drain_min_requests: int = 20,
    ):
        self.cluster = cluster
        self.requests = requests
        self.client_concurrency = client_concurrency
        self.repeats = repeats
        self.k = k
        self.drain_min_requests = drain_min_requests


def _request_stream(config: ClusterConfig, total: int, k: int) -> list[dict]:
    """The shared request stream — real test users from the same seeded
    dataset every worker replica builds."""
    from ..data import ODDataset, generate_fliggy_dataset
    from ..data.synthetic import FliggyConfig
    from ..data.world import WorldConfig

    dataset = ODDataset(generate_fliggy_dataset(FliggyConfig(
        num_users=config.num_users,
        world=WorldConfig(num_cities=config.num_cities),
        train_points_per_user=1,
        seed=config.seed,
    )))
    points = dataset.source.test_points
    return [
        {
            "user_id": points[i % len(points)].history.user_id,
            "day": points[i % len(points)].day,
            "k": k,
        }
        for i in range(total)
    ]


def _median_rps(submit_one, requests: list[dict], concurrency: int,
                repeats: int) -> float:
    """Median requests/sec across repeats (same discipline as the
    serving bench: concurrent phases are noisy, medians don't lie)."""
    rates = []
    for _ in range(repeats):
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            futures = [pool.submit(submit_one, item) for item in requests]
            for future in futures:
                future.result()
        elapsed = time.perf_counter() - start
        rates.append(len(requests) / elapsed if elapsed > 0 else 0.0)
    return float(np.median(rates))


def _direct_baseline(bench: ClusterBenchConfig, requests: list[dict]) -> float:
    """Single-process concurrent-direct rps through the full facade."""
    from ..cluster.worker import _build_recommender

    recommender = _build_recommender(bench.cluster, worker_id=-1)

    def submit_one(item: dict):
        return recommender.recommend(
            user_id=item["user_id"], day=item["day"], k=item["k"]
        )

    # Warm the frozen-graph cache so the baseline is the *fast* path.
    submit_one(requests[0])
    return _median_rps(
        submit_one, requests, bench.client_concurrency, bench.repeats
    )


def _rolling_drain_under_traffic(
    cluster: ServingCluster, bench: ClusterBenchConfig, requests: list[dict]
) -> dict:
    """Roll one worker while clients keep hammering the gateway."""
    stop = threading.Event()
    counts = {"requests": 0, "failed": 0}
    counts_lock = threading.Lock()
    errors: list[str] = []

    def pound():
        client = cluster.client()
        index = 0
        while not stop.is_set():
            item = requests[index % len(requests)]
            index += 1
            try:
                client.recommend(item)
                ok = True
            except Exception as exc:
                ok = False
                if len(errors) < 5:
                    errors.append(f"{type(exc).__name__}: {exc}")
            with counts_lock:
                counts["requests"] += 1
                counts["failed"] += 0 if ok else 1

    threads = [
        threading.Thread(target=pound, daemon=True)
        for _ in range(bench.client_concurrency)
    ]
    for thread in threads:
        thread.start()
    try:
        # Let traffic establish before the roll begins...
        while True:
            with counts_lock:
                if counts["requests"] >= bench.drain_min_requests:
                    break
            time.sleep(0.01)
        target = cluster.handles[0].worker_id
        reports = cluster.rolling_restart(worker_ids=[target])
        # ...and keep flowing after readmission so the revived worker
        # demonstrably takes traffic again.
        settle_until = counts["requests"] + bench.drain_min_requests
        while True:
            with counts_lock:
                if counts["requests"] >= settle_until:
                    break
            time.sleep(0.01)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
    report = reports[0]
    return {
        "drained_worker": report["worker_id"],
        "drained": report["drained"],
        "model_version_after": report["model_version"],
        "requests": counts["requests"],
        "failed": counts["failed"],
        "errors": errors,
    }


def run_cluster_bench_report(bench: ClusterBenchConfig) -> dict:
    """Measure baseline vs cluster and run the zero-loss drain drill."""
    requests = _request_stream(bench.cluster, bench.requests, bench.k)
    direct_rps = _direct_baseline(bench, requests)

    with ServingCluster(bench.cluster) as cluster:
        client = cluster.client()  # pooled connections: any thread may call

        def submit_one(item: dict):
            return client.recommend(item)

        # One full warm pass: every worker sees its hashed share of the
        # users, so the frozen-cache build happens before measurement.
        for item in requests:
            submit_one(item)
        cluster_rps = _median_rps(
            submit_one, requests, bench.client_concurrency, bench.repeats
        )
        health = cluster.gateway.cluster_health()
        drain = _rolling_drain_under_traffic(cluster, bench, requests)

    workers = bench.cluster.num_workers
    speedup = cluster_rps / direct_rps if direct_rps > 0 else 0.0
    routed = {
        name: entry.get("counters", [])
        for name, entry in health["per_worker"].items()
    }
    per_worker_served = {
        name: next(
            (c["value"] for c in counters
             if c["name"] == "serving.requests"), 0.0
        )
        for name, counters in routed.items()
    }
    return {
        "benchmark": "cluster",
        "workers": workers,
        "available_cpus": available_cpus(),
        "concurrent_direct": {
            "requests": len(requests),
            "concurrency": bench.client_concurrency,
            "repeats": bench.repeats,
            "requests_per_sec": round(direct_rps, 4),
        },
        "cluster": {
            "requests": len(requests),
            "concurrency": bench.client_concurrency,
            "repeats": bench.repeats,
            "requests_per_sec": round(cluster_rps, 4),
            "speedup_vs_concurrent_direct": round(speedup, 3),
            "scaling_efficiency": round(speedup / workers, 3)
            if workers else 0.0,
            "per_worker_served": per_worker_served,
            "gateway": health["gateway"],
        },
        "rolling_drain": drain,
    }
