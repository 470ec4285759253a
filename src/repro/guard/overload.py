"""The overload scenario: 4x capacity, mixed priorities, graceful drain.

One seeded, threaded driver behind ``python -m repro chaos --overload``:
a guarded :class:`FlightRecommender` with a deliberately small
concurrency limit is hammered by ``offered_multiplier``x that capacity
in concurrent clients, with priorities cycling
interactive/batch/background and the chaos injector adding latency at
``rank.score`` to stand in for a slow model.

The scenario demonstrates the overload contract end to end: every
request returns a :class:`RecommendationResponse` (shed traffic comes
back as typed admission degradations, never raw exceptions), admitted
traffic keeps a bounded p99 because the queue is bounded, and a final
:meth:`~repro.guard.ServerLifecycle.drain` completes every in-flight
request before reporting drained.  The command exits non-zero unless
some traffic was admitted, no response was empty, the drain completed
and a request after it came back degraded.

Heavy imports stay inside :func:`run_overload` — the serving package
imports ``repro.guard``, so this module must not import serving at
module level.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from threading import Barrier, Thread

from ..obs.registry import tail_summary
from .shedder import Priority

__all__ = ["OverloadConfig", "run_overload"]

#: The serving stage a shed request reports in its fallback metadata.
ADMISSION_SITE = "admission"


@dataclass(frozen=True)
class OverloadConfig:
    """Sizes for the overload scenario (small on purpose — the point is
    the ratio of offered load to capacity, not absolute throughput)."""

    num_users: int = 300
    num_cities: int = 40
    capacity: int = 2                # concurrent requests the guard allows
    max_queue: int = 3               # bounded wait queue behind the limit
    queue_timeout_ms: float = 120.0
    offered_multiplier: int = 4      # concurrent clients = multiplier x capacity
    requests_per_client: int = 6
    k: int = 5
    rank_latency_ms: float = 10.0    # injected at rank.score (the slow model)
    deadline_ms: float = 1000.0
    drain_timeout_s: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.capacity < 1 or self.offered_multiplier < 2:
            raise ValueError(
                "need capacity >= 1 and offered_multiplier >= 2 "
                "(the scenario must actually overload the server)"
            )
        if self.requests_per_client < 1:
            raise ValueError(
                f"requests_per_client must be >= 1, got "
                f"{self.requests_per_client}"
            )


def run_overload(config: OverloadConfig | None = None) -> dict:
    """Run the seeded overload scenario; returns the report dict.

    Every client call must return a response object — any raised
    exception is a scenario failure and is re-raised after the threads
    join.
    """
    from ..core import ODNETConfig, build_odnet
    from ..data import ODDataset, generate_fliggy_dataset
    from ..data.synthetic import FliggyConfig
    from ..data.world import WorldConfig
    from ..resilience import FaultInjector, FaultSpec, use_fault_injector
    from ..serving import FlightRecommender
    from .controller import GuardConfig
    from .limiter import AdaptiveLimitConfig

    config = config or OverloadConfig()
    dataset = ODDataset(generate_fliggy_dataset(FliggyConfig(
        num_users=config.num_users,
        world=WorldConfig(num_cities=config.num_cities),
        train_points_per_user=1,
        seed=config.seed,
    )))
    model = build_odnet(
        dataset, ODNETConfig(dim=16, num_heads=2, depth=2, seed=config.seed)
    )
    recommender = FlightRecommender(
        model, dataset,
        guard=GuardConfig(
            max_concurrent=config.capacity,
            max_queue=config.max_queue,
            queue_timeout_ms=config.queue_timeout_ms,
            adaptive=AdaptiveLimitConfig(
                target_latency_ms=config.rank_latency_ms * 20.0,
                min_limit=1,
                max_limit=max(4, config.capacity * 2),
                window=8,
            ),
        ),
    )

    clients = config.capacity * config.offered_multiplier
    priorities = [Priority(i % len(Priority)) for i in range(clients)]
    points = dataset.source.test_points
    barrier = Barrier(clients)
    results: list[list[tuple[Priority, object, float]]] = [
        [] for _ in range(clients)
    ]
    errors: list[BaseException] = []

    def client(index: int) -> None:
        priority = priorities[index]
        barrier.wait()
        for turn in range(config.requests_per_client):
            point = points[(index + turn * clients) % len(points)]
            start = time.perf_counter()
            try:
                response = recommender.recommend(
                    user_id=point.history.user_id,
                    day=point.day,
                    k=config.k,
                    deadline=config.deadline_ms,
                    priority=priority,
                )
            except BaseException as exc:   # contract: must never happen
                errors.append(exc)
                return
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            results[index].append((priority, response, elapsed_ms))

    chaos = FaultInjector(seed=config.seed)
    chaos.add("rank.score", FaultSpec(
        latency_ms=config.rank_latency_ms, latency_rate=1.0
    ))
    threads = [Thread(target=client, args=(i,)) for i in range(clients)]
    with use_fault_injector(chaos):
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]

    drained = recommender.drain(timeout_s=config.drain_timeout_s)
    # Admission is closed once draining: a post-drain request still gets
    # a (fully degraded) response, never an exception.
    post_drain = recommender.recommend(
        user_id=points[0].history.user_id, day=points[0].day, k=config.k
    )

    per_priority: dict[str, dict] = {}
    admitted_latency: list[float] = []
    shed_latency: list[float] = []
    for client_results in results:
        for priority, response, elapsed_ms in client_results:
            entry = per_priority.setdefault(priority.name.lower(), {
                "offered": 0, "shed": 0, "degraded": 0, "empty": 0,
            })
            entry["offered"] += 1
            was_shed = any(
                event.site == ADMISSION_SITE for event in response.fallbacks
            )
            if was_shed:
                entry["shed"] += 1
                shed_latency.append(elapsed_ms)
            else:
                admitted_latency.append(elapsed_ms)
            entry["degraded"] += bool(response.degraded)
            entry["empty"] += len(response) == 0
    offered = sum(entry["offered"] for entry in per_priority.values())
    shed = sum(entry["shed"] for entry in per_priority.values())
    return {
        "offered": offered,
        "clients": clients,
        "capacity": config.capacity,
        "offered_multiplier": config.offered_multiplier,
        "admitted": offered - shed,
        "shed": shed,
        "empty_responses": sum(
            entry["empty"] for entry in per_priority.values()
        ),
        "per_priority": per_priority,
        "admitted_latency_ms": tail_summary(admitted_latency, 4, "_ms"),
        "shed_latency_ms": tail_summary(shed_latency, 4, "_ms"),
        "drained": drained,
        "post_drain_degraded": post_drain.degraded,
        "final_limit": recommender.guard.limiter.limit,
        "adaptations": recommender.guard.limiter.adaptations,
    }
