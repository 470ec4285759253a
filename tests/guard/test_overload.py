"""The acceptance scenario: a guarded recommender at 4x capacity.

Twelve concurrent clients with mixed priorities hammer a
FlightRecommender whose guard allows two concurrent requests and two
waiters, while the chaos injector slows every rank call.  The overload
contract under test: no caller ever sees a raw exception, interactive
traffic always gets an answer, shed traffic comes back as typed
admission degradations, and a final drain completes every in-flight
request before reporting drained.
"""

from __future__ import annotations

import threading
import time
from threading import Barrier, Thread

import pytest

from repro.guard import (
    AdmissionRejected,
    GuardConfig,
    Priority,
    ShedPolicy,
)
from repro.guard.overload import ADMISSION_SITE
from repro.obs import use_registry
from repro.resilience import FaultInjector, FaultSpec, use_fault_injector
from repro.serving import FlightRecommender
from repro.serving.platform import RecommendationResponse


def guarded_recommender(trained_odnet, od_dataset, **overrides):
    config = dict(
        max_concurrent=2, max_queue=2, queue_timeout_ms=100.0,
    )
    config.update(overrides)
    return FlightRecommender(
        trained_odnet, od_dataset, guard=GuardConfig(**config)
    )


def was_shed(response: RecommendationResponse) -> bool:
    return any(event.site == ADMISSION_SITE for event in response.fallbacks)


class TestOverloadContract:
    def test_four_x_capacity_mixed_priorities(self, trained_odnet,
                                              od_dataset):
        recommender = guarded_recommender(trained_odnet, od_dataset)
        points = od_dataset.source.test_points
        clients = 12                       # 4x the 2-slot + 2-queue guard
        rounds = 3
        barrier = Barrier(clients)
        responses: dict[int, list] = {i: [] for i in range(clients)}
        errors: list[BaseException] = []
        priorities = [Priority(i % len(Priority)) for i in range(clients)]

        def client(index: int) -> None:
            try:
                barrier.wait()
                for turn in range(rounds):
                    point = points[(index + turn * clients) % len(points)]
                    responses[index].append(recommender.recommend(
                        user_id=point.history.user_id,
                        day=point.day,
                        k=5,
                        deadline=2_000.0,
                        priority=priorities[index],
                    ))
            except BaseException as exc:      # the contract forbids this
                errors.append(exc)

        chaos = FaultInjector(seed=0)
        chaos.add("rank.score", FaultSpec(latency_ms=10.0, latency_rate=1.0))
        threads = [Thread(target=client, args=(i,)) for i in range(clients)]
        with use_registry() as registry, use_fault_injector(chaos):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        # 1. No caller saw a raw exception; every call returned a response.
        assert errors == []
        flat = [r for rs in responses.values() for r in rs]
        assert len(flat) == clients * rounds
        assert all(isinstance(r, RecommendationResponse) for r in flat)
        assert all(len(r) > 0 for r in flat)   # never an empty answer

        # 2. Shed traffic is typed admission degradation, never an error.
        shed = [r for r in flat if was_shed(r)]
        for response in shed:
            assert response.degraded
            admission_events = [
                e for e in response.fallbacks if e.site == ADMISSION_SITE
            ]
            assert admission_events
            reason = admission_events[0].reason
            assert (
                reason.startswith("shed:")
                or reason in ("queue_full", "queue_timeout")
            )

        # 3. Offered load was genuinely 4x capacity, so something shed...
        assert shed, "12 clients against 2 slots must shed something"
        # ...and the shed skew follows priority: background never outlives
        # interactive (per-class shed fraction is monotone in priority).
        def shed_fraction(priority):
            mine = [
                r
                for index, rs in responses.items()
                if priorities[index] is priority
                for r in rs
            ]
            return sum(was_shed(r) for r in mine) / len(mine)

        assert shed_fraction(Priority.BACKGROUND) >= shed_fraction(
            Priority.INTERACTIVE
        )

        # 4. The guard counters saw the same story the responses tell.
        admitted = registry.counter("guard.admitted").value
        shed_count = registry.counter("guard.shed").value
        assert admitted == len(flat) - len(shed)
        assert shed_count == len(shed)

    def test_drain_completes_in_flight_then_refuses(self, trained_odnet,
                                                    od_dataset):
        recommender = guarded_recommender(trained_odnet, od_dataset)
        points = od_dataset.source.test_points
        in_rank = threading.Event()
        finished = []
        chaos = FaultInjector(
            seed=0,
            sleep=lambda seconds: (in_rank.set(), time.sleep(seconds)),
        )
        chaos.add("rank.score", FaultSpec(latency_ms=150.0, latency_rate=1.0))

        def slow_request():
            with use_fault_injector(chaos):
                finished.append(recommender.recommend(
                    user_id=points[0].history.user_id,
                    day=points[0].day,
                    k=5,
                ))

        thread = Thread(target=slow_request)
        thread.start()
        assert in_rank.wait(5.0)        # the request is inside the model
        start = time.perf_counter()
        assert recommender.drain(timeout_s=10.0) is True
        drain_s = time.perf_counter() - start
        thread.join()
        # Drain blocked on the in-flight request and it completed normally.
        assert finished and not was_shed(finished[0])
        assert drain_s > 0.01
        assert recommender.lifecycle.state == "drained"
        assert recommender.lifecycle.in_flight == 0
        # Post-drain traffic is refused at the door but still answered.
        response = recommender.recommend(
            user_id=points[0].history.user_id, day=points[0].day, k=5
        )
        assert response.degraded and was_shed(response)
        assert response.fallbacks[0].reason == "draining"
        assert len(response) > 0

    def test_interactive_survives_when_background_sheds(self, trained_odnet,
                                                        od_dataset):
        """At moderate pressure only low-priority traffic is refused."""
        recommender = guarded_recommender(
            trained_odnet, od_dataset,
            shed=ShedPolicy(background_at=0.25, batch_at=0.75,
                            interactive_at=1.0),
        )
        guard = recommender.guard
        permit = guard.admit(priority=Priority.INTERACTIVE)  # 1/4 occupancy
        try:
            with pytest.raises(AdmissionRejected):
                guard.admit(priority=Priority.BACKGROUND)
            point = od_dataset.source.test_points[0]
            response = recommender.recommend(
                user_id=point.history.user_id, day=point.day, k=5,
                priority=Priority.INTERACTIVE,
            )
            assert not was_shed(response)
        finally:
            permit.release()

    def test_shed_responses_stay_out_of_latency_histogram(self, trained_odnet,
                                                          od_dataset):
        """Shed requests must not drag the AIMD calibration source down."""
        recommender = guarded_recommender(trained_odnet, od_dataset)
        point = od_dataset.source.test_points[0]
        with use_registry() as registry:
            recommender.recommend(
                user_id=point.history.user_id, day=point.day, k=5
            )
            baseline = registry.histogram("serving.latency_ms").count
            recommender.drain(timeout_s=1.0)
            recommender.recommend(          # refused at the door
                user_id=point.history.user_id, day=point.day, k=5
            )
            assert registry.histogram("serving.latency_ms").count == baseline
            assert registry.counter("serving.shed_requests").value == 1
