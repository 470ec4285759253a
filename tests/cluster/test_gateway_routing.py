"""Gateway routing policy with scripted fake workers (no processes)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterProtocolError,
    Gateway,
    GatewayError,
    WorkerHandle,
    WorkerUnavailable,
)
from repro.obs import MetricsRegistry, use_registry

from .attempts import BlockingBegin

CONFIG = ClusterConfig(num_workers=3, breaker_min_calls=2,
                       breaker_window=4, breaker_recovery_s=60.0)


class FakeClient(BlockingBegin):
    """Scripted worker client: always unavailable (the dead replica)."""

    def __init__(self, worker_id: int, fail_times: int = 0):
        self.worker_id = worker_id
        self.fail_times = fail_times
        self.calls = 0

    def recommend(self, payload, timeout_s=None):
        self.calls += 1
        raise WorkerUnavailable(f"fake:{self.worker_id}", "draining")

    def health(self, timeout_s=None):
        return {"worker_id": self.worker_id, "ready": True,
                "state": "ready", "in_flight": 0}


class AnsweringClient(FakeClient):
    """Answers after failing the first ``fail_times`` calls."""

    def recommend(self, payload, timeout_s=None):
        self.calls += 1
        if self.fail_times > 0:
            self.fail_times -= 1
            raise WorkerUnavailable(f"fake:{self.worker_id}", "draining")
        return {"worker_id": self.worker_id, "user_id": payload["user_id"],
                "flights": [], "degraded": False, "fallbacks": []}


def make_gateway(clients):
    handles = [
        WorkerHandle(client.worker_id, client, CONFIG) for client in clients
    ]
    return Gateway(handles, CONFIG), handles


class TestRouting:
    def test_prefers_consistent_hash_owner(self):
        clients = [AnsweringClient(i) for i in range(3)]
        gateway, _ = make_gateway(clients)
        for user_id in range(50):
            expected = gateway.ring.lookup(user_id)
            order = gateway.route_order(user_id)
            assert order[0].name == expected

    def test_same_user_sticks_to_same_worker(self):
        clients = [AnsweringClient(i) for i in range(3)]
        gateway, _ = make_gateway(clients)
        first = gateway.recommend({"user_id": 7})["routed_worker"]
        for _ in range(5):
            assert gateway.recommend({"user_id": 7})["routed_worker"] == first

    def test_requires_user_id(self):
        gateway, _ = make_gateway([AnsweringClient(0)])
        with pytest.raises(ValueError, match="user_id"):
            gateway.recommend({"day": 1})

    def test_least_loaded_fallback_order(self):
        clients = [AnsweringClient(i) for i in range(3)]
        gateway, handles = make_gateway(clients)
        preferred = gateway.route_order(7)[0]
        others = [handle for handle in handles if handle is not preferred]
        # Load up one replica: the idle one must be tried first on retry.
        others[0].begin()
        others[0].begin()
        order = gateway.route_order(7)
        assert order[0] is preferred
        assert order[1] is others[1]
        assert order[2] is others[0]
        others[0].end()
        others[0].end()

    def test_busy_owner_spills_to_the_idle_replica(self):
        with use_registry(MetricsRegistry()) as registry:
            clients = [AnsweringClient(i) for i in range(3)]
            gateway, _ = make_gateway(clients)
            ring_order = gateway.route_order(7)
            owner = ring_order[0]
            owner.begin()
            try:
                # Ties among the idle replicas keep the ring's order.
                assert gateway.route_order(7) == ring_order[1:] + [owner]
                response = gateway.recommend({"user_id": 7})
            finally:
                owner.end()
            assert response["routed_worker"] == ring_order[1].worker_id
            assert response["attempts"] == 1
            assert owner.client.calls == 0
            assert registry.counter("gateway.spilled").value == 1
            assert gateway.cluster_health()["gateway"]["spilled"] == 1

    def test_equal_load_keeps_the_ring_owner(self):
        with use_registry(MetricsRegistry()) as registry:
            clients = [AnsweringClient(i) for i in range(3)]
            gateway, handles = make_gateway(clients)
            owner = gateway.route_order(7)[0]
            for handle in handles:
                handle.begin()
            try:
                assert gateway.route_order(7)[0] is owner
                response = gateway.recommend({"user_id": 7})
            finally:
                for handle in handles:
                    handle.end()
            assert response["routed_worker"] == owner.worker_id
            assert registry.counter("gateway.spilled").value == 0

    def test_concurrent_requests_for_one_user_use_both_workers(self):
        """In-flight is counted when a request is *sent*, so the second
        request is routed around the first."""
        release = threading.Event()

        class SlowClient(AnsweringClient):
            def recommend(self, payload, timeout_s=None):
                assert release.wait(timeout=10.0)
                return super().recommend(payload, timeout_s)

        with use_registry(MetricsRegistry()):
            gateway, handles = make_gateway([SlowClient(0), SlowClient(1)])
            routed: list[int] = []
            threads = [
                threading.Thread(target=lambda: routed.append(
                    gateway.recommend({"user_id": 7})["routed_worker"]
                ))
                for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            try:
                give_up = time.monotonic() + 10.0
                while sum(handle.in_flight for handle in handles) < 2:
                    assert time.monotonic() < give_up
                    time.sleep(0.005)
                assert [handle.in_flight for handle in handles] == [1, 1]
            finally:
                release.set()
                for thread in threads:
                    thread.join(timeout=10.0)
            assert sorted(routed) == [0, 1]
            assert [handle.in_flight for handle in handles] == [0, 0]


class TestRetries:
    def test_retries_unavailable_worker_against_replica(self):
        with use_registry(MetricsRegistry()) as registry:
            clients = [AnsweringClient(i) for i in range(3)]
            gateway, _ = make_gateway(clients)
            preferred = gateway.route_order(7)[0]
            preferred.client.fail_times = 1
            response = gateway.recommend({"user_id": 7})
            assert response["routed_worker"] != preferred.worker_id
            assert response["attempts"] == 2
            assert registry.counter("gateway.retried").value == 1
            assert registry.counter(
                "gateway.worker_unready",
                labels={"worker": preferred.name, "reason": "unavailable"},
            ).value == 1

    def test_excluded_worker_is_skipped_without_an_attempt(self):
        with use_registry(MetricsRegistry()) as registry:
            clients = [AnsweringClient(i) for i in range(2)]
            gateway, _ = make_gateway(clients)
            preferred = gateway.route_order(3)[0]
            gateway.exclude(preferred.worker_id)
            response = gateway.recommend({"user_id": 3})
            assert response["routed_worker"] != preferred.worker_id
            assert preferred.client.calls == 0
            # A skip is not a retry: the first *attempt* succeeded.
            assert response["attempts"] == 1
            assert registry.counter("gateway.retried").value == 0

    def test_breaker_opens_after_repeated_failures_then_readmit_resets(self):
        clients = [AnsweringClient(0, fail_times=99), AnsweringClient(1)]
        gateway, handles = make_gateway(clients)
        bad = handles[0]
        for user_id in range(20):
            gateway.recommend({"user_id": user_id})
        assert bad.breaker.state == "open"
        calls_when_open = bad.client.calls
        for user_id in range(20):
            gateway.recommend({"user_id": user_id})
        # Tripped breaker short-circuits: no further wire calls.
        assert bad.client.calls == calls_when_open
        gateway.readmit(0)
        assert bad.breaker.state == "closed"

    def test_all_replicas_down_raises_gateway_error(self):
        with use_registry(MetricsRegistry()) as registry:
            clients = [FakeClient(i) for i in range(2)]
            gateway, _ = make_gateway(clients)
            with pytest.raises(GatewayError, match="no replica available"):
                gateway.recommend({"user_id": 1})
            assert registry.counter("gateway.rejected").value == 1

    def test_send_failure_is_a_failed_attempt_that_retries(self):
        """``begin`` itself raising (connection refused) walks on down
        the list exactly like an attempt that failed on the wire."""
        class RefusingClient(AnsweringClient):
            def begin(self, payload, timeout_s=None):
                self.calls += 1
                raise WorkerUnavailable(f"fake:{self.worker_id}", "refused")

        with use_registry(MetricsRegistry()) as registry:
            gateway, handles = make_gateway(
                [RefusingClient(0), RefusingClient(1)]
            )
            with pytest.raises(GatewayError, match="2 attempt.*refused"):
                gateway.recommend({"user_id": 7})
            assert registry.counter("gateway.retried").value == 1
            assert [handle.in_flight for handle in handles] == [0, 0]
            # Each refusal is on its worker's breaker record.
            assert [handle.breaker.failure_rate() for handle in handles] \
                == [1.0, 1.0]

    def test_nothing_left_in_flight_on_any_exit(self):
        """``end()`` runs on success, on failure and when a protocol bug
        is raised through the ladder."""
        class BuggyClient(AnsweringClient):
            def recommend(self, payload, timeout_s=None):
                raise ClusterProtocolError("worker fake recommend -> 500")

        with use_registry(MetricsRegistry()) as registry:
            clients = [AnsweringClient(0, fail_times=1), AnsweringClient(1)]
            gateway, handles = make_gateway(clients)
            for user_id in range(6):          # success, and retried failure
                gateway.recommend({"user_id": user_id})
            gateway.replace_worker(0, BuggyClient(0))
            gateway.replace_worker(1, BuggyClient(1))
            with pytest.raises(ClusterProtocolError):
                gateway.recommend({"user_id": 1})
            gateway.replace_worker(0, FakeClient(0))
            gateway.replace_worker(1, FakeClient(1))
            with pytest.raises(GatewayError):
                gateway.recommend({"user_id": 1})
            assert [handle.in_flight for handle in handles] == [0, 0]
            assert registry.gauge("gateway.inflight").value == 0

    def test_routed_counters_label_the_serving_worker(self):
        with use_registry(MetricsRegistry()) as registry:
            clients = [AnsweringClient(i) for i in range(2)]
            gateway, _ = make_gateway(clients)
            for user_id in range(10):
                gateway.recommend({"user_id": user_id})
            total = registry.counter("gateway.routed").value
            per_worker = sum(
                registry.counter(
                    "gateway.routed", labels={"worker": f"w{i}"}
                ).value
                for i in range(2)
            )
            assert total == 10 and per_worker == 10


class TestHealthAggregation:
    def test_aggregates_ready_and_marks_excluded(self):
        clients = [AnsweringClient(i) for i in range(3)]
        gateway, _ = make_gateway(clients)
        gateway.exclude(1)
        health = gateway.cluster_health()
        assert health["workers"] == 3
        assert health["ready"] == 2     # excluded workers don't count
        assert health["per_worker"]["w1"]["excluded"] is True
        assert set(health["gateway"]) >= {
            "routed", "retried", "worker_unready", "rejected", "inflight",
        }

    def test_unreachable_worker_reports_not_ready(self):
        class DeadClient(FakeClient):
            def health(self, timeout_s=None):
                raise WorkerUnavailable("fake:dead", "ConnectionRefused")

        gateway, _ = make_gateway([AnsweringClient(0), DeadClient(1)])
        health = gateway.cluster_health()
        assert health["ready"] == 1
        assert health["per_worker"]["w1"]["ready"] is False
        assert "error" in health["per_worker"]["w1"]
