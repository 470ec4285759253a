"""Hedged requests + self-healing membership, with scripted clients."""

from __future__ import annotations

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    Gateway,
    GatewayError,
    WorkerClient,
    WorkerHandle,
    WorkerUnavailable,
)
from repro.cluster.gateway import HEDGE_REFRESH, HEDGE_WINDOW
from repro.cluster.wire import FrameServer
from repro.obs import MetricsRegistry, use_registry

from .attempts import BlockingBegin

CONFIG = ClusterConfig(
    num_workers=3,
    hedge_delay_ms=40.0,
    hedge_min_delay_ms=5.0,
    hedge_min_samples=10_000,     # keep the static delay in force
    breaker_min_calls=2,
    breaker_window=4,
    breaker_recovery_s=60.0,
    request_timeout_s=5.0,
)


class ScriptedClient(BlockingBegin):
    """Answers after ``delay_s``; fails the first ``fail_times`` calls."""

    def __init__(self, worker_id: int, delay_s: float = 0.0,
                 fail_times: int = 0):
        self.worker_id = worker_id
        self.delay_s = delay_s
        self.fail_times = fail_times
        self.calls = 0

    def recommend(self, payload, timeout_s=None):
        self.calls += 1
        if self.fail_times > 0:
            self.fail_times -= 1
            raise WorkerUnavailable(f"fake:{self.worker_id}", "down")
        if self.delay_s:
            time.sleep(self.delay_s)
        return {"worker_id": self.worker_id, "user_id": payload["user_id"],
                "flights": [], "degraded": False, "fallbacks": []}

    def health(self, timeout_s=None):
        return {"worker_id": self.worker_id, "ready": True,
                "state": "ready", "in_flight": 0}

    def close(self):
        pass


def make_gateway(clients, config=CONFIG):
    handles = [
        WorkerHandle(client.worker_id, client, config) for client in clients
    ]
    return Gateway(handles, config), handles


class TestHedging:
    def test_hedge_races_a_replica_past_a_slow_primary(self):
        with use_registry(MetricsRegistry()) as registry:
            clients = [ScriptedClient(i) for i in range(3)]
            gateway, _ = make_gateway(clients)
            preferred = gateway.route_order(7)[0]
            preferred.client.delay_s = 1.0   # far beyond the hedge delay
            start = time.perf_counter()
            response = gateway.recommend({"user_id": 7})
            elapsed = time.perf_counter() - start
            assert response["routed_worker"] != preferred.worker_id
            assert response["attempts"] == 2
            # Well under the slow primary; the hedge won the race.
            assert elapsed < 0.8
            assert registry.counter("gateway.hedged").value == 1
            assert registry.counter("gateway.hedge_wins").value == 1

    def test_fast_primary_never_hedges(self):
        with use_registry(MetricsRegistry()) as registry:
            clients = [ScriptedClient(i) for i in range(3)]
            gateway, _ = make_gateway(clients)
            for user_id in range(10):
                gateway.recommend({"user_id": user_id})
            assert registry.counter("gateway.hedged").value == 0

    def test_hedge_disabled_waits_out_the_primary(self):
        config = dataclasses.replace(CONFIG, hedge_enabled=False)
        with use_registry(MetricsRegistry()) as registry:
            clients = [ScriptedClient(i) for i in range(3)]
            gateway, _ = make_gateway(clients, config)
            preferred = gateway.route_order(7)[0]
            preferred.client.delay_s = 0.15
            response = gateway.recommend({"user_id": 7})
            assert response["routed_worker"] == preferred.worker_id
            assert registry.counter("gateway.hedged").value == 0

    def test_slow_then_failing_primary_still_succeeds(self):
        with use_registry(MetricsRegistry()) as registry:
            clients = [ScriptedClient(i) for i in range(3)]
            gateway, _ = make_gateway(clients)
            preferred = gateway.route_order(7)[0]
            preferred.client.fail_times = 1
            preferred.client.delay_s = 0.2   # slow *and* doomed
            response = gateway.recommend({"user_id": 7})
            assert response["worker_id"] != preferred.worker_id
            assert registry.counter("gateway.routed").value == 1


class TestAbandonedAttempts:
    def test_hedge_win_abandons_the_primary_and_fails_its_breaker(self):
        with use_registry(MetricsRegistry()) as registry:
            clients = [ScriptedClient(i) for i in range(3)]
            gateway, handles = make_gateway(clients)
            preferred = gateway.route_order(7)[0]
            preferred.client.delay_s = 0.5
            response = gateway.recommend({"user_id": 7})
            assert response["routed_worker"] != preferred.worker_id
            assert preferred.client.attempts[0].abandoned
            assert preferred.breaker.failure_rate() == 1.0
            winner = gateway.worker(response["routed_worker"])
            assert winner.breaker.failure_rate() == 0.0
            assert [handle.in_flight for handle in handles] == [0, 0, 0]
            assert registry.gauge("gateway.inflight").value == 0

    def test_primary_win_abandons_the_backup_without_a_verdict(self):
        with use_registry(MetricsRegistry()) as registry:
            clients = [ScriptedClient(i, delay_s=0.4) for i in range(3)]
            gateway, handles = make_gateway(clients)
            preferred = gateway.route_order(7)[0]
            preferred.client.delay_s = 0.1   # hedged at 40 ms, wins anyway
            response = gateway.recommend({"user_id": 7})
            assert response["routed_worker"] == preferred.worker_id
            assert response["attempts"] == 2
            assert registry.counter("gateway.hedged").value == 1
            assert registry.counter("gateway.hedge_wins").value == 0
            backup = next(
                handle for handle in handles
                if handle is not preferred and handle.client.calls
            )
            assert backup.client.attempts[0].abandoned
            assert backup.breaker.failure_rate() == 0.0
            assert [handle.in_flight for handle in handles] == [0, 0, 0]

    def test_attempt_past_its_deadline_is_abandoned_and_retried(self):
        config = dataclasses.replace(
            CONFIG, hedge_enabled=False, request_timeout_s=0.1
        )
        with use_registry(MetricsRegistry()) as registry:
            clients = [ScriptedClient(i) for i in range(2)]
            gateway, handles = make_gateway(clients, config)
            preferred = gateway.route_order(7)[0]
            preferred.client.delay_s = 1.0
            start = time.perf_counter()
            response = gateway.recommend({"user_id": 7})
            assert time.perf_counter() - start < 0.8
            assert response["routed_worker"] != preferred.worker_id
            assert preferred.client.attempts[0].abandoned
            assert registry.counter("gateway.retried").value == 1
            assert registry.counter("gateway.worker_unready", labels={
                "worker": preferred.name, "reason": "unavailable",
            }).value == 1
            assert preferred.breaker.failure_rate() == 1.0
            assert [handle.in_flight for handle in handles] == [0, 0]
            assert registry.gauge("gateway.inflight").value == 0

    def test_every_attempt_past_its_deadline_is_a_typed_rejection(self):
        config = dataclasses.replace(
            CONFIG, hedge_enabled=False, request_timeout_s=0.05
        )
        with use_registry(MetricsRegistry()):
            clients = [ScriptedClient(i, delay_s=0.5) for i in range(2)]
            gateway, handles = make_gateway(clients, config)
            with pytest.raises(GatewayError, match="deadline"):
                gateway.recommend({"user_id": 7})
            assert [handle.in_flight for handle in handles] == [0, 0]

    def test_wedged_primary_opens_its_breaker_without_a_supervisor(self):
        """No supervisor, a primary that never answers: each lost race
        is a breaker failure, so after ``breaker_min_calls`` requests
        the breaker is open and requests stop paying the hedge delay."""
        wedged = threading.Event()

        class WedgedClient(ScriptedClient):
            def recommend(self, payload, timeout_s=None):
                self.calls += 1
                wedged.wait(timeout=30.0)
                raise WorkerUnavailable(f"fake:{self.worker_id}", "thawed")

        with use_registry(MetricsRegistry()) as registry:
            gateway, handles = make_gateway(
                [ScriptedClient(0), ScriptedClient(1)]
            )
            victim = gateway.route_order(7)[0]
            gateway.replace_worker(
                victim.worker_id, WedgedClient(victim.worker_id)
            )
            try:
                for _ in range(CONFIG.breaker_min_calls):
                    response = gateway.recommend({"user_id": 7})
                    assert response["routed_worker"] != victim.worker_id
                assert victim.breaker.state == "open"
                hedged = registry.counter("gateway.hedged").value
                assert hedged == CONFIG.breaker_min_calls
                start = time.perf_counter()
                for _ in range(5):
                    response = gateway.recommend({"user_id": 7})
                    assert response["attempts"] == 1
                assert time.perf_counter() - start \
                    < CONFIG.hedge_delay_ms / 1000.0
                assert registry.counter("gateway.hedged").value == hedged
                assert victim.client.calls == CONFIG.breaker_min_calls
            finally:
                wedged.set()

    def test_lost_race_closes_the_real_connection(self):
        """Over real sockets: the abandoned primary's connection is
        closed, not returned to the pool with a reply still to come."""
        release = threading.Event()

        def slow(payload):
            release.wait(timeout=10.0)
            return 200, {"worker_id": 0}

        servers = [
            FrameServer("127.0.0.1", {"recommend": slow}),
            FrameServer("127.0.0.1", {
                "recommend": lambda payload: (200, {"worker_id": 1}),
            }),
        ]
        for server in servers:
            server.start_in_thread("test-worker")
        try:
            with use_registry(MetricsRegistry()) as registry:
                clients = [
                    WorkerClient(server.host, server.port, timeout_s=5.0)
                    for server in servers
                ]
                config = dataclasses.replace(CONFIG, num_workers=2)
                gateway = Gateway([
                    WorkerHandle(index, client, config)
                    for index, client in enumerate(clients)
                ], config)
                user_id = next(
                    user for user in range(100)
                    if gateway.route_order(user)[0].worker_id == 0
                )
                response = gateway.recommend({"user_id": user_id})
                assert response["routed_worker"] == 1
                assert registry.counter("gateway.hedge_wins").value == 1
                assert clients[0]._pool == []
                assert len(clients[1]._pool) == 1
                assert [h.in_flight for h in gateway.handles] == [0, 0]
        finally:
            release.set()
            for client in clients:
                client.close()
            for server in servers:
                server.shutdown()


class TestHedgeDelay:
    """The delay is a windowed p95, refreshed every HEDGE_REFRESH
    observations — not a percentile of all history on every request."""

    CONFIG = dataclasses.replace(
        CONFIG, hedge_min_samples=32, hedge_min_delay_ms=1.0
    )

    def test_static_delay_until_the_first_refresh_past_min_samples(self):
        assert self.CONFIG.hedge_min_samples < HEDGE_REFRESH
        with use_registry(MetricsRegistry()) as registry:
            gateway, _ = make_gateway([ScriptedClient(0)], self.CONFIG)
            for _ in range(HEDGE_REFRESH - 1):
                gateway._observe_latency(registry, 10.0)
            assert gateway._hedge_delay_s() == pytest.approx(
                self.CONFIG.hedge_delay_ms / 1000.0
            )
            gateway._observe_latency(registry, 10.0)
            assert gateway._hedge_delay_s() == pytest.approx(0.010)
            # Still observed for reporting.
            assert registry.histogram("gateway.latency_ms").count \
                == HEDGE_REFRESH

    def test_min_samples_beyond_a_refresh_keeps_the_static_delay(self):
        config = dataclasses.replace(
            self.CONFIG, hedge_min_samples=HEDGE_REFRESH + 1
        )
        with use_registry(MetricsRegistry()) as registry:
            gateway, _ = make_gateway([ScriptedClient(0)], config)
            for _ in range(2 * HEDGE_REFRESH - 1):
                gateway._observe_latency(registry, 10.0)
            assert gateway._hedge_delay_s() == pytest.approx(
                config.hedge_delay_ms / 1000.0
            )
            gateway._observe_latency(registry, 10.0)
            assert gateway._hedge_delay_s() == pytest.approx(0.010)

    def test_floor_and_disabled(self):
        with use_registry(MetricsRegistry()) as registry:
            gateway, _ = make_gateway([ScriptedClient(0)], self.CONFIG)
            for _ in range(HEDGE_REFRESH):
                gateway._observe_latency(registry, 0.01)
            assert gateway._hedge_delay_s() == pytest.approx(0.001)
            off, _ = make_gateway(
                [ScriptedClient(0)],
                dataclasses.replace(self.CONFIG, hedge_enabled=False),
            )
            assert off._hedge_delay_s() is None

    def test_recomputed_once_per_refresh_at_a_flat_cost(self, monkeypatch):
        calls = []
        percentile = np.percentile

        def counting(window, q):
            calls.append(len(window))
            return percentile(window, q)

        monkeypatch.setattr(
            "repro.cluster.gateway.np.percentile", counting
        )
        total = 100_000
        with use_registry(MetricsRegistry()) as registry:
            gateway, _ = make_gateway([ScriptedClient(0)], self.CONFIG)
            laps = []
            for lap in range(10):
                start = time.perf_counter()
                for index in range(total // 10):
                    gateway._observe_latency(registry, float(index % 50))
                    gateway._hedge_delay_s()
                laps.append(time.perf_counter() - start)
        assert 0 < len(calls) <= total // HEDGE_REFRESH
        assert max(calls) == HEDGE_WINDOW
        # Uptime does not slow the call: the last 10 000 cost what the
        # second 10 000 did (3x covers a noisy box; recomputing from all
        # history is 20x by then).
        assert laps[-1] < 3.0 * laps[1]

    def test_delay_follows_a_step_change_within_one_window(self):
        with use_registry(MetricsRegistry()) as registry:
            gateway, _ = make_gateway([ScriptedClient(0)], self.CONFIG)
            for _ in range(5 * HEDGE_WINDOW):
                gateway._observe_latency(registry, 5.0)
            assert gateway._hedge_delay_s() == pytest.approx(0.005)
            for _ in range(HEDGE_WINDOW + HEDGE_REFRESH):
                gateway._observe_latency(registry, 50.0)
            assert gateway._hedge_delay_s() == pytest.approx(0.050)


class TestAllWorkersDown:
    def test_fast_typed_error_not_a_hang(self):
        """Satellite contract: every worker down means a *prompt typed*
        failure (503 via handle_recommend), never a hang or a raw
        ConnectionRefusedError leaking to the caller."""
        with use_registry(MetricsRegistry()) as registry:
            clients = [
                ScriptedClient(i, fail_times=10 ** 9) for i in range(2)
            ]
            gateway, _ = make_gateway(clients)
            start = time.perf_counter()
            for user_id in range(10):
                status, body = gateway.handle_recommend({"user_id": user_id})
                assert status == 503
                assert "no replica available" in body["error"]
            elapsed = time.perf_counter() - start
            assert elapsed < 2.0
            assert registry.counter("gateway.rejected").value == 10

    def test_recovers_as_soon_as_any_worker_returns(self):
        with use_registry(MetricsRegistry()) as registry:
            clients = [
                ScriptedClient(i, fail_times=10 ** 9) for i in range(2)
            ]
            gateway, handles = make_gateway(clients)
            for user_id in range(10):
                status, _ = gateway.handle_recommend({"user_id": user_id})
                assert status == 503
            # Both breakers are open by now; the forced probe is what
            # keeps testing the water on every request.
            assert {handle.breaker.state for handle in handles} == {"open"}
            assert registry.counter("gateway.breaker_forced").value > 0
            healed = gateway.route_order(3)[0]
            healed.client.fail_times = 0
            status, body = gateway.handle_recommend({"user_id": 3})
            assert status == 200
            assert body["routed_worker"] == healed.worker_id


class TestMembership:
    def test_replace_worker_swaps_client_and_resets_breaker(self):
        with use_registry(MetricsRegistry()):
            clients = [ScriptedClient(0, fail_times=10 ** 9),
                       ScriptedClient(1)]
            gateway, handles = make_gateway(clients)
            for user_id in range(10):
                gateway.recommend({"user_id": user_id})
            assert handles[0].breaker.state == "open"
            gateway.exclude(0)
            replacement = ScriptedClient(0)
            gateway.replace_worker(0, replacement)
            assert handles[0].client is replacement
            assert handles[0].breaker.state == "closed"
            assert handles[0].excluded is False
            # The replacement serves its hashed share again.
            served = {
                gateway.recommend({"user_id": user_id})["routed_worker"]
                for user_id in range(30)
            }
            assert served == {0, 1}

    def test_replace_worker_preserves_ring_placement(self):
        with use_registry(MetricsRegistry()):
            clients = [ScriptedClient(i) for i in range(3)]
            gateway, _ = make_gateway(clients)
            before = {
                user_id: gateway.route_order(user_id)[0].name
                for user_id in range(50)
            }
            gateway.replace_worker(1, ScriptedClient(1))
            after = {
                user_id: gateway.route_order(user_id)[0].name
                for user_id in range(50)
            }
            assert before == after   # same name, same vnodes: zero remap

    def test_remove_worker_shrinks_ring(self):
        with use_registry(MetricsRegistry()):
            clients = [ScriptedClient(i) for i in range(3)]
            gateway, _ = make_gateway(clients)
            gateway.remove_worker(2)
            with gateway._members_lock:
                assert sorted(h.name for h in gateway.handles) == \
                    ["w0", "w1"]
            for user_id in range(20):
                assert gateway.recommend(
                    {"user_id": user_id}
                )["routed_worker"] in (0, 1)

    def test_remove_last_worker_refused(self):
        with use_registry(MetricsRegistry()):
            gateway, _ = make_gateway([ScriptedClient(0)])
            with pytest.raises(RuntimeError, match="last worker"):
                gateway.remove_worker(0)
            with gateway._members_lock:
                assert [h.name for h in gateway.handles] == ["w0"]

    def test_remove_unknown_worker_raises(self):
        with use_registry(MetricsRegistry()):
            gateway, _ = make_gateway([ScriptedClient(0), ScriptedClient(1)])
            with pytest.raises(KeyError):
                gateway.remove_worker(7)
