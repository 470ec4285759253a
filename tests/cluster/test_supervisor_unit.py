"""Supervision logic with fakes and a scripted clock (no processes)."""

from __future__ import annotations

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterStartupError,
    ClusterSupervisor,
    Gateway,
    RestartBudget,
    WorkerHandle,
    WorkerUnavailable,
)
from repro.obs import MetricsRegistry, use_registry

from .attempts import BlockingBegin

CONFIG = ClusterConfig(
    num_workers=2,
    supervise_interval_s=0.2,
    heartbeat_interval_s=1.0,
    heartbeat_timeout_s=1.0,
    heartbeat_stale_s=3.0,
    restart_budget=2,
    restart_backoff_s=1.0,
    restart_backoff_max_s=4.0,
)


class HealthyClient(BlockingBegin):
    """Scripted worker client that always answers."""

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.calls = 0
        self.closed = False

    def recommend(self, payload, timeout_s=None):
        self.calls += 1
        return {"worker_id": self.worker_id, "user_id": payload["user_id"],
                "flights": [], "degraded": False, "fallbacks": []}

    def health(self, timeout_s=None):
        return {"worker_id": self.worker_id, "ready": True,
                "state": "ready", "in_flight": 0}

    def close(self):
        self.closed = True


class WedgedClient(HealthyClient):
    """Alive at the process level, never answers a health probe."""

    def health(self, timeout_s=None):
        raise WorkerUnavailable(f"fake:{self.worker_id}", "timed out")


class FakeProcess:
    def __init__(self, alive: bool = True, exitcode: int | None = None):
        self.alive = alive
        self.exitcode = exitcode
        self.pid = 12345

    def is_alive(self) -> bool:
        return self.alive


class FakeCluster:
    """Just enough ServingCluster surface for the supervisor."""

    def __init__(self, gateway: Gateway, config: ClusterConfig):
        self.gateway = gateway
        self.config = config
        self.processes: dict[int, FakeProcess] = {}
        self.respawn_calls: list[int] = []
        self.respawn_error: Exception | None = None

    def process_for(self, worker_id: int):
        return self.processes.get(worker_id)

    def respawn_worker(self, worker_id: int):
        self.respawn_calls.append(worker_id)
        if self.respawn_error is not None:
            raise self.respawn_error
        self.processes[worker_id] = FakeProcess()
        return HealthyClient(worker_id)


def make_rig(clients=None, config=CONFIG):
    clients = clients or [HealthyClient(0), HealthyClient(1)]
    handles = [
        WorkerHandle(client.worker_id, client, config) for client in clients
    ]
    gateway = Gateway(handles, config)
    cluster = FakeCluster(gateway, config)
    cluster.processes = {
        client.worker_id: FakeProcess() for client in clients
    }
    clock = [0.0]
    supervisor = ClusterSupervisor(cluster, time_source=lambda: clock[0])
    return supervisor, cluster, gateway, handles, clock


class TestRestartBudget:
    def test_backoff_doubles_up_to_cap(self):
        budget = RestartBudget(budget=5, backoff_s=1.0, backoff_max_s=4.0)
        delays = []
        for _ in range(5):
            delays.append(budget.next_delay_s())
            budget.consume()
        assert delays == [1.0, 2.0, 4.0, 4.0, 4.0]

    def test_exhausted_budget_yields_none(self):
        budget = RestartBudget(budget=1, backoff_s=1.0, backoff_max_s=4.0)
        assert budget.next_delay_s() == 1.0
        budget.consume()
        assert budget.exhausted
        assert budget.next_delay_s() is None

    def test_zero_budget_abandons_immediately(self):
        budget = RestartBudget(budget=0, backoff_s=1.0, backoff_max_s=4.0)
        assert budget.next_delay_s() is None


class TestCrashDetection:
    def test_dead_process_is_excluded_and_scheduled(self):
        with use_registry(MetricsRegistry()) as registry:
            supervisor, cluster, _, handles, _ = make_rig()
            supervisor.tick()           # healthy pass: nothing happens
            assert not supervisor.status()["pending"]
            cluster.processes[0].alive = False
            supervisor.tick()
            assert handles[0].excluded is True
            assert cluster.respawn_calls == []   # backoff first
            assert supervisor.status()["pending"] == [0]
            assert registry.counter(
                "cluster.worker_deaths",
                labels={"worker": "w0", "reason": "crash"},
            ).value == 1

    def test_replacement_spliced_after_backoff_with_fresh_breaker(self):
        with use_registry(MetricsRegistry()) as registry:
            supervisor, cluster, _, handles, clock = make_rig()
            cluster.processes[0].alive = False
            # The dead worker's breaker carries its failure history.
            for _ in range(8):
                handles[0].breaker.record_failure()
            old_client = handles[0].client
            supervisor.tick()
            clock[0] += CONFIG.restart_backoff_s + 0.01
            supervisor.tick()
            assert cluster.respawn_calls == [0]
            assert handles[0].client is not old_client
            assert old_client.closed is True
            # Satellite contract: a fresh replica starts with a closed
            # breaker and zero failure history, and takes traffic.
            assert handles[0].breaker.state == "closed"
            assert handles[0].breaker.allow() is True
            assert handles[0].excluded is False
            assert supervisor.restarts == 1
            assert registry.counter("cluster.worker_restarts").value == 1

    def test_no_respawn_before_backoff_elapses(self):
        with use_registry(MetricsRegistry()):
            supervisor, cluster, _, _, clock = make_rig()
            cluster.processes[0].alive = False
            supervisor.tick()
            clock[0] += CONFIG.restart_backoff_s / 2
            supervisor.tick()
            assert cluster.respawn_calls == []


class TestWedgeDetection:
    def test_stale_heartbeats_declare_a_wedge(self):
        with use_registry(MetricsRegistry()) as registry:
            clients = [HealthyClient(0), WedgedClient(1)]
            supervisor, _, _, handles, clock = make_rig(clients)
            # Probes fail each interval; staleness accrues from t=0.
            for t in (0.0, 1.1, 2.2):
                clock[0] = t
                supervisor.tick()
                assert handles[1].excluded is False
            clock[0] = CONFIG.heartbeat_stale_s + 0.1
            supervisor.tick()
            assert handles[1].excluded is True
            assert registry.counter(
                "cluster.worker_deaths",
                labels={"worker": "w1", "reason": "wedged"},
            ).value == 1
            # The healthy neighbour was never touched.
            assert handles[0].excluded is False

    def test_successful_probe_resets_staleness(self):
        with use_registry(MetricsRegistry()):
            supervisor, _, _, handles, clock = make_rig()
            for t in (0.0, 2.0, 4.0, 6.0, 8.0):
                clock[0] = t
                supervisor.tick()
            assert handles[0].excluded is False
            assert handles[1].excluded is False


class TestRestartBudgetExhaustion:
    def test_crash_loop_abandons_slot_and_shrinks_ring(self):
        with use_registry(MetricsRegistry()) as registry:
            supervisor, cluster, gateway, handles, clock = make_rig()
            # Death -> replace -> death again: budget=2 allows two
            # replacements, the third death abandons the slot.
            for _ in range(CONFIG.restart_budget):
                cluster.processes[0].alive = False
                supervisor.tick()
                clock[0] += CONFIG.restart_backoff_max_s + 0.01
                supervisor.tick()
            assert supervisor.restarts == CONFIG.restart_budget
            cluster.processes[0].alive = False
            supervisor.tick()
            assert supervisor.status()["abandoned"] == [0]
            assert registry.counter("cluster.worker_abandoned").value == 1
            # The ring shrank; every user now routes to the survivor.
            with gateway._members_lock:
                assert [h.name for h in gateway.handles] == ["w1"]
            for user_id in range(10):
                assert gateway.recommend(
                    {"user_id": user_id}
                )["routed_worker"] == 1
            # Abandoned slots are never revisited.
            respawns = len(cluster.respawn_calls)
            supervisor.tick()
            assert len(cluster.respawn_calls) == respawns

    def test_failed_respawn_charges_the_budget(self):
        with use_registry(MetricsRegistry()):
            config = ClusterConfig(
                num_workers=2, restart_budget=1,
                restart_backoff_s=1.0, restart_backoff_max_s=4.0,
            )
            supervisor, cluster, gateway, _, clock = make_rig(config=config)
            cluster.respawn_error = ClusterStartupError("never came up")
            cluster.processes[0].alive = False
            supervisor.tick()
            clock[0] += config.restart_backoff_s + 0.01
            supervisor.tick()
            assert cluster.respawn_calls == [0]
            # That was the whole budget: the slot is abandoned.
            assert supervisor.status()["abandoned"] == [0]
            assert supervisor.restarts == 0

    def test_last_worker_is_never_removed(self):
        with use_registry(MetricsRegistry()):
            config = ClusterConfig(num_workers=1, restart_budget=0)
            client = HealthyClient(0)
            handle = WorkerHandle(0, client, config)
            gateway = Gateway([handle], config)
            cluster = FakeCluster(gateway, config)
            cluster.processes = {0: FakeProcess(alive=False)}
            clock = [0.0]
            supervisor = ClusterSupervisor(
                cluster, time_source=lambda: clock[0]
            )
            supervisor.tick()
            assert supervisor.status()["abandoned"] == [0]
            with gateway._members_lock:
                assert [h.name for h in gateway.handles] == ["w0"]


class TestStatus:
    def test_status_reports_budget_use(self):
        with use_registry(MetricsRegistry()):
            supervisor, cluster, _, _, clock = make_rig()
            cluster.processes[0].alive = False
            supervisor.tick()
            status = supervisor.status()
            assert status["budget_used"] == {"w0": 1}
            assert status["restarts"] == 0
            assert status["pending"] == [0]
