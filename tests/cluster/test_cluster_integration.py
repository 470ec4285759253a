"""End-to-end cluster: real worker processes, real sockets, real drain.

One module-scoped 2-worker cluster serves every test here (boot costs a
couple of seconds per worker); the rolling-drain test intentionally runs
last — it bumps worker 0's model version.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cluster import (
    ClusterConfig,
    ServingCluster,
    WorkerClient,
    WorkerUnavailable,
)

CONFIG = ClusterConfig(
    num_workers=2,
    num_users=200,
    num_cities=24,
    seed=0,
    startup_timeout_s=180.0,
    drain_timeout_s=30.0,
    # Spawned workers load numpy afresh, so the BLAS pool size the
    # ``cluster`` fixture sets in the environment reaches them (a forked
    # worker keeps the pool this process already started).
    start_method="spawn",
)


@pytest.fixture(scope="module")
def cluster():
    """The shared cluster, its workers single-BLAS-threaded and warm.

    ``attempts == 1`` and one routed worker per user hold only while no
    request outlasts the static hedge delay; one that does is rightly
    hedged to the other worker.  Two things made requests that slow here
    without any routing fault.  Test process plus two workers, each with
    a default BLAS pool, oversubscribe a small box, and requests then
    intermittently take ~85 ms instead of ~4 ms (measured on 2 cores):
    the workers are spawned with their pools pinned to one thread, the
    shape for N replicas a box.  And a worker's first
    request pays the table build and lazy caches: each is sent one
    directly, past the gateway.
    """
    with pytest.MonkeyPatch.context() as patch:
        for pool in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
            patch.setenv(pool, "1")
        with ServingCluster(CONFIG) as running:
            for handle in running.handles:
                handle.client.recommend({"user_id": 0, "day": 720})
            yield running


class TestServing:
    def test_recommend_through_gateway(self, cluster):
        client = cluster.client()
        response = client.recommend({"user_id": 3, "day": 720, "k": 4})
        assert response["user_id"] == 3
        assert len(response["flights"]) == 4
        assert {"origin", "destination", "score"} <= set(
            response["flights"][0]
        )
        assert response["routed_worker"] in (0, 1)
        assert response["attempts"] == 1

    def test_replicas_answer_identically(self, cluster):
        """Same seed -> same weights: any worker can serve any user."""
        payload = {"user_id": 11, "day": 720, "k": 5}
        per_worker = {}
        for handle in cluster.handles:
            answer = handle.client.recommend(payload)
            per_worker[handle.worker_id] = [
                (flight["origin"], flight["destination"])
                for flight in answer["flights"]
            ]
        answers = list(per_worker.values())
        assert answers[0] == answers[1]

    def test_user_affinity_is_stable(self, cluster):
        client = cluster.client()
        routed = {
            client.recommend({"user_id": 42, "day": 720})["routed_worker"]
            for _ in range(4)
        }
        assert len(routed) == 1

    def test_concurrent_traffic_spreads_across_workers(self, cluster):
        client = cluster.client()
        payloads = [
            {"user_id": user_id, "day": 720, "k": 3}
            for user_id in range(40)
        ]
        with ThreadPoolExecutor(max_workers=4) as pool:
            responses = list(pool.map(client.recommend, payloads))
        workers = {response["routed_worker"] for response in responses}
        assert workers == {0, 1}
        assert all(len(response["flights"]) == 3 for response in responses)

    def test_bad_payload_is_a_400_not_a_crash(self, cluster):
        host, port = cluster.gateway_address
        status, body = WorkerClient(host, port).request(
            "recommend", {"day": 1}
        )
        assert status == 400
        assert "user_id" in body["error"]

    def test_unknown_route_is_404(self, cluster):
        """The gateway serves ``recommend`` and ``health``; a worker's
        admin verbs have no route there."""
        host, port = cluster.gateway_address
        status, _ = WorkerClient(host, port).request("drain", {})
        assert status == 404


class TestHealth:
    def test_aggregated_health(self, cluster):
        health = cluster.gateway.cluster_health()
        assert health["workers"] == 2
        assert health["ready"] == 2
        for name in ("w0", "w1"):
            entry = health["per_worker"][name]
            assert entry["ready"] is True
            assert entry["state"] == "ready"
            assert entry["model_version"] >= 1

    def test_worker_counters_carry_worker_label(self, cluster):
        client = cluster.client()
        client.recommend({"user_id": 9, "day": 720})
        health = cluster.gateway.cluster_health()
        labelled = [
            counter
            for entry in health["per_worker"].values()
            for counter in entry["counters"]
            if counter["name"] == "serving.requests"
        ]
        assert labelled, "workers must export serving.requests"
        assert {counter["labels"].get("worker") for counter in labelled} <= {
            "w0", "w1",
        }

    def test_gateway_health_endpoint_over_the_wire(self, cluster):
        host, port = cluster.gateway_address
        status, body = WorkerClient(host, port).request("health")
        assert status == 200
        assert body["workers"] == 2


class TestRollingDrain:
    def test_draining_worker_refuses_direct_requests(self, cluster):
        """A drained-but-not-reloaded worker 503s so the gateway retries.

        Uses worker 1 directly (not through the gateway) and reloads it
        back to ready before returning.
        """
        handle = cluster.handles[1]
        assert handle.client.drain(timeout_s=10.0)["drained"] is True
        with pytest.raises(WorkerUnavailable):
            handle.client.recommend({"user_id": 1, "day": 720})
        reloaded = handle.client.reload(timeout_s=15.0)
        assert reloaded["state"] == "ready"
        assert reloaded["model_version"] == 2
        # Back in service.
        answer = handle.client.recommend({"user_id": 1, "day": 720})
        assert answer["model_version"] == 2

    def test_rolling_restart_under_traffic_loses_nothing(self, cluster):
        stop = threading.Event()
        results = {"served": 0, "failed": 0}
        lock = threading.Lock()

        def pound():
            client = cluster.client()
            user_id = 0
            while not stop.is_set():
                user_id += 1
                try:
                    client.recommend(
                        {"user_id": user_id % CONFIG.num_users, "day": 720}
                    )
                    ok = True
                except Exception:
                    ok = False
                with lock:
                    results["served"] += 1
                    results["failed"] += 0 if ok else 1

        threads = [threading.Thread(target=pound) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            reports = cluster.rolling_restart(worker_ids=[0])
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=20.0)
        assert reports[0]["drained"] is True
        assert reports[0]["model_version"] >= 2
        assert results["served"] > 0
        assert results["failed"] == 0, (
            f"{results['failed']}/{results['served']} requests failed "
            f"during the rolling drain"
        )
        # Both workers took traffic again after readmission.
        health = cluster.gateway.cluster_health()
        assert health["ready"] == 2
