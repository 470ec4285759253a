"""``gateway``: client -> gateway -> worker -> ``recommend`` over HTTP.

A real ``ServingCluster`` — two worker processes behind the in-process
gateway, default ``ClusterConfig`` (hedging, supervisor, breakers on) —
driven by two closed-loop client threads, each on its own
``cluster.client()`` connection.  JSON-over-HTTP hops, a thread per
attempt and hedging dominate; model compute is a minority of a request,
so this is where cluster-overhead work shows and kernel changes barely
do.  With two connections a busier gateway thread lengthens waits, so
``latency_p99_ms`` rises before ``throughput_ops_s`` stops rising.
"""

from __future__ import annotations

import json

import numpy as np

from repro.cluster import ServingCluster
from repro.cluster.worker import WorkerRuntime
from repro.obs.registry import MetricsRegistry, use_registry

from . import check
from .measure import (
    closed_loop, end_to_end_metrics, per_round, timed, well_formed,
)
from .stats import peak_rss_mb
from .streams import STREAM, request_stream
from .trace import SpanRecorder
from .world import (
    FULL, TOP_K, WORKERS, Scale, cluster_config, generate_source,
)

__all__ = ["run", "trace"]

CLIENTS = 2
SLOW_MS = 50.0


def _payload(request) -> dict:
    return {"user_id": request[0], "day": request[1], "k": TOP_K}


def _send(connection, request) -> dict:
    return connection.recommend(_payload(request))


def _accept(request, reply) -> bool:
    return not reply["degraded"] and well_formed(
        [flight["score"] for flight in reply["flights"]], TOP_K
    )


def _worker_pids(cluster) -> list[int]:
    return [process.pid for process in cluster.processes.values()]


def _start_cluster(seed: int, scale: Scale, first_request):
    """A cluster that has answered its first request successfully."""
    cluster = ServingCluster(cluster_config(seed, scale))
    try:
        cluster.start()
        client = cluster.client()
        try:
            reply = _send(client, first_request)
        finally:
            client.close()
        if not _accept(first_request, reply):
            raise RuntimeError(f"first request failed: {reply}")
    except BaseException:
        cluster.shutdown()
        raise
    return cluster


def _replica(seed: int, scale: Scale) -> WorkerRuntime:
    """An in-harness copy of a worker: the reference for replies, never
    on the measured path (replicas are deterministic in the seed)."""
    return WorkerRuntime(cluster_config(seed, scale), worker_id=0)


def _set_up(seed: int, scale: Scale):
    """The request streams, then the cluster, ``setup_repeats`` times;
    the last one stays up."""
    # The workers' own world, generated once more here for the streams.
    points = generate_source(seed, scale.users, scale.cities).test_points
    streams = {
        salt: request_stream(points, seed, salt, length)
        for salt, length in (
            ("setup", 1),
            ("warmup", scale.warmup_gateway),
            ("measured", scale.stream_length),
            ("check", scale.check_sample),
            ("peel", scale.stream_length),
        )
    }
    del points
    setups_s = []
    cluster = None
    for _ in range(scale.setup_repeats):
        if cluster is not None:
            cluster.shutdown()
        cluster, elapsed = timed(
            lambda: _start_cluster(seed, scale, streams["setup"][0])
        )
        setups_s.append(elapsed)
    return streams, cluster, setups_s


def run(seed: int, seconds: float, scale: Scale = FULL) -> dict:
    with use_registry(MetricsRegistry()):
        streams, cluster, setups_s = _set_up(seed, scale)
        try:
            connections = [cluster.client() for _ in range(CLIENTS)]
            pids = _worker_pids(cluster)
            for request in streams["warmup"]:
                _send(connections[0], request)
            loop = closed_loop(
                [
                    (lambda request, c=connection: _send(c, request),
                     _accept, streams["measured"][index::CLIENTS])
                    for index, connection in enumerate(connections)
                ],
                seconds, worker_pids=pids,
            )
            # Memory is read before the reference replica exists: it is
            # a third copy of the model, and none of the system's.
            metrics = end_to_end_metrics(loop, setups_s, worker_pids=pids)
            harness_rss_mb = peak_rss_mb()
            problems = check.check_gateway_replies(
                lambda request: _send(connections[0], request),
                _replica(seed, scale).recommender, streams["check"], TOP_K,
            )
            for connection in connections:
                connection.close()
        finally:
            cluster.shutdown()
    return {
        "correct": not problems and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
        "problems": problems,
        "extras": {
            "stream": STREAM,
            "clients": CLIENTS,
            "workers": WORKERS,
            "measured_operations": loop.succeeded,
            "setup_samples_s": setups_s,
            "per_round": per_round(loop),
            # peak_rss_mb is the sum of these two
            "harness_peak_rss_mb": harness_rss_mb,
            "workers_peak_rss_mb": metrics["peak_rss_mb"][0] - harness_rss_mb,
        },
    }


# ----------------------------------------------------------------------
# Traced run: the hop peel
# ----------------------------------------------------------------------
def _timed(recorder: SpanRecorder, name: str, call, requests) -> list:
    replies = []
    for index, request in enumerate(requests):
        with recorder.span(name, index):
            replies.append(call(request))
    return replies


def trace(seed: int, seconds: float, recorder: SpanRecorder,
          scale: Scale = FULL) -> dict:
    """Peel the request path hop by hop on one sequential sample.

    Each path runs the same requests in the same order, one at a time;
    a hop's cost is the difference between the path with it and the path
    without.  The differences are of *medians*: a handful of slow
    requests (hedges, a scheduler hiccup) would swamp a difference of
    means, and ``gateway.slow_share`` counts those on its own.
    """
    sample = max(20, int(25 * seconds))
    with use_registry(MetricsRegistry()):
        streams, cluster, _ = _set_up(seed, scale)
        try:
            replica = _replica(seed, scale)
            gateway = cluster.gateway
            client = cluster.client()
            for request in streams["warmup"]:
                _send(client, request)
            peel = streams["peel"][:sample]

            before = gateway.cluster_health()["gateway"]
            replies = _timed(
                recorder, "client.recommend",
                lambda r: _send(client, r), peel,
            )
            after = gateway.cluster_health()["gateway"]
            _timed(recorder, "gateway.recommend",
                   lambda r: gateway.recommend(_payload(r)), peel)
            _timed(
                recorder, "workerclient.recommend",
                lambda r: _send(gateway.route_order(r[0])[0].client, r), peel,
            )
            _timed(recorder, "hashring.route_order",
                   lambda r: gateway.route_order(r[0]), peel)
            # The replica saw none of these requests yet: serve them once
            # so its encoded-point cache is as warm as the workers'.
            for request in peel:
                replica.handle_recommend(_payload(request))
            handled = _timed(
                recorder, "worker.handle_recommend",
                lambda r: replica.handle_recommend(_payload(r)), peel,
            )
            _timed(
                recorder, "platform.recommend",
                lambda r: replica.recommender.recommend(r[0], r[1], k=TOP_K),
                peel,
            )
            client.close()
        finally:
            cluster.shutdown()

    def median(name: str) -> float:
        return float(np.median(recorder.durations_ms(name)))

    failed = sum(not _accept(None, reply) for reply in replies)
    failed += sum(status != 200 for status, _ in handled)
    client_ms = np.array(recorder.durations_ms("client.recommend"))
    routed = np.bincount(
        [reply["routed_worker"] for reply in replies], minlength=WORKERS
    )
    hedged = after["hedged"] - before["hedged"]
    metrics = {
        "client.recommend_ms": (median("client.recommend"), "ms"),
        "gateway.recommend_ms": (median("gateway.recommend"), "ms"),
        "wire.client_gateway_ms": (
            median("client.recommend") - median("gateway.recommend"), "ms"),
        "workerclient.recommend_ms": (median("workerclient.recommend"), "ms"),
        "gateway.route_self_ms": (
            median("gateway.recommend") - median("workerclient.recommend"),
            "ms"),
        "worker.handle_recommend_ms":
            (median("worker.handle_recommend"), "ms"),
        "wire.gateway_worker_ms": (
            median("workerclient.recommend")
            - median("worker.handle_recommend"), "ms"),
        "platform.recommend_ms": (median("platform.recommend"), "ms"),
        "worker.serialize_self_ms": (
            median("worker.handle_recommend") - median("platform.recommend"),
            "ms"),
        "hashring.route_order_us":
            (median("hashring.route_order") * 1000.0, "us"),
        "wire.request_bytes": (float(np.mean(
            [len(json.dumps(_payload(r))) for r in peel])), "bytes"),
        "wire.response_bytes": (float(np.mean(
            [len(json.dumps(reply)) for reply in replies])), "bytes"),
        "gateway.attempts_per_request": (float(np.mean(
            [reply["attempts"] for reply in replies])), "count"),
        "gateway.hedged_share": (hedged / len(peel), "share"),
        "gateway.hedge_win_share": (
            (after["hedge_wins"] - before["hedge_wins"]) / hedged
            if hedged else 0.0, "share"),
        "gateway.retried": (after["retried"] - before["retried"], "count"),
        "gateway.rejected": (after["rejected"] - before["rejected"], "count"),
        "gateway.route_skew": (float(routed.max() / routed.mean()), "ratio"),
        "gateway.slow_share":
            (float(np.mean(client_ms > SLOW_MS)), "share"),
    }
    return {
        "correct": failed == 0,
        "attempted": 2 * len(peel),
        "failed": failed,
        "metrics": metrics,
        "problems": [f"{failed} traced requests failed"] if failed else [],
        "extras": {"stream": STREAM, "peel_sample": len(peel)},
    }
