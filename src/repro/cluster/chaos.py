"""Process-level chaos drills against a live cluster.

:class:`ProcessChaos` is the hand on the switch: ``kill`` (SIGKILL — an
OOM-kill or segfault as seen from outside), ``freeze``/``thaw``
(SIGSTOP/SIGCONT — the *wedged* worker, still alive, still completing
TCP handshakes off its listen backlog, never answering).  Together with
the crash-on-Nth-request fault site armed by
``ClusterConfig.crash_after_requests`` (see
:mod:`repro.cluster.worker`), these are the three deaths the supervisor
is drilled against.

:func:`run_chaos_drill` is the scripted drill behind
``python -m repro chaos --cluster``: continuous client traffic against
the gateway while a worker is SIGKILLed and another is SIGSTOP'd,
holding until the supervisor has replaced both.  The contract the
report witnesses — and the command's exit code holds — is traffic that
flowed, **zero lost requests** (degraded 200s are acceptable,
client-visible errors are not) and both victims replaced.
"""

from __future__ import annotations

import os
import signal
import threading
import time

from ..obs.registry import get_registry
from .client import WorkerClient
from .config import ClusterConfig
from .manager import ServingCluster

__all__ = [
    "ProcessChaos",
    "ChaosDrillReport",
    "chaos_cluster_config",
    "run_chaos_drill",
]


class ProcessChaos:
    """Inflict process-level failures on a running cluster's workers."""

    def __init__(self, cluster: ServingCluster):
        self.cluster = cluster

    def _pid(self, worker_id: int) -> int:
        process = self.cluster.process_for(worker_id)
        if process is None or process.pid is None:
            raise ValueError(f"no live process for worker w{worker_id}")
        return process.pid

    def kill(self, worker_id: int) -> None:
        """SIGKILL: the loud death.  No cleanup, no goodbye — exactly an
        OOM-kill.  Detected via ``Process.is_alive()``."""
        os.kill(self._pid(worker_id), signal.SIGKILL)

    def freeze(self, worker_id: int) -> None:
        """SIGSTOP: the quiet death.  The process stays *alive*; only the
        heartbeat staleness deadline can see it."""
        os.kill(self._pid(worker_id), signal.SIGSTOP)

    def thaw(self, worker_id: int) -> None:
        """SIGCONT a frozen worker (useful in tests; the supervisor
        normally replaces it before anyone thinks to thaw)."""
        os.kill(self._pid(worker_id), signal.SIGCONT)


class ChaosDrillReport(dict):
    """The drill's JSON-ready report (a plain dict with two accessors)."""

    @property
    def lost(self) -> int:
        return self["traffic"]["lost"]

    @property
    def restarts(self) -> int:
        return self["supervisor"]["restarts"]


def chaos_cluster_config(seed: int = 0, num_workers: int = 3) -> ClusterConfig:
    """A drill-sized cluster with aggressive supervision timings.

    Heartbeats every 250ms with a 1s staleness deadline and ~100ms
    supervision ticks: a frozen worker is detected, replaced, and back
    in the ring in low single-digit seconds, which keeps the drill (and
    the CI smoke) fast without changing any mechanism under test.
    """
    return ClusterConfig(
        num_workers=num_workers,
        num_users=300,
        num_cities=30,
        seed=seed,
        request_timeout_s=5.0,
        supervise=True,
        supervise_interval_s=0.1,
        heartbeat_interval_s=0.25,
        heartbeat_timeout_s=0.75,
        heartbeat_stale_s=1.0,
        restart_budget=3,
        restart_backoff_s=0.2,
        restart_backoff_max_s=2.0,
        hedge_delay_ms=50.0,
        breaker_recovery_s=0.5,
    )


def _counter_by_reason(registry, name: str) -> dict[str, float]:
    totals: dict[str, float] = {}
    for counter in registry.counters:
        if counter.name == name and "reason" in counter.labels:
            reason = counter.labels["reason"]
            totals[reason] = totals.get(reason, 0.0) + counter.value
    return totals


def run_chaos_drill(
    config: ClusterConfig | None = None,
    concurrency: int = 4,
    min_requests_between_events: int = 25,
    settle_timeout_s: float = 60.0,
) -> ChaosDrillReport:
    """SIGKILL one worker and SIGSTOP another under continuous traffic.

    Sequence: establish traffic -> ``kill`` the first worker -> wait for
    its automatic replacement -> ``freeze`` the second -> wait for the
    wedge to be detected and replaced -> let traffic settle -> report.
    Raises nothing on a failed invariant — the report carries the
    numbers and the caller (the CLI) decides.
    """
    config = config or chaos_cluster_config()
    stop = threading.Event()
    counts = {"requests": 0, "ok": 0, "degraded": 0, "lost": 0}
    counts_lock = threading.Lock()
    errors: list[str] = []
    events: list[dict] = []

    with ServingCluster(config) as cluster:
        host, port = cluster.gateway_address
        supervisor = cluster.supervisor
        chaos = ProcessChaos(cluster)
        registry = get_registry()

        def pound() -> None:
            # A generous client-side deadline: the *gateway* owns tail
            # latency (hedging + per-attempt deadlines); the drill client
            # must outwait the gateway's worst case, not race it.
            client = WorkerClient(
                host, port, timeout_s=config.request_timeout_s * 4 + 5.0
            )
            index = 0
            while not stop.is_set():
                payload = {"user_id": index % config.num_users, "day": 720}
                index += 1
                try:
                    response = client.recommend(payload)
                except Exception as exc:
                    with counts_lock:
                        counts["requests"] += 1
                        counts["lost"] += 1
                    if len(errors) < 5:
                        errors.append(f"{type(exc).__name__}: {exc}")
                else:
                    with counts_lock:
                        counts["requests"] += 1
                        counts["ok"] += 1
                        if response.get("degraded"):
                            counts["degraded"] += 1
            client.close()

        def requests_seen() -> int:
            with counts_lock:
                return counts["requests"]

        def wait_for(predicate, what: str) -> bool:
            deadline = time.monotonic() + settle_timeout_s
            while time.monotonic() < deadline:
                if predicate():
                    return True
                time.sleep(0.02)
            events.append({"event": "timeout", "waiting_for": what})
            return False

        threads = [
            threading.Thread(target=pound, daemon=True,
                             name=f"repro-chaos-client-{i}")
            for i in range(concurrency)
        ]
        for thread in threads:
            thread.start()
        try:
            wait_for(
                lambda: requests_seen() >= min_requests_between_events,
                "initial traffic",
            )

            kill_target = cluster.handles[0].worker_id
            events.append({
                "event": "kill", "signal": "SIGKILL",
                "worker_id": kill_target, "at_requests": requests_seen(),
            })
            chaos.kill(kill_target)
            wait_for(
                lambda: supervisor.restarts >= 1, "replacement after kill"
            )
            events.append({
                "event": "replaced", "worker_id": kill_target,
                "at_requests": requests_seen(),
            })

            baseline = requests_seen()
            wait_for(
                lambda: requests_seen()
                >= baseline + min_requests_between_events,
                "traffic between events",
            )

            freeze_target = cluster.handles[1].worker_id
            events.append({
                "event": "freeze", "signal": "SIGSTOP",
                "worker_id": freeze_target, "at_requests": requests_seen(),
            })
            chaos.freeze(freeze_target)
            wait_for(
                lambda: supervisor.restarts >= 2, "replacement after freeze"
            )
            events.append({
                "event": "replaced", "worker_id": freeze_target,
                "at_requests": requests_seen(),
            })

            settle = requests_seen()
            wait_for(
                lambda: requests_seen()
                >= settle + min_requests_between_events,
                "settle traffic",
            )
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=15.0)

        supervisor_status = supervisor.status()
        gateway_counters = {
            name: registry.counter(f"gateway.{name}").value
            for name in ("routed", "spilled", "retried", "hedged",
                         "hedge_wins", "breaker_forced", "rejected")
        }
        deaths = _counter_by_reason(registry, "cluster.worker_deaths")
        restarts_counter = registry.counter("cluster.worker_restarts").value

    with counts_lock:
        traffic = dict(counts)
    traffic["errors"] = errors
    return ChaosDrillReport({
        "benchmark": "chaos",
        "workers": config.num_workers,
        "traffic": traffic,
        "events": events,
        "supervisor": supervisor_status,
        "deaths": deaths,
        "worker_restarts": restarts_counter,
        "gateway": gateway_counters,
    })
