"""The cluster's front door: route, retry, hedge, heal, aggregate health.

The :class:`Gateway` owns a :class:`~repro.cluster.hashring.ConsistentHashRing`
giving every user id a preference order over the workers, and sends a
request to the replica with the fewest requests *in flight*, the ring's
order breaking ties — the user's owner whenever it is no busier than
anyone else.  A request walks down that candidate list whenever a
worker is excluded (being rolled), its circuit breaker is open, or the
call comes back unavailable (connection failure, timeout, or a 503 from
a draining/not-ready worker).  Because every replica is model-identical,
a retry is invisible to the caller — this is what makes the rolling
drain zero-downtime.

**Hedged requests.** A slow attempt is not waited out: after a hedge
delay (the p95 of the last :data:`HEDGE_WINDOW` attempt latencies once
enough samples exist, else a static default) the gateway races *one*
extra replica and takes the first success.  Attempts are requests
written to sockets the request thread polls — no thread per attempt —
and the loser is abandoned (its connection closed).  A primary that
loses to its hedge records a breaker *failure*, so a wedged worker
costs one hedge delay a request until its breaker opens, not a full
per-attempt timeout.

**Self-healing membership.** The supervisor splices replacements in
with :meth:`Gateway.replace_worker` (same ring name → zero remap; the
breaker starts closed with no failure history) and shrinks the ring
with :meth:`Gateway.remove_worker` when a crash-looping slot exhausts
its restart budget.  If every live replica's breaker is open the
gateway force-probes the preferred one instead of refusing — a total
lockout heals on the next healthy response, not on a timer.

Observability (all in the gateway process's registry):

- ``gateway.routed`` — successful proxies, aggregate and per-``worker``;
- ``gateway.spilled`` — requests sent past their ring owner to a less
  loaded replica;
- ``gateway.retried`` — sequential attempts after a failure;
- ``gateway.hedged`` / ``gateway.hedge_wins`` — races started after the
  hedge delay / races the hedge attempt won;
- ``gateway.breaker_forced`` — probes forced through an all-breakers-open
  lockout;
- ``gateway.worker_unready`` — candidates skipped or failed, labelled by
  ``worker`` and ``reason`` (``excluded`` / ``breaker_open`` /
  ``unavailable``);
- ``gateway.rejected`` — requests no replica could take;
- ``gateway.inflight`` (gauge) — requests currently inside the gateway;
- ``gateway.latency_ms`` (histogram) — successful attempt latency.

:class:`GatewayServer` exposes the gateway over the frames the workers
speak (:mod:`repro.cluster.wire`): the ``recommend`` and ``health`` verbs.
"""

from __future__ import annotations

import collections
import operator
import select
import threading
import time

import numpy as np

from ..obs.registry import get_registry
from ..resilience import CircuitBreaker
from .client import WorkerClient, WorkerUnavailable
from .config import ClusterConfig
from .hashring import ConsistentHashRing
from .wire import BadRequest, FrameServer, recommend_request

__all__ = ["GatewayError", "WorkerHandle", "Gateway", "GatewayServer"]

#: The hedge delay is the p95 of this many most recent attempt latencies,
#: recomputed once per HEDGE_REFRESH observations.
HEDGE_WINDOW = 1024
HEDGE_REFRESH = 64
_IN_FLIGHT = operator.attrgetter("in_flight")


class GatewayError(RuntimeError):
    """Every replica refused or failed this request."""


class WorkerHandle:
    """Gateway-side view of one worker: client, breaker, live load."""

    def __init__(self, worker_id: int, client, config: ClusterConfig):
        self.worker_id = worker_id
        self.name = f"w{worker_id}"
        self.client = client
        self.config = config
        self.excluded = False
        self.breaker = self._fresh_breaker()
        self._lock = threading.Lock()
        self._in_flight = 0

    def _fresh_breaker(self) -> CircuitBreaker:
        return CircuitBreaker(
            f"gateway.{self.name}",
            window=self.config.breaker_window,
            failure_threshold=self.config.breaker_threshold,
            min_calls=self.config.breaker_min_calls,
            recovery_s=self.config.breaker_recovery_s,
        )

    def reset_breaker(self) -> None:
        """Forget accumulated failures (a readmitted worker starts clean)."""
        self.breaker = self._fresh_breaker()

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return self._in_flight

    def begin(self) -> None:
        with self._lock:
            self._in_flight += 1

    def end(self) -> None:
        with self._lock:
            self._in_flight -= 1


class Gateway:
    """Routes requests across worker replicas; owns exclude/readmit."""

    def __init__(self, handles: list[WorkerHandle], config: ClusterConfig):
        if not handles:
            raise ValueError("gateway needs at least one worker handle")
        self.config = config
        self.handles = list(handles)
        self._by_name = {handle.name: handle for handle in self.handles}
        self.ring = ConsistentHashRing(
            [handle.name for handle in self.handles], vnodes=config.vnodes
        )
        # Guards membership (handles / _by_name / ring): the supervisor
        # splices and removes workers while request threads route.
        self._members_lock = threading.RLock()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._latencies = collections.deque(maxlen=HEDGE_WINDOW)
        self._observed = 0
        self._latency_lock = threading.Lock()
        self._hedge_delay_ms = config.hedge_delay_ms

    # ------------------------------------------------------------------
    def worker(self, worker_id: int) -> WorkerHandle:
        with self._members_lock:
            handle = self._by_name.get(f"w{worker_id}")
        if handle is None:
            raise KeyError(f"no worker w{worker_id}")
        return handle

    def _ring_order(self, user_id) -> list[WorkerHandle]:
        with self._members_lock:
            names = self.ring.preference(
                user_id, [handle.name for handle in self.handles]
            )
            return [self._by_name[name] for name in names]

    def route_order(self, user_id) -> list[WorkerHandle]:
        """The ring's preference order, stably sorted by requests in
        flight: least loaded first, the owner wherever it ties."""
        return sorted(self._ring_order(user_id), key=_IN_FLIGHT)

    # ------------------------------------------------------------------
    def recommend(self, payload: dict) -> dict:
        """Proxy one ranking request; raises :class:`GatewayError` only
        when every replica is unavailable, and
        :class:`~repro.cluster.wire.BadRequest` for a payload
        :func:`~repro.cluster.wire.recommend_request` refuses here or a
        worker refused."""
        recommend_request(payload, self.config.default_k)
        registry = get_registry()
        with self._inflight_lock:
            self._inflight += 1
            registry.gauge("gateway.inflight").set(self._inflight)
        try:
            return self._recommend_with_retries(payload, registry)
        finally:
            with self._inflight_lock:
                self._inflight -= 1
                registry.gauge("gateway.inflight").set(self._inflight)

    def _hedge_delay_s(self) -> float | None:
        """How long the primary attempt gets before a replica is raced:
        the windowed p95 of attempt latency once ``hedge_min_samples``
        are in (floored at ``hedge_min_delay_ms``), else the static
        ``hedge_delay_ms``.  ``None`` disables hedging."""
        if not self.config.hedge_enabled:
            return None
        return self._hedge_delay_ms / 1000.0

    def _observe_latency(self, registry, latency_ms: float) -> None:
        registry.histogram("gateway.latency_ms").observe(latency_ms)
        with self._latency_lock:
            self._latencies.append(latency_ms)
            self._observed += 1
            if self._observed % HEDGE_REFRESH \
                    or self._observed < self.config.hedge_min_samples:
                return
            window = list(self._latencies)
        self._hedge_delay_ms = max(
            float(np.percentile(window, 95)), self.config.hedge_min_delay_ms
        )

    def _recommend_with_retries(self, payload: dict, registry) -> dict:
        """The hedged attempt ladder, all of it on the request thread.

        Send to the first candidate; if it is still pending after the
        hedge delay, race one replica (``gateway.hedged``) and take the
        first success.  A *failed* attempt advances down the candidate
        list immediately (``gateway.retried``).  Skips consume no
        half-open breaker probes: ``allow()`` is only asked at the
        moment an attempt actually launches.
        """
        ring_order = self._ring_order(payload["user_id"])
        order = sorted(ring_order, key=_IN_FLIGHT)
        if order and order[0] is not ring_order[0]:
            registry.counter("gateway.spilled").inc()
        position = 0
        breaker_skipped: list[WorkerHandle] = []
        state = {"last_reason": "no_candidates"}

        def next_ready() -> WorkerHandle | None:
            nonlocal position
            while position < len(order):
                handle = order[position]
                position += 1
                if handle.excluded:
                    self._skip(registry, handle, "excluded")
                    state["last_reason"] = "excluded"
                    continue
                if not handle.breaker.allow():
                    self._skip(registry, handle, "breaker_open")
                    state["last_reason"] = "breaker_open"
                    breaker_skipped.append(handle)
                    continue
                return handle
            return None

        timeout_s = self.config.request_timeout_s
        poller = select.poll()
        #: fileno -> (attempt, handle, started, hedged): sent, unanswered
        pending: dict[int, tuple] = {}
        launched = 0
        hedges = 0

        def launch(handle: WorkerHandle, hedged: bool) -> None:
            nonlocal launched
            launched += 1
            # Counted before the bytes leave: the next request is routed
            # while this one is on the wire and must see it.
            handle.begin()
            try:
                attempt = handle.client.begin(payload, timeout_s=timeout_s)
            except BaseException as exc:
                handle.end()
                if not isinstance(exc, WorkerUnavailable):
                    raise
                failed(handle, exc.reason)
                return
            pending[attempt.fileno()] = (
                attempt, handle, time.perf_counter(), hedged
            )
            poller.register(attempt, select.POLLIN)

        def failed(handle: WorkerHandle, reason: str) -> None:
            handle.breaker.record_failure()
            self._skip(registry, handle, "unavailable")
            state["last_reason"] = reason
            if not pending:
                replacement = next_ready()
                if replacement is not None:
                    registry.counter("gateway.retried").inc()
                    launch(replacement, hedged=False)

        def started_at(fileno: int) -> float:
            return pending[fileno][2]

        def settle(fileno: int) -> tuple:
            """One attempt out of flight, whatever becomes of it."""
            entry = pending.pop(fileno)
            poller.unregister(fileno)
            entry[1].end()
            return entry

        first = next_ready()
        if first is None and breaker_skipped:
            # Total lockout: every live replica's breaker is open.
            # Refusing would turn a transient blip into a standing
            # outage, so force one probe through the preferred skipped
            # worker — its breaker records the outcome either way, and
            # one healthy response starts closing the loop.
            first = breaker_skipped[0]
            registry.counter("gateway.breaker_forced").inc()
        try:
            if first is not None:
                launch(first, hedged=False)
            while pending:
                expires = min(map(started_at, pending)) + timeout_s
                wait_s = expires - time.perf_counter()
                hedge_s = self._hedge_delay_s() if hedges == 0 else None
                if hedge_s is not None:
                    wait_s = min(wait_s, hedge_s)
                # poll, not select.select: that one fails on any
                # descriptor numbered 1024 or above.
                ready = poller.poll(max(wait_s, 0.0) * 1000.0)
                if not ready and time.perf_counter() < expires:
                    # The attempt in flight is slow: race one replica.
                    hedges += 1   # at most one race per request
                    backup = next_ready()
                    if backup is not None:
                        registry.counter("gateway.hedged").inc()
                        registry.counter(
                            "gateway.hedged", labels={"worker": backup.name}
                        ).inc()
                        launch(backup, hedged=True)
                    continue
                if not ready:
                    # The oldest attempt is past its deadline.
                    attempt, handle, _, _ = settle(min(pending, key=started_at))
                    attempt.abandon()
                    failed(handle, "deadline")
                # Oldest first: when both sides of a race have answered
                # the primary wins.
                for fileno in sorted(
                    (fileno for fileno, _ in ready), key=started_at
                ):
                    attempt, handle, started, hedged = settle(fileno)
                    try:
                        response = attempt.result()
                    except WorkerUnavailable as exc:
                        failed(handle, exc.reason)
                        continue
                    except BadRequest:
                        handle.breaker.record_success()  # it answered
                        raise
                    handle.breaker.record_success()
                    self._observe_latency(
                        registry, (time.perf_counter() - started) * 1000.0
                    )
                    if hedged:
                        registry.counter("gateway.hedge_wins").inc()
                        # The primary outlasted the hedge delay plus a
                        # whole replica round trip: that is a failure —
                        # what opens the breaker on a wedged worker.
                        for _, primary, _, raced in pending.values():
                            if not raced:
                                primary.breaker.record_failure()
                    registry.counter("gateway.routed").inc()
                    registry.counter(
                        "gateway.routed", labels={"worker": handle.name}
                    ).inc()
                    response["routed_worker"] = handle.worker_id
                    response["attempts"] = launched
                    return response
        finally:
            for fileno in list(pending):
                settle(fileno)[0].abandon()   # records nothing
        registry.counter("gateway.rejected").inc()
        raise GatewayError(
            f"no replica available after {launched} attempt(s) "
            f"(last: {state['last_reason']})"
        )

    @staticmethod
    def _skip(registry, handle: WorkerHandle, reason: str) -> None:
        registry.counter("gateway.worker_unready").inc()
        registry.counter(
            "gateway.worker_unready",
            labels={"worker": handle.name, "reason": reason},
        ).inc()

    # ------------------------------------------------------------------
    def exclude(self, worker_id: int) -> None:
        """Route traffic away from a worker (step 1 of a rolling drain)."""
        self.worker(worker_id).excluded = True

    def readmit(self, worker_id: int) -> None:
        """Route traffic back after a reload; the breaker starts clean."""
        handle = self.worker(worker_id)
        handle.reset_breaker()
        handle.excluded = False

    # ------------------------------------------------------------------
    def replace_worker(self, worker_id: int, client) -> None:
        """Splice a respawned replica into the dead worker's slot.

        The ring name is unchanged, so placement does not move — the
        replacement inherits exactly the users the dead worker owned.
        The breaker is rebuilt: a fresh process must not start life
        half-open because its predecessor died badly.
        """
        with self._members_lock:
            handle = self._by_name.get(f"w{worker_id}")
            if handle is None:
                raise KeyError(f"no worker w{worker_id}")
            old_client = handle.client
            handle.client = client
            handle.reset_breaker()
            handle.excluded = False
        try:
            old_client.close()
        except Exception:
            pass  # pooled sockets to a dead process; best effort

    def remove_worker(self, worker_id: int) -> None:
        """Shrink the ring: a slot whose restart budget is exhausted is
        abandoned and its keyspace remaps to the surviving replicas."""
        with self._members_lock:
            handle = self._by_name.pop(f"w{worker_id}", None)
            if handle is None:
                raise KeyError(f"no worker w{worker_id}")
            if len(self.handles) == 1:
                self._by_name[handle.name] = handle
                raise RuntimeError(
                    "refusing to remove the last worker from the ring"
                )
            self.handles.remove(handle)
            self.ring.remove(handle.name)
        try:
            handle.client.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def cluster_health(self) -> dict:
        """Aggregate per-worker health (live probes) + gateway counters."""
        registry = get_registry()
        per_worker: dict[str, dict] = {}
        ready = 0
        with self._members_lock:
            handles = list(self.handles)
        for handle in handles:
            try:
                health = handle.client.health(
                    timeout_s=self.config.health_timeout_s
                )
            except Exception as exc:
                health = {"ready": False, "error": str(exc)}
            health["excluded"] = handle.excluded
            health["breaker"] = handle.breaker.state
            health["gateway_in_flight"] = handle.in_flight
            if health.get("ready") and not handle.excluded:
                ready += 1
            per_worker[handle.name] = health
        return {
            "workers": len(handles),
            "ready": ready,
            "per_worker": per_worker,
            "gateway": {
                "routed": registry.counter("gateway.routed").value,
                "spilled": registry.counter("gateway.spilled").value,
                "retried": registry.counter("gateway.retried").value,
                "hedged": registry.counter("gateway.hedged").value,
                "hedge_wins": registry.counter("gateway.hedge_wins").value,
                "breaker_forced":
                    registry.counter("gateway.breaker_forced").value,
                "worker_unready":
                    registry.counter("gateway.worker_unready").value,
                "rejected": registry.counter("gateway.rejected").value,
                "inflight": self._inflight,
            },
        }

    def handle_recommend(self, payload: dict) -> tuple[int, dict]:
        try:
            return 200, self.recommend(payload)
        except ValueError as exc:
            return 400, {"error": str(exc)}
        except GatewayError as exc:
            return 503, {"error": str(exc)}

    def handle_health(self, payload: dict) -> tuple[int, dict]:
        return 200, self.cluster_health()


class GatewayServer:
    """The gateway's own frame front (same dialect as the workers)."""

    def __init__(self, gateway: Gateway, host: str, port: int = 0):
        self.gateway = gateway
        self.server = FrameServer(host, {
            "recommend": gateway.handle_recommend,
            "health": gateway.handle_health,
        }, port=port)
        self.host, self.port = self.server.host, self.server.port

    def start(self) -> None:
        self.server.start_in_thread("repro-cluster-gateway")

    def stop(self) -> None:
        self.server.shutdown()

    def client(self) -> WorkerClient:
        """A pooled client pointed at this gateway (same dialect)."""
        return WorkerClient(
            self.host, self.port,
            timeout_s=self.gateway.config.request_timeout_s,
        )
