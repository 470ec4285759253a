"""Crash supervision: detect dead/wedged workers, replace them, budget it.

The :class:`ClusterSupervisor` runs one :meth:`tick` per
``supervise_interval_s`` from a daemon thread in the gateway process and
watches every worker slot through two independent signals:

- **process liveness** — ``Process.is_alive()`` / ``exitcode``.  Catches
  the loud deaths: SIGKILL, segfault (``os._exit`` in the chaos drill),
  OOM-kill.
- **heartbeat staleness** — a ``health`` probe per
  ``heartbeat_interval_s`` under a hard ``heartbeat_timeout_s`` socket
  deadline.  A worker with no *successful* probe for
  ``heartbeat_stale_s`` is **wedged**: the process is alive (a
  SIGSTOP'd one even completes TCP handshakes off the listen backlog)
  but it will never answer.  Liveness alone cannot see this.

Detection excludes the worker at the gateway immediately (routing and
hedging flow to the replicas) and schedules a replacement under the
slot's :class:`RestartBudget`: the delay before respawn number *n* is
``restart_backoff_s * 2**n`` capped at ``restart_backoff_max_s``, and
after ``restart_budget`` replacements the slot is **abandoned** — its
ring segment remaps to the surviving replicas and the cluster keeps
serving smaller.  That is the crash-loop endgame: a replica that dies
deterministically on arrival must not consume the cluster's attention
forever.

A replacement is a fresh deterministic replica (same seed → same
weights) spliced in under the dead worker's ring name — zero placement
remap — with a **fresh breaker and zero failure history**: the new
process is not guilty of its predecessor's crimes.

Observability (gateway-process registry):

- ``cluster.worker_deaths`` — detections, aggregate and per
  ``worker``/``reason`` (``crash`` / ``wedged``);
- ``cluster.worker_restarts`` — successful replacements, aggregate and
  per ``worker``;
- ``cluster.worker_abandoned`` — slots whose restart budget ran out.
"""

from __future__ import annotations

import threading
import time

from ..obs.registry import get_registry
from .config import ClusterConfig

__all__ = ["RestartBudget", "ClusterSupervisor"]


class RestartBudget:
    """Exponential-backoff replacement allowance for one worker slot."""

    def __init__(self, budget: int, backoff_s: float, backoff_max_s: float):
        self.budget = budget
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self.used = 0

    @property
    def exhausted(self) -> bool:
        return self.used >= self.budget

    def next_delay_s(self) -> float | None:
        """Backoff before the next replacement, or ``None`` when the
        budget is spent and the slot should be abandoned."""
        if self.exhausted:
            return None
        return min(self.backoff_s * (2 ** self.used), self.backoff_max_s)

    def consume(self) -> None:
        self.used += 1


class ClusterSupervisor:
    """Watches a :class:`~repro.cluster.manager.ServingCluster`'s workers.

    The loop thread only ever calls :meth:`tick`; everything interesting
    is in the tick so unit tests can drive detection, backoff, and
    abandonment against fakes with a scripted clock.
    """

    def __init__(self, cluster, config: ClusterConfig | None = None,
                 time_source=time.monotonic):
        self.cluster = cluster
        self.config = config or cluster.config
        self.time_source = time_source
        self.restarts = 0
        self.abandoned: list[int] = []
        self._budgets: dict[int, RestartBudget] = {}
        self._last_heartbeat: dict[int, float] = {}
        self._last_probe: dict[int, float] = {}
        #: worker_id -> earliest time the scheduled respawn may run
        self._pending: dict[int, float] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-cluster-supervisor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)

    def _run(self) -> None:
        while not self._stop.wait(self.config.supervise_interval_s):
            try:
                self.tick()
            except Exception:
                # The supervisor must outlive any single bad tick — a
                # replacement that failed is rescheduled by the budget
                # machinery, not by crashing the watchdog.
                pass

    # ------------------------------------------------------------------
    def _budget(self, worker_id: int) -> RestartBudget:
        if worker_id not in self._budgets:
            self._budgets[worker_id] = RestartBudget(
                self.config.restart_budget,
                self.config.restart_backoff_s,
                self.config.restart_backoff_max_s,
            )
        return self._budgets[worker_id]

    def tick(self) -> None:
        """One supervision pass over every slot still on the ring."""
        gateway = self.cluster.gateway
        if gateway is None:
            return
        now = self.time_source()
        with gateway._members_lock:
            handles = list(gateway.handles)
        for handle in handles:
            worker_id = handle.worker_id
            if worker_id in self.abandoned:
                continue
            if worker_id in self._pending:
                if now >= self._pending[worker_id]:
                    self._respawn(gateway, worker_id, now)
                continue
            reason = self._detect(handle, now)
            if reason is not None:
                self._on_death(gateway, handle, reason, now)

    def _detect(self, handle, now: float) -> str | None:
        """``crash`` (process dead), ``wedged`` (heartbeats stale), or
        ``None`` (healthy as far as we can tell)."""
        process = self.cluster.process_for(handle.worker_id)
        if process is not None and not process.is_alive():
            return "crash"
        worker_id = handle.worker_id
        if worker_id not in self._last_heartbeat:
            # First sight of this slot: grant a full staleness window.
            self._last_heartbeat[worker_id] = now
        if now - self._last_probe.get(worker_id, float("-inf")) \
                >= self.config.heartbeat_interval_s:
            self._last_probe[worker_id] = now
            try:
                health = handle.client.health(
                    timeout_s=self.config.heartbeat_timeout_s
                )
            except Exception:
                pass  # staleness, not one missed probe, declares a wedge
            else:
                if health.get("ready") or health.get("state") is not None:
                    self._last_heartbeat[worker_id] = now
        if now - self._last_heartbeat[worker_id] \
                > self.config.heartbeat_stale_s:
            return "wedged"
        return None

    def _on_death(self, gateway, handle, reason: str, now: float) -> None:
        worker_id = handle.worker_id
        registry = get_registry()
        registry.counter("cluster.worker_deaths").inc()
        registry.counter(
            "cluster.worker_deaths",
            labels={"worker": handle.name, "reason": reason},
        ).inc()
        # Stop routing to the corpse right away; replacement (or the
        # breaker, until the exclusion lands) keeps requests flowing.
        gateway.exclude(worker_id)
        self._schedule(gateway, worker_id, now)

    def _schedule(self, gateway, worker_id: int, now: float) -> None:
        budget = self._budget(worker_id)
        delay = budget.next_delay_s()
        if delay is None:
            self._abandon(gateway, worker_id)
            return
        budget.consume()
        self._pending[worker_id] = now + delay

    def _respawn(self, gateway, worker_id: int, now: float) -> None:
        del self._pending[worker_id]
        try:
            client = self.cluster.respawn_worker(worker_id)
        except Exception:
            # The replacement itself failed to come up (it may have
            # crashed during construction).  Charge the budget again and
            # back off further — or abandon, if that was the last token.
            self._schedule(gateway, worker_id, self.time_source())
            return
        gateway.replace_worker(worker_id, client)
        self._last_heartbeat[worker_id] = self.time_source()
        self._last_probe.pop(worker_id, None)
        self.restarts += 1
        registry = get_registry()
        registry.counter("cluster.worker_restarts").inc()
        registry.counter(
            "cluster.worker_restarts", labels={"worker": f"w{worker_id}"}
        ).inc()

    def _abandon(self, gateway, worker_id: int) -> None:
        self.abandoned.append(worker_id)
        registry = get_registry()
        registry.counter("cluster.worker_abandoned").inc()
        registry.counter(
            "cluster.worker_abandoned", labels={"worker": f"w{worker_id}"}
        ).inc()
        try:
            gateway.remove_worker(worker_id)
        except (KeyError, RuntimeError):
            # Already gone, or it is the last worker on the ring — in
            # which case it stays (excluded) rather than emptying the
            # cluster; an operator decides what happens next.
            pass

    # ------------------------------------------------------------------
    def status(self) -> dict:
        """Snapshot for health endpoints and drill reports."""
        return {
            "restarts": self.restarts,
            "abandoned": sorted(self.abandoned),
            "pending": sorted(self._pending),
            "budget_used": {
                f"w{worker_id}": budget.used
                for worker_id, budget in sorted(self._budgets.items())
            },
        }
